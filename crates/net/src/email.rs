//! A simulated store-and-forward email service.
//!
//! "It is well understood that email delivery is not guaranteed to be
//! reliable, and the unpredictable delivery time can range from seconds to
//! days" (§3.1). That sentence is this module's specification: Pareto-tailed
//! transit times, outright loss, and asynchronous mailbox deposit. Email is
//! SIMBA's *fallback* channel, so the model also exposes the new-mail
//! notification event that client software can miss ("potential loss of
//! new-email events", §4.2.1). The service keeps no mailbox contents: the
//! simulation's arrival event carries each message to its reader.

use crate::latency::LatencyModel;
use crate::loss::LossModel;
use crate::observe::ChannelScope;
use simba_sim::{SimDuration, SimRng, SimTime};
use simba_telemetry::Telemetry;

/// An email address.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EmailAddr(pub String);

impl EmailAddr {
    /// Convenience constructor.
    pub fn new(s: impl Into<String>) -> Self {
        EmailAddr(s.into())
    }
}

impl std::fmt::Display for EmailAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Unique id of one email message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EmailId(pub u64);

/// An email message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Email {
    /// Unique message id.
    pub id: EmailId,
    /// Sender address.
    pub from: EmailAddr,
    /// Recipient address.
    pub to: EmailAddr,
    /// Sender display name — alert keyword extraction reads this field for
    /// Yahoo!/Alerts.com-style alerts (§4.2 "Alert classification").
    pub sender_name: String,
    /// Subject line — MSN Mobile / desktop-assistant alerts carry keywords here.
    pub subject: String,
    /// Body text.
    pub body: String,
    /// When the message was submitted.
    pub sent_at: SimTime,
}

/// Result of submitting an email: it will arrive after `delay`, or it is
/// silently `lost` (the sender gets no bounce — worst-case email).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmailTransit {
    /// The accepted message.
    pub message: Email,
    /// Transit delay until mailbox deposit.
    pub delay: SimDuration,
    /// Whether the message is silently dropped in transit.
    pub lost: bool,
}

/// The simulated email service.
#[derive(Debug)]
pub struct EmailService {
    latency: LatencyModel,
    loss: LossModel,
    /// Probability that the new-mail notification event is lost even though
    /// the message was deposited (the client then only notices the mail on
    /// its next full mailbox poll — a §4.2.1 self-stabilization target).
    notify_loss: f64,
    next_id: u64,
    rng: SimRng,
    scope: ChannelScope,
}

impl EmailService {
    /// Creates a service with the paper-calibrated heavy-tail latency,
    /// 0.5 % silent loss, and 2 % new-mail-event loss.
    pub fn new(rng: SimRng) -> Self {
        EmailService {
            latency: LatencyModel::store_and_forward_email(),
            loss: LossModel::Bernoulli(0.005),
            notify_loss: 0.02,
            next_id: 0,
            rng,
            scope: ChannelScope::disabled("email"),
        }
    }

    /// Overrides the latency model.
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Overrides the loss model.
    #[must_use]
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Overrides the new-mail notification loss probability.
    #[must_use]
    pub fn with_notify_loss(mut self, p: f64) -> Self {
        self.notify_loss = p;
        self
    }

    /// Records sends, losses, and transit latency through `telemetry` under
    /// the `net.email.*` namespace.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.scope = ChannelScope::new("email", telemetry);
        self
    }

    /// Submits an email. Never fails synchronously — SMTP accepts and then
    /// loses/delays messages downstream, which is exactly why the paper
    /// rules email out for time-critical alerts.
    pub fn send(
        &mut self,
        from: &EmailAddr,
        to: &EmailAddr,
        sender_name: impl Into<String>,
        subject: impl Into<String>,
        body: impl Into<String>,
        now: SimTime,
    ) -> EmailTransit {
        let id = EmailId(self.next_id);
        self.next_id += 1;
        let message = Email {
            id,
            from: from.clone(),
            to: to.clone(),
            sender_name: sender_name.into(),
            subject: subject.into(),
            body: body.into(),
            sent_at: now,
        };
        let delay = self.latency.sample(&mut self.rng);
        let lost = self.loss.roll(&mut self.rng);
        self.scope.sent(now, delay, lost);
        EmailTransit { message, delay, lost }
    }

    /// Lands an in-transit message in its recipient's mailbox. Returns
    /// `true` if the new-mail notification event fires (the common case) or
    /// `false` if the deposit was silent (notification lost).
    pub fn deposit(&mut self) -> bool {
        self.scope.delivered(true);
        !self.rng.chance(self.notify_loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc() -> EmailService {
        EmailService::new(SimRng::new(1))
            .with_latency(LatencyModel::Constant(SimDuration::from_secs(10)))
            .with_loss(LossModel::None)
            .with_notify_loss(0.0)
    }

    fn addr(s: &str) -> EmailAddr {
        EmailAddr::new(s)
    }

    #[test]
    fn send_and_deposit_round_trip() {
        let mut s = svc();
        let transit = s.send(
            &addr("yahoo-alerts@alerts"),
            &addr("mab@home"),
            "Yahoo! Stocks",
            "MSFT crossed 80",
            "body",
            SimTime::ZERO,
        );
        assert!(!transit.lost);
        assert_eq!(transit.delay, SimDuration::from_secs(10));
        assert_eq!(transit.message.sender_name, "Yahoo! Stocks");
        assert_eq!(transit.message.subject, "MSFT crossed 80");
        assert!(s.deposit());
    }

    #[test]
    fn loss_marks_transit_lost() {
        let mut s = svc().with_loss(LossModel::Bernoulli(1.0));
        let t = s.send(&addr("a"), &addr("b"), "n", "s", "b", SimTime::ZERO);
        assert!(t.lost);
    }

    #[test]
    fn notify_loss_suppresses_notification() {
        let mut s = svc().with_notify_loss(1.0);
        s.send(&addr("a"), &addr("b"), "n", "s", "b", SimTime::ZERO);
        assert!(!s.deposit());
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let mut s = svc();
        let a = s.send(&addr("a"), &addr("b"), "n", "s", "b", SimTime::ZERO);
        let b = s.send(&addr("a"), &addr("b"), "n", "s", "b", SimTime::ZERO);
        assert!(b.message.id > a.message.id);
    }

    #[test]
    fn default_latency_is_heavy_tailed() {
        let mut s = EmailService::new(SimRng::new(7)).with_loss(LossModel::None);
        let delays: Vec<SimDuration> = (0..5_000)
            .map(|_| s.send(&addr("a"), &addr("b"), "n", "s", "b", SimTime::ZERO).delay)
            .collect();
        assert!(delays.iter().all(|d| d.as_secs() >= 8));
        assert!(delays.iter().any(|d| d.as_mins() >= 10), "no tail observed");
    }
}
