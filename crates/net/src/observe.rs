//! Channel-level telemetry: one [`ChannelScope`] per simulated service.
//!
//! The paper's evaluation (§5) is ultimately a statement about *channel
//! behavior* — IM latency under outages, email's seconds-to-days tail, SMS
//! coverage gaps. A `ChannelScope` gives each simulated substrate a uniform
//! way to record that behavior: `net.<channel>.sent` / `net.<channel>.rejected`
//! events, send/reject/loss counters, and a `net.<channel>.latency_ms`
//! histogram of sampled transit delays. Like everything in the telemetry
//! spine, timestamps are caller-supplied virtual time — a disabled scope
//! emits nothing and the services behave identically with or without one.

use simba_sim::{SimDuration, SimTime};
use simba_telemetry::{Event, Telemetry};

/// Telemetry for one named channel (`"im"`, `"email"`, `"sms"`).
#[derive(Debug, Clone)]
pub struct ChannelScope {
    telemetry: Telemetry,
    channel: &'static str,
}

impl ChannelScope {
    /// A scope that records nothing (the default for every service).
    pub fn disabled(channel: &'static str) -> Self {
        ChannelScope {
            telemetry: Telemetry::disabled(),
            channel,
        }
    }

    /// A scope recording through `telemetry` under the `net.<channel>.*`
    /// namespace.
    pub fn new(channel: &'static str, telemetry: Telemetry) -> Self {
        ChannelScope { telemetry, channel }
    }

    /// The channel name this scope tags its records with.
    pub fn channel(&self) -> &'static str {
        self.channel
    }

    fn metric(&self, suffix: &str) -> String {
        format!("net.{}.{suffix}", self.channel)
    }

    /// Records an accepted send: the sampled transit `delay` goes into the
    /// `net.<channel>.latency_ms` histogram, and silently `lost` messages
    /// bump the loss counter (the sender cannot see this — telemetry can).
    pub fn sent(&self, now: SimTime, delay: SimDuration, lost: bool) {
        if !self.telemetry.enabled() {
            return;
        }
        self.telemetry.metrics().counter(&self.metric("sends")).incr();
        self.telemetry
            .metrics()
            .histogram(&self.metric("latency_ms"))
            .observe_ms(delay.as_millis());
        if lost {
            self.telemetry.metrics().counter(&self.metric("lost")).incr();
        }
        self.telemetry.emit(
            Event::new(self.metric("sent"), now.as_millis())
                .with("delay_ms", delay.as_millis())
                .with("lost", lost),
        );
    }

    /// Records a synchronous send rejection; `outage` marks rejections
    /// caused by a service-wide outage window rather than per-recipient
    /// state.
    pub fn rejected(&self, now: SimTime, reason: &str, outage: bool) {
        if !self.telemetry.enabled() {
            return;
        }
        self.telemetry.metrics().counter(&self.metric("rejects")).incr();
        if outage {
            self.telemetry.metrics().counter(&self.metric("outage_rejects")).incr();
        }
        self.telemetry.emit(
            Event::new(self.metric("rejected"), now.as_millis())
                .with("reason", reason)
                .with("outage", outage),
        );
    }

    /// Records the terminal hop: `ok` is whether the message actually
    /// reached the endpoint (inbox deposit, handset in coverage, ...).
    /// Counter-only — some substrates complete delivery without a clock in
    /// hand, and counters carry no timestamps.
    pub fn delivered(&self, ok: bool) {
        if !self.telemetry.enabled() {
            return;
        }
        let suffix = if ok { "delivered" } else { "dropped" };
        self.telemetry.metrics().counter(&self.metric(suffix)).incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im::{ImHandle, ImService};
    use crate::latency::LatencyModel;
    use crate::loss::LossModel;
    use crate::outage::OutageSchedule;
    use crate::sms::SmsNumber;
    use simba_sim::SimRng;
    use simba_telemetry::RingBufferSink;
    use std::sync::Arc;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn im_sends_rejects_and_outages_are_counted() {
        let sink = Arc::new(RingBufferSink::new(64));
        let telemetry = Telemetry::with_sink(sink.clone());
        let mut s = ImService::new(SimRng::new(1))
            .with_latency(LatencyModel::Constant(SimDuration::from_millis(400)))
            .with_loss(LossModel::None)
            .with_outages(OutageSchedule::from_windows(vec![(t(100), t(200))]))
            .with_telemetry(telemetry.clone());
        let a = ImHandle::new("a");
        let b = ImHandle::new("b");
        s.register(a.clone());
        s.register(b.clone());
        s.logon(&a, t(0)).unwrap();
        s.logon(&b, t(0)).unwrap();

        let transit = s.send(&a, &b, "x", t(1)).unwrap();
        assert!(s.deliver(transit.message, t(2)));
        // Outage window: rejected with the outage flag.
        assert!(s.send(&a, &b, "x", t(150)).is_err());

        let snap = telemetry.metrics().snapshot();
        assert_eq!(snap.counter("net.im.sends"), 1);
        assert_eq!(snap.counter("net.im.rejects"), 1);
        assert_eq!(snap.counter("net.im.outage_rejects"), 1);
        assert_eq!(snap.counter("net.im.delivered"), 1);
        assert_eq!(snap.histogram("net.im.latency_ms").unwrap().sum_ms, 400);

        let events = sink.events();
        assert!(events.iter().any(|e| e.name == "net.im.sent"));
        let rejected = events.iter().find(|e| e.name == "net.im.rejected").unwrap();
        assert_eq!(rejected.time_ms, 150_000);
    }

    #[test]
    fn email_records_tail_latency_and_silent_loss() {
        let telemetry = Telemetry::with_sink(Arc::new(RingBufferSink::new(16)));
        let mut s = crate::email::EmailService::new(SimRng::new(2))
            .with_latency(LatencyModel::Constant(SimDuration::from_secs(30)))
            .with_loss(LossModel::Bernoulli(1.0))
            .with_telemetry(telemetry.clone());
        let from = crate::email::EmailAddr::new("a");
        let to = crate::email::EmailAddr::new("b");
        let transit = s.send(&from, &to, "n", "s", "b", t(5));
        assert!(transit.lost);
        s.deposit();

        let snap = telemetry.metrics().snapshot();
        assert_eq!(snap.counter("net.email.sends"), 1);
        assert_eq!(snap.counter("net.email.lost"), 1);
        assert_eq!(snap.counter("net.email.delivered"), 1);
        assert_eq!(snap.histogram("net.email.latency_ms").unwrap().sum_ms, 30_000);
    }

    #[test]
    fn sms_delivery_outcome_depends_on_phone_state() {
        let telemetry = Telemetry::with_sink(Arc::new(RingBufferSink::new(16)));
        let mut g = crate::sms::SmsGateway::new(SimRng::new(3))
            .with_latency(LatencyModel::Constant(SimDuration::from_secs(6)))
            .with_loss(LossModel::None)
            .with_telemetry(telemetry.clone());
        let n = SmsNumber::new("+1-555-0100");
        // Unregistered phone: queued fine, dropped at the handset.
        let transit = g.send(&n, "x", t(0));
        assert!(!g.deliver(&transit.message));
        g.register(n.clone(), crate::sms::PhoneState::reachable());
        assert!(g.deliver(&transit.message));

        let snap = telemetry.metrics().snapshot();
        assert_eq!(snap.counter("net.sms.sends"), 1);
        assert_eq!(snap.counter("net.sms.dropped"), 1);
        assert_eq!(snap.counter("net.sms.delivered"), 1);
    }

    #[test]
    fn disabled_scope_records_nothing() {
        let scope = ChannelScope::disabled("im");
        scope.sent(t(1), SimDuration::from_millis(5), false);
        scope.rejected(t(1), "down", true);
        scope.delivered(true);
        // Nothing observable: the scope's private registry stays empty.
        assert_eq!(scope.channel(), "im");
    }
}
