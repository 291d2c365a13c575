//! A simulated Instant Messaging service.
//!
//! Models the observable contract SIMBA relies on (§3.1):
//!
//! * **accounts and logon sessions** — a handle must be registered and
//!   logged on to send or receive; the MAB "is always logged on";
//! * **presence** — senders can check whether the recipient is logged on
//!   before attempting synchronous delivery;
//! * **sub-second delivery** with a mild tail ([`LatencyModel::consumer_im`]);
//! * **per-(sender, recipient) sequence numbers** — the paper tags
//!   acknowledgements "with IM message sequence numbers";
//! * **outages and forced logouts** — the service can go down; when it
//!   recovers, every session is force-logged-out ("logged out due to, for
//!   example, server recovery"), which is exactly the anomaly the IM
//!   Manager's sanity check must detect and repair.
//!
//! The service is a pure state machine: [`ImService::send`] returns either
//! a failure or a [`Transit`] instruction (`deliver after d`), and the
//! harness schedules the arrival event, then calls [`ImService::deliver`].

use crate::latency::LatencyModel;
use crate::loss::LossModel;
use crate::observe::ChannelScope;
use crate::outage::OutageSchedule;
use simba_sim::{SimDuration, SimRng, SimTime};
use simba_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet};

/// An IM account handle (e.g. `"mab-alice"`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ImHandle(pub String);

impl ImHandle {
    /// Convenience constructor.
    pub fn new(s: impl Into<String>) -> Self {
        ImHandle(s.into())
    }
}

impl std::fmt::Display for ImHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Unique id of one IM message instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ImMessageId(pub u64);

/// An instant message in flight or delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImMessage {
    /// Unique message instance id.
    pub id: ImMessageId,
    /// Sending handle.
    pub from: ImHandle,
    /// Receiving handle.
    pub to: ImHandle,
    /// Per-(from, to) sequence number, starting at 1.
    pub seq: u64,
    /// Message body.
    pub body: String,
    /// When the service accepted the message.
    pub sent_at: SimTime,
}

/// Why a send failed synchronously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImSendError {
    /// The IM service is inside an outage window.
    ServiceDown,
    /// The sender has no active session (never logged on, or was force-logged-out).
    SenderNotLoggedOn,
    /// The recipient is not logged on; 2001-era IM had no offline queue.
    RecipientOffline,
    /// The sender handle was never registered.
    UnknownSender,
    /// The recipient handle was never registered.
    UnknownRecipient,
}

impl std::fmt::Display for ImSendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ImSendError::ServiceDown => "IM service unavailable",
            ImSendError::SenderNotLoggedOn => "sender not logged on",
            ImSendError::RecipientOffline => "recipient offline",
            ImSendError::UnknownSender => "unknown sender handle",
            ImSendError::UnknownRecipient => "unknown recipient handle",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ImSendError {}

/// A successfully accepted message: deliver `message` after `delay`, unless
/// `lost` (dropped in transit — the recipient never sees it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transit {
    /// The accepted message.
    pub message: ImMessage,
    /// Transit delay to the recipient.
    pub delay: SimDuration,
    /// Whether the message is silently dropped in transit.
    pub lost: bool,
}

/// The simulated IM service.
#[derive(Debug)]
pub struct ImService {
    registered: BTreeSet<ImHandle>,
    logged_on: BTreeSet<ImHandle>,
    buddy_lists: BTreeMap<ImHandle, BTreeSet<ImHandle>>,
    inboxes: BTreeMap<ImHandle, Vec<ImMessage>>,
    seqs: BTreeMap<(ImHandle, ImHandle), u64>,
    latency: LatencyModel,
    loss: LossModel,
    outages: OutageSchedule,
    /// End of the last outage that already forced logouts, to make
    /// recovery processing idempotent.
    last_recovery_processed: Option<SimTime>,
    next_id: u64,
    rng: SimRng,
    scope: ChannelScope,
}

impl ImService {
    /// Creates a service with consumer-grade latency, light random loss,
    /// and no scheduled outages.
    pub fn new(rng: SimRng) -> Self {
        ImService {
            registered: BTreeSet::new(),
            logged_on: BTreeSet::new(),
            buddy_lists: BTreeMap::new(),
            inboxes: BTreeMap::new(),
            seqs: BTreeMap::new(),
            latency: LatencyModel::consumer_im(),
            loss: LossModel::Bernoulli(0.001),
            outages: OutageSchedule::always_up(),
            last_recovery_processed: None,
            next_id: 0,
            rng,
            scope: ChannelScope::disabled("im"),
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

    /// Installs an outage schedule.
    #[must_use]
    pub fn with_outages(mut self, outages: OutageSchedule) -> Self {
        self.outages = outages;
        self
    }

    /// Records sends, rejections, losses, and transit latency through
    /// `telemetry` under the `net.im.*` namespace.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.scope = ChannelScope::new("im", telemetry);
        self
    }

    /// Registers an account. Idempotent.
    pub fn register(&mut self, handle: ImHandle) {
        self.inboxes.entry(handle.clone()).or_default();
        self.registered.insert(handle);
    }

    /// Whether the service is inside an outage window at `now`.
    ///
    /// Calling any operation implicitly processes pending recovery: if an
    /// outage ended since the last call, all sessions are force-logged-out.
    pub fn is_down(&mut self, now: SimTime) -> bool {
        self.process_recovery(now);
        self.outages.is_down(now)
    }

    fn process_recovery(&mut self, now: SimTime) {
        // Find the latest outage that has fully ended by `now`.
        let ended = self
            .outages
            .windows()
            .iter()
            .filter(|&&(_, e)| e <= now)
            .map(|&(_, e)| e)
            .next_back();
        if let Some(end) = ended {
            if self.last_recovery_processed != Some(end) {
                self.last_recovery_processed = Some(end);
                // Server recovery drops every session (§4.1.1).
                self.logged_on.clear();
            }
        }
    }

    /// Attempts to log `handle` on.
    ///
    /// # Errors
    ///
    /// Fails if the handle is unregistered or the service is down.
    pub fn logon(&mut self, handle: &ImHandle, now: SimTime) -> Result<(), ImSendError> {
        self.process_recovery(now);
        if !self.registered.contains(handle) {
            return Err(ImSendError::UnknownSender);
        }
        if self.outages.is_down(now) {
            return Err(ImSendError::ServiceDown);
        }
        self.logged_on.insert(handle.clone());
        Ok(())
    }

    /// Logs `handle` off. Idempotent.
    pub fn logoff(&mut self, handle: &ImHandle, now: SimTime) {
        self.process_recovery(now);
        self.logged_on.remove(handle);
    }

    /// Force-logs-out a specific handle (fault injection: "logged out due
    /// to ... network disconnection").
    pub fn force_logout(&mut self, handle: &ImHandle) {
        self.logged_on.remove(handle);
    }

    /// Whether `handle` currently has a session.
    pub fn is_logged_on(&mut self, handle: &ImHandle, now: SimTime) -> bool {
        self.process_recovery(now);
        !self.outages.is_down(now) && self.logged_on.contains(handle)
    }

    /// Presence check as another user would see it.
    pub fn presence(&mut self, handle: &ImHandle, now: SimTime) -> bool {
        self.is_logged_on(handle, now)
    }

    /// Adds `buddy` to `owner`'s buddy list. Both must be registered.
    ///
    /// # Errors
    ///
    /// Fails with the corresponding unknown-handle error.
    pub fn add_buddy(&mut self, owner: &ImHandle, buddy: &ImHandle) -> Result<(), ImSendError> {
        if !self.registered.contains(owner) {
            return Err(ImSendError::UnknownSender);
        }
        if !self.registered.contains(buddy) {
            return Err(ImSendError::UnknownRecipient);
        }
        self.buddy_lists.entry(owner.clone()).or_default().insert(buddy.clone());
        Ok(())
    }

    /// The status of every buddy on `owner`'s list: `(handle, online)`.
    /// Requires an active session (and the service up) — "obtain the
    /// status of the buddies" is one of the IM Manager's sanity probes.
    ///
    /// # Errors
    ///
    /// Fails if the service is down or `owner` is not logged on.
    pub fn buddy_status(
        &mut self,
        owner: &ImHandle,
        now: SimTime,
    ) -> Result<Vec<(ImHandle, bool)>, ImSendError> {
        self.process_recovery(now);
        if self.outages.is_down(now) {
            return Err(ImSendError::ServiceDown);
        }
        if !self.logged_on.contains(owner) {
            return Err(ImSendError::SenderNotLoggedOn);
        }
        let list = self.buddy_lists.get(owner).cloned().unwrap_or_default();
        Ok(list
            .into_iter()
            .map(|b| {
                let online = self.logged_on.contains(&b);
                (b, online)
            })
            .collect())
    }

    /// Sends an instant message.
    ///
    /// On success the caller must schedule delivery: after `transit.delay`,
    /// call [`ImService::deliver`] with `transit.message` unless
    /// `transit.lost`.
    ///
    /// # Errors
    ///
    /// See [`ImSendError`]; all failures are synchronous, mirroring how an
    /// IM client surfaces "could not deliver" immediately — this is what
    /// makes IM suitable for the ack-based delivery mode (§3.1).
    pub fn send(
        &mut self,
        from: &ImHandle,
        to: &ImHandle,
        body: impl Into<String>,
        now: SimTime,
    ) -> Result<Transit, ImSendError> {
        let result = self.send_inner(from, to, body.into(), now);
        match &result {
            Ok(transit) => self.scope.sent(now, transit.delay, transit.lost),
            Err(e) => self.scope.rejected(now, &e.to_string(), matches!(e, ImSendError::ServiceDown)),
        }
        result
    }

    fn send_inner(
        &mut self,
        from: &ImHandle,
        to: &ImHandle,
        body: String,
        now: SimTime,
    ) -> Result<Transit, ImSendError> {
        self.process_recovery(now);
        if !self.registered.contains(from) {
            return Err(ImSendError::UnknownSender);
        }
        if !self.registered.contains(to) {
            return Err(ImSendError::UnknownRecipient);
        }
        if self.outages.is_down(now) {
            return Err(ImSendError::ServiceDown);
        }
        if !self.logged_on.contains(from) {
            return Err(ImSendError::SenderNotLoggedOn);
        }
        if !self.logged_on.contains(to) {
            return Err(ImSendError::RecipientOffline);
        }
        let seq = self
            .seqs
            .entry((from.clone(), to.clone()))
            .and_modify(|s| *s += 1)
            .or_insert(1);
        let id = ImMessageId(self.next_id);
        self.next_id += 1;
        let message = ImMessage {
            id,
            from: from.clone(),
            to: to.clone(),
            seq: *seq,
            body,
            sent_at: now,
        };
        let delay = self.latency.sample(&mut self.rng);
        let lost = self.loss.roll(&mut self.rng);
        Ok(Transit { message, delay, lost })
    }

    /// Completes delivery of an in-transit message into the recipient's
    /// inbox. If the recipient lost their session while the message was in
    /// flight, the message is dropped (returns `false`).
    pub fn deliver(&mut self, message: ImMessage, now: SimTime) -> bool {
        self.process_recovery(now);
        let ok = self.logged_on.contains(&message.to) && !self.outages.is_down(now);
        if ok {
            self.inboxes
                .entry(message.to.clone())
                .or_default()
                .push(message);
        }
        self.scope.delivered(ok);
        ok
    }

    /// Drains and returns all messages waiting in `handle`'s inbox.
    pub fn take_inbox(&mut self, handle: &ImHandle) -> Vec<ImMessage> {
        self.inboxes.get_mut(handle).map(std::mem::take).unwrap_or_default()
    }

    /// Number of messages waiting in `handle`'s inbox.
    pub fn inbox_len(&self, handle: &ImHandle) -> usize {
        self.inboxes.get(handle).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc() -> ImService {
        ImService::new(SimRng::new(1))
            .with_latency(LatencyModel::Constant(SimDuration::from_millis(400)))
            .with_loss(LossModel::None)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn send_requires_registration_and_sessions() {
        let mut s = svc();
        let a = ImHandle::new("a");
        let b = ImHandle::new("b");
        assert_eq!(s.send(&a, &b, "x", t(0)), Err(ImSendError::UnknownSender));
        s.register(a.clone());
        assert_eq!(s.send(&a, &b, "x", t(0)), Err(ImSendError::UnknownRecipient));
        s.register(b.clone());
        assert_eq!(s.send(&a, &b, "x", t(0)), Err(ImSendError::SenderNotLoggedOn));
        s.logon(&a, t(0)).unwrap();
        assert_eq!(s.send(&a, &b, "x", t(0)), Err(ImSendError::RecipientOffline));
        s.logon(&b, t(0)).unwrap();
        let transit = s.send(&a, &b, "x", t(0)).unwrap();
        assert_eq!(transit.delay, SimDuration::from_millis(400));
        assert!(!transit.lost);
    }

    #[test]
    fn sequence_numbers_are_per_pair_and_monotonic() {
        let mut s = svc();
        for h in ["a", "b", "c"] {
            s.register(ImHandle::new(h));
            s.logon(&ImHandle::new(h), t(0)).unwrap();
        }
        let a = ImHandle::new("a");
        let b = ImHandle::new("b");
        let c = ImHandle::new("c");
        assert_eq!(s.send(&a, &b, "1", t(0)).unwrap().message.seq, 1);
        assert_eq!(s.send(&a, &b, "2", t(0)).unwrap().message.seq, 2);
        assert_eq!(s.send(&a, &c, "1", t(0)).unwrap().message.seq, 1);
        assert_eq!(s.send(&b, &a, "1", t(0)).unwrap().message.seq, 1);
        assert_eq!(s.send(&a, &b, "3", t(0)).unwrap().message.seq, 3);
    }

    #[test]
    fn deliver_puts_message_in_inbox() {
        let mut s = svc();
        let a = ImHandle::new("a");
        let b = ImHandle::new("b");
        s.register(a.clone());
        s.register(b.clone());
        s.logon(&a, t(0)).unwrap();
        s.logon(&b, t(0)).unwrap();
        let transit = s.send(&a, &b, "hello", t(0)).unwrap();
        assert!(s.deliver(transit.message.clone(), t(1)));
        assert_eq!(s.inbox_len(&b), 1);
        let msgs = s.take_inbox(&b);
        assert_eq!(msgs[0].body, "hello");
        assert_eq!(s.inbox_len(&b), 0);
    }

    #[test]
    fn delivery_fails_if_recipient_logged_off_mid_flight() {
        let mut s = svc();
        let a = ImHandle::new("a");
        let b = ImHandle::new("b");
        s.register(a.clone());
        s.register(b.clone());
        s.logon(&a, t(0)).unwrap();
        s.logon(&b, t(0)).unwrap();
        let transit = s.send(&a, &b, "hello", t(0)).unwrap();
        s.logoff(&b, t(0));
        assert!(!s.deliver(transit.message, t(1)));
        assert_eq!(s.inbox_len(&b), 0);
    }

    #[test]
    fn outage_blocks_sends_and_logons() {
        let mut s = svc().with_outages(OutageSchedule::from_windows(vec![(t(100), t(200))]));
        let a = ImHandle::new("a");
        let b = ImHandle::new("b");
        s.register(a.clone());
        s.register(b.clone());
        s.logon(&a, t(0)).unwrap();
        s.logon(&b, t(0)).unwrap();
        assert!(s.send(&a, &b, "x", t(99)).is_ok());
        assert_eq!(s.send(&a, &b, "x", t(150)), Err(ImSendError::ServiceDown));
        assert_eq!(s.logon(&a, t(150)), Err(ImSendError::ServiceDown));
        assert!(s.is_down(t(150)));
    }

    #[test]
    fn server_recovery_forces_logout_of_all_sessions() {
        // The exact §4.1.1 anomaly the IM Manager's sanity check must fix.
        let mut s = svc().with_outages(OutageSchedule::from_windows(vec![(t(100), t(200))]));
        let a = ImHandle::new("a");
        s.register(a.clone());
        s.logon(&a, t(0)).unwrap();
        assert!(s.is_logged_on(&a, t(50)));
        // During the outage the session is unusable.
        assert!(!s.is_logged_on(&a, t(150)));
        // After recovery the session is *gone* — not restored.
        assert!(!s.is_logged_on(&a, t(250)));
        // A fresh logon works again.
        s.logon(&a, t(250)).unwrap();
        assert!(s.is_logged_on(&a, t(251)));
    }

    #[test]
    fn recovery_processing_is_idempotent() {
        let mut s = svc().with_outages(OutageSchedule::from_windows(vec![(t(100), t(200))]));
        let a = ImHandle::new("a");
        s.register(a.clone());
        assert!(!s.is_down(t(300)));
        s.logon(&a, t(300)).unwrap();
        // Re-querying after recovery must not clear the new session.
        assert!(!s.is_down(t(301)));
        assert!(s.is_logged_on(&a, t(302)));
    }

    #[test]
    fn force_logout_targets_one_handle() {
        let mut s = svc();
        let a = ImHandle::new("a");
        let b = ImHandle::new("b");
        s.register(a.clone());
        s.register(b.clone());
        s.logon(&a, t(0)).unwrap();
        s.logon(&b, t(0)).unwrap();
        s.force_logout(&a);
        assert!(!s.is_logged_on(&a, t(1)));
        assert!(s.is_logged_on(&b, t(1)));
    }

    #[test]
    fn loss_model_marks_messages_lost() {
        let mut s = ImService::new(SimRng::new(2))
            .with_latency(LatencyModel::Constant(SimDuration::from_millis(1)))
            .with_loss(LossModel::Bernoulli(1.0));
        let a = ImHandle::new("a");
        let b = ImHandle::new("b");
        s.register(a.clone());
        s.register(b.clone());
        s.logon(&a, t(0)).unwrap();
        s.logon(&b, t(0)).unwrap();
        assert!(s.send(&a, &b, "x", t(0)).unwrap().lost);
    }

    #[test]
    fn buddy_lists_and_status() {
        let mut s = svc();
        let a = ImHandle::new("a");
        let b = ImHandle::new("b");
        let c = ImHandle::new("c");
        s.register(a.clone());
        s.register(b.clone());
        s.register(c.clone());
        assert_eq!(s.add_buddy(&a, &ImHandle::new("ghost")), Err(ImSendError::UnknownRecipient));
        s.add_buddy(&a, &b).unwrap();
        s.add_buddy(&a, &c).unwrap();
        s.add_buddy(&a, &c).unwrap(); // idempotent

        // Not logged on: cannot query.
        assert_eq!(s.buddy_status(&a, t(0)), Err(ImSendError::SenderNotLoggedOn));
        s.logon(&a, t(0)).unwrap();
        s.logon(&b, t(0)).unwrap();
        let status = s.buddy_status(&a, t(1)).unwrap();
        assert_eq!(status.len(), 2);
        assert!(status.contains(&(b.clone(), true)));
        assert!(status.contains(&(c.clone(), false)));
    }

    #[test]
    fn buddy_status_fails_during_outage() {
        let mut s = svc().with_outages(OutageSchedule::from_windows(vec![(t(10), t(20))]));
        let a = ImHandle::new("a");
        s.register(a.clone());
        s.logon(&a, t(0)).unwrap();
        assert_eq!(s.buddy_status(&a, t(15)), Err(ImSendError::ServiceDown));
    }

    #[test]
    fn message_ids_are_unique() {
        let mut s = svc();
        let a = ImHandle::new("a");
        let b = ImHandle::new("b");
        s.register(a.clone());
        s.register(b.clone());
        s.logon(&a, t(0)).unwrap();
        s.logon(&b, t(0)).unwrap();
        let id1 = s.send(&a, &b, "1", t(0)).unwrap().message.id;
        let id2 = s.send(&a, &b, "2", t(0)).unwrap().message.id;
        assert_ne!(id1, id2);
    }
}
