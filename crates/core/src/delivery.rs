//! The delivery layer: executing a delivery mode for one alert.
//!
//! Semantics from §3.2/§4.1:
//!
//! * blocks fire in order; within a block, **all actions mapping to
//!   currently-enabled addresses** fire together ("Only actions that map to
//!   enabled addresses at that time are performed");
//! * a block whose actions are all disabled "will automatically fail and
//!   fall back to the next backup block" — immediately;
//! * an ack-required block succeeds when any acknowledgement arrives before
//!   its timeout; otherwise the next block fires;
//! * a fire-and-forget block completes (unconfirmed) as soon as one send is
//!   accepted — it is the terminal fallback, typically email.
//!
//! [`DeliveryProcess`] is a pure state machine: it emits
//! [`DeliveryCommand`]s (sends, timers) and consumes [`DeliveryEvent`]s
//! (accepts, failures, acks, timer firings). The harness — simulated or
//! live — owns the channels and the clock.

use crate::address::{AddressBook, CommType};
use crate::alert::{Alert, AlertId};
use crate::mode::{AckPolicy, DeliveryMode};
use simba_sim::{SimDuration, SimTime};
use simba_telemetry::{Event, Telemetry};
use std::sync::Arc;

/// Identifies one send attempt within a delivery process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttemptId(pub u64);

/// Identifies one ack timer within a delivery process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

/// Why a send attempt failed synchronously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFailure {
    /// The channel service is down (IM outage).
    ChannelDown,
    /// The recipient is unreachable (offline IM handle, uncovered phone).
    RecipientUnreachable,
    /// The local client software was unusable (hung, dialogs, ...).
    ClientSoftware,
}

impl std::fmt::Display for SendFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SendFailure::ChannelDown => "channel down",
            SendFailure::RecipientUnreachable => "recipient unreachable",
            SendFailure::ClientSoftware => "client software unusable",
        };
        f.write_str(s)
    }
}

/// An instruction from the delivery process to the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryCommand {
    /// Send `text` to `address_value` over `comm_type`; report the outcome
    /// with the given attempt id.
    Send {
        /// Attempt identifier to echo back in events.
        attempt: AttemptId,
        /// Channel to use.
        comm_type: CommType,
        /// Friendly name of the address (for traces); the book's string.
        address_name: Arc<str>,
        /// Channel-specific address value; the book's string.
        address_value: Arc<str>,
        /// The alert being delivered.
        alert: AlertId,
        /// Text to deliver; the alert's string.
        text: Arc<str>,
    },
    /// Arrange for [`DeliveryEvent::TimerFired`] after `after`.
    StartTimer {
        /// Timer identifier to echo back.
        timer: TimerId,
        /// Delay until firing.
        after: SimDuration,
    },
}

/// An occurrence reported by the harness to the delivery process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryEvent {
    /// The channel accepted the send (it may still be lost downstream).
    SendAccepted {
        /// Which attempt.
        attempt: AttemptId,
    },
    /// The send failed synchronously.
    SendFailed {
        /// Which attempt.
        attempt: AttemptId,
        /// Why.
        failure: SendFailure,
    },
    /// An end-to-end acknowledgement arrived for an attempt.
    Acked {
        /// Which attempt.
        attempt: AttemptId,
    },
    /// A previously started timer fired.
    TimerFired {
        /// Which timer.
        timer: TimerId,
    },
}

/// Terminal or in-progress state of a delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryStatus {
    /// Still executing blocks.
    InProgress,
    /// Confirmed: an acknowledgement arrived.
    Acked {
        /// The acknowledged attempt.
        attempt: AttemptId,
        /// When the ack was processed.
        at: SimTime,
        /// Zero-based index of the block that succeeded.
        block: usize,
    },
    /// A fire-and-forget block handed the alert to a channel; no
    /// confirmation is possible on that channel.
    Unconfirmed {
        /// When the block completed.
        at: SimTime,
        /// Zero-based index of the completing block.
        block: usize,
    },
    /// Every block failed.
    Exhausted {
        /// When the last block failed.
        at: SimTime,
    },
}

impl DeliveryStatus {
    /// Whether the process has reached a terminal state.
    pub fn is_terminal(self) -> bool {
        !matches!(self, DeliveryStatus::InProgress)
    }

    /// Whether the alert reached a channel (acked or unconfirmed).
    pub fn is_handed_off(self) -> bool {
        matches!(self, DeliveryStatus::Acked { .. } | DeliveryStatus::Unconfirmed { .. })
    }
}

/// Outcome of one attempt, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Issued, no response yet.
    Pending,
    /// Channel accepted it.
    Accepted,
    /// Failed synchronously.
    Failed(SendFailure),
    /// Acknowledged end-to-end.
    Acked(SimTime),
}

/// The record of one send attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptRecord {
    /// Attempt identifier.
    pub attempt: AttemptId,
    /// Zero-based block index.
    pub block: usize,
    /// Friendly name of the address used.
    pub address_name: Arc<str>,
    /// Channel type used.
    pub comm_type: CommType,
    /// When the attempt was issued.
    pub sent_at: SimTime,
    /// Latest known outcome.
    pub outcome: AttemptOutcome,
}

/// The per-alert delivery state machine.
#[derive(Debug)]
pub struct DeliveryProcess {
    alert: Alert,
    mode: Arc<DeliveryMode>,
    block_idx: usize,
    status: DeliveryStatus,
    attempts: Vec<AttemptRecord>,
    /// Attempts issued for the *current* block: ids are handed out in
    /// order, so a block's attempts are a range of them.
    current: std::ops::Range<u64>,
    current_failed: usize,
    current_accepted: usize,
    current_timer: Option<TimerId>,
    next_attempt: u64,
    next_timer: u64,
    started_at: SimTime,
    telemetry: Telemetry,
}

impl DeliveryProcess {
    /// Creates the process and fires the first block. Returns the process
    /// plus the initial commands.
    pub fn start(
        alert: Alert,
        mode: impl Into<Arc<DeliveryMode>>,
        book: &AddressBook,
        now: SimTime,
    ) -> (Self, Vec<DeliveryCommand>) {
        DeliveryProcess::start_observed(alert, mode, book, now, Telemetry::disabled())
    }

    /// Like [`DeliveryProcess::start`], but emitting `delivery.*` telemetry
    /// events (block entries/skips, fallbacks, terminal outcomes) through
    /// `telemetry` as the state machine runs.
    pub fn start_observed(
        alert: Alert,
        mode: impl Into<Arc<DeliveryMode>>,
        book: &AddressBook,
        now: SimTime,
        telemetry: Telemetry,
    ) -> (Self, Vec<DeliveryCommand>) {
        let mut p = DeliveryProcess {
            alert,
            mode: mode.into(),
            block_idx: 0,
            status: DeliveryStatus::InProgress,
            attempts: Vec::new(),
            current: 0..0,
            current_failed: 0,
            current_accepted: 0,
            current_timer: None,
            next_attempt: 0,
            next_timer: 0,
            started_at: now,
            telemetry,
        };
        let mut cmds = Vec::new();
        p.enter_block(0, book, now, &mut cmds);
        (p, cmds)
    }

    /// A `delivery.*` event pre-tagged with this process's alert id.
    fn event(&self, name: &str, now: SimTime) -> Event {
        Event::new(name, now.as_millis()).with("alert", self.alert.id.0)
    }

    /// The alert being delivered.
    pub fn alert(&self) -> &Alert {
        &self.alert
    }

    /// Current status.
    pub fn status(&self) -> DeliveryStatus {
        self.status
    }

    /// All attempt records so far.
    pub fn attempts(&self) -> &[AttemptRecord] {
        &self.attempts
    }

    /// Feeds one event into the machine; returns follow-up commands.
    /// Events for unknown/stale attempt or timer ids are ignored — the
    /// harness may race a timer against an ack.
    pub fn handle(&mut self, event: DeliveryEvent, book: &AddressBook, now: SimTime) -> Vec<DeliveryCommand> {
        let mut cmds = Vec::new();
        if self.status.is_terminal() {
            match event {
                // Late events (acks after fallback already concluded) can
                // still upgrade an Unconfirmed/Exhausted outcome to Acked:
                // the user did receive it.
                DeliveryEvent::Acked { attempt } => {
                    if !matches!(self.status, DeliveryStatus::Acked { .. }) {
                        if let Some(rec) = self.record_mut(attempt) {
                            rec.outcome = AttemptOutcome::Acked(now);
                            let block = rec.block;
                            self.status = DeliveryStatus::Acked { attempt, at: now, block };
                            self.note_acked(block, now, true);
                        }
                    }
                }
                // Straggling send outcomes are recorded for accurate
                // reporting but never regress a concluded status.
                DeliveryEvent::SendAccepted { attempt } => {
                    if let Some(rec) = self.record_mut(attempt) {
                        if matches!(rec.outcome, AttemptOutcome::Pending) {
                            rec.outcome = AttemptOutcome::Accepted;
                        }
                    }
                }
                DeliveryEvent::SendFailed { attempt, failure } => {
                    if let Some(rec) = self.record_mut(attempt) {
                        if matches!(rec.outcome, AttemptOutcome::Pending) {
                            rec.outcome = AttemptOutcome::Failed(failure);
                        }
                    }
                }
                DeliveryEvent::TimerFired { .. } => {}
            }
            return cmds;
        }
        match event {
            DeliveryEvent::SendAccepted { attempt } => {
                if let Some(rec) = self.record_mut(attempt) {
                    if matches!(rec.outcome, AttemptOutcome::Pending) {
                        rec.outcome = AttemptOutcome::Accepted;
                    }
                }
                if self.current.contains(&attempt.0) {
                    self.current_accepted += 1;
                    self.check_block_progress(book, now, &mut cmds);
                }
            }
            DeliveryEvent::SendFailed { attempt, failure } => {
                if let Some(rec) = self.record_mut(attempt) {
                    rec.outcome = AttemptOutcome::Failed(failure);
                }
                if self.telemetry.enabled() {
                    self.telemetry.metrics().counter("delivery.send_failed").incr();
                    self.telemetry.emit(
                        self.event("delivery.send_failed", now)
                            .with("attempt", attempt.0)
                            .with("failure", failure.to_string()),
                    );
                }
                if self.current.contains(&attempt.0) {
                    self.current_failed += 1;
                    self.check_block_progress(book, now, &mut cmds);
                }
            }
            DeliveryEvent::Acked { attempt } => {
                if let Some(rec) = self.record_mut(attempt) {
                    rec.outcome = AttemptOutcome::Acked(now);
                    let block = rec.block;
                    self.status = DeliveryStatus::Acked { attempt, at: now, block };
                    self.note_acked(block, now, false);
                }
            }
            DeliveryEvent::TimerFired { timer } => {
                if self.current_timer == Some(timer) {
                    // Ack window expired: fall back.
                    if self.telemetry.enabled() {
                        self.telemetry.metrics().counter("delivery.ack_timeout").incr();
                        self.telemetry.emit(
                            self.event("delivery.ack_timeout", now).with("block", self.block_idx),
                        );
                    }
                    self.advance(book, now, &mut cmds);
                }
            }
        }
        cmds
    }

    fn record_mut(&mut self, attempt: AttemptId) -> Option<&mut AttemptRecord> {
        self.attempts.iter_mut().find(|r| r.attempt == attempt)
    }

    /// Records a confirmed delivery: end-to-end ack latency histogram plus
    /// a `delivery.acked` event (`late` marks acks that arrived after the
    /// process had already concluded with a fallback outcome).
    fn note_acked(&self, block: usize, now: SimTime, late: bool) {
        if self.telemetry.enabled() {
            let latency_ms = now.since(self.started_at).as_millis();
            self.telemetry.metrics().counter("delivery.acked").incr();
            self.telemetry
                .metrics()
                .histogram("delivery.ack_latency_ms")
                .observe_ms(latency_ms);
            self.telemetry.emit(
                self.event("delivery.acked", now)
                    .with("block", block)
                    .with("latency_ms", latency_ms)
                    .with("late", late),
            );
        }
    }

    /// After an accept/fail in the current block, decide whether the block
    /// resolved.
    fn check_block_progress(&mut self, book: &AddressBook, now: SimTime, cmds: &mut Vec<DeliveryCommand>) {
        let issued = (self.current.end - self.current.start) as usize;
        let ack_required = matches!(
            self.mode.blocks()[self.block_idx].ack,
            AckPolicy::Required(_)
        );
        if self.current_failed == issued {
            // Everything failed synchronously: no point waiting for the timer.
            self.advance(book, now, cmds);
        } else if !ack_required && self.current_accepted > 0 {
            // Fire-and-forget: one accepted send hands the alert off; sibling
            // attempts still pending (or failing later) cannot change that.
            self.status = DeliveryStatus::Unconfirmed { at: now, block: self.block_idx };
            if self.telemetry.enabled() {
                self.telemetry.metrics().counter("delivery.unconfirmed").incr();
                self.telemetry.emit(
                    self.event("delivery.unconfirmed", now).with("block", self.block_idx),
                );
            }
        }
        // ack_required with ≥1 accepted: wait for Acked or TimerFired.
    }

    /// Moves to the next block (or exhausts).
    fn advance(&mut self, book: &AddressBook, now: SimTime, cmds: &mut Vec<DeliveryCommand>) {
        let next = self.block_idx + 1;
        self.enter_block(next, book, now, cmds);
    }

    fn enter_block(&mut self, idx: usize, book: &AddressBook, now: SimTime, cmds: &mut Vec<DeliveryCommand>) {
        self.current = self.next_attempt..self.next_attempt;
        self.current_failed = 0;
        self.current_accepted = 0;
        self.current_timer = None;

        let mut idx = idx;
        // A cheap handle on the (shared) mode so the block loop below can
        // mutate `self` while iterating the block's actions.
        let mode = Arc::clone(&self.mode);
        loop {
            let Some(block) = mode.blocks().get(idx) else {
                self.status = DeliveryStatus::Exhausted { at: now };
                if self.telemetry.enabled() {
                    self.telemetry.metrics().counter("delivery.exhausted").incr();
                    self.telemetry.emit(self.event("delivery.exhausted", now));
                }
                return;
            };
            self.block_idx = idx;

            // "Only actions that map to enabled addresses at that time are
            // performed." Borrowed straight out of the book — cloning the
            // whole enabled set per block showed up in the alert hot path.
            let enabled = block
                .actions
                .iter()
                .filter_map(|name| book.get(name).filter(|a| a.enabled))
                .count();
            if enabled == 0 {
                // Disabled/unknown block: automatic immediate fallback.
                if self.telemetry.enabled() {
                    self.telemetry.metrics().counter("delivery.block_skipped").incr();
                    self.telemetry
                        .emit(self.event("delivery.block_skipped", now).with("block", idx));
                }
                idx += 1;
                continue;
            }
            if self.telemetry.enabled() {
                self.telemetry.metrics().counter("delivery.block_entered").incr();
                self.telemetry.metrics().counter("delivery.sends").add(enabled as u64);
                self.telemetry.emit(
                    self.event("delivery.block_entered", now)
                        .with("block", idx)
                        .with("actions", enabled)
                        .with("fallback", idx > 0),
                );
            }

            self.attempts.reserve_exact(enabled);
            cmds.reserve_exact(enabled + usize::from(matches!(block.ack, AckPolicy::Required(_))));
            for addr in block
                .actions
                .iter()
                .filter_map(|name| book.get(name).filter(|a| a.enabled))
            {
                let attempt = AttemptId(self.next_attempt);
                self.next_attempt += 1;
                self.current.end = self.next_attempt;
                self.attempts.push(AttemptRecord {
                    attempt,
                    block: idx,
                    address_name: addr.friendly_name.clone(),
                    comm_type: addr.comm_type,
                    sent_at: now,
                    outcome: AttemptOutcome::Pending,
                });
                cmds.push(DeliveryCommand::Send {
                    attempt,
                    comm_type: addr.comm_type,
                    address_name: addr.friendly_name.clone(),
                    address_value: addr.value.clone(),
                    alert: self.alert.id,
                    text: self.alert.text.clone(),
                });
            }
            if let AckPolicy::Required(timeout) = block.ack {
                let timer = TimerId(self.next_timer);
                self.next_timer += 1;
                self.current_timer = Some(timer);
                cmds.push(DeliveryCommand::StartTimer { timer, after: timeout });
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::alert::Urgency;
    use crate::mode::Block;

    fn book() -> AddressBook {
        let mut b = AddressBook::new();
        b.add(Address::new("MSN IM", CommType::Im, "im:alice")).unwrap();
        b.add(Address::new("Cell SMS", CommType::Sms, "+1-555-0100")).unwrap();
        b.add(Address::new("Work email", CommType::Email, "alice@work")).unwrap();
        b
    }

    fn alert() -> Alert {
        Alert {
            id: AlertId(1),
            source: "aladdin".into(),
            category: "Home.Security".into(),
            text: "Basement Water Sensor ON".into(),
            origin_timestamp: SimTime::ZERO,
            received_at: SimTime::ZERO,
            urgency: Urgency::Critical,
        }
    }

    fn im_then_email() -> DeliveryMode {
        DeliveryMode::im_then_email("Urgent", "MSN IM", "Work email", SimDuration::from_secs(60))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn sends(cmds: &[DeliveryCommand]) -> Vec<(&str, CommType)> {
        cmds.iter()
            .filter_map(|c| match c {
                DeliveryCommand::Send { address_name, comm_type, .. } => {
                    Some((&**address_name, *comm_type))
                }
                _ => None,
            })
            .collect()
    }

    fn first_attempt(cmds: &[DeliveryCommand]) -> AttemptId {
        cmds.iter()
            .find_map(|c| match c {
                DeliveryCommand::Send { attempt, .. } => Some(*attempt),
                _ => None,
            })
            .expect("a send command")
    }

    fn timer(cmds: &[DeliveryCommand]) -> TimerId {
        cmds.iter()
            .find_map(|c| match c {
                DeliveryCommand::StartTimer { timer, .. } => Some(*timer),
                _ => None,
            })
            .expect("a timer command")
    }

    #[test]
    fn happy_path_im_ack() {
        let b = book();
        let (mut p, cmds) = DeliveryProcess::start(alert(), im_then_email(), &b, t(0));
        assert_eq!(sends(&cmds), vec![("MSN IM", CommType::Im)]);
        let a = first_attempt(&cmds);
        let tm = timer(&cmds);

        assert!(p.handle(DeliveryEvent::SendAccepted { attempt: a }, &b, t(1)).is_empty());
        assert_eq!(p.status(), DeliveryStatus::InProgress);
        assert!(p.handle(DeliveryEvent::Acked { attempt: a }, &b, t(2)).is_empty());
        assert_eq!(p.status(), DeliveryStatus::Acked { attempt: a, at: t(2), block: 0 });

        // Stale timer later: ignored.
        assert!(p.handle(DeliveryEvent::TimerFired { timer: tm }, &b, t(60)).is_empty());
        assert_eq!(p.status(), DeliveryStatus::Acked { attempt: a, at: t(2), block: 0 });
        assert_eq!(p.attempts().len(), 1);
    }

    #[test]
    fn ack_timeout_falls_back_to_email() {
        let b = book();
        let (mut p, cmds) = DeliveryProcess::start(alert(), im_then_email(), &b, t(0));
        let a = first_attempt(&cmds);
        let tm = timer(&cmds);
        p.handle(DeliveryEvent::SendAccepted { attempt: a }, &b, t(1));

        // No ack; the timer fires.
        let cmds2 = p.handle(DeliveryEvent::TimerFired { timer: tm }, &b, t(60));
        assert_eq!(sends(&cmds2), vec![("Work email", CommType::Email)]);
        assert_eq!(p.status(), DeliveryStatus::InProgress);

        let a2 = first_attempt(&cmds2);
        p.handle(DeliveryEvent::SendAccepted { attempt: a2 }, &b, t(61));
        assert_eq!(p.status(), DeliveryStatus::Unconfirmed { at: t(61), block: 1 });
        assert_eq!(p.attempts().len(), 2);
    }

    #[test]
    fn synchronous_failure_advances_without_waiting() {
        let b = book();
        let (mut p, cmds) = DeliveryProcess::start(alert(), im_then_email(), &b, t(0));
        let a = first_attempt(&cmds);
        // IM send fails immediately (recipient offline) → email fires at once.
        let cmds2 = p.handle(
            DeliveryEvent::SendFailed { attempt: a, failure: SendFailure::RecipientUnreachable },
            &b,
            t(1),
        );
        assert_eq!(sends(&cmds2), vec![("Work email", CommType::Email)]);
    }

    #[test]
    fn disabled_address_skips_block_immediately() {
        // §3.3: disable SMS → any block containing only the SMS action
        // automatically fails and falls back.
        let mut b = book();
        b.set_enabled("Cell SMS", false);
        let mode = DeliveryMode::new(
            "SmsFirst",
            vec![
                Block::acked(vec!["Cell SMS".into()], SimDuration::from_secs(30)),
                Block::fire_and_forget(vec!["Work email".into()]),
            ],
        )
        .unwrap();
        let (p, cmds) = DeliveryProcess::start(alert(), mode, &b, t(0));
        // Block 0 skipped entirely; block 1's email fires as the first command.
        assert_eq!(sends(&cmds), vec![("Work email", CommType::Email)]);
        assert_eq!(p.attempts().len(), 1);
        assert_eq!(p.attempts()[0].block, 1);
    }

    #[test]
    fn all_blocks_disabled_exhausts() {
        let mut b = book();
        b.set_enabled("MSN IM", false);
        b.set_enabled("Work email", false);
        let (p, cmds) = DeliveryProcess::start(alert(), im_then_email(), &b, t(5));
        assert!(cmds.is_empty());
        assert_eq!(p.status(), DeliveryStatus::Exhausted { at: t(5) });
        assert!(!p.status().is_handed_off());
    }

    #[test]
    fn multi_action_block_any_ack_wins() {
        let b = book();
        let mode = DeliveryMode::new(
            "Blast",
            vec![Block::acked(
                vec!["MSN IM".into(), "Cell SMS".into()],
                SimDuration::from_secs(60),
            )],
        )
        .unwrap();
        let (mut p, cmds) = DeliveryProcess::start(alert(), mode, &b, t(0));
        assert_eq!(
            sends(&cmds),
            vec![("MSN IM", CommType::Im), ("Cell SMS", CommType::Sms)]
        );
        let ids: Vec<AttemptId> = p.attempts().iter().map(|r| r.attempt).collect();
        p.handle(DeliveryEvent::SendAccepted { attempt: ids[0] }, &b, t(1));
        p.handle(DeliveryEvent::SendAccepted { attempt: ids[1] }, &b, t(1));
        p.handle(DeliveryEvent::Acked { attempt: ids[0] }, &b, t(3));
        assert!(matches!(p.status(), DeliveryStatus::Acked { block: 0, .. }));
    }

    #[test]
    fn multi_action_block_partial_failure_still_waits_for_ack() {
        let b = book();
        let mode = DeliveryMode::new(
            "Blast",
            vec![
                Block::acked(vec!["MSN IM".into(), "Cell SMS".into()], SimDuration::from_secs(60)),
                Block::fire_and_forget(vec!["Work email".into()]),
            ],
        )
        .unwrap();
        let (mut p, cmds) = DeliveryProcess::start(alert(), mode, &b, t(0));
        let ids: Vec<AttemptId> = p.attempts().iter().map(|r| r.attempt).collect();
        let tm = timer(&cmds);
        // SMS fails, IM accepted: block still waits for the ack window.
        p.handle(DeliveryEvent::SendFailed { attempt: ids[1], failure: SendFailure::RecipientUnreachable }, &b, t(1));
        p.handle(DeliveryEvent::SendAccepted { attempt: ids[0] }, &b, t(1));
        assert_eq!(p.status(), DeliveryStatus::InProgress);
        // Timeout → email.
        let cmds2 = p.handle(DeliveryEvent::TimerFired { timer: tm }, &b, t(60));
        assert_eq!(sends(&cmds2), vec![("Work email", CommType::Email)]);
    }

    #[test]
    fn exhausted_when_final_block_fails() {
        let b = book();
        let (mut p, cmds) = DeliveryProcess::start(alert(), im_then_email(), &b, t(0));
        let a = first_attempt(&cmds);
        let cmds2 = p.handle(
            DeliveryEvent::SendFailed { attempt: a, failure: SendFailure::ChannelDown },
            &b,
            t(1),
        );
        let a2 = first_attempt(&cmds2);
        p.handle(
            DeliveryEvent::SendFailed { attempt: a2, failure: SendFailure::ClientSoftware },
            &b,
            t(2),
        );
        assert_eq!(p.status(), DeliveryStatus::Exhausted { at: t(2) });
    }

    #[test]
    fn late_ack_upgrades_unconfirmed_outcome() {
        // IM timed out, email went out (Unconfirmed) — then the user's ack
        // for the original IM straggles in. The delivery is retroactively
        // confirmed; the user just got a duplicate (dedup handles it).
        let b = book();
        let (mut p, cmds) = DeliveryProcess::start(alert(), im_then_email(), &b, t(0));
        let a = first_attempt(&cmds);
        let tm = timer(&cmds);
        p.handle(DeliveryEvent::SendAccepted { attempt: a }, &b, t(1));
        let cmds2 = p.handle(DeliveryEvent::TimerFired { timer: tm }, &b, t(60));
        let a2 = first_attempt(&cmds2);
        p.handle(DeliveryEvent::SendAccepted { attempt: a2 }, &b, t(61));
        assert!(matches!(p.status(), DeliveryStatus::Unconfirmed { .. }));

        p.handle(DeliveryEvent::Acked { attempt: a }, &b, t(75));
        assert!(matches!(p.status(), DeliveryStatus::Acked { block: 0, .. }));
    }

    #[test]
    fn unknown_attempt_events_ignored() {
        let b = book();
        let (mut p, _) = DeliveryProcess::start(alert(), im_then_email(), &b, t(0));
        let bogus = AttemptId(999);
        assert!(p.handle(DeliveryEvent::Acked { attempt: bogus }, &b, t(1)).is_empty());
        assert_eq!(p.status(), DeliveryStatus::InProgress);
        assert!(p
            .handle(DeliveryEvent::TimerFired { timer: TimerId(999) }, &b, t(1))
            .is_empty());
        assert_eq!(p.status(), DeliveryStatus::InProgress);
    }

    #[test]
    fn address_reenabled_between_blocks_is_respected() {
        // Book state is read at block entry, not process start.
        let mut b = book();
        b.set_enabled("Work email", false);
        let (mut p, cmds) = DeliveryProcess::start(alert(), im_then_email(), &b, t(0));
        let a = first_attempt(&cmds);
        // Re-enable email while IM is pending.
        b.set_enabled("Work email", true);
        let cmds2 = p.handle(
            DeliveryEvent::SendFailed { attempt: a, failure: SendFailure::ChannelDown },
            &b,
            t(1),
        );
        assert_eq!(sends(&cmds2), vec![("Work email", CommType::Email)]);
    }

    #[test]
    fn fire_and_forget_block_concludes_on_first_accept() {
        // Regression: a two-action fire-and-forget block used to wait for
        // *every* attempt to resolve, so one accepted send plus one
        // forever-pending send left the delivery stuck InProgress. The
        // module contract is "completes (unconfirmed) as soon as one send
        // is accepted".
        let b = book();
        let mode = DeliveryMode::new(
            "Blast",
            vec![Block::fire_and_forget(vec!["MSN IM".into(), "Cell SMS".into()])],
        )
        .unwrap();
        let (mut p, _) = DeliveryProcess::start(alert(), mode, &b, t(0));
        let ids: Vec<AttemptId> = p.attempts().iter().map(|r| r.attempt).collect();
        assert_eq!(ids.len(), 2);

        // First accept concludes the block; the SMS attempt never resolves.
        p.handle(DeliveryEvent::SendAccepted { attempt: ids[0] }, &b, t(1));
        assert_eq!(p.status(), DeliveryStatus::Unconfirmed { at: t(1), block: 0 });
    }

    #[test]
    fn late_failure_does_not_regress_fire_and_forget_outcome() {
        let b = book();
        let mode = DeliveryMode::new(
            "Blast",
            vec![
                Block::fire_and_forget(vec!["MSN IM".into(), "Cell SMS".into()]),
                Block::fire_and_forget(vec!["Work email".into()]),
            ],
        )
        .unwrap();
        let (mut p, _) = DeliveryProcess::start(alert(), mode, &b, t(0));
        let ids: Vec<AttemptId> = p.attempts().iter().map(|r| r.attempt).collect();
        p.handle(DeliveryEvent::SendAccepted { attempt: ids[0] }, &b, t(1));
        assert_eq!(p.status(), DeliveryStatus::Unconfirmed { at: t(1), block: 0 });

        // The sibling SMS fails afterwards: status must not regress and no
        // fallback block may fire.
        let cmds = p.handle(
            DeliveryEvent::SendFailed { attempt: ids[1], failure: SendFailure::ChannelDown },
            &b,
            t(2),
        );
        assert!(cmds.is_empty());
        assert_eq!(p.status(), DeliveryStatus::Unconfirmed { at: t(1), block: 0 });
        assert_eq!(p.attempts()[1].outcome, AttemptOutcome::Failed(SendFailure::ChannelDown));
    }

    #[test]
    fn stale_send_accepted_after_fallback_does_not_conclude_block() {
        // Race: the IM channel's accept straggles in after the ack window
        // already expired and the email block fired. The stale accept must
        // not count toward the *current* (email) block.
        let b = book();
        let (mut p, cmds) = DeliveryProcess::start(alert(), im_then_email(), &b, t(0));
        let a = first_attempt(&cmds);
        let tm = timer(&cmds);
        // No accept yet; timer fires → fall back to email.
        let cmds2 = p.handle(DeliveryEvent::TimerFired { timer: tm }, &b, t(60));
        assert_eq!(sends(&cmds2), vec![("Work email", CommType::Email)]);

        // Stale accept for the old IM attempt arrives.
        assert!(p.handle(DeliveryEvent::SendAccepted { attempt: a }, &b, t(61)).is_empty());
        assert_eq!(p.status(), DeliveryStatus::InProgress);
        assert_eq!(p.attempts()[0].outcome, AttemptOutcome::Accepted);

        // Only the email block's own accept concludes the delivery.
        let a2 = first_attempt(&cmds2);
        p.handle(DeliveryEvent::SendAccepted { attempt: a2 }, &b, t(62));
        assert_eq!(p.status(), DeliveryStatus::Unconfirmed { at: t(62), block: 1 });
    }
}
