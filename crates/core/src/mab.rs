//! MyAlertBuddy: the per-user personal alert router (§3.3, §4.2).
//!
//! Pipeline on every incoming alert: **pessimistic log → acknowledge →
//! classify → aggregate/filter → route** — then mark the log record
//! processed. The ordering is the §4.2.1 crash-safety protocol: the log
//! write precedes the ack, so an acknowledged alert always survives a
//! crash (it is replayed from the log on restart), and a crash before the
//! ack makes the *sender's* delivery mode fall back instead.
//!
//! [`MyAlertBuddy`] is a state machine like [`DeliveryProcess`]: events in
//! ([`MabEvent`]), commands out ([`MabCommand`]). It owns no log: the
//! paper's buddy asks "the SIMBA library" to log, and here that library
//! is its shard worker, which owns the [`ShardLog`] and lends it to each
//! call that logs, marks or replays. The end of a delivery is a command
//! too, [`MabCommand::Finished`], released after the log write that
//! covers it like an ack; the driver then [`MyAlertBuddy::retire`]s the
//! delivery. Crash points can be
//! injected at every pipeline stage, which is how the WAL-safety property
//! tests exercise "MyAlertBuddy may crash or get terminated due to some
//! anomaly" at arbitrary moments.

use crate::address::AddressBook;
use crate::alert::{Alert, AlertId, IncomingAlert};
use crate::classify::Classifier;
use crate::delivery::{DeliveryCommand, DeliveryEvent, DeliveryProcess, DeliveryStatus};
use crate::rejuvenate::{RejuvenationPolicy, RejuvenationTrigger};
use crate::shardlog::ShardLog;
use crate::subscription::{SubscriptionRegistry, UserId};
use crate::vecmap::VecMap;
use simba_sim::SimTime;
use simba_telemetry::{Event, Telemetry};
use std::sync::Arc;

/// Identifies one delivery: the log record of the alert it delivers and
/// the subscriber's position in that alert's fan-out (fixed by the
/// configuration: [`SubscriptionRegistry::fan_out`]), packed into one
/// `u64` — the position in the top 16 bits, the record in the low 48, so
/// a first subscriber's delivery id is the record id itself. A buddy
/// keeps no id state: a replay of a record reissues the ids of its first
/// routing (the ledger's idempotency key recognises them), and two
/// records never share one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeliveryId(pub u64);

impl DeliveryId {
    /// Most subscribers one alert can fan out to: the positions the id
    /// has room for. [`SubscriptionRegistry::subscribe`] refuses the
    /// subscription that would let a fan-out pass it.
    pub const MAX_FANOUT: usize = 1 << 16;

    const RECORD_BITS: u32 = 48;

    /// The delivery of log record `record` to the subscriber at
    /// `position` in its fan-out.
    ///
    /// # Panics
    ///
    /// When `position` is not below [`DeliveryId::MAX_FANOUT`] or
    /// `record` needs more than 48 bits: the id would be another
    /// record's.
    pub fn new(record: u64, position: usize) -> Self {
        assert!(
            position < Self::MAX_FANOUT && record >> Self::RECORD_BITS == 0,
            "delivery {position} of record {record} does not fit a delivery id"
        );
        DeliveryId((position as u64) << Self::RECORD_BITS | record)
    }

    /// The log record of the alert this delivery delivers.
    pub fn record(self) -> u64 {
        self.0 & ((1 << Self::RECORD_BITS) - 1)
    }
}

/// Configuration that survives MyAlertBuddy restarts (in the real system
/// this lives on disk; in the simulation the harness clones it into each
/// incarnation).
#[derive(Debug, Clone, Default)]
pub struct MabConfig {
    /// The alert classifier (accepted sources, keyword → category maps).
    pub classifier: Classifier,
    /// Users, address books, modes, and subscriptions.
    pub registry: SubscriptionRegistry,
    /// Rejuvenation policy.
    pub rejuvenation: RejuvenationPolicy,
}

/// An occurrence fed into MyAlertBuddy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MabEvent {
    /// An alert arrived over the IM channel (will be acknowledged).
    AlertByIm(IncomingAlert),
    /// An alert arrived over the email channel (no acknowledgement).
    AlertByEmail(IncomingAlert),
    /// A channel/timer event for an in-flight delivery.
    Delivery {
        /// Which delivery.
        id: DeliveryId,
        /// What happened.
        event: DeliveryEvent,
    },
}

/// An instruction from MyAlertBuddy to the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MabCommand {
    /// Send the application-level IM acknowledgement back to `to`.
    AckIm {
        /// Source handle to acknowledge (the alert's own string).
        to: Arc<str>,
        /// The log id backing the ack (for tracing).
        wal_id: u64,
    },
    /// Execute a delivery-layer command for `delivery` on behalf of `user`.
    Channel {
        /// Which delivery the command belongs to.
        delivery: DeliveryId,
        /// The subscriber being delivered to.
        user: UserId,
        /// The channel command.
        command: DeliveryCommand,
    },
    /// Gracefully terminate for rejuvenation: the MDC parks the buddy
    /// once it is idle ([`MyAlertBuddy::is_rejuvenating`]), and the
    /// user's next alert builds a fresh one.
    Rejuvenate(
        /// Why.
        RejuvenationTrigger,
    ),
    /// `delivery` left `InProgress`: once this runs, the driver retires
    /// it ([`MyAlertBuddy::retire`]) and reports `status`. Emitted once
    /// per delivery; a late ack that upgrades an unconfirmed delivery to
    /// acked emits no second one.
    Finished {
        /// Which delivery.
        delivery: DeliveryId,
        /// Its status as it concluded.
        status: DeliveryStatus,
    },
}

/// Where to crash, for fault-injection tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash before the pessimistic log write (sender gets no ack).
    BeforeLog,
    /// Crash after the log write but before the ack (sender gets no ack;
    /// the alert will be replayed — a possible duplicate).
    AfterLogBeforeAck,
    /// Crash after the ack but before routing (the §4.2.1 scenario the log
    /// exists for: without it the alert would be silently lost).
    AfterAckBeforeRoute,
    /// Crash after routing but before the processed mark (replay causes a
    /// duplicate delivery; timestamp dedup discards it at the user).
    AfterRouteBeforeMark,
}

impl CrashPoint {
    /// Short stable name used in `mab.crashed` telemetry events.
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::BeforeLog => "before_log",
            CrashPoint::AfterLogBeforeAck => "after_log_before_ack",
            CrashPoint::AfterAckBeforeRoute => "after_ack_before_route",
            CrashPoint::AfterRouteBeforeMark => "after_route_before_mark",
        }
    }
}

/// Running totals for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MabStats {
    /// Alerts received over IM.
    pub received_im: u64,
    /// Alerts received over email.
    pub received_email: u64,
    /// IM acknowledgements sent.
    pub acked: u64,
    /// Alerts rejected by the classifier.
    pub rejected: u64,
    /// Alerts routed to at least one subscriber.
    pub routed: u64,
    /// Alerts whose category had no active subscription.
    pub unsubscribed: u64,
    /// Delivery processes started.
    pub deliveries_started: u64,
    /// Alerts replayed from the log on restart.
    pub replayed: u64,
    /// Remote rejuvenation commands honoured.
    pub remote_commands: u64,
    /// Deliveries whose mode was adjusted by live presence/health facts.
    pub mode_overridden: u64,
}

impl MabStats {
    /// Sums `other` into `self` (host-level aggregation across users).
    pub fn merge(&mut self, other: MabStats) {
        self.received_im += other.received_im;
        self.received_email += other.received_email;
        self.acked += other.acked;
        self.rejected += other.rejected;
        self.routed += other.routed;
        self.unsubscribed += other.unsubscribed;
        self.deliveries_started += other.deliveries_started;
        self.replayed += other.replayed;
        self.remote_commands += other.remote_commands;
        self.mode_overridden += other.mode_overridden;
    }
}

/// The MyAlertBuddy daemon state machine.
#[derive(Debug)]
pub struct MyAlertBuddy {
    config: MabConfig,
    /// Whose records this buddy appends, marks and replays in the log
    /// its driver lends it.
    user: UserId,
    /// Tracked deliveries: usually none or one, filled and emptied once
    /// per alert — hence a [`VecMap`], not a tree with an eleven-slot leaf.
    deliveries: VecMap<DeliveryId, (UserId, DeliveryProcess)>,
    stats: MabStats,
    crash_point: Option<CrashPoint>,
    crashed: bool,
    hung: bool,
    rejuvenating: bool,
    telemetry: Telemetry,
    mode_selector: Option<Box<dyn crate::routing::ModeSelector>>,
}

impl MyAlertBuddy {
    /// Launches `user`'s MyAlertBuddy. It holds no log: its driver owns
    /// the [`ShardLog`] and lends it to every call that logs, marks or
    /// replays, so a restart is a fresh buddy over the same log. Call
    /// [`MyAlertBuddy::recover`] next — the paper's restart protocol
    /// replays unprocessed alerts "before accepting new alerts".
    pub fn new(config: MabConfig, user: UserId) -> Self {
        MyAlertBuddy {
            config,
            user,
            deliveries: VecMap::default(),
            stats: MabStats::default(),
            crash_point: None,
            crashed: false,
            hung: false,
            rejuvenating: false,
            telemetry: Telemetry::disabled(),
            mode_selector: None,
        }
    }

    /// Routes events and metrics to `telemetry` (builder style).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Routes events and metrics to `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Consults `selector` for live presence/health facts when starting a
    /// delivery. Without one, the static profile always wins — exactly the
    /// behaviour when every fact has expired.
    pub fn set_mode_selector(&mut self, selector: Box<dyn crate::routing::ModeSelector>) {
        self.mode_selector = Some(selector);
    }

    /// The configuration in force.
    pub fn config(&self) -> &MabConfig {
        &self.config
    }

    /// Mutable configuration access (runtime re-customization: §3.3's
    /// "she only needs to update MyAlertBuddy").
    pub fn config_mut(&mut self) -> &mut MabConfig {
        &mut self.config
    }

    /// Running totals.
    pub fn stats(&self) -> MabStats {
        self.stats
    }

    /// Arms a one-shot crash at the given pipeline stage.
    pub fn inject_crash_at(&mut self, point: CrashPoint) {
        self.crash_point = Some(point);
    }

    /// Wedges the main loop (AreYouWorking() will stop responding).
    pub fn inject_hang(&mut self) {
        self.hung = true;
    }

    /// Whether the process is crashed (terminated).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// The watchdog's non-blocking health probe.
    pub fn are_you_working(&self) -> bool {
        !self.crashed && !self.hung
    }

    /// Whether the buddy asked for rejuvenation: its MDC parks it once
    /// it is idle, and a fresh one takes the user's next alert.
    pub fn is_rejuvenating(&self) -> bool {
        self.rejuvenating
    }

    /// In-flight delivery count.
    pub fn in_flight(&self) -> usize {
        self.deliveries
            .values()
            .filter(|(_, p)| !p.status().is_terminal())
            .count()
    }

    /// Status of a specific delivery.
    pub fn delivery_status(&self, id: DeliveryId) -> Option<DeliveryStatus> {
        self.deliveries.get(&id).map(|(_, p)| p.status())
    }

    /// Drops delivery `id` if the buddy holds it in a terminal status,
    /// and says whether it did: its driver calls this when the delivery's
    /// [`MabCommand::Finished`] runs. A replay's in-flight delivery under
    /// the same id is refused. A block timer or ack the delivery left
    /// armed fires into a buddy that no longer holds it and is ignored.
    pub fn retire(&mut self, id: DeliveryId, now: SimTime) -> bool {
        if !self.delivery_status(id).is_some_and(DeliveryStatus::is_terminal) {
            return false;
        }
        let Some((user, process)) = self.deliveries.remove(&id) else {
            return false;
        };
        if self.telemetry.enabled() {
            self.telemetry.metrics().counter("mab.retired").incr();
            self.telemetry.emit(
                Event::new("mab.retired", now.as_millis())
                    .with("delivery", id.0)
                    .with("user", &*user.0)
                    .with("status", status_name(process.status()))
                    .with("attempts", process.attempts().len()),
            );
        }
        true
    }

    /// Whether the buddy can hibernate: alive, no tracked deliveries, no
    /// unprocessed records in `log`. Everything else it holds is
    /// counters, and its ids come from its log, so a host may drop an
    /// idle buddy and build a fresh one for the user's next alert.
    pub fn is_idle(&self, log: &ShardLog) -> bool {
        !self.crashed && self.deliveries.is_empty() && !log.has_unprocessed_for(&self.user)
    }

    /// Replays the user's unprocessed records in `log` (the restart
    /// protocol). Returns the commands to execute; acks are *not* re-sent.
    pub fn recover(&mut self, log: &mut ShardLog, now: SimTime) -> Vec<MabCommand> {
        let mut cmds = Vec::new();
        let backlog = log.unprocessed_for(&self.user);
        if self.telemetry.enabled() && !backlog.is_empty() {
            self.telemetry.metrics().counter("wal.replays").add(backlog.len() as u64);
            self.telemetry.emit(
                Event::new("wal.replayed", now.as_millis()).with("records", backlog.len()),
            );
        }
        for record in backlog {
            self.stats.replayed += 1;
            self.route_logged(log, record.id, record.received_at, &record.alert, now, &mut cmds);
        }
        cmds
    }

    /// Feeds one event through the pipeline, logging into `log`.
    ///
    /// A crashed or hung buddy processes nothing (events are effectively
    /// dropped, exactly like a dead process — senders see missing acks and
    /// fall back).
    pub fn handle(&mut self, log: &mut ShardLog, event: MabEvent, now: SimTime) -> Vec<MabCommand> {
        let mut cmds = Vec::new();
        self.handle_into(log, event, now, &mut cmds);
        cmds
    }

    /// [`MyAlertBuddy::handle`], appending the commands to `cmds` — for a
    /// driver that feeds many events and keeps one buffer.
    pub fn handle_into(
        &mut self,
        log: &mut ShardLog,
        event: MabEvent,
        now: SimTime,
        cmds: &mut Vec<MabCommand>,
    ) {
        if self.crashed || self.hung {
            return;
        }
        match event {
            MabEvent::AlertByIm(alert) => {
                self.stats.received_im += 1;
                self.note_received("im", &alert, now);
                self.ingest(log, alert, true, now, cmds);
            }
            MabEvent::AlertByEmail(alert) => {
                self.stats.received_email += 1;
                self.note_received("email", &alert, now);
                self.ingest(log, alert, false, now, cmds);
            }
            MabEvent::Delivery { id, event } => {
                if let Some((user, process)) = self.deliveries.get_mut(&id) {
                    // Borrow the profile's book directly (`registry` and
                    // `deliveries` are disjoint fields); cloning it per
                    // delivery event dominated the hot path.
                    let empty = AddressBook::default();
                    let book = self
                        .config
                        .registry
                        .user(user)
                        .map(|p| &p.address_book)
                        .unwrap_or(&empty);
                    let live = !process.status().is_terminal();
                    for command in process.handle(event, book, now) {
                        cmds.push(MabCommand::Channel {
                            delivery: id,
                            user: user.clone(),
                            command,
                        });
                    }
                    let status = process.status();
                    if live && status.is_terminal() {
                        cmds.push(MabCommand::Finished { delivery: id, status });
                    }
                }
            }
        }
    }

    fn note_received(&self, channel: &str, alert: &IncomingAlert, now: SimTime) {
        if self.telemetry.enabled() {
            self.telemetry.metrics().counter("mab.received").incr();
            self.telemetry.emit(
                Event::new("mab.received", now.as_millis())
                    .with("channel", channel)
                    .with("source", &*alert.source),
            );
        }
    }

    fn crash_if(&mut self, point: CrashPoint, now: SimTime) -> bool {
        if self.crash_point == Some(point) {
            self.crash_point = None;
            self.crashed = true;
            if self.telemetry.enabled() {
                self.telemetry.metrics().counter("mab.crashes").incr();
                self.telemetry
                    .emit(Event::new("mab.crashed", now.as_millis()).with("point", point.name()));
            }
            true
        } else {
            false
        }
    }

    /// The §4.2.1 receive pipeline.
    fn ingest(
        &mut self,
        log: &mut ShardLog,
        alert: IncomingAlert,
        ack: bool,
        now: SimTime,
        cmds: &mut Vec<MabCommand>,
    ) {
        if self.crash_if(CrashPoint::BeforeLog, now) {
            return;
        }
        // (1) Pessimistic log, before anything observable.
        let Ok(wal_id) = log.append(&self.user, &alert, now);
        if self.telemetry.enabled() {
            self.telemetry.metrics().counter("wal.appends").incr();
            self.telemetry.emit(
                Event::new("wal.append", now.as_millis())
                    .with("wal_id", wal_id)
                    .with("source", &*alert.source),
            );
        }
        if self.crash_if(CrashPoint::AfterLogBeforeAck, now) {
            return;
        }
        // (2) Acknowledge (IM channel only).
        if ack {
            self.stats.acked += 1;
            if self.telemetry.enabled() {
                self.telemetry.metrics().counter("mab.acked").incr();
                self.telemetry.emit(
                    Event::new("mab.ack", now.as_millis())
                        .with("to", &*alert.source)
                        .with("wal_id", wal_id),
                );
            }
            cmds.push(MabCommand::AckIm {
                to: Arc::clone(&alert.source),
                wal_id,
            });
        }
        if self.crash_if(CrashPoint::AfterAckBeforeRoute, now) {
            return;
        }
        // (3..) Classify and route.
        self.route_logged(log, wal_id, now, &alert, now, cmds);
    }

    /// Classification + routing + processed-mark for logged alert
    /// `record`, whose id is the alert's identity: its [`AlertId`], and
    /// the record part of every [`DeliveryId`] it fans out to.
    fn route_logged(
        &mut self,
        log: &mut ShardLog,
        record: u64,
        received_at: SimTime,
        alert: &IncomingAlert,
        now: SimTime,
        cmds: &mut Vec<MabCommand>,
    ) {
        // Remote administration check precedes classification: the command
        // keyword is not an alert.
        if let Some(trigger) = self.config.rejuvenation.remote_trigger(&alert.body) {
            self.stats.remote_commands += 1;
            if self.telemetry.enabled() {
                self.telemetry.metrics().counter("mab.remote_commands").incr();
                self.telemetry.emit(
                    Event::new("rejuvenate.triggered", now.as_millis())
                        .with("trigger", "remote")
                        .with("source", &*alert.source),
                );
            }
            if !self.mark_processed_or_crash(log, record, now) {
                return;
            }
            self.rejuvenating = true;
            cmds.push(MabCommand::Rejuvenate(trigger));
            return;
        }

        match self.config.classifier.classify(alert) {
            Ok(category) => {
                // Borrowed from the registry for the whole fan-out: the
                // loop below touches other fields of `self` only.
                let subs = self.config.registry.fan_out(&category, now);
                if subs.is_empty() {
                    self.stats.unsubscribed += 1;
                    if self.telemetry.enabled() {
                        self.telemetry.metrics().counter("mab.unsubscribed").incr();
                        self.telemetry.emit(
                            Event::new("mab.unsubscribed", now.as_millis())
                                .with("category", &*category),
                        );
                    }
                } else {
                    self.stats.routed += 1;
                    if self.telemetry.enabled() {
                        self.telemetry.metrics().counter("mab.routed").incr();
                        self.telemetry
                            .metrics()
                            .histogram("mab.route_lag_ms")
                            .observe_ms(now.since(received_at).as_millis());
                        self.telemetry.emit(
                            Event::new("mab.routed", now.as_millis())
                                .with("category", &*category)
                                .with("fanout", subs.len()),
                        );
                    }
                }
                for (position, sub) in subs {
                    let (user, mode_name) = (&sub.user, &sub.mode_name);
                    let Some(profile) = self.config.registry.user(user) else {
                        continue;
                    };
                    let Some(mode) = profile.mode_shared(mode_name) else {
                        continue;
                    };
                    // Presence-aware mode selection: live soft-state facts
                    // may skip or demote blocks; absent/expired facts leave
                    // the static profile untouched.
                    let mode = match &self.mode_selector {
                        Some(selector) => {
                            let ctx = selector.context(user, now);
                            match crate::routing::apply_routing(&mode, &profile.address_book, &ctx)
                            {
                                Some(adjusted) => {
                                    self.stats.mode_overridden += 1;
                                    if self.telemetry.enabled() {
                                        self.telemetry
                                            .metrics()
                                            .counter("mab.mode_overridden")
                                            .incr();
                                        self.telemetry.emit(
                                            Event::new("mab.mode_overridden", now.as_millis())
                                                .with("user", &*user.0)
                                                .with("mode", mode_name.as_str())
                                                .with(
                                                    "presence",
                                                    ctx.presence
                                                        .map_or("none", |p| p.as_value()),
                                                )
                                                .with("unhealthy", ctx.unhealthy.len()),
                                        );
                                    }
                                    Arc::new(adjusted)
                                }
                                None => mode,
                            }
                        }
                        None => mode,
                    };
                    let alert_out = Alert {
                        id: AlertId(record),
                        source: Arc::clone(&alert.source),
                        category: Arc::clone(&category),
                        text: display_text(alert),
                        origin_timestamp: alert.origin_timestamp,
                        received_at: now,
                        urgency: alert.urgency,
                    };
                    let (process, commands) = DeliveryProcess::start_observed(
                        alert_out,
                        mode,
                        &profile.address_book,
                        now,
                        self.telemetry.clone(),
                    );
                    let id = DeliveryId::new(record, position);
                    self.stats.deliveries_started += 1;
                    if self.telemetry.enabled() {
                        self.telemetry.metrics().counter("mab.deliveries_started").incr();
                    }
                    for command in commands {
                        cmds.push(MabCommand::Channel {
                            delivery: id,
                            user: user.clone(),
                            command,
                        });
                    }
                    // Every block disabled: over before it began.
                    let status = process.status();
                    if status.is_terminal() {
                        cmds.push(MabCommand::Finished { delivery: id, status });
                    }
                    self.deliveries.insert(id, (user.clone(), process));
                }
            }
            Err(_) => {
                self.stats.rejected += 1;
                if self.telemetry.enabled() {
                    self.telemetry.metrics().counter("mab.rejected").incr();
                    self.telemetry.emit(
                        Event::new("mab.rejected", now.as_millis())
                            .with("source", &*alert.source),
                    );
                }
            }
        }

        if self.crash_if(CrashPoint::AfterRouteBeforeMark, now) {
            return;
        }
        // (4) Mark processed.
        self.mark_processed_or_crash(log, record, now);
    }

    /// Marks a log record processed, treating failure as a crash: the
    /// buddy stops rather than letting disk and memory diverge silently.
    /// The record stays unprocessed, so the next incarnation replays it —
    /// a duplicate the user-side dedup discards.
    fn mark_processed_or_crash(&mut self, log: &mut ShardLog, id: u64, now: SimTime) -> bool {
        if log.mark_processed(&self.user, id).is_ok() {
            return true;
        }
        self.crashed = true;
        if self.telemetry.enabled() {
            self.telemetry.metrics().counter("mab.crashes").incr();
            self.telemetry.emit(
                Event::new("mab.crashed", now.as_millis()).with("point", "wal_mark_failed"),
            );
        }
        false
    }
}

/// Short stable status name for telemetry events.
fn status_name(status: DeliveryStatus) -> &'static str {
    match status {
        DeliveryStatus::InProgress => "in_progress",
        DeliveryStatus::Acked { .. } => "acked",
        DeliveryStatus::Unconfirmed { .. } => "unconfirmed",
        DeliveryStatus::Exhausted { .. } => "exhausted",
    }
}

/// The text shown to the user: subject line if the channel had one,
/// otherwise the body itself (shared, not copied).
fn display_text(alert: &IncomingAlert) -> Arc<str> {
    if alert.subject.is_empty() {
        Arc::clone(&alert.body)
    } else {
        format!("{}: {}", alert.subject, alert.body).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::{Address, AddressBook, CommType};
    use crate::classify::KeywordField;
    use crate::delivery::AttemptId;
    use crate::mode::DeliveryMode;
    use simba_sim::SimDuration;

    fn config() -> MabConfig {
        let mut classifier = Classifier::new();
        classifier.accept_source("aladdin-gw", KeywordField::Body, "config");
        classifier.map_keyword("Sensor", "Home.Security");
        classifier.accept_source("alerts@yahoo", KeywordField::SenderName, "web");
        classifier.map_keyword("Stocks", "Investment");

        let mut registry = SubscriptionRegistry::new();
        let alice = UserId::new("alice");
        let profile = registry.register_user(alice.clone());
        let mut book = AddressBook::new();
        book.add(Address::new("IM", CommType::Im, "im:alice")).unwrap();
        book.add(Address::new("EM", CommType::Email, "alice@work")).unwrap();
        profile.address_book = book;
        profile.define_mode(DeliveryMode::im_then_email(
            "Urgent",
            "IM",
            "EM",
            SimDuration::from_secs(60),
        ));
        registry.subscribe("Home.Security", alice.clone(), "Urgent").unwrap();
        registry.subscribe("Investment", alice, "Urgent").unwrap();

        MabConfig {
            classifier,
            registry,
            rejuvenation: RejuvenationPolicy::default(),
        }
    }

    fn alice() -> UserId {
        UserId::new("alice")
    }

    /// Alice's buddy — a fresh incarnation is what the MDC's restart
    /// builds over the log it keeps.
    fn mab() -> MyAlertBuddy {
        MyAlertBuddy::new(config(), alice())
    }

    /// A buddy and a fresh in-memory shard log to lend it.
    fn mab_and_log() -> (MyAlertBuddy, ShardLog) {
        (mab(), ShardLog::in_memory())
    }

    /// Records ever appended — the shard log compacts processed ones away,
    /// so this is what tells "logged" from "never logged".
    fn appends(log: &ShardLog) -> u64 {
        log.stats().appends
    }

    fn sensor_alert(secs: u64) -> IncomingAlert {
        IncomingAlert::from_im("aladdin-gw", "Basement Water Sensor ON", SimTime::from_secs(secs))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn im_alert_logged_acked_and_routed() {
        let (mut m, mut log) = mab_and_log();
        let cmds = m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(1)), t(1));
        // Command order is the pipeline order: ack first, then the send.
        assert!(matches!(&cmds[0], MabCommand::AckIm { to, .. } if &**to == "aladdin-gw"));
        assert!(cmds.iter().any(|c| matches!(
            c,
            MabCommand::Channel { command: DeliveryCommand::Send { comm_type: CommType::Im, .. }, .. }
        )));
        assert_eq!(m.stats().acked, 1);
        assert_eq!(m.stats().routed, 1);
        assert_eq!(m.stats().deliveries_started, 1);
        assert_eq!(m.in_flight(), 1);
        // The log record is already marked processed.
        assert_eq!(log.unprocessed_len(), 0);
        assert_eq!(appends(&log), 1);
    }

    #[derive(Debug)]
    struct FixedSelector(crate::routing::RoutingContext);

    impl crate::routing::ModeSelector for FixedSelector {
        fn context(&self, _user: &UserId, _now: SimTime) -> crate::routing::RoutingContext {
            self.0.clone()
        }
    }

    #[test]
    fn away_presence_overrides_mode_to_skip_im() {
        let mut log = ShardLog::in_memory();
        let mut m = mab();
        m.set_mode_selector(Box::new(FixedSelector(crate::routing::RoutingContext {
            presence: Some(crate::routing::PresenceHint::Away),
            ..Default::default()
        })));
        let cmds = m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(1)), t(1));
        // The static profile's first block (IM) is skipped: the first (and
        // only) send goes straight to email.
        assert!(!cmds.iter().any(|c| matches!(
            c,
            MabCommand::Channel { command: DeliveryCommand::Send { comm_type: CommType::Im, .. }, .. }
        )));
        assert!(cmds.iter().any(|c| matches!(
            c,
            MabCommand::Channel { command: DeliveryCommand::Send { comm_type: CommType::Email, .. }, .. }
        )));
        assert_eq!(m.stats().mode_overridden, 1);
        assert_eq!(m.stats().deliveries_started, 1);
    }

    #[test]
    fn empty_context_keeps_static_profile() {
        let mut log = ShardLog::in_memory();
        let mut m = mab();
        m.set_mode_selector(Box::new(FixedSelector(crate::routing::RoutingContext::default())));
        let cmds = m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(1)), t(1));
        // No live facts: the static IM-first profile is used untouched.
        assert!(cmds.iter().any(|c| matches!(
            c,
            MabCommand::Channel { command: DeliveryCommand::Send { comm_type: CommType::Im, .. }, .. }
        )));
        assert_eq!(m.stats().mode_overridden, 0);
    }

    #[test]
    fn email_alert_not_acked_but_routed() {
        let (mut m, mut log) = mab_and_log();
        let alert = IncomingAlert::from_email("alerts@yahoo", "Yahoo! Stocks", "MSFT", "b", t(0));
        let cmds = m.handle(&mut log, MabEvent::AlertByEmail(alert), t(1));
        assert!(!cmds.iter().any(|c| matches!(c, MabCommand::AckIm { .. })));
        assert_eq!(m.stats().acked, 0);
        assert_eq!(m.stats().routed, 1);
    }

    #[test]
    fn rejected_source_counted_and_marked_processed() {
        let (mut m, mut log) = mab_and_log();
        let cmds = m.handle(
            &mut log,
            MabEvent::AlertByIm(IncomingAlert::from_im("spammer", "junk", t(0))),
            t(1),
        );
        // Ack still goes out (receipt ≠ acceptance), but nothing routes.
        assert_eq!(cmds.len(), 1);
        assert!(matches!(cmds[0], MabCommand::AckIm { .. }));
        assert_eq!(m.stats().rejected, 1);
        assert_eq!(log.unprocessed_len(), 0);
    }

    #[test]
    fn crash_after_ack_before_route_replays_on_recovery() {
        // The scenario pessimistic logging exists for.
        let (mut m, mut log) = mab_and_log();
        m.inject_crash_at(CrashPoint::AfterAckBeforeRoute);
        let cmds = m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(5)), t(5));
        // The ack went out...
        assert_eq!(cmds.len(), 1);
        assert!(matches!(cmds[0], MabCommand::AckIm { .. }));
        assert!(m.is_crashed());
        // ...but nothing was routed. The log still holds the alert.
        assert_eq!(log.unprocessed_len(), 1);

        // MDC restarts a fresh incarnation over the same log.
        let mut m2 = mab();
        let cmds = m2.recover(&mut log, t(10));
        assert!(cmds.iter().any(|c| matches!(c, MabCommand::Channel { .. })));
        assert_eq!(m2.stats().replayed, 1);
        assert_eq!(log.unprocessed_len(), 0);
    }

    #[test]
    fn crash_before_log_loses_nothing_durable_and_sends_no_ack() {
        let (mut m, mut log) = mab_and_log();
        m.inject_crash_at(CrashPoint::BeforeLog);
        let cmds = m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(5)), t(5));
        assert!(cmds.is_empty()); // no ack: sender falls back
        assert_eq!(appends(&log), 0);
    }

    #[test]
    fn crash_after_route_before_mark_causes_replayable_duplicate() {
        let (mut m, mut log) = mab_and_log();
        m.inject_crash_at(CrashPoint::AfterRouteBeforeMark);
        let cmds = m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(5)), t(5));
        // Routed once...
        assert!(cmds.iter().any(|c| matches!(c, MabCommand::Channel { .. })));
        // ...but unmarked, so recovery routes it again (duplicate; the
        // user-side timestamp dedup discards it).
        assert_eq!(log.unprocessed_len(), 1);
        let mut m2 = mab();
        let replay = m2.recover(&mut log, t(10));
        assert!(replay.iter().any(|c| matches!(c, MabCommand::Channel { .. })));
    }

    /// The alert id and delivery ids of every send in `cmds`.
    fn sent_ids(cmds: &[MabCommand]) -> Vec<(AlertId, DeliveryId)> {
        cmds.iter()
            .filter_map(|c| match c {
                MabCommand::Channel {
                    delivery,
                    command: DeliveryCommand::Send { alert, .. },
                    ..
                } => Some((*alert, *delivery)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn an_alerts_ids_are_its_log_records() {
        let (mut m, mut log) = mab_and_log();
        let cmds = m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(1)), t(1));
        let MabCommand::AckIm { wal_id, .. } = cmds[0] else { panic!("{cmds:?}") };
        assert_eq!(sent_ids(&cmds), [(AlertId(wal_id), DeliveryId::new(wal_id, 0))]);
        assert_eq!(DeliveryId::new(wal_id, 0).0, wal_id, "a first subscriber's id is the record's");
        // A fresh incarnation over the same log keeps no counter to
        // restart: its first alert gets the log's next record.
        let mut m2 = mab();
        let cmds = m2.handle(&mut log, MabEvent::AlertByIm(sensor_alert(2)), t(2));
        let MabCommand::AckIm { wal_id: next, .. } = cmds[0] else { panic!("{cmds:?}") };
        assert_ne!(next, wal_id);
        assert_eq!(sent_ids(&cmds), [(AlertId(next), DeliveryId::new(next, 0))]);
    }

    #[test]
    fn fan_out_positions_share_the_record() {
        let mut config = config();
        let bob = UserId::new("bob");
        let profile = config.registry.register_user(bob.clone());
        profile.address_book.add(Address::new("IM", CommType::Im, "im:bob")).unwrap();
        let mode = DeliveryMode::im_then_email("Urgent", "IM", "IM", SimDuration::from_secs(60));
        profile.define_mode(mode);
        config.registry.subscribe("Home.Security", bob, "Urgent").unwrap();
        let (mut m, mut log) = (MyAlertBuddy::new(config, alice()), ShardLog::in_memory());
        let cmds = m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(1)), t(1));
        let MabCommand::AckIm { wal_id, .. } = cmds[0] else { panic!("{cmds:?}") };
        let ids: Vec<DeliveryId> = sent_ids(&cmds).into_iter().map(|(_, id)| id).collect();
        assert_eq!(ids, [DeliveryId::new(wal_id, 0), DeliveryId::new(wal_id, 1)]);
        assert!(ids.iter().all(|id| id.record() == wal_id));
    }

    #[test]
    fn delivery_ids_pack_record_and_position_up_to_the_bound() {
        let last = DeliveryId::MAX_FANOUT - 1;
        let record = (1 << 48) - 1;
        let id = DeliveryId::new(record, last);
        assert_eq!(id.record(), record);
        assert_ne!(id, DeliveryId::new(record, last - 1));
        assert_ne!(DeliveryId::new(0, 1), DeliveryId::new(1, 0));
    }

    #[test]
    #[should_panic(expected = "does not fit a delivery id")]
    fn a_position_past_the_fan_out_bound_fails_loudly() {
        let _ = DeliveryId::new(0, DeliveryId::MAX_FANOUT);
    }

    #[test]
    #[should_panic(expected = "does not fit a delivery id")]
    fn a_record_past_48_bits_fails_loudly() {
        let _ = DeliveryId::new(1 << 48, 0);
    }

    #[test]
    fn crashed_buddy_processes_nothing() {
        let (mut m, mut log) = mab_and_log();
        m.inject_crash_at(CrashPoint::BeforeLog);
        m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(1)), t(1));
        assert!(m.is_crashed());
        assert!(!m.are_you_working());
        assert!(m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(2)), t(2)).is_empty());
        assert_eq!(appends(&log), 0);
    }

    #[test]
    fn hung_buddy_fails_health_probe_but_keeps_state() {
        let (mut m, mut log) = mab_and_log();
        m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(1)), t(1));
        m.inject_hang();
        assert!(!m.are_you_working());
        assert!(!m.is_crashed());
        assert!(m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(2)), t(2)).is_empty());
        assert_eq!(appends(&log), 1); // only the pre-hang alert
    }

    #[test]
    fn delivery_events_drive_fallback_through_mab() {
        let (mut m, mut log) = mab_and_log();
        let (id, attempt) = first_send(&m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(1)), t(1)));
        // IM send fails synchronously → email fallback command emerges.
        let cmds2 = m.handle(
            &mut log,
            MabEvent::Delivery {
                id,
                event: DeliveryEvent::SendFailed {
                    attempt,
                    failure: crate::delivery::SendFailure::RecipientUnreachable,
                },
            },
            t(2),
        );
        assert!(cmds2.iter().any(|c| matches!(
            c,
            MabCommand::Channel { command: DeliveryCommand::Send { comm_type: CommType::Email, .. }, .. }
        )));
    }

    #[test]
    fn remote_rejuvenation_command_recognized() {
        let (mut m, mut log) = mab_and_log();
        let cmds = m.handle(
            &mut log,
            MabEvent::AlertByIm(IncomingAlert::from_im("aladdin-gw", "SIMBA-REJUVENATE", t(0))),
            t(1),
        );
        assert!(cmds
            .iter()
            .any(|c| matches!(c, MabCommand::Rejuvenate(RejuvenationTrigger::RemoteCommand))));
        assert_eq!(m.stats().remote_commands, 1);
        assert_eq!(m.stats().routed, 0);
        assert_eq!(log.unprocessed_len(), 0);
        assert!(m.is_rejuvenating() && m.is_idle(&log), "idle at once: nothing in flight");
    }

    #[test]
    fn is_idle_reads_the_lent_log() {
        let (m, mut log) = mab_and_log();
        let bob = UserId::new("bob");
        log.append(&bob, &sensor_alert(1), t(1)).unwrap();
        assert!(m.is_idle(&log), "bob's unprocessed record is not alice's backlog");
        let record = log.append(&alice(), &sensor_alert(2), t(2)).unwrap();
        assert!(!m.is_idle(&log), "alice's unprocessed record keeps her buddy resident");
        log.mark_processed(&alice(), record).unwrap();
        assert!(m.is_idle(&log));
        assert!(log.has_unprocessed_for(&bob));
    }

    #[test]
    fn unsubscribed_category_counted() {
        let (mut m, mut log) = mab_and_log();
        m.config_mut()
            .registry
            .set_enabled("Home.Security", &UserId::new("alice"), false);
        m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(1)), t(1));
        assert_eq!(m.stats().unsubscribed, 1);
        assert_eq!(m.stats().deliveries_started, 0);
    }

    #[test]
    fn failed_processed_mark_crashes_the_buddy() {
        // Regression: a mark_processed error used to be swallowed by
        // `let _ =`, leaving the record unprocessed with no signal. It must
        // crash the buddy (the MDC restarts it; replay dedups the alert).
        use simba_telemetry::{RingBufferSink, Telemetry};
        let sink = std::sync::Arc::new(RingBufferSink::new(64));
        let (m, mut log) = mab_and_log();
        let mut m = m.with_telemetry(Telemetry::with_sink(sink.clone()));
        log.inject_mark_failure(&alice());
        let cmds = m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(1)), t(1));

        // The pipeline ran (ack + route went out) before the mark failed...
        assert!(cmds.iter().any(|c| matches!(c, MabCommand::AckIm { .. })));
        assert!(cmds.iter().any(|c| matches!(c, MabCommand::Channel { .. })));
        // ...then the buddy crashed instead of continuing with divergent state.
        assert!(m.is_crashed());
        assert!(!m.are_you_working());
        assert!(sink
            .events()
            .iter()
            .any(|e| e.name == "mab.crashed"
                && e.fields.iter().any(|(k, v)| k == "point" && v.to_string().contains("wal_mark_failed"))));

        // The record survives unprocessed: the next incarnation replays it
        // (the injected failure was one-shot).
        assert_eq!(log.unprocessed_len(), 1);
        let mut m2 = mab();
        let replay = m2.recover(&mut log, t(10));
        assert!(replay.iter().any(|c| matches!(c, MabCommand::Channel { .. })));
        assert_eq!(log.unprocessed_len(), 0);
    }

    #[test]
    fn failed_mark_on_remote_rejuvenate_crashes_without_rejuvenating() {
        let (mut m, mut log) = mab_and_log();
        log.inject_mark_failure(&alice());
        let cmds = m.handle(
            &mut log,
            MabEvent::AlertByIm(IncomingAlert::from_im("aladdin-gw", "SIMBA-REJUVENATE", t(0))),
            t(1),
        );
        // Crashing beats gracefully rejuvenating: the MDC restart covers both.
        assert!(!cmds.iter().any(|c| matches!(c, MabCommand::Rejuvenate(_))));
        assert!(m.is_crashed());
        assert!(!m.is_rejuvenating());
    }

    /// The delivery of the first send command in `cmds`.
    fn first_send(cmds: &[MabCommand]) -> (DeliveryId, AttemptId) {
        cmds.iter()
            .find_map(|c| match c {
                MabCommand::Channel {
                    delivery,
                    command: DeliveryCommand::Send { attempt, .. },
                    ..
                } => Some((*delivery, *attempt)),
                _ => None,
            })
            .unwrap()
    }

    /// The `Finished` commands in `cmds`.
    fn finished(cmds: &[MabCommand]) -> Vec<(DeliveryId, DeliveryStatus)> {
        cmds.iter()
            .filter_map(|c| match c {
                MabCommand::Finished { delivery, status } => Some((*delivery, *status)),
                _ => None,
            })
            .collect()
    }

    fn delivery(id: DeliveryId, event: DeliveryEvent) -> MabEvent {
        MabEvent::Delivery { id, event }
    }

    #[test]
    fn a_delivery_finishes_once_and_retires_once() {
        let (mut m, mut log) = mab_and_log();
        let cmds = m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(1)), t(1));
        assert!(finished(&cmds).is_empty(), "{cmds:?}");
        let (id, attempt) = first_send(&cmds);
        let accepted = m.handle(&mut log, delivery(id, DeliveryEvent::SendAccepted { attempt }), t(2));
        assert!(finished(&accepted).is_empty(), "still waiting for the ack");
        let acked = m.handle(&mut log, delivery(id, DeliveryEvent::Acked { attempt }), t(3));
        let done = finished(&acked);
        assert_eq!(done.len(), 1, "{acked:?}");
        assert_eq!(done[0].0, id);
        assert!(matches!(done[0].1, DeliveryStatus::Acked { .. }), "{done:?}");
        let again = m.handle(&mut log, delivery(id, DeliveryEvent::Acked { attempt }), t(4));
        assert!(finished(&again).is_empty(), "a repeated ack finishes nothing");

        // The driver retires a concluded delivery once, an in-flight one never.
        let cmds = m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(5)), t(5));
        let (pending, im) = first_send(&cmds);
        assert_ne!(pending, id);
        assert!(!m.retire(pending, t(6)), "in flight");
        assert_eq!(m.in_flight(), 1);
        assert!(m.retire(id, t(6)));
        assert_eq!(m.delivery_status(id), None);
        assert!(!m.retire(id, t(7)), "already retired");

        // The ack window lapses and the email fallback concludes it
        // unconfirmed; the IM ack that straggles in upgrades the status but
        // finishes nothing a second time.
        let timer = cmds
            .iter()
            .find_map(|c| match c {
                MabCommand::Channel { command: DeliveryCommand::StartTimer { timer, .. }, .. } => Some(*timer),
                _ => None,
            })
            .unwrap();
        m.handle(&mut log, delivery(pending, DeliveryEvent::SendAccepted { attempt: im }), t(6));
        let fallback = m.handle(&mut log, delivery(pending, DeliveryEvent::TimerFired { timer }), t(65));
        assert!(finished(&fallback).is_empty());
        let (_, email) = first_send(&fallback);
        let sent = m.handle(&mut log, delivery(pending, DeliveryEvent::SendAccepted { attempt: email }), t(66));
        let done = finished(&sent);
        assert_eq!(done.len(), 1, "{sent:?}");
        assert!(matches!(done[0], (d, DeliveryStatus::Unconfirmed { block: 1, .. }) if d == pending), "{done:?}");
        let late = m.handle(&mut log, delivery(pending, DeliveryEvent::Acked { attempt: im }), t(70));
        assert!(finished(&late).is_empty(), "{late:?}");
        assert!(matches!(m.delivery_status(pending), Some(DeliveryStatus::Acked { block: 0, .. })));
        assert!(m.retire(pending, t(71)));
        assert!(m.is_idle(&log));

        // With every block disabled a delivery is over as it starts: its
        // `Finished` rides with the routing call's own commands.
        let (mut m, mut log) = mab_and_log();
        let book = &mut m.config_mut().registry.user_mut(&alice()).unwrap().address_book;
        book.set_enabled("IM", false);
        book.set_enabled("EM", false);
        let cmds = m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(1)), t(1));
        let MabCommand::AckIm { wal_id, .. } = cmds[0] else { panic!("{cmds:?}") };
        assert!(!cmds.iter().any(|c| matches!(c, MabCommand::Channel { .. })), "{cmds:?}");
        let done = finished(&cmds);
        assert_eq!(done.len(), 1, "{cmds:?}");
        assert!(matches!(done[0], (d, DeliveryStatus::Exhausted { .. }) if d == DeliveryId::new(wal_id, 0)));
        assert_eq!(m.in_flight(), 0);
        assert!(!m.is_idle(&log), "held until its driver retires it");
        assert!(m.retire(done[0].0, t(1)));
        assert!(m.is_idle(&log));
    }

    #[test]
    fn subject_prefixes_display_text() {
        let (mut m, mut log) = mab_and_log();
        let alert = IncomingAlert::from_email("alerts@yahoo", "Yahoo! Stocks", "MSFT at 80", "details", t(0));
        let cmds = m.handle(&mut log, MabEvent::AlertByEmail(alert), t(1));
        let text = cmds
            .iter()
            .find_map(|c| match c {
                MabCommand::Channel {
                    command: DeliveryCommand::Send { text, .. },
                    ..
                } => Some(text.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(&*text, "MSFT at 80: details");
    }
}
