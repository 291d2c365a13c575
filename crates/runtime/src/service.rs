//! The live MyAlertBuddy service task.
//!
//! Beyond relaying events into the core state machine, the service owns
//! the *delivery lifecycle*: every delivery the buddy starts gets a
//! generation-tagged entry in a `live` table holding its pending timer
//! and ack tasks. When a delivery reaches a terminal state it is retired
//! — evicted from [`MyAlertBuddy`]'s active table into the bounded
//! completed-ring, its `attempt_owner` entries dropped, and its pending
//! tasks aborted so stale wakeups cancel instead of leaking sleeps.

use crate::channels::{Channels, SendOutcome};
use crate::clock::RuntimeClock;
use simba_core::alert::IncomingAlert;
use simba_core::delivery::{AttemptId, DeliveryCommand, DeliveryEvent, DeliveryStatus};
use simba_core::mab::{DeliveryId, MabCommand, MabEvent, MabStats, MyAlertBuddy};
use simba_core::rejuvenate::RejuvenationTrigger;
use simba_core::wal::{InMemoryWal, WriteAheadLog};
use simba_core::{MabConfig, Telemetry};
use simba_telemetry::Event;
use std::collections::HashMap;
use std::time::Duration;
use tokio::sync::mpsc;

/// Capacity of the advisory notice stream handed back by
/// [`MabService::new`]. Sized for a consumer that polls at human pace
/// while a burst of deliveries finishes.
const NOTICE_CAPACITY: usize = 256;

/// Something the service reports to its observer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeNotice {
    /// The buddy acknowledged an incoming IM alert back to `source`.
    AckSent {
        /// The acknowledged source.
        source: String,
    },
    /// A delivery reached a terminal state.
    DeliveryFinished {
        /// Which delivery.
        delivery: DeliveryId,
        /// Its terminal status.
        status: DeliveryStatus,
    },
    /// The buddy requested rejuvenation; the service loop exits after this.
    Rejuvenating(
        /// Why.
        RejuvenationTrigger,
    ),
}

/// A point-in-time view of the service's in-memory delivery state; tests
/// use it to assert that retirement keeps every table bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceSnapshot {
    /// The buddy's running totals.
    pub stats: MabStats,
    /// Deliveries still executing blocks.
    pub in_flight: usize,
    /// Deliveries held in the buddy's active table (in-flight plus
    /// terminal-awaiting-retirement).
    pub tracked: usize,
    /// Entries in the service's live-delivery table.
    pub live: usize,
    /// Entries in the attempt → delivery routing map.
    pub attempt_owner: usize,
    /// Summaries currently in the completed-ring (≤ its cap).
    pub retired: usize,
    /// Spawned timer/ack tasks not yet finished or aborted.
    pub pending_tasks: usize,
}

#[derive(Debug)]
enum Inbound {
    ImAlert(IncomingAlert),
    EmailAlert(IncomingAlert),
    Ack {
        delivery: DeliveryId,
        attempt: AttemptId,
        /// The delivery generation that spawned this ack task; `None` for
        /// external acks reported through [`MabHandle::ack`].
        gen: Option<u64>,
    },
    Timer {
        delivery: DeliveryId,
        timer: simba_core::delivery::TimerId,
        gen: u64,
    },
    AreYouWorking(tokio::sync::oneshot::Sender<bool>),
    Snapshot(tokio::sync::oneshot::Sender<ServiceSnapshot>),
    Stop,
}

/// A cloneable handle for feeding the service.
#[derive(Debug, Clone)]
pub struct MabHandle {
    tx: mpsc::Sender<Inbound>,
}

impl MabHandle {
    /// Submits an alert that arrived over IM (will be acked).
    pub async fn submit_im_alert(&self, alert: IncomingAlert) {
        let _ = self.tx.send(Inbound::ImAlert(alert)).await;
    }

    /// Submits an alert that arrived over email.
    pub async fn submit_email_alert(&self, alert: IncomingAlert) {
        let _ = self.tx.send(Inbound::EmailAlert(alert)).await;
    }

    /// Reports a user acknowledgement for a delivery attempt (e.g. the
    /// user clicked the IM toast). Ignored if the delivery has already
    /// been retired.
    pub async fn ack(&self, delivery: DeliveryId, attempt: AttemptId) {
        let _ = self
            .tx
            .send(Inbound::Ack { delivery, attempt, gen: None })
            .await;
    }

    /// The watchdog probe: resolves `true` when the service loop is alive
    /// and processing. Resolves `false` if the service is gone.
    pub async fn are_you_working(&self) -> bool {
        let (reply_tx, reply_rx) = tokio::sync::oneshot::channel();
        if self
            .tx
            .send(Inbound::AreYouWorking(reply_tx))
            .await
            .is_err()
        {
            return false;
        }
        reply_rx.await.unwrap_or(false)
    }

    /// Requests a state snapshot (retiring due deliveries first). Resolves
    /// `None` if the service is gone.
    pub async fn snapshot(&self) -> Option<ServiceSnapshot> {
        let (reply_tx, reply_rx) = tokio::sync::oneshot::channel();
        self.tx.send(Inbound::Snapshot(reply_tx)).await.ok()?;
        reply_rx.await.ok()
    }

    /// Asks the service loop to exit after processing previously queued
    /// input; the `run()` future then resolves with the final stats.
    pub async fn stop(&self) {
        let _ = self.tx.send(Inbound::Stop).await;
    }
}

/// Per-delivery runtime bookkeeping: the generation stamped into spawned
/// timer/ack tasks (wakeups from older generations are stale) and the
/// tasks themselves, aborted at retirement.
struct LiveDelivery {
    gen: u64,
    notified: bool,
    tasks: Vec<tokio::task::JoinHandle<()>>,
}

impl std::fmt::Debug for LiveDelivery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveDelivery")
            .field("gen", &self.gen)
            .field("notified", &self.notified)
            .field("tasks", &self.tasks.len())
            .finish()
    }
}

/// The live service wrapping a [`MyAlertBuddy`].
#[derive(Debug)]
pub struct MabService<C, W = InMemoryWal> {
    mab: MyAlertBuddy<W>,
    channels: C,
    clock: RuntimeClock,
    rx: mpsc::Receiver<Inbound>,
    self_tx: mpsc::Sender<Inbound>,
    notices: mpsc::Sender<RuntimeNotice>,
    /// (delivery, attempt) → generation, for routing and validating acks.
    /// Entries are dropped when their delivery retires.
    attempt_owner: HashMap<(DeliveryId, AttemptId), u64>,
    /// Runtime bookkeeping for every delivery still in the buddy's table.
    live: HashMap<DeliveryId, LiveDelivery>,
    next_gen: u64,
    telemetry: Telemetry,
}

impl<C: Channels> MabService<C, InMemoryWal> {
    /// Builds the service over a fresh in-memory log; returns it plus the
    /// submit handle and the notice stream.
    pub fn new(
        config: MabConfig,
        channels: C,
    ) -> (Self, MabHandle, mpsc::Receiver<RuntimeNotice>) {
        MabService::with_wal(config, channels, InMemoryWal::new())
    }
}

impl<C: Channels, W: WriteAheadLog + Send + 'static> MabService<C, W> {
    /// Builds the service over an existing (possibly non-empty) log. The
    /// restart protocol runs on the first loop turn: unprocessed records
    /// are replayed before new alerts are accepted. (A durable daemon is
    /// a [`crate::ShardedHost`] with a log directory; this single-buddy
    /// shape keeps its log in memory.)
    pub fn with_wal(
        config: MabConfig,
        channels: C,
        wal: W,
    ) -> (Self, MabHandle, mpsc::Receiver<RuntimeNotice>) {
        let clock = RuntimeClock::start();
        let (tx, rx) = mpsc::channel(256);
        // Notices are advisory (delivery state is durable in the WAL), so
        // a lagging consumer costs dropped notices, never memory:
        // overflow is counted under `runtime.notice_dropped`.
        let (notice_tx, notice_rx) = mpsc::channel(NOTICE_CAPACITY);
        let mab = MyAlertBuddy::new(config, wal, clock.now());
        let service = MabService {
            mab,
            channels,
            clock,
            rx,
            self_tx: tx.clone(),
            notices: notice_tx,
            attempt_owner: HashMap::new(),
            live: HashMap::new(),
            next_gen: 0,
            telemetry: Telemetry::disabled(),
        };
        (service, MabHandle { tx }, notice_rx)
    }

    /// Routes `runtime.*` events and metrics to `telemetry`, and threads
    /// the same handle into the wrapped [`MyAlertBuddy`] so the core
    /// pipeline (`mab.*`, `wal.*`, `delivery.*`) shares the sink.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.mab.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// Runs until all handles are dropped, [`MabHandle::stop`] is called,
    /// or a rejuvenation triggers. Returns the final stats.
    pub async fn run(mut self) -> MabStats {
        // The §4.2.1 restart protocol: replay unprocessed log records
        // before accepting new alerts.
        let now = self.clock.now();
        let before = self.mab.delivery_watermark();
        let recovery = self.mab.recover(now);
        if self.telemetry.enabled() {
            self.telemetry.metrics().counter("runtime.recoveries").incr();
            self.telemetry.emit(
                Event::new("runtime.recovered", now.as_millis())
                    .with("replayed", self.mab.stats().replayed),
            );
        }
        let started = self.register_new(before);
        if self.execute(recovery).await {
            return self.mab.stats();
        }
        for id in started {
            self.notify_if_finished(id);
        }
        self.retire_finished();
        while let Some(inbound) = self.rx.recv().await {
            let now = self.clock.now();
            let mut finished_check = None;
            let before = self.mab.delivery_watermark();
            let commands = match inbound {
                Inbound::ImAlert(alert) => self.mab.handle(MabEvent::AlertByIm(alert), now),
                Inbound::EmailAlert(alert) => self.mab.handle(MabEvent::AlertByEmail(alert), now),
                Inbound::Ack { delivery, attempt, gen } => {
                    if self.ack_is_stale(delivery, attempt, gen) {
                        self.note_stale("ack");
                        continue;
                    }
                    finished_check = Some(delivery);
                    self.mab.handle(
                        MabEvent::Delivery {
                            id: delivery,
                            event: DeliveryEvent::Acked { attempt },
                        },
                        now,
                    )
                }
                Inbound::Timer { delivery, timer, gen } => {
                    if self.live.get(&delivery).map(|l| l.gen) != Some(gen) {
                        self.note_stale("timer");
                        continue;
                    }
                    finished_check = Some(delivery);
                    self.mab.handle(
                        MabEvent::Delivery {
                            id: delivery,
                            event: DeliveryEvent::TimerFired { timer },
                        },
                        now,
                    )
                }
                Inbound::AreYouWorking(reply) => {
                    let _ = reply.send(self.mab.are_you_working());
                    continue;
                }
                Inbound::Snapshot(reply) => {
                    self.retire_finished();
                    let _ = reply.send(self.snapshot_now());
                    continue;
                }
                Inbound::Stop => break,
            };
            let started = self.register_new(before);
            if self.execute(commands).await {
                break; // rejuvenating
            }
            for id in started {
                self.notify_if_finished(id);
            }
            if let Some(delivery) = finished_check {
                self.notify_if_finished(delivery);
            }
            self.retire_finished();
        }
        self.mab.stats()
    }

    /// Registers live-table entries for deliveries the buddy started since
    /// the `before` watermark, returning their ids so the caller can check
    /// for immediate terminal transitions (a delivery whose every block is
    /// disabled exhausts with zero send commands).
    fn register_new(&mut self, before: u64) -> Vec<DeliveryId> {
        let after = self.mab.delivery_watermark();
        (before..after)
            .map(|raw| {
                let id = DeliveryId(raw);
                let gen = self.next_gen;
                self.next_gen += 1;
                self.live.insert(id, LiveDelivery { gen, notified: false, tasks: Vec::new() });
                id
            })
            .collect()
    }

    /// Whether an inbound ack refers to a retired delivery or a stale
    /// generation.
    fn ack_is_stale(&self, delivery: DeliveryId, attempt: AttemptId, gen: Option<u64>) -> bool {
        match gen {
            Some(gen) => self.live.get(&delivery).map(|l| l.gen) != Some(gen),
            None => !self.attempt_owner.contains_key(&(delivery, attempt)),
        }
    }

    fn note_stale(&self, kind: &str) {
        if self.telemetry.enabled() {
            self.telemetry.metrics().counter("runtime.stale_dropped").incr();
            self.telemetry.emit(
                Event::new("runtime.stale_dropped", self.clock.now().as_millis())
                    .with("kind", kind),
            );
        }
    }

    /// Retires deliveries whose grace expired: their live entries go, their
    /// pending tasks are aborted (cancelling the underlying sleeps), and
    /// their attempt-routing entries are dropped.
    fn retire_finished(&mut self) {
        let now = self.clock.now();
        for retired in self.mab.retire_terminal(now) {
            if let Some(entry) = self.live.remove(&retired.id) {
                for task in entry.tasks {
                    task.abort();
                }
            }
            for attempt in &retired.attempts {
                self.attempt_owner.remove(&(retired.id, *attempt));
            }
        }
    }

    fn snapshot_now(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            stats: self.mab.stats(),
            in_flight: self.mab.in_flight(),
            tracked: self.mab.tracked(),
            live: self.live.len(),
            attempt_owner: self.attempt_owner.len(),
            retired: self.mab.retired_len(),
            pending_tasks: self
                .live
                .values()
                .flat_map(|l| &l.tasks)
                .filter(|t| !t.is_finished())
                .count(),
        }
    }

    /// Executes MAB commands; returns `true` when the loop should exit.
    async fn execute(&mut self, commands: Vec<MabCommand>) -> bool {
        let mut queue = commands;
        while !queue.is_empty() {
            let mut follow_ups = Vec::new();
            for command in queue {
                match command {
                    MabCommand::AckIm { to, .. } => {
                        if self.telemetry.enabled() {
                            self.telemetry.metrics().counter("runtime.acks_sent").incr();
                        }
                        self.notify(RuntimeNotice::AckSent { source: to });
                    }
                    MabCommand::Rejuvenate(trigger) => {
                        if self.telemetry.enabled() {
                            self.telemetry.metrics().counter("runtime.rejuvenations").incr();
                            self.telemetry.emit(
                                Event::new("runtime.rejuvenating", self.clock.now().as_millis())
                                    .with("trigger", trigger.to_string()),
                            );
                        }
                        self.notify(RuntimeNotice::Rejuvenating(trigger));
                        return true;
                    }
                    MabCommand::Channel {
                        delivery,
                        command,
                        ..
                    } => match command {
                        DeliveryCommand::Send {
                            attempt,
                            comm_type,
                            address_value,
                            text,
                            ..
                        } => {
                            let gen = self.generation(delivery);
                            self.attempt_owner.insert((delivery, attempt), gen);
                            let outcome = self.channels.send(comm_type, &address_value, &text);
                            if self.telemetry.enabled() {
                                self.telemetry.metrics().counter("runtime.sends").incr();
                                self.telemetry.emit(
                                    Event::new("runtime.send", self.clock.now().as_millis())
                                        .with("channel", comm_type.to_string())
                                        .with(
                                            "accepted",
                                            !matches!(outcome, SendOutcome::Failed(_)),
                                        ),
                                );
                            }
                            let event = match outcome {
                                // simba-analyze: allow(durability.ack-before-commit): direct (unledgered) send path — this mirrors the adapter's synchronous accept; durable-before-ack applies to the ledgered path
                                SendOutcome::Accepted => DeliveryEvent::SendAccepted { attempt },
                                SendOutcome::AcceptedWithAck(after) => {
                                    self.spawn_ack(delivery, attempt, gen, after);
                                    // simba-analyze: allow(durability.ack-before-commit): direct (unledgered) send path — the adapter accepted synchronously
                                    DeliveryEvent::SendAccepted { attempt }
                                }
                                SendOutcome::Failed(failure) => {
                                    DeliveryEvent::SendFailed { attempt, failure }
                                }
                            };
                            let now = self.clock.now();
                            follow_ups.extend(self.mab.handle(
                                MabEvent::Delivery { id: delivery, event },
                                now,
                            ));
                            self.notify_if_finished(delivery);
                        }
                        DeliveryCommand::StartTimer { timer, after } => {
                            let gen = self.generation(delivery);
                            let tx = self.self_tx.clone();
                            let task = tokio::spawn(async move {
                                tokio::time::sleep(Duration::from_millis(after.as_millis())).await;
                                let _ = tx.send(Inbound::Timer { delivery, timer, gen }).await;
                            });
                            self.track_task(delivery, task);
                        }
                    },
                }
            }
            queue = follow_ups;
        }
        false
    }

    fn generation(&self, delivery: DeliveryId) -> u64 {
        self.live.get(&delivery).map(|l| l.gen).unwrap_or_default()
    }

    fn track_task(&mut self, delivery: DeliveryId, task: tokio::task::JoinHandle<()>) {
        if let Some(entry) = self.live.get_mut(&delivery) {
            entry.tasks.push(task);
        }
    }

    fn spawn_ack(&mut self, delivery: DeliveryId, attempt: AttemptId, gen: u64, after: Duration) {
        let tx = self.self_tx.clone();
        let task = tokio::spawn(async move {
            tokio::time::sleep(after).await;
            let _ = tx
                .send(Inbound::Ack { delivery, attempt, gen: Some(gen) })
                .await;
        });
        self.track_task(delivery, task);
    }

    fn notify_if_finished(&mut self, delivery: DeliveryId) {
        let Some(status) = self.mab.delivery_status(delivery) else {
            return;
        };
        if !status.is_terminal() {
            return;
        }
        // One notice per delivery: a late ack upgrading the outcome during
        // the grace window does not re-notify.
        match self.live.get_mut(&delivery) {
            Some(entry) if entry.notified => return,
            Some(entry) => entry.notified = true,
            None => {}
        }
        if self.telemetry.enabled() {
            self.telemetry.metrics().counter("runtime.deliveries_finished").incr();
            self.telemetry.emit(
                Event::new("runtime.delivery_finished", self.clock.now().as_millis())
                    .with("delivery", delivery.0)
                    .with("status", status_name(status)),
            );
        }
        self.notify(RuntimeNotice::DeliveryFinished { delivery, status });
    }

    /// Offers a notice to the (bounded) notice stream. Notices are
    /// advisory: when the consumer lags or is gone, the notice is dropped
    /// and counted rather than buffered or awaited — the service loop
    /// must never block on an observer.
    fn notify(&self, notice: RuntimeNotice) {
        if self.notices.try_send(notice).is_err() && self.telemetry.enabled() {
            self.telemetry.metrics().counter("runtime.notice_dropped").incr();
        }
    }
}

/// Short stable name for a delivery status in telemetry events.
fn status_name(status: DeliveryStatus) -> &'static str {
    match status {
        DeliveryStatus::InProgress => "in_progress",
        DeliveryStatus::Acked { .. } => "acked",
        DeliveryStatus::Unconfirmed { .. } => "unconfirmed",
        DeliveryStatus::Exhausted { .. } => "exhausted",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_core::address::{Address, AddressBook, CommType};
    use simba_core::classify::{Classifier, KeywordField};
    use simba_core::delivery::SendFailure;
    use simba_core::mode::DeliveryMode;
    use simba_core::rejuvenate::RejuvenationPolicy;
    use simba_core::subscription::{SubscriptionRegistry, UserId};
    use simba_sim::{SimDuration, SimTime};

    fn config() -> MabConfig {
        let mut classifier = Classifier::new();
        classifier.accept_source("aladdin-gw", KeywordField::Body, "cfg");
        classifier.map_keyword("Sensor", "Home");
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
        registry.subscribe("Home", alice, "Urgent").unwrap();
        MabConfig {
            classifier,
            registry,
            rejuvenation: RejuvenationPolicy::default(),
        }
    }

    fn sensor_alert() -> IncomingAlert {
        IncomingAlert::from_im("aladdin-gw", "Basement Water Sensor ON", SimTime::ZERO)
    }

    async fn next_finished(
        notices: &mut mpsc::Receiver<RuntimeNotice>,
    ) -> DeliveryStatus {
        loop {
            match notices.recv().await.expect("service alive") {
                RuntimeNotice::DeliveryFinished { status, .. } => return status,
                _ => continue,
            }
        }
    }

    #[tokio::test(start_paused = true)]
    async fn alert_acked_end_to_end() {
        let channels = LoopbackHarness::always_ack(Duration::from_millis(400));
        let (service, handle, mut notices) = MabService::new(config(), channels);
        tokio::spawn(service.run());
        handle.submit_im_alert(sensor_alert()).await;

        // First notice: the MAB ack back to the source.
        assert_eq!(
            notices.recv().await.unwrap(),
            RuntimeNotice::AckSent { source: "aladdin-gw".into() }
        );
        // Then the user's IM ack lands (≈400 ms of paused time auto-advances).
        let status = next_finished(&mut notices).await;
        assert!(matches!(status, DeliveryStatus::Acked { block: 0, .. }));
    }

    #[tokio::test(start_paused = true)]
    async fn im_failure_falls_back_to_email_immediately() {
        let mut channels = LoopbackHarness::always_ack(Duration::from_millis(400));
        channels.0.script(
            "im:alice",
            SendOutcome::Failed(SendFailure::RecipientUnreachable),
        );
        let (service, handle, mut notices) = MabService::new(config(), channels);
        tokio::spawn(service.run());
        handle.submit_im_alert(sensor_alert()).await;
        let status = next_finished(&mut notices).await;
        assert!(matches!(status, DeliveryStatus::Unconfirmed { block: 1, .. }));
    }

    #[tokio::test(start_paused = true)]
    async fn missing_ack_times_out_into_email_fallback() {
        // IM accepted but the user never acks: the 60 s delivery-mode
        // timer (real tokio sleep, auto-advanced) must trigger the email.
        let channels = LoopbackHarness::accept_all();
        let (service, handle, mut notices) = MabService::new(config(), channels);
        tokio::spawn(service.run());
        let t0 = tokio::time::Instant::now();
        handle.submit_im_alert(sensor_alert()).await;
        let status = next_finished(&mut notices).await;
        assert!(matches!(status, DeliveryStatus::Unconfirmed { block: 1, .. }));
        assert!(t0.elapsed() >= Duration::from_secs(60));
    }

    #[tokio::test(start_paused = true)]
    async fn all_disabled_delivery_emits_exhausted_finished_notice() {
        // Regression: a delivery that is terminal at start — every block's
        // addresses disabled, so zero Send commands — never took the
        // send-outcome path into notify_if_finished, and observers waiting
        // on the notice stream hung forever.
        let mut config = config();
        let alice = UserId::new("alice");
        let profile = config.registry.user_mut(&alice).unwrap();
        profile.address_book.set_enabled("IM", false);
        profile.address_book.set_enabled("EM", false);

        let channels = LoopbackHarness::accept_all();
        let (service, handle, mut notices) = MabService::new(config, channels);
        tokio::spawn(service.run());
        handle.submit_im_alert(sensor_alert()).await;

        assert_eq!(
            notices.recv().await.unwrap(),
            RuntimeNotice::AckSent { source: "aladdin-gw".into() }
        );
        let status = next_finished(&mut notices).await;
        assert!(matches!(status, DeliveryStatus::Exhausted { .. }));
    }

    #[tokio::test(start_paused = true)]
    async fn retirement_frees_state_and_aborts_pending_timers() {
        // The delivery acks at ~400 ms; the 60 s block timer is still
        // pending. Retirement must clear every table and abort the sleep.
        let channels = LoopbackHarness::always_ack(Duration::from_millis(400));
        let (service, handle, mut notices) = MabService::new(config(), channels);
        tokio::spawn(service.run());
        let t0 = tokio::time::Instant::now();
        handle.submit_im_alert(sensor_alert()).await;
        let status = next_finished(&mut notices).await;
        assert!(matches!(status, DeliveryStatus::Acked { .. }));

        let snap = handle.snapshot().await.expect("service alive");
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.tracked, 0);
        assert_eq!(snap.live, 0);
        assert_eq!(snap.attempt_owner, 0);
        assert_eq!(snap.retired, 1);
        assert_eq!(snap.stats.retired, 1);
        assert_eq!(snap.pending_tasks, 0);
        // The snapshot resolved without the paused clock having to advance
        // through the 60 s ack-window sleep: the abort cancelled its timer.
        assert!(t0.elapsed() < Duration::from_secs(60));
    }

    #[tokio::test(start_paused = true)]
    async fn external_ack_after_retirement_is_dropped() {
        use simba_telemetry::RingBufferSink;
        use std::sync::Arc;

        let sink = Arc::new(RingBufferSink::new(256));
        let telemetry = Telemetry::with_sink(sink.clone());
        let channels = LoopbackHarness::always_ack(Duration::from_millis(400));
        let (service, handle, mut notices) = MabService::new(config(), channels);
        let service = service.with_telemetry(telemetry.clone());
        tokio::spawn(service.run());
        handle.submit_im_alert(sensor_alert()).await;
        let status = next_finished(&mut notices).await;
        assert!(matches!(status, DeliveryStatus::Acked { .. }));

        // Force retirement, then replay the user's ack for the (now
        // retired) first attempt.
        let snap = handle.snapshot().await.unwrap();
        assert_eq!(snap.attempt_owner, 0);
        handle.ack(DeliveryId(0), AttemptId(0)).await;
        let after = handle.snapshot().await.unwrap();
        assert_eq!(after.stats, snap.stats);
        assert_eq!(telemetry.metrics().snapshot().counter("runtime.stale_dropped"), 1);
    }

    #[tokio::test(start_paused = true)]
    async fn wal_replay_routes_before_new_alerts() {
        // Two unprocessed records sit in the log when the service boots; a
        // third alert is submitted live. Replayed deliveries must claim the
        // first delivery ids and finish alongside the new one.
        let mut wal = InMemoryWal::new();
        {
            use simba_core::wal::WriteAheadLog as _;
            wal.append(
                &IncomingAlert::from_im("aladdin-gw", "Sensor replay A", SimTime::ZERO),
                SimTime::ZERO,
            )
            .unwrap();
            wal.append(
                &IncomingAlert::from_im("aladdin-gw", "Sensor replay B", SimTime::ZERO),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let channels = LoopbackHarness::always_ack(Duration::from_millis(100));
        let (service, handle, mut notices) = MabService::with_wal(config(), channels, wal);
        tokio::spawn(service.run());
        handle.submit_im_alert(sensor_alert()).await;

        let mut finished = Vec::new();
        while finished.len() < 3 {
            if let RuntimeNotice::DeliveryFinished { delivery, status } =
                notices.recv().await.unwrap()
            {
                finished.push((delivery, status));
            }
        }
        let mut ids: Vec<u64> = finished.iter().map(|(d, _)| d.0).collect();
        ids.sort_unstable();
        // Replays took ids 0 and 1 (§4.2.1: replay precedes new alerts);
        // the live alert got id 2.
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(finished.iter().all(|(_, s)| matches!(s, DeliveryStatus::Acked { .. })));
        let snap = handle.snapshot().await.unwrap();
        assert_eq!(snap.stats.replayed, 2);
        assert_eq!(snap.stats.deliveries_started, 3);
        assert_eq!(snap.tracked, 0);
    }

    #[tokio::test(start_paused = true)]
    async fn stop_drains_and_returns_stats() {
        let channels = LoopbackHarness::always_ack(Duration::from_millis(100));
        let (service, handle, mut notices) = MabService::new(config(), channels);
        let join = tokio::spawn(service.run());
        handle.submit_im_alert(sensor_alert()).await;
        let _ = next_finished(&mut notices).await;
        handle.stop().await;
        let stats = join.await.unwrap();
        assert_eq!(stats.deliveries_started, 1);
        // The loop exited: the probe now fails.
        assert!(!handle.are_you_working().await);
    }

    #[tokio::test(start_paused = true)]
    async fn telemetry_spans_runtime_and_core_layers() {
        use simba_telemetry::RingBufferSink;
        use std::sync::Arc;

        let sink = Arc::new(RingBufferSink::new(256));
        let telemetry = Telemetry::with_sink(sink.clone());
        let channels = LoopbackHarness::always_ack(Duration::from_millis(400));
        let (service, handle, mut notices) = MabService::new(config(), channels);
        let service = service.with_telemetry(telemetry.clone());
        tokio::spawn(service.run());
        handle.submit_im_alert(sensor_alert()).await;
        let status = next_finished(&mut notices).await;
        assert!(matches!(status, DeliveryStatus::Acked { .. }));

        // One event stream spans both layers: the core pipeline (mab.*,
        // wal.*, delivery.*) and the runtime shell (runtime.*).
        let names: Vec<String> = sink.events().into_iter().map(|e| e.name).collect();
        for expected in ["runtime.recovered", "mab.received", "wal.append", "runtime.send", "delivery.acked", "runtime.delivery_finished"] {
            assert!(names.iter().any(|n| n == expected), "missing {expected} in {names:?}");
        }
        let snap = telemetry.metrics().snapshot();
        assert_eq!(snap.counter("runtime.sends"), 1);
        assert_eq!(snap.counter("runtime.acks_sent"), 1);
        assert_eq!(snap.counter("runtime.deliveries_finished"), 1);
        assert_eq!(snap.counter("mab.received"), 1);
        assert_eq!(snap.histogram("delivery.ack_latency_ms").unwrap().count, 1);
    }

    #[tokio::test(start_paused = true)]
    async fn watchdog_probe_answers() {
        let channels = LoopbackHarness::accept_all();
        let (service, handle, _notices) = MabService::new(config(), channels);
        tokio::spawn(service.run());
        assert!(handle.are_you_working().await);
    }

    #[tokio::test(start_paused = true)]
    async fn remote_rejuvenation_stops_the_loop() {
        let channels = LoopbackHarness::accept_all();
        let (service, handle, mut notices) = MabService::new(config(), channels);
        let join = tokio::spawn(service.run());
        handle
            .submit_im_alert(IncomingAlert::from_im(
                "aladdin-gw",
                "SIMBA-REJUVENATE",
                SimTime::ZERO,
            ))
            .await;
        loop {
            match notices.recv().await.unwrap() {
                RuntimeNotice::Rejuvenating(RejuvenationTrigger::RemoteCommand) => break,
                _ => continue,
            }
        }
        let stats = join.await.unwrap();
        assert_eq!(stats.remote_commands, 1);
        // The loop exited: the probe now fails.
        assert!(!handle.are_you_working().await);
    }

    /// Newtype so tests can pre-script before handing the adapter over.
    struct LoopbackHarness(crate::channels::LoopbackChannels);

    impl LoopbackHarness {
        fn always_ack(after: Duration) -> Self {
            LoopbackHarness(crate::channels::LoopbackChannels::always_ack(after))
        }
        fn accept_all() -> Self {
            LoopbackHarness(crate::channels::LoopbackChannels::accept_all())
        }
    }

    impl Channels for LoopbackHarness {
        fn send(&mut self, comm_type: CommType, address: &str, text: &str) -> SendOutcome {
            self.0.send(comm_type, address, text)
        }
    }
}
