//! The host: every hosted user's buddy behind one routing front door.
//!
//! The paper's MyAlertBuddy is a *per-user* always-on agent (§3.3); a
//! deployment therefore runs many of them. One task and one WAL file per
//! user is the right shape for hundreds of tenants and the wrong one for
//! a million, so [`ShardedHost`] is a fixed pool of shard workers
//! (default: one per core), each multiplexing thousands of buddies over
//! one [`ShardLog`] with **group commit** (at most one fsync per batch,
//! not per alert) and **hibernation** (a buddy idle past its deadline — one
//! timer-wheel entry per resident buddy — folds its counters into the
//! shard's totals and is dropped; the user's next routed alert builds a
//! fresh one, since a buddy's ids come from its log records and it keeps
//! nothing else worth parking), so resident memory tracks *active* users
//! while the roster tracks *registered* ones. One shard with hibernation
//! off is the small-fleet shape; nothing else changes.
//!
//! Each shard is a synchronous core, [`Shard`], inside a thin tokio loop
//! that owns only its queue, clock and channels. The loop is the §4.2.1
//! pipeline batched:
//!
//! 1. **handle** — drain up to `BATCH_MAX` inbound messages plus due
//!    timer-wheel entries and due digest windows (the worker owns its
//!    users' windows) through each buddy's state machine; WAL appends
//!    and processed-marks buffer in the shard log, observable effects
//!    (acks, sends, the end of a delivery) are *staged* on one FIFO;
//! 2. **commit** — one [`ShardLog::commit`] makes the whole batch
//!    durable with a single fsync — and writes only the records the batch
//!    left unprocessed, so a batch whose buddies marked everything they
//!    logged commits for free;
//! 3. **execute** — release the staged effects in order. Send outcomes
//!    feed back into the buddies immediately (fallback blocks, ack
//!    scheduling), and what they produce joins the back of the same FIFO
//!    and runs in the same pass; those delivery events never touch the
//!    log, so no second fsync is needed before their effects run. A
//!    delivery's end ([`MabCommand::Finished`]) is one such effect: when
//!    it runs, the buddy retires the delivery and the worker counts it
//!    and reports it once as [`RuntimeNotice::DeliveryFinished`].
//!
//! Every buddy a batch needs is built in its handle phase, so one commit
//! covers the batch, replays included. Durability ordering is the paper's:
//! nothing a batch staged — ack, send or conclusion — leaves the host
//! before the commit covering its log records returns; a failed commit
//! leaves the FIFO in place for the next commit that succeeds. The worker
//! is also the live Master Daemon Controller (§4.2.2): a buddy whose
//! processed-mark fails crashes *alone* — it is replaced at once by a
//! fresh incarnation that replays its log records — and a buddy that asks
//! for rejuvenation is parked as soon as it is idle, so whatever it still
//! had in flight finishes first. A buddy leaves memory one way, whether
//! it crashed, idled or rejuvenated: its counters fold into the shard's
//! and its slot changes, while what it staged still runs. The shard
//! worker (with every other buddy on it) keeps running.

use crate::channels::{Channels, SendOutcome};
use crate::clock::RuntimeClock;
use crate::presence::{spawn_sweeper, StoreModeSelector};
use simba_core::alert::IncomingAlert;
use simba_core::delivery::{AttemptId, DeliveryCommand, DeliveryEvent, DeliveryStatus, TimerId};
use simba_core::mab::{DeliveryId, MabCommand, MabEvent, MabStats, MyAlertBuddy};
use simba_core::rejuvenate::RejuvenationTrigger;
use simba_core::shardlog::{ShardLog, ShardLogConfig, ShardLogStats};
use simba_core::subscription::UserId;
use simba_core::wal::WalError;
use simba_core::{DigestAlert, MabConfig, Telemetry};
use simba_rules::Correlator;
use simba_sim::{SimDuration, SimTime};
use simba_store::SoftStateStore;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, PoisonError};
use std::time::Duration;
use tokio::sync::{mpsc, oneshot};
use tokio::task::JoinHandle;

/// Builds a user's [`MabConfig`] on demand. Configuration is derivable
/// state (profiles, subscriptions), kept nowhere while a user is parked;
/// the factory is called at every activation — first alert, rehydration,
/// replay demand, and post-crash restart.
pub type ConfigFactory = Arc<dyn Fn(&UserId) -> MabConfig + Send + Sync>;

/// Default capacity of the merged notice stream.
pub const DEFAULT_NOTICE_CAPACITY: usize = 1024;

/// Something a hosted buddy reports to the host's observer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeNotice {
    /// The buddy acknowledged an incoming IM alert back to `source`.
    AckSent {
        /// The acknowledged source (the alert's own string).
        source: Arc<str>,
        /// The alert's identity, the shard-log record backing the ack:
        /// its deliveries are `DeliveryId::new(record, position)`.
        record: u64,
    },
    /// A delivery concluded: its [`MabCommand::Finished`] ran once the
    /// batch that staged it was durable.
    DeliveryFinished {
        /// Which delivery.
        delivery: DeliveryId,
        /// Its terminal status.
        status: DeliveryStatus,
    },
    /// The buddy requested rejuvenation; its shard worker parks it as
    /// soon as it is idle, and the user's next alert builds a fresh one.
    Rejuvenating(
        /// Why.
        RejuvenationTrigger,
    ),
}

/// A [`RuntimeNotice`] tagged with the user whose buddy emitted it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostNotice {
    /// The hosted user.
    pub user: UserId,
    /// What their buddy reported.
    pub notice: RuntimeNotice,
}

/// Configuration for a [`ShardedHost`].
#[derive(Debug, Clone)]
pub struct ShardedHostConfig {
    /// Worker count. Users are pinned to shards by a stable hash of
    /// their id, so restarts over the same `log_dir` must keep the same
    /// count (records of re-homed users still replay, on their old
    /// shard's log).
    pub shards: usize,
    /// Directory for the per-shard segmented logs (`shard-NNN/`).
    /// `None` keeps each shard log in memory.
    pub log_dir: Option<PathBuf>,
    /// Idle time after which a buddy hibernates: its idle deadline is
    /// `hibernate_after` past its last alert or acknowledgement, and it
    /// is parked when that deadline fires with no delivery in flight.
    /// [`SimDuration::ZERO`] means never (buddies stay resident once
    /// activated, and no deadline is armed) — except for a buddy that
    /// asked for rejuvenation, which is parked once idle either way.
    pub hibernate_after: SimDuration,
    /// Capacity of the merged [`HostNotice`] stream; overflow is dropped
    /// and counted under `host.notice_dropped`.
    pub notice_capacity: usize,
    /// Run each shard worker on its own dedicated OS thread, each with
    /// its own single-threaded event loop (thread-per-shard). `false`
    /// spawns workers as tasks on the caller's executor — the
    /// deterministic shape `start_paused` tests rely on. Threaded
    /// workers keep real time (each thread's clock is wall-anchored), so
    /// virtual-time control from the caller does not reach them.
    pub threads: bool,
    /// When set, shard workers enqueue channel attempts into this
    /// durable delivery ledger (acknowledging the handoff as accepted)
    /// instead of sending inline; a `simba_ledger::LedgerWorkerPool`
    /// over the same handle performs the sends with retry, backoff, and
    /// idempotency-key dedupe. Every shard log then issues record ids
    /// above those of the deliveries the ledger still holds, so a record
    /// a previous run left pending never absorbs a new alert.
    pub ledger: Option<simba_ledger::SharedLedger>,
    /// When set, every alert for a *registered* user runs through this
    /// rules engine inside the owning shard worker before it reaches the
    /// buddy. Each worker holds the digest windows of its own users and
    /// flushes them on their deadlines, and every open one at shutdown.
    pub rules: Option<simba_rules::SharedRuleEngine>,
    /// When set, every buddy consults this soft-state store through a
    /// `StoreModeSelector` at delivery start (presence-aware routing),
    /// and the host sweeps expired facts once a second until shutdown.
    /// Publish presence/health facts into a clone of the same store.
    pub store: Option<SoftStateStore>,
}

impl Default for ShardedHostConfig {
    fn default() -> Self {
        ShardedHostConfig {
            shards: default_shards(),
            log_dir: None,
            hibernate_after: SimDuration::from_mins(5),
            notice_capacity: DEFAULT_NOTICE_CAPACITY,
            threads: false,
            ledger: None,
            rules: None,
            store: None,
        }
    }
}

/// One worker per available core, at least one.
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(1)
}

/// The stable shard assignment: FNV-1a over the user id. Hand-rolled so
/// the mapping never changes underneath on-disk logs.
fn shard_of(user: &UserId, shards: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in user.0.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards.max(1) as u64) as usize
}

/// Aggregated state of one shard — or, merged, of the whole host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardedSnapshot {
    /// Registered users (roster entries: fresh + hibernated + active).
    pub users: usize,
    /// Buddies currently resident in memory.
    pub active: usize,
    /// Users currently hibernated: registered, once active, no buddy
    /// resident.
    pub hibernated: usize,
    /// Merged running totals across resident and folded (hibernated,
    /// crashed, rejuvenated) buddies.
    pub stats: MabStats,
    /// Deliveries still executing blocks, summed over resident buddies.
    pub in_flight: usize,
    /// Entries waiting on the shard timer wheels: block timers and
    /// simulated acks (including ones a retired delivery left behind —
    /// those fire into a buddy that no longer tracks the delivery and
    /// are ignored), plus one idle deadline per resident buddy when
    /// hibernation is on. With it off the wheels empty once the last
    /// deadline passes.
    pub pending_timers: usize,
    /// Concluded deliveries that ended acknowledged.
    pub acked: u64,
    /// Concluded deliveries that ended unconfirmed.
    pub unconfirmed: u64,
    /// Concluded deliveries that exhausted every block.
    pub exhausted: u64,
    /// Hibernation transitions performed.
    pub hibernations: u64,
    /// Rehydrations performed: a hibernated user's alert built a fresh
    /// buddy.
    pub rehydrations: u64,
    /// Buddies that crashed and were restarted by the worker.
    pub crashes: u64,
    /// Alerts refused because the user was not registered.
    pub unrouted: u64,
    /// Digest windows open in the shards' correlators.
    pub open_windows: usize,
    /// Shard-log totals (appends, marks, group commits, rotations).
    pub log: ShardLogStats,
}

impl ShardedSnapshot {
    /// Folds another shard's snapshot into this one.
    pub fn merge(&mut self, other: &ShardedSnapshot) {
        self.users += other.users;
        self.active += other.active;
        self.hibernated += other.hibernated;
        self.stats.merge(other.stats);
        self.in_flight += other.in_flight;
        self.pending_timers += other.pending_timers;
        self.acked += other.acked;
        self.unconfirmed += other.unconfirmed;
        self.exhausted += other.exhausted;
        self.hibernations += other.hibernations;
        self.rehydrations += other.rehydrations;
        self.crashes += other.crashes;
        self.unrouted += other.unrouted;
        self.open_windows += other.open_windows;
        self.log.appends += other.log.appends;
        self.log.marks += other.log.marks;
        self.log.written += other.log.written;
        self.log.group_commits += other.log.group_commits;
        self.log.segments_rotated += other.log.segments_rotated;
    }
}

/// The door an alert arrives by: an IM-borne alert is acknowledged to
/// its source once its record is durable, an email-borne one is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Door {
    /// Instant messaging.
    Im,
    /// Email.
    Email,
}

/// What the front door sends a shard worker.
enum ShardMsg {
    /// Add users to the roster (bulk — registration is just a map entry).
    Register(Vec<UserId>),
    /// An alert for a user, by the door it arrived at.
    Submit(UserId, IncomingAlert, Door),
    /// An external user acknowledgement for a delivery attempt.
    Ack {
        user: UserId,
        delivery: DeliveryId,
        attempt: AttemptId,
    },
    /// Reply with this shard's snapshot.
    Snapshot(oneshot::Sender<ShardedSnapshot>),
    /// Test hook: hibernate a user now (if idle); replies whether it did.
    Hibernate(UserId, oneshot::Sender<bool>),
    /// Test hook: fail the user's next processed-mark.
    InjectMarkFailure(UserId),
    /// Test hook: fail this shard's next group commit after so many bytes.
    InjectCommitFailure(usize),
    /// Drain, commit, reply with the final snapshot, and exit.
    Stop(oneshot::Sender<ShardedSnapshot>),
}

/// The roster slot for one registered user.
enum UserSlot {
    /// Registered; never activated (or reset after a crash, awaiting its
    /// next alert to restart and replay).
    Fresh,
    /// Hibernated: the buddy went idle (or rejuvenated), its counters
    /// folded into the shard's totals, and it was dropped. Only the
    /// count tells this from `Fresh`.
    Hibernated,
    /// Resident.
    Active(Box<ActiveBuddy>),
}

/// A resident buddy plus its worker-side bookkeeping.
struct ActiveBuddy {
    mab: MyAlertBuddy,
    /// Monotonic per-worker activation id; timer-wheel entries carry the
    /// incarnation they were scheduled under, so wakeups for a buddy
    /// that has since hibernated, crashed, or restarted are stale by
    /// comparison and dropped.
    incarnation: u64,
    /// Last alert/ack activity; the idle deadline is this plus
    /// `hibernate_after`.
    last_event_at: SimTime,
}

/// What a timer-wheel entry delivers when it fires.
enum TimerFire {
    /// A delivery-mode block timer.
    Block(DeliveryId, TimerId),
    /// A channel-simulated user acknowledgement
    /// ([`SendOutcome::AcceptedWithAck`]).
    Ack(DeliveryId, AttemptId),
    /// The buddy's idle deadline: exactly one per resident buddy while
    /// hibernation is on, armed at activation and re-armed when it fires
    /// on a buddy that was touched since or is still delivering.
    Idle,
}

struct TimerEntry {
    user: UserId,
    fire: TimerFire,
    incarnation: u64,
}

/// Delivery outcomes, counted as each `Finished` runs.
#[derive(Debug, Clone, Copy, Default)]
struct Outcomes {
    acked: u64,
    unconfirmed: u64,
    exhausted: u64,
}

/// How a shard worker runs: a task on the caller's executor, or a
/// dedicated OS thread driving its own event loop.
enum ShardTask {
    Local(JoinHandle<()>),
    Thread(std::thread::JoinHandle<()>),
}

struct ShardHandle {
    tx: mpsc::Sender<ShardMsg>,
    task: ShardTask,
}

/// The sharded host front door: routes by user hash, registers in bulk,
/// snapshots and shuts down by fan-out.
pub struct ShardedHost {
    shards: Vec<ShardHandle>,
    clock: RuntimeClock,
    /// The soft-state TTL sweeper, when a store is attached.
    sweeper: Option<JoinHandle<()>>,
}

impl ShardedHost {
    /// Builds the host and spawns its shard workers — as tasks on the
    /// caller's executor, or (with [`ShardedHostConfig::threads`]) one
    /// dedicated OS thread per shard, each pinned to its own
    /// single-threaded event loop; cross-shard traffic flows only over
    /// the bounded routing channels and the snapshot/notice fan-in.
    /// `factory` rebuilds a user's [`MabConfig`] at every activation.
    /// Telemetry must be supplied here (workers capture it at spawn);
    /// pass [`Telemetry::disabled`] on hot benchmark paths.
    ///
    /// # Errors
    ///
    /// Opening a shard's on-disk log fails ([`ShardedHostConfig::log_dir`]
    /// set but unusable), or a shard thread cannot be spawned.
    pub fn new<C: Channels + Clone>(
        channels: C,
        config: ShardedHostConfig,
        factory: ConfigFactory,
        telemetry: Telemetry,
    ) -> Result<(Self, mpsc::Receiver<HostNotice>), WalError> {
        let shard_count = config.shards.max(1);
        // Ledger records outlive the run that enqueued them, and their
        // keys hold shard-log record ids: no shard log may issue one of
        // those again, or a new alert would merge into an old record.
        let reserved = config.ledger.as_ref().and_then(|ledger| {
            let ledger = ledger.lock().unwrap_or_else(PoisonError::into_inner);
            let held = ledger.records().chain(ledger.dead_letters());
            held.map(|record| DeliveryId(record.delivery).record()).max()
        });
        let (notice_tx, notice_rx) = mpsc::channel(config.notice_capacity.max(1));
        let mut shards = Vec::with_capacity(shard_count);
        for index in 0..shard_count {
            let dir = match &config.log_dir {
                Some(dir) => {
                    let shard_dir = dir.join(format!("shard-{index:03}"));
                    std::fs::create_dir_all(&shard_dir).map_err(WalError::from)?;
                    Some(shard_dir)
                }
                None => None,
            };
            let mut log = ShardLog::open(ShardLogConfig { dir, ..ShardLogConfig::default() })?;
            if let Some(last) = reserved {
                log.issue_ids_above(last);
            }
            let (tx, rx) = mpsc::channel(QUEUE_CAPACITY);
            let shard = Shard::open(log, &config, Arc::clone(&factory), notice_tx.clone(), telemetry.clone());
            // Deferred so a threaded worker anchors its clock on its own
            // thread's event loop, not the spawning one's. Everything the
            // closure captures is `Send` — the compile-time proof lives in
            // the `shard_worker_future_is_send` test below.
            let channels = channels.clone();
            let build = move || Worker { rx, channels, clock: RuntimeClock::start(), shard };
            let task = if config.threads {
                let thread = std::thread::Builder::new()
                    .name(format!("simba-shard-{index:03}"))
                    .spawn(move || tokio::runtime::block_on(build().run()))
                    .map_err(WalError::from)?;
                ShardTask::Thread(thread)
            } else {
                ShardTask::Local(tokio::spawn(build().run()))
            };
            shards.push(ShardHandle { tx, task });
        }
        let clock = RuntimeClock::start();
        let sweeper = config.store.map(|store| spawn_sweeper(store, clock));
        Ok((ShardedHost { shards, clock, sweeper }, notice_rx))
    }

    /// The host's clock: the timeline its soft-state sweeper measures.
    /// Stamp facts published for this host with it.
    pub fn clock(&self) -> RuntimeClock {
        self.clock
    }

    /// Worker count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Registers one user (a roster entry on their shard; no buddy is
    /// built until their first alert).
    pub async fn register(&self, user: UserId) {
        self.register_many(vec![user]).await;
    }

    /// Registers users in bulk, partitioned by shard — the path that
    /// makes a million registrations one message per shard, not a
    /// million round trips.
    pub async fn register_many(&self, users: Vec<UserId>) {
        let mut per_shard: Vec<Vec<UserId>> = vec![Vec::new(); self.shards.len()];
        for user in users {
            per_shard[shard_of(&user, self.shards.len())].push(user);
        }
        for (index, batch) in per_shard.into_iter().enumerate() {
            if !batch.is_empty() {
                self.send(index, ShardMsg::Register(batch)).await;
            }
        }
    }

    /// Routes an IM-borne alert to the owning user's shard. Returns
    /// `false` only when the shard worker is gone; an unregistered user
    /// is counted by the worker under `host.unrouted`.
    pub async fn submit_im(&self, user: &UserId, alert: IncomingAlert) -> bool {
        let shard = shard_of(user, self.shards.len());
        self.send(shard, ShardMsg::Submit(user.clone(), alert, Door::Im)).await
    }

    /// Like [`ShardedHost::submit_im`] for an email-borne alert.
    pub async fn submit_email(&self, user: &UserId, alert: IncomingAlert) -> bool {
        let shard = shard_of(user, self.shards.len());
        self.send(shard, ShardMsg::Submit(user.clone(), alert, Door::Email)).await
    }

    /// Reports an external user acknowledgement for a delivery attempt.
    pub async fn ack(&self, user: &UserId, delivery: DeliveryId, attempt: AttemptId) {
        let shard = shard_of(user, self.shards.len());
        self.send(shard, ShardMsg::Ack { user: user.clone(), delivery, attempt })
            .await;
    }

    /// Snapshots every shard and merges the results.
    pub async fn snapshot(&self) -> ShardedSnapshot {
        let mut merged = ShardedSnapshot::default();
        for (index, _) in self.shards.iter().enumerate() {
            let (reply_tx, reply_rx) = oneshot::channel();
            if self.send(index, ShardMsg::Snapshot(reply_tx)).await {
                if let Ok(snap) = reply_rx.await {
                    merged.merge(&snap);
                }
            }
        }
        merged
    }

    /// Test hook: asks the owning shard to hibernate `user` now; resolves
    /// `true` when the buddy was idle and is now parked.
    pub async fn force_hibernate(&self, user: &UserId) -> bool {
        let shard = shard_of(user, self.shards.len());
        let (reply_tx, reply_rx) = oneshot::channel();
        if !self.send(shard, ShardMsg::Hibernate(user.clone(), reply_tx)).await {
            return false;
        }
        reply_rx.await.unwrap_or(false)
    }

    /// Test hook: the user's next processed-mark fails, crashing exactly
    /// that buddy.
    pub async fn inject_mark_failure(&self, user: &UserId) {
        let shard = shard_of(user, self.shards.len());
        self.send(shard, ShardMsg::InjectMarkFailure(user.clone())).await;
    }

    /// Test hook: the next group commit on the user's shard that has
    /// anything to write writes `bytes` bytes of its batch, then fails
    /// ([`ShardLog::inject_write_failure`]).
    pub async fn inject_commit_failure(&self, user: &UserId, bytes: usize) {
        let shard = shard_of(user, self.shards.len());
        self.send(shard, ShardMsg::InjectCommitFailure(bytes)).await;
    }

    /// Stops every worker (each drains, commits, and compacts nothing
    /// further) and returns the merged final snapshot. Digest windows
    /// live in memory only, so each worker flushes every open one in the
    /// batch that carries `Stop` — early delivery, never loss: each digest
    /// is committed and sent (or handed to the ledger) before `Stop`
    /// replies.
    pub async fn shutdown(self) -> ShardedSnapshot {
        if let Some(sweeper) = &self.sweeper {
            sweeper.abort();
        }
        let mut merged = ShardedSnapshot::default();
        for shard in self.shards {
            let (reply_tx, reply_rx) = oneshot::channel();
            if shard.tx.send(ShardMsg::Stop(reply_tx)).await.is_ok() {
                if let Ok(snap) = reply_rx.await {
                    merged.merge(&snap);
                }
            }
            match shard.task {
                ShardTask::Local(task) => {
                    let _ = task.await;
                }
                // The worker replied to Stop and is exiting; the join is
                // a formality, not a wait for work.
                ShardTask::Thread(thread) => {
                    let _ = thread.join();
                }
            }
        }
        merged
    }

    async fn send(&self, shard: usize, msg: ShardMsg) -> bool {
        self.shards[shard].tx.send(msg).await.is_ok()
    }
}

impl std::fmt::Debug for ShardedHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedHost")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

/// One shard worker: the tokio loop around a [`Shard`], owning only the
/// queue, the clock and the channels it lends to [`Shard::finish_batch`].
struct Worker<C> {
    rx: mpsc::Receiver<ShardMsg>,
    channels: C,
    clock: RuntimeClock,
    shard: Shard,
}

/// Most inbound messages a worker drains before committing; bounds both
/// ack latency and the blast radius of one commit.
const BATCH_MAX: usize = 256;

/// Capacity of each shard's inbound queue; submitters await space, so a
/// hot shard exerts backpressure instead of buffering unboundedly.
const QUEUE_CAPACITY: usize = 1024;

impl<C: Channels> Worker<C> {
    async fn run(mut self) {
        let now = self.clock.now();
        self.shard.start(now);
        self.shard.finish_batch(&mut self.channels, now);

        loop {
            let wait = self.idle_wait();
            let inbound = tokio::time::timeout(wait, self.rx.recv()).await;
            let now = self.clock.now();
            let mut stop = None;
            match inbound {
                Ok(Some(msg)) => {
                    stop = self.handle_msg(msg, now);
                    let mut drained = 1;
                    while stop.is_none() && drained < BATCH_MAX {
                        let Ok(msg) = self.rx.try_recv() else { break };
                        drained += 1;
                        stop = self.handle_msg(msg, now);
                    }
                }
                Ok(None) => {
                    // Front door dropped without shutdown: release what
                    // is staged, with nobody to read a snapshot.
                    self.shard.finish_batch(&mut self.channels, now);
                    return;
                }
                Err(_) => {} // idle tick: due timers and windows only
            }
            self.shard.fire_due(now);
            if let Some(reply) = stop {
                let _ = reply.send(self.shard.stop(&mut self.channels, now));
                return;
            }
            self.shard.finish_batch(&mut self.channels, now);
        }
    }

    /// Time until the shard's next deadline, clamped to [1 ms, 1 s] so
    /// the worker stays responsive without spinning.
    fn idle_wait(&self) -> Duration {
        let now = self.clock.now();
        let next = self.shard.next_deadline();
        let wait = next.map_or(1_000, |at| at.as_millis().saturating_sub(now.as_millis()));
        Duration::from_millis(wait.clamp(1, 1_000))
    }

    /// One message, one `Shard` call; `Some` is a `Stop`'s reply.
    fn handle_msg(&mut self, msg: ShardMsg, now: SimTime) -> Option<oneshot::Sender<ShardedSnapshot>> {
        match msg {
            ShardMsg::Register(users) => self.shard.register(users),
            ShardMsg::Submit(user, alert, door) => self.shard.submit(user, alert, door, now),
            ShardMsg::Ack { user, delivery, attempt } => self.shard.ack(&user, delivery, attempt, now),
            ShardMsg::Snapshot(reply) => {
                let _ = reply.send(self.shard.snapshot());
            }
            ShardMsg::Hibernate(user, reply) => {
                let _ = reply.send(self.shard.hibernate(&user));
            }
            ShardMsg::InjectMarkFailure(user) => self.shard.inject_mark_failure(&user),
            ShardMsg::InjectCommitFailure(bytes) => self.shard.inject_commit_failure(bytes),
            ShardMsg::Stop(reply) => return Some(reply),
        }
        None
    }
}

/// One shard's synchronous core — roster, log, timer wheel, staged
/// effects, digest windows, counters — and its buddies' "SIMBA library"
/// (§4.2.1): it owns the shard log and lends it to each buddy call that
/// logs, marks or replays, so a threaded worker is `Send` by ownership,
/// not by a lock. Nothing here waits: every call is told the time, by a
/// shard worker's clock or by the §5 simulator's.
pub struct Shard {
    telemetry: Telemetry,
    factory: ConfigFactory,
    notices: mpsc::Sender<HostNotice>,
    log: ShardLog,
    roster: HashMap<UserId, UserSlot>,
    /// The central timer wheel: `(deadline, seq)` → entry. One `BTreeMap`
    /// instead of a sleeping task per timer: at shard scale that is ten
    /// thousand tasks saved.
    timers: BTreeMap<(SimTime, u64), TimerEntry>,
    timer_seq: u64,
    next_incarnation: u64,
    /// The effects staged under their owners' names, in order. A commit
    /// that succeeds drains it, and what running an effect feeds back
    /// joins its back and runs in the same pass; a failed commit leaves
    /// it in place, withheld until a later commit covers it too.
    staged: VecDeque<(UserId, MabCommand)>,
    /// Where a buddy writes the commands of one event before they are
    /// staged under its owner's name; empty between events.
    fed: Vec<MabCommand>,
    /// Totals of buddies no longer resident: hibernated, crashed, and
    /// rejuvenated.
    folded: MabStats,
    outcomes: Outcomes,
    hibernations: u64,
    rehydrations: u64,
    crashes: u64,
    unrouted: u64,
    hibernate_after: SimDuration,
    /// Channel attempts go here instead of the lent channels when set.
    ledger: Option<simba_ledger::SharedLedger>,
    /// Registered users' alerts run through this engine before routing,
    /// against this shard's correlator: the digest windows of its users.
    rules: Option<(simba_rules::SharedRuleEngine, Correlator)>,
    /// Buddies consult this store at delivery start when set.
    store: Option<SoftStateStore>,
}

impl Shard {
    /// A shard with an empty roster over `log`, with `config`'s
    /// hibernation, ledger, rules and store; `factory` builds a user's
    /// configuration at every activation.
    pub fn open(
        log: ShardLog,
        config: &ShardedHostConfig,
        factory: ConfigFactory,
        notices: mpsc::Sender<HostNotice>,
        telemetry: Telemetry,
    ) -> Self {
        Shard {
            telemetry,
            factory,
            notices,
            log,
            roster: HashMap::new(),
            timers: BTreeMap::new(),
            timer_seq: 0,
            next_incarnation: 0,
            staged: VecDeque::new(),
            fed: Vec::new(),
            folded: MabStats::default(),
            outcomes: Outcomes::default(),
            hibernations: 0,
            rehydrations: 0,
            crashes: 0,
            unrouted: 0,
            hibernate_after: config.hibernate_after,
            ledger: config.ledger.clone(),
            rules: config.rules.as_ref().map(|engine| (Arc::clone(engine), engine.correlator())),
            store: config.store.clone(),
        }
    }

    /// Startup replay demand: every user with unprocessed records gets a
    /// buddy (auto-registered — the log proves they existed) that replays
    /// them, released by the next [`Shard::finish_batch`].
    pub fn start(&mut self, now: SimTime) {
        for user in self.log.users_with_unprocessed() {
            self.roster.entry(user.clone()).or_insert(UserSlot::Fresh);
            self.activate(&user, now);
        }
    }

    /// Adds users to the roster (a map entry each; no buddy is built
    /// until a user's first alert).
    pub fn register(&mut self, users: Vec<UserId>) {
        if self.telemetry.enabled() && !users.is_empty() {
            self.telemetry.metrics().counter("host.users").add(users.len() as u64);
        }
        // One table allocation, not a run of doublings whose old+new
        // copies set the process's memory high-water mark.
        self.roster.reserve(users.len());
        for user in users {
            self.roster.entry(user).or_insert(UserSlot::Fresh);
        }
    }

    /// An alert for `user` arrived by `door`: rules first (if any), then
    /// the user's buddy, built if not resident; an unregistered user's
    /// alert is counted unrouted.
    pub fn submit(&mut self, user: UserId, alert: IncomingAlert, door: Door, now: SimTime) {
        if let Some(alert) = self.apply_rules(&user, alert, now) {
            let event = match door {
                Door::Im => MabEvent::AlertByIm(alert),
                Door::Email => MabEvent::AlertByEmail(alert),
            };
            self.route(user, event, now);
        }
    }

    /// An external user acknowledgement for a delivery attempt; one for a
    /// delivery the resident buddy no longer tracks is dropped as stale.
    pub fn ack(&mut self, user: &UserId, delivery: DeliveryId, attempt: AttemptId, now: SimTime) {
        let live = matches!(
            self.roster.get(user),
            Some(UserSlot::Active(active)) if active.mab.delivery_status(delivery).is_some()
        );
        if live {
            let event = DeliveryEvent::Acked { attempt };
            let _ = self.feed(user, MabEvent::Delivery { id: delivery, event }, now, true);
        } else if self.telemetry.enabled() {
            self.telemetry.metrics().counter("runtime.stale_dropped").incr();
        }
    }

    /// Runs every timer-wheel entry and digest window due at `now`.
    pub fn fire_due(&mut self, now: SimTime) {
        self.fire_due_timers(now);
        let due = self.rules.as_mut().map(|(_, windows)| windows.flush_due(now.as_millis()));
        self.route_digests(due.into_iter().flatten(), now);
    }

    /// When [`Shard::fire_due`] next has work: the first timer-wheel
    /// entry (block timer, simulated ack, idle deadline) or digest window.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let window = self.rules.as_ref().and_then(|(_, windows)| windows.next_deadline());
        let timer = self.timers.first_key_value().map(|((at, _), _)| *at);
        window.map(SimTime::from_millis).into_iter().chain(timer).min()
    }

    /// Phases 2 and 3: one group commit, then release the staged effects
    /// through `channels`. A failed commit withholds every one (no acks,
    /// sends or conclusions); the first later commit that succeeds covers
    /// the batch and releases them, ahead of its own batch's.
    pub fn finish_batch<C: Channels>(&mut self, channels: &mut C, now: SimTime) {
        if self.commit_once().is_ok() {
            self.execute(channels, now);
        }
    }

    /// The last batch: every open digest window is flushed (windows live
    /// in memory only) and the batch finished twice, so what a failed
    /// commit withheld is released by the commit covering it — or, should
    /// that fail too, replayed by the next run. Returns the snapshot.
    pub fn stop<C: Channels>(&mut self, channels: &mut C, now: SimTime) -> ShardedSnapshot {
        let open = self.rules.as_mut().map(|(_, windows)| windows.flush_due(u64::MAX));
        self.route_digests(open.into_iter().flatten(), now);
        self.finish_batch(channels, now);
        self.finish_batch(channels, now);
        self.snapshot()
    }

    /// Hibernates `user` if idle and says whether it did (also a test
    /// hook): the buddy leaves memory as a crashed one does; its ids live
    /// in its log.
    pub fn hibernate(&mut self, user: &UserId) -> bool {
        if !matches!(self.roster.get(user), Some(UserSlot::Active(active)) if active.mab.is_idle(&self.log)) {
            return false;
        }
        self.leave(user, UserSlot::Hibernated);
        self.hibernations += 1;
        if self.telemetry.enabled() {
            self.telemetry.metrics().counter("host.hibernated").incr();
        }
        true
    }

    /// Test hook: the user's next processed-mark fails, crashing its buddy.
    pub fn inject_mark_failure(&mut self, user: &UserId) {
        self.log.inject_mark_failure(user);
    }

    /// Test hook: [`ShardLog::inject_write_failure`] on the next commit.
    pub fn inject_commit_failure(&mut self, bytes: usize) {
        self.log.inject_write_failure(bytes);
    }

    /// A process death: only the log survives, for a restart to reopen.
    pub fn into_log(self) -> ShardLog {
        self.log
    }

    /// Runs one registered user's alert through the rules engine, against
    /// this shard's correlator. `Some` means route it (urgency possibly
    /// rewritten); `None` means a rule consumed it. Unregistered users
    /// bypass evaluation so [`Self::route`] still counts them unrouted —
    /// rules never absorb unhosted traffic. A digest forced out early
    /// (count cap, severity escalation) is routed inline.
    fn apply_rules(
        &mut self,
        user: &UserId,
        mut alert: IncomingAlert,
        now: SimTime,
    ) -> Option<IncomingAlert> {
        let decision = match &mut self.rules {
            Some((engine, windows)) if self.roster.contains_key(user) => {
                engine.evaluate_in(windows, &user.0, &alert, now.as_millis())
            }
            _ => return Some(alert),
        };
        match decision {
            simba_rules::Decision::Deliver { severity, .. } => {
                if let Some(severity) = severity {
                    alert.urgency = severity;
                }
                Some(alert)
            }
            simba_rules::Decision::Suppress { .. } => None,
            simba_rules::Decision::Digest { flushed, .. } => {
                self.route_digests(flushed.map(|digest| *digest), now);
                None
            }
        }
    }

    /// The one way a digest enters a buddy: by the email door, *never*
    /// re-evaluated (the digest keeps its original source, so a by-source
    /// digest rule would re-absorb it forever).
    fn route_digests(&mut self, digests: impl IntoIterator<Item = DigestAlert>, now: SimTime) {
        for digest in digests {
            let owner = UserId::new(digest.user.clone());
            self.route(owner, MabEvent::AlertByEmail(digest.to_incoming()), now);
        }
    }

    /// The routing step: feed a resident buddy — one roster look-up, the
    /// one inside [`Self::feed`] — or activate and feed.
    fn route(&mut self, user: UserId, event: MabEvent, now: SimTime) {
        if let Err(event) = self.feed(&user, event, now, true) {
            if !self.roster.contains_key(&user) {
                self.unrouted += 1;
                if self.telemetry.enabled() {
                    self.telemetry.metrics().counter("host.unrouted").incr();
                }
                return;
            }
            self.activate(&user, now);
            // Still not resident if the replay crashed the fresh buddy:
            // the alert is dropped unlogged and unacknowledged, so its
            // sender falls back, as with any dead process.
            let _ = self.feed(&user, event, now, true);
        }
        if self.telemetry.enabled() {
            self.telemetry.metrics().counter("host.routed").incr();
        }
    }

    /// Replaces a registered user's roster slot in place and returns the
    /// slot it held (`None`, changing nothing, for an unregistered user).
    fn put(&mut self, user: &UserId, slot: UserSlot) -> Option<UserSlot> {
        self.roster.get_mut(user).map(|held| std::mem::replace(held, slot))
    }

    /// Ensures `user` is resident: builds a fresh buddy (counting a
    /// rehydration when the user was parked), then runs the §4.2.1
    /// restart protocol over the shard log and stages its replay
    /// commands.
    fn activate(&mut self, user: &UserId, now: SimTime) {
        match self.roster.get(user) {
            None | Some(UserSlot::Active(_)) => return,
            Some(UserSlot::Hibernated) => {
                self.rehydrations += 1;
                if self.telemetry.enabled() {
                    self.telemetry.metrics().counter("host.rehydrated").incr();
                }
            }
            Some(UserSlot::Fresh) => {}
        }
        let mut mab = MyAlertBuddy::new((self.factory)(user), user.clone());
        mab.set_telemetry(self.telemetry.clone());
        if let Some(store) = &self.store {
            mab.set_mode_selector(Box::new(StoreModeSelector::new(store.clone())));
        }
        let recovery = mab.recover(&mut self.log, now);
        self.staged.extend(recovery.into_iter().map(|cmd| (user.clone(), cmd)));
        let crashed = mab.is_crashed();
        let incarnation = self.next_incarnation;
        self.next_incarnation += 1;
        self.put(user, UserSlot::Active(Box::new(ActiveBuddy { mab, incarnation, last_event_at: now })));
        if crashed {
            // Replay itself crashed the buddy (e.g. an injected mark
            // failure): the slot is left Fresh for the next activation to
            // retry.
            self.crash(user);
            return;
        }
        if self.hibernate_after != SimDuration::ZERO {
            self.schedule(user, TimerFire::Idle, self.hibernate_after, now);
        }
    }

    /// The one way a buddy leaves memory, whether it crashed, idled or
    /// rejuvenated: its slot becomes `slot` and its counters fold into the
    /// shard's totals. What it staged stays staged: a delivery it finished
    /// is still reported when its `Finished` runs.
    fn leave(&mut self, user: &UserId, slot: UserSlot) {
        if let Some(UserSlot::Active(active)) = self.put(user, slot) {
            self.folded.merge(active.mab.stats());
        }
    }

    /// A crashed buddy leaves its slot Fresh: the next activation replays
    /// its log records.
    fn crash(&mut self, user: &UserId) {
        self.leave(user, UserSlot::Fresh);
        self.crashes += 1;
        if self.telemetry.enabled() {
            self.telemetry.metrics().counter("host.buddy_crashed").incr();
        }
    }

    /// Feeds one event through a resident buddy, staging its commands;
    /// `touch` marks the event as the user's own activity, which restarts
    /// the buddy's idle clock. `Err` hands the event back unfed: the user
    /// is not resident. A crash crashes that buddy alone: it leaves
    /// memory, and a fresh incarnation immediately replays the user's log
    /// records — the shard worker never stops.
    fn feed(&mut self, user: &UserId, event: MabEvent, now: SimTime, touch: bool) -> Result<(), MabEvent> {
        let Some(UserSlot::Active(active)) = self.roster.get_mut(user) else {
            return Err(event);
        };
        if touch {
            active.last_event_at = now;
        }
        active.mab.handle_into(&mut self.log, event, now, &mut self.fed);
        let crashed = active.mab.is_crashed();
        self.staged.extend(self.fed.drain(..).map(|cmd| (user.clone(), cmd)));
        if crashed {
            self.crash(user);
            self.activate(user, now);
        }
        Ok(())
    }

    /// Fires every due timer-wheel entry; entries whose incarnation no
    /// longer matches the resident buddy are stale and dropped (counted
    /// when a delivery event was lost with them, not for idle deadlines).
    fn fire_due_timers(&mut self, now: SimTime) {
        while let Some(((at, seq), entry)) = self.timers.pop_first() {
            if at > now {
                self.timers.insert((at, seq), entry);
                break;
            }
            let live = matches!(
                self.roster.get(&entry.user),
                Some(UserSlot::Active(active)) if active.incarnation == entry.incarnation
            );
            let (id, event) = match entry.fire {
                TimerFire::Idle => {
                    if live {
                        self.idle_deadline(&entry.user, now);
                    }
                    continue;
                }
                _ if !live => {
                    if self.telemetry.enabled() {
                        self.telemetry.metrics().counter("runtime.stale_dropped").incr();
                    }
                    continue;
                }
                TimerFire::Block(id, timer) => (id, DeliveryEvent::TimerFired { timer }),
                TimerFire::Ack(id, attempt) => (id, DeliveryEvent::Acked { attempt }),
            };
            let _ = self.feed(&entry.user, MabEvent::Delivery { id, event }, now, false);
        }
    }

    /// One [`ShardLog::commit`] (a no-op when clean), with the commit and
    /// rotation counters surfaced as `host.*` metrics.
    fn commit_once(&mut self) -> Result<(), WalError> {
        let before = self.log.stats();
        let result = self.log.commit();
        let after = self.log.stats();
        if self.telemetry.enabled() {
            let commits = after.group_commits.saturating_sub(before.group_commits);
            if commits > 0 {
                self.telemetry.metrics().counter("host.group_commits").add(commits);
            }
            let rotations = after.segments_rotated.saturating_sub(before.segments_rotated);
            if rotations > 0 {
                self.telemetry.metrics().counter("host.segments_rotated").add(rotations);
            }
            if result.is_err() {
                self.telemetry.metrics().counter("host.commit_failed").incr();
            }
        }
        result
    }

    /// Phase 3: acks and notices go out, sends hit the channels and their
    /// outcomes feed straight back into the owning buddy (fallback blocks
    /// run immediately; ack windows and block timers go on the wheel), and
    /// each concluded delivery is retired and reported. A rejuvenating
    /// buddy is parked once it is idle: at its `Rejuvenate`, or else at
    /// the `Finished` of its last delivery.
    fn execute<C: Channels>(&mut self, channels: &mut C, now: SimTime) {
        while let Some((user, command)) = self.staged.pop_front() {
            match command {
                MabCommand::AckIm { to, wal_id } => {
                    if self.telemetry.enabled() {
                        self.telemetry.metrics().counter("runtime.acks_sent").incr();
                    }
                    self.notify(user, RuntimeNotice::AckSent { source: to, record: wal_id });
                }
                MabCommand::Rejuvenate(trigger) => {
                    if self.telemetry.enabled() {
                        self.telemetry.metrics().counter("runtime.rejuvenations").incr();
                    }
                    self.notify(user.clone(), RuntimeNotice::Rejuvenating(trigger));
                    self.park_if_rejuvenating(&user);
                }
                MabCommand::Finished { delivery, status } => self.conclude(user, delivery, status, now),
                MabCommand::Channel { delivery, command, .. } => match command {
                    DeliveryCommand::Send {
                        attempt, comm_type, address_value, text, ..
                    } => {
                        if let Some(ledger) = &self.ledger {
                            // Ledger-owned attempt: durable enqueue,
                            // acknowledge the handoff, and let the
                            // worker pool own send/retry/dead-letter.
                            // The record's image carries its first
                            // lease grant, so this commit is the one
                            // its send waits on. A handoff whose
                            // commit failed is taken back under the
                            // same guard, so an attempt reported
                            // failed is never also sent. Only a record
                            // some earlier handoff committed can have
                            // been claimed; that one stays.
                            let accepted = {
                                let mut guard =
                                    ledger.lock().unwrap_or_else(PoisonError::into_inner);
                                let record = guard.enqueue_shared(
                                    &user,
                                    delivery.0,
                                    comm_type,
                                    address_value,
                                    text,
                                    now,
                                );
                                // simba-analyze: allow(concurrency.blocking-under-guard): enqueue+commit is the atomic handoff to the delivery workers; the guard scope IS the durability point
                                guard.commit().is_ok() || !guard.retract(record)
                            };
                            if self.telemetry.enabled() {
                                self.telemetry.metrics().counter("runtime.sends").incr();
                            }
                            let event = if accepted {
                                DeliveryEvent::SendAccepted { attempt }
                            } else {
                                DeliveryEvent::SendFailed {
                                    attempt,
                                    failure:
                                        simba_core::delivery::SendFailure::ChannelDown,
                                }
                            };
                            let event = MabEvent::Delivery { id: delivery, event };
                            let _ = self.feed(&user, event, now, false);
                            continue;
                        }
                        let outcome = channels.send(comm_type, &address_value, &text);
                        if self.telemetry.enabled() {
                            self.telemetry.metrics().counter("runtime.sends").incr();
                        }
                        let event = match outcome {
                            // simba-analyze: allow(durability.ack-before-commit): direct (unledgered) send path — this mirrors the adapter's synchronous accept; durable-before-ack applies to the ledgered path
                            SendOutcome::Accepted => DeliveryEvent::SendAccepted { attempt },
                            SendOutcome::AcceptedWithAck(after) => {
                                self.schedule(
                                    &user,
                                    TimerFire::Ack(delivery, attempt),
                                    SimDuration::from_millis(after.as_millis() as u64),
                                    now,
                                );
                                // simba-analyze: allow(durability.ack-before-commit): direct (unledgered) send path — the adapter accepted synchronously
                                DeliveryEvent::SendAccepted { attempt }
                            }
                            SendOutcome::Failed(failure) => {
                                DeliveryEvent::SendFailed { attempt, failure }
                            }
                        };
                        let event = MabEvent::Delivery { id: delivery, event };
                        let _ = self.feed(&user, event, now, false);
                    }
                    DeliveryCommand::StartTimer { timer, after } => {
                        self.schedule(&user, TimerFire::Block(delivery, timer), after, now);
                    }
                },
            }
        }
    }

    fn schedule(&mut self, user: &UserId, fire: TimerFire, after: SimDuration, now: SimTime) {
        let Some(UserSlot::Active(active)) = self.roster.get(user) else {
            return;
        };
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.insert(
            (now + after, seq),
            TimerEntry { user: user.clone(), fire, incarnation: active.incarnation },
        );
    }

    /// A delivery's `Finished` runs: the resident buddy retires it (unless
    /// it is a replay's, still in flight under the same id), its outcome
    /// is counted and reported once, and a rejuvenating buddy it leaves
    /// idle is parked. A buddy that crashed after staging it is gone, but
    /// the delivery is still counted and reported.
    fn conclude(&mut self, user: UserId, delivery: DeliveryId, status: DeliveryStatus, now: SimTime) {
        match status {
            DeliveryStatus::Acked { .. } => self.outcomes.acked += 1,
            DeliveryStatus::Unconfirmed { .. } => self.outcomes.unconfirmed += 1,
            DeliveryStatus::Exhausted { .. } => self.outcomes.exhausted += 1,
            DeliveryStatus::InProgress => {}
        }
        let retired = match self.roster.get_mut(&user) {
            Some(UserSlot::Active(active)) => active.mab.retire(delivery, now),
            _ => false,
        };
        if retired {
            self.park_if_rejuvenating(&user);
        }
        self.notify(user, RuntimeNotice::DeliveryFinished { delivery, status });
    }

    /// Parks `user`'s buddy if it asked for rejuvenation and is idle.
    fn park_if_rejuvenating(&mut self, user: &UserId) {
        if matches!(self.roster.get(user), Some(UserSlot::Active(active)) if active.mab.is_rejuvenating()) {
            self.hibernate(user);
        }
    }

    /// A resident buddy's idle deadline fired. Touched since it was armed:
    /// the deadline moved with the touch. Otherwise hibernate — or, with a
    /// delivery still in flight, ask again one period on. Either way the
    /// buddy keeps exactly one idle entry while it is resident.
    fn idle_deadline(&mut self, user: &UserId, now: SimTime) {
        let Some(UserSlot::Active(active)) = self.roster.get(user) else {
            return;
        };
        let deadline = active.last_event_at + self.hibernate_after;
        if deadline > now {
            self.schedule(user, TimerFire::Idle, deadline.since(now), now);
        } else if !self.hibernate(user) {
            self.schedule(user, TimerFire::Idle, self.hibernate_after, now);
        }
    }

    fn notify(&self, user: UserId, notice: RuntimeNotice) {
        if self.notices.try_send(HostNotice { user, notice }).is_err()
            && self.telemetry.enabled()
        {
            self.telemetry.metrics().counter("host.notice_dropped").incr();
        }
    }

    /// This shard's state: its counters merged with those of every
    /// resident buddy.
    pub fn snapshot(&self) -> ShardedSnapshot {
        let mut snap = ShardedSnapshot {
            users: self.roster.len(),
            stats: self.folded,
            acked: self.outcomes.acked,
            unconfirmed: self.outcomes.unconfirmed,
            exhausted: self.outcomes.exhausted,
            hibernations: self.hibernations,
            rehydrations: self.rehydrations,
            crashes: self.crashes,
            unrouted: self.unrouted,
            open_windows: self.rules.as_ref().map_or(0, |(_, windows)| windows.open_windows()),
            pending_timers: self.timers.len(),
            log: self.log.stats(),
            ..ShardedSnapshot::default()
        };
        for slot in self.roster.values() {
            match slot {
                UserSlot::Active(active) => {
                    snap.active += 1;
                    snap.stats.merge(active.mab.stats());
                    snap.in_flight += active.mab.in_flight();
                }
                UserSlot::Hibernated => snap.hibernated += 1,
                UserSlot::Fresh => {}
            }
        }
        snap
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    /// Compile-time proof that shard-worker futures can cross onto their
    /// dedicated OS threads: `run()`'s future must be `Send` for every
    /// `Channels` impl, and everything a `ShardMsg` carries must be too.
    /// Regressing any buddy internals to `Rc`/`RefCell` (PR 6's hot-path
    /// shape) fails this function's type-check, not a runtime test.
    #[test]
    fn shard_worker_future_is_send() {
        fn assert_send<T: Send>() {}
        #[allow(dead_code)]
        fn worker_run_is_send<C: Channels + Clone>(worker: Worker<C>) {
            fn assert_future_send<F: std::future::Future + Send>(_: &F) {}
            let future = worker.run();
            assert_future_send(&future);
            drop(future);
        }
        assert_send::<ShardMsg>();
        assert_send::<ActiveBuddy>();
        assert_send::<ShardedHostConfig>();
    }

    /// Every `gw` alert mentioning "Sensor" goes once to the user's IM
    /// address, fire-and-forget; with the address disabled, each delivery
    /// is exhausted as it starts.
    fn direct_to_im(enabled: bool) -> ConfigFactory {
        use simba_core::address::{Address, CommType};
        use simba_core::classify::KeywordField;
        use simba_core::mode::{Block, DeliveryMode};

        Arc::new(move |user: &UserId| {
            let mut config = MabConfig::default();
            config.classifier.accept_source("gw", KeywordField::Body, "");
            config.classifier.map_keyword("Sensor", "Home");
            let profile = config.registry.register_user(user.clone());
            profile.address_book.add(Address::new("IM", CommType::Im, format!("im:{user}"))).unwrap();
            profile.address_book.set_enabled("IM", enabled);
            let direct = vec![Block::fire_and_forget(vec!["IM".into()])];
            profile.define_mode(DeliveryMode::new("Direct", direct).unwrap());
            config.registry.subscribe("Home", user.clone(), "Direct").unwrap();
            config
        })
    }

    use crate::channels::LoopbackChannels;
    use simba_core::address::CommType;

    /// A shard over a log in `dir` that holds one record of alice's, an
    /// earlier incarnation's, committed and unmarked; alice and bob are
    /// registered. A healthy batch writes nothing, so a failing commit
    /// needs a batch with a frame to write: alice's, whose activation
    /// replays the record and so must write its mark. The shard is not
    /// started, so the record waits for alice's next alert; a started one
    /// would replay it before any test hook could arm the fault.
    /// `factory` builds each user's configuration.
    fn seeded_shard(
        dir: &std::path::Path,
        factory: ConfigFactory,
    ) -> (Shard, Telemetry, mpsc::Receiver<HostNotice>) {
        let _ = std::fs::remove_dir_all(dir);
        let mut log = ShardLog::open(ShardLogConfig::on_disk(dir)).unwrap();
        log.append(&UserId::new("alice"), &gw_alert("Sensor A0 ON"), SimTime::ZERO).unwrap();
        log.commit().unwrap();
        let telemetry = Telemetry::with_sink(Arc::new(simba_telemetry::RingBufferSink::new(64)));
        let (notices, notice_rx) = mpsc::channel(64);
        let config = ShardedHostConfig::default();
        let mut shard = Shard::open(log, &config, factory, notices, telemetry.clone());
        shard.register(vec![UserId::new("alice"), UserId::new("bob")]);
        (shard, telemetry, notice_rx)
    }

    fn gw_alert(body: &str) -> IncomingAlert {
        IncomingAlert::from_im("gw", body, SimTime::ZERO)
    }

    /// Alice's batch: her live alert A1 and the replay of A0, whose mark
    /// the commit writes nine bytes of before it fails.
    fn fail_alices_batch(shard: &mut Shard, channels: &mut LoopbackChannels) {
        shard.inject_commit_failure(9);
        shard.submit(UserId::new("alice"), gw_alert("Sensor A1 ON"), Door::Im, SimTime::ZERO);
        shard.finish_batch(channels, SimTime::ZERO);
    }

    /// Bob's batch: his live alert B1, whose commit succeeds and covers
    /// alice's failed batch too.
    fn commit_bobs_batch(shard: &mut Shard, channels: &mut LoopbackChannels) {
        shard.submit(UserId::new("bob"), gw_alert("Sensor B1 ON"), Door::Im, SimTime::ZERO);
        shard.finish_batch(channels, SimTime::ZERO);
    }

    /// The bodies sent, sorted.
    fn sent_bodies(channels: &LoopbackChannels) -> Vec<String> {
        let mut bodies: Vec<String> = channels.sent().iter().map(|(_, _, text)| text.clone()).collect();
        bodies.sort_unstable();
        bodies
    }

    fn unprocessed_after_reopen(dir: &std::path::Path) -> usize {
        let left = ShardLog::open(ShardLogConfig::on_disk(dir)).unwrap().unprocessed_len();
        let _ = std::fs::remove_dir_all(dir);
        left
    }

    #[test]
    fn a_failed_group_commit_releases_nothing_and_loses_nothing() {
        let dir = std::env::temp_dir().join(format!("simba-shard-commitfail-{}", std::process::id()));
        let (mut shard, telemetry, mut notice_rx) = seeded_shard(&dir, direct_to_im(true));
        let mut channels = LoopbackChannels::accept_all();
        let acks = |rx: &mut mpsc::Receiver<HostNotice>| {
            std::iter::from_fn(|| rx.try_recv().ok())
                .filter(|n| matches!(n.notice, RuntimeNotice::AckSent { .. }))
                .map(|n| n.user)
                .collect::<Vec<_>>()
        };

        fail_alices_batch(&mut shard, &mut channels);
        assert_eq!(telemetry.metrics().snapshot().counter("host.commit_failed"), 1);
        assert_eq!(shard.snapshot().log.group_commits, 1, "only the seeding commit");
        assert!(sent_bodies(&channels).is_empty(), "no send on top of a failed commit");
        assert!(acks(&mut notice_rx).is_empty(), "no ack either");

        // Bob's batch commits, and covers alice's with it.
        commit_bobs_batch(&mut shard, &mut channels);
        assert_eq!(shard.snapshot().log.group_commits, 2);
        let live = [UserId::new("alice"), UserId::new("bob")];
        assert_eq!(acks(&mut notice_rx), live, "the live alerts are acked; the replay is not");
        let bodies = sent_bodies(&channels);
        assert_eq!(bodies.len(), 3, "{bodies:?}");
        for (body, expected) in bodies.iter().zip(["Sensor A0", "Sensor A1", "Sensor B1"]) {
            assert!(body.contains(expected), "{bodies:?}");
        }
        drop(shard);

        // A restart over the same directory finds nothing left to replay:
        // every alert was delivered exactly once.
        assert_eq!(unprocessed_after_reopen(&dir), 0);
    }

    /// A stop right after a failed commit: the stop's own commit covers
    /// the failed batch, so it must release what that batch withheld —
    /// not make its marks durable and drop its sends.
    #[test]
    fn a_stop_releases_what_a_failed_commit_withheld() {
        let dir = std::env::temp_dir().join(format!("simba-shard-stopfail-{}", std::process::id()));
        let (mut shard, _telemetry, _notice_rx) = seeded_shard(&dir, direct_to_im(true));
        let mut channels = LoopbackChannels::accept_all();
        fail_alices_batch(&mut shard, &mut channels);
        let snapshot = shard.stop(&mut channels, SimTime::ZERO);
        assert_eq!(snapshot.log.group_commits, 2, "the seeding commit and the stop's");
        let bodies = sent_bodies(&channels);
        assert_eq!(bodies.len(), 2, "{bodies:?}");
        assert!(bodies[0].contains("Sensor A0") && bodies[1].contains("Sensor A1"), "{bodies:?}");
        drop(shard);
        assert_eq!(unprocessed_after_reopen(&dir), 0);
    }

    /// Regression: the end of a delivery was reported by a sweep after the
    /// commit, whether or not the commit succeeded, so a failed batch
    /// reported deliveries whose records were not durable — and a crash
    /// there would report them again after replay. With the IM address
    /// disabled, each delivery is exhausted in the batch that routes it.
    #[test]
    fn a_failed_commit_withholds_its_conclusion_reports() {
        let dir = std::env::temp_dir().join(format!("simba-shard-finishfail-{}", std::process::id()));
        let (mut shard, _telemetry, mut notice_rx) = seeded_shard(&dir, direct_to_im(false));
        let mut channels = LoopbackChannels::accept_all();
        let finished = |rx: &mut mpsc::Receiver<HostNotice>| {
            std::iter::from_fn(|| rx.try_recv().ok())
                .filter_map(|n| match n.notice {
                    RuntimeNotice::DeliveryFinished { delivery, .. } => Some((n.user, delivery)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };

        fail_alices_batch(&mut shard, &mut channels);
        assert_eq!(finished(&mut notice_rx), [], "nothing concluded on top of a failed commit");
        assert_eq!(shard.snapshot().exhausted, 0);

        commit_bobs_batch(&mut shard, &mut channels);
        let reported = finished(&mut notice_rx);
        assert_eq!(reported.len(), 3, "A0's replay, A1 and B1: {reported:?}");
        let users: Vec<&str> = reported.iter().map(|(user, _)| &*user.0).collect();
        assert_eq!(users, ["alice", "alice", "bob"]);
        assert_eq!(shard.snapshot().exhausted, 3);
        assert_eq!(shard.snapshot().in_flight, 0);
        assert!(sent_bodies(&channels).is_empty());
        drop(shard);
        assert_eq!(unprocessed_after_reopen(&dir), 0);
    }

    type Sent = Vec<(CommType, String, String)>;

    /// Every third IM send fails; the others are acknowledged after a lag
    /// that is 1 more than a multiple of 7 ms, up to ≈ 84 s — past the
    /// 60 s ack window for some. Email is accepted. Every send is logged.
    #[derive(Clone, Default)]
    struct EveryThirdImFails {
        ims: u64,
        sent: Arc<std::sync::Mutex<Sent>>,
    }

    impl Channels for EveryThirdImFails {
        fn send(&mut self, comm_type: CommType, address: &str, text: &str) -> SendOutcome {
            self.sent.lock().unwrap().push((comm_type, address.to_string(), text.to_string()));
            if comm_type != CommType::Im {
                return SendOutcome::Accepted;
            }
            self.ims += 1;
            if self.ims.is_multiple_of(3) {
                return SendOutcome::Failed(simba_core::delivery::SendFailure::ChannelDown);
            }
            SendOutcome::AcceptedWithAck(Duration::from_millis(7 * (self.ims * 4_099 % 12_000) + 1))
        }
    }

    /// Alice's `gw` alerts go to her IM address, then to her email when
    /// no ack comes within 60 s.
    fn im_then_email() -> ConfigFactory {
        use simba_core::address::Address;
        use simba_core::classify::KeywordField;
        use simba_core::mode::DeliveryMode;

        Arc::new(|user: &UserId| {
            let mut config = MabConfig::default();
            config.classifier.accept_source("gw", KeywordField::Body, "");
            config.classifier.map_keyword("Sensor", "Home");
            let profile = config.registry.register_user(user.clone());
            profile.address_book.add(Address::new("IM", CommType::Im, format!("im:{user}"))).unwrap();
            profile.address_book.add(Address::new("EM", CommType::Email, format!("{user}@work"))).unwrap();
            let mode = DeliveryMode::im_then_email("Urgent", "IM", "EM", SimDuration::from_secs(60));
            profile.define_mode(mode);
            config.registry.subscribe("Home", user.clone(), "Urgent").unwrap();
            config
        })
    }

    /// Twenty alerts for alice at seeded instants, all multiples of 7 ms:
    /// no ack (1 more than a multiple of 7 ms away) or block timer (60 s,
    /// 4 more) falls due at the instant an alert arrives, so a batch never
    /// depends on whether the worker saw the alert or the deadline first.
    fn seeded_script() -> Vec<(SimTime, IncomingAlert)> {
        let mut rng = simba_sim::SimRng::new(44);
        let mut at = 0;
        (0..20)
            .map(|i| {
                at += 7 * rng.range(100, 6_000);
                let at = SimTime::from_millis(at);
                (at, IncomingAlert::from_im("gw", format!("Sensor {i} ON"), at))
            })
            .collect()
    }

    fn one_buddy() -> ShardedHostConfig {
        ShardedHostConfig { shards: 1, hibernate_after: SimDuration::ZERO, ..ShardedHostConfig::default() }
    }

    /// The shard core run by hand: each alert is its own batch, and so is
    /// each deadline that falls between alerts.
    fn drive_by_hand(script: &[(SimTime, IncomingAlert)]) -> (Sent, Vec<HostNotice>) {
        let (notices, mut notice_rx) = mpsc::channel(DEFAULT_NOTICE_CAPACITY);
        let log = ShardLog::in_memory();
        let mut shard = Shard::open(log, &one_buddy(), im_then_email(), notices, Telemetry::disabled());
        let mut channels = EveryThirdImFails::default();
        let alice = UserId::new("alice");
        shard.register(vec![alice.clone()]);
        let run_due_before = |shard: &mut Shard, channels: &mut EveryThirdImFails, end: SimTime| {
            while let Some(due) = shard.next_deadline().filter(|due| *due < end) {
                shard.fire_due(due);
                shard.finish_batch(channels, due);
            }
        };
        for (at, alert) in script {
            run_due_before(&mut shard, &mut channels, *at);
            shard.submit(alice.clone(), alert.clone(), Door::Im, *at);
            shard.fire_due(*at);
            shard.finish_batch(&mut channels, *at);
        }
        run_due_before(&mut shard, &mut channels, SimTime::from_millis(u64::MAX));
        drop(shard);
        let sent = channels.sent.lock().unwrap().clone();
        (sent, std::iter::from_fn(|| notice_rx.try_recv().ok()).collect())
    }

    /// The shard core is the host's: the same script through a one-shard
    /// host on the paused clock makes the same sends, in the same order,
    /// and reports the same notices.
    #[tokio::test(start_paused = true)]
    async fn a_shard_driven_by_hand_behaves_as_the_host_does() {
        let script = seeded_script();
        let channels = EveryThirdImFails::default();
        let (host, mut notice_rx) =
            ShardedHost::new(channels.clone(), one_buddy(), im_then_email(), Telemetry::disabled()).unwrap();
        let alice = UserId::new("alice");
        host.register(alice.clone()).await;
        let clock = host.clock();
        for (at, alert) in &script {
            tokio::time::sleep(Duration::from_millis(at.as_millis() - clock.now().as_millis())).await;
            host.submit_im(&alice, alert.clone()).await;
        }
        tokio::time::sleep(Duration::from_secs(600)).await;
        host.shutdown().await;
        let host_notices: Vec<HostNotice> = std::iter::from_fn(|| notice_rx.try_recv().ok()).collect();
        let host_sent = channels.sent.lock().unwrap().clone();

        let (sent, notices) = drive_by_hand(&script);
        let emails = sent.iter().filter(|(comm_type, ..)| *comm_type == CommType::Email).count();
        assert!(emails > 6, "failed and unacknowledged IMs fall back to email: {emails}");
        assert_eq!(host_sent, sent);
        assert_eq!(host_notices, notices);
    }

    #[test]
    fn shard_assignment_is_stable_and_spread() {
        let a = UserId::new("alice");
        assert_eq!(shard_of(&a, 8), shard_of(&a, 8));
        let mut seen = std::collections::HashSet::new();
        for i in 0..256 {
            seen.insert(shard_of(&UserId::new(format!("user{i}")), 8));
        }
        assert_eq!(seen.len(), 8, "256 users should reach all 8 shards");
    }
}
