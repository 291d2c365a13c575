//! The ledger worker pool: N workers draining leases into channel
//! adapters, with per-worker kill switches for crash injection.
//!
//! Every worker is a task on the caller's executor, so the whole pool
//! runs on one thread. That keeps a channel adapter's record → send →
//! forget of an idempotency key atomic: a send has no yield point, so no
//! sibling can re-lease the record in between. On parallel threads one
//! could: it would find the key and close the record as a duplicate of
//! a send that then failed, leaving an accepted alert terminal with no
//! visible send. One executor is also the deterministic shape
//! `start_paused` tests rely on.
//!
//! A worker's cycle is *lease → commit → send → record → yield*. The
//! commit after the lease makes durable whatever the journal buffers:
//! re-grants, and the outcomes this worker (and anyone else) recorded
//! since the last commit. Most batches buffer nothing: a record's first
//! grant rides its `R` image in the shard worker's handoff commit, so
//! claiming it writes nothing, and that handoff commit already carried
//! every outcome recorded before it. Two invariants follow:
//!
//! * every lease grant is durable before its send, so a crash can only
//!   ever re-deliver, never lose;
//! * every outcome is durable before its worker sends again. An outcome
//!   lost to a crash before that leaves its record owed, and the resend
//!   meets the idempotency key.
//!
//! A lease that comes back empty commits nothing: an idle pool leaves its
//! outcomes to the next commit, most often the next handoff's, and a
//! crash before it re-delivers them. Only a draining worker commits on
//! an empty lease, and it exits once the ledger is clean. A worker leases
//! only *after* its yield: leasing first would hold every batch through
//! the yield unsent. A killed worker stops dead
//! between sends — it records nothing — and its leases expire for any
//! surviving worker to resume, which is exactly the crash the
//! idempotency keys exist to absorb.

use crate::ledger::{LeasedWork, LedgerError, SharedLedger, WorkerId};
use simba_sim::SimTime;
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

/// How long an idle worker sleeps before re-polling the ledger.
const IDLE_BACKOFF: Duration = Duration::from_millis(5);

/// How a channel adapter resolved one outbound send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelResult {
    /// The send produced its visible effect.
    Sent,
    /// The adapter had already seen this idempotency key and suppressed
    /// the duplicate — the effect exists from an earlier attempt.
    Duplicate,
    /// The send failed; the ledger schedules a retry or dead-letters.
    Failed(String),
}

/// The send interface workers drain leases into. `runtime` bridges this
/// to its `Channels` services; tests provide scripted fakes.
pub trait LedgerChannels: Send {
    /// Performs (or dedupes, or fails) one outbound send.
    fn send(&mut self, work: &LeasedWork) -> ChannelResult;
}

/// How workers read the current time. [`SimTime`] is process-relative,
/// so the pool takes the clock as a closure: benchmarks anchor it to a
/// wall-clock epoch, deterministic tests to the paused tokio clock.
pub type LedgerClock = Arc<dyn Fn() -> SimTime + Send + Sync>;

/// Worker pool configuration.
#[derive(Debug, Clone)]
pub struct WorkerPoolConfig {
    /// How many workers to spawn.
    pub workers: usize,
    /// Most leases granted per cycle.
    pub batch: usize,
}

impl Default for WorkerPoolConfig {
    fn default() -> Self {
        WorkerPoolConfig { workers: 4, batch: 64 }
    }
}

/// Aggregated outcome totals across the pool's workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Sends that produced their visible effect.
    pub sent: u64,
    /// Sends the adapter absorbed as idempotent duplicates.
    pub deduped: u64,
    /// Sends that failed (each schedules a retry or dead-letter).
    pub failed: u64,
    /// Outcome reports rejected because the lease had moved on — the
    /// losing side of a lease-expiry race.
    pub stale_reports: u64,
    /// Non-empty lease batches drained.
    pub lease_batches: u64,
    /// Commit failures (the affected leases were left to expire).
    pub io_errors: u64,
    /// Workers that died to their kill switch.
    pub killed: u64,
}

impl PoolStats {
    fn absorb(&mut self, other: PoolStats) {
        self.sent += other.sent;
        self.deduped += other.deduped;
        self.failed += other.failed;
        self.stale_reports += other.stale_reports;
        self.lease_batches += other.lease_batches;
        self.io_errors += other.io_errors;
        self.killed += other.killed;
    }
}

struct WorkerHandle {
    kill: Arc<AtomicBool>,
    task: tokio::task::JoinHandle<PoolStats>,
}

/// A running pool of ledger workers. Construct with
/// [`LedgerWorkerPool::spawn`], inject crashes with
/// [`LedgerWorkerPool::kill`], and finish with
/// [`LedgerWorkerPool::drain`].
pub struct LedgerWorkerPool {
    stop: Arc<AtomicBool>,
    workers: Vec<WorkerHandle>,
}

impl LedgerWorkerPool {
    /// Spawns `config.workers` workers against `ledger` as tasks on the
    /// current executor. `channels` supplies each worker its own adapter
    /// (its length caps the worker count); `clock` supplies the shared
    /// notion of now.
    ///
    /// # Errors
    ///
    /// None: spawning a task cannot fail.
    pub fn spawn(
        ledger: SharedLedger,
        channels: Vec<Box<dyn LedgerChannels>>,
        clock: LedgerClock,
        config: WorkerPoolConfig,
    ) -> Result<Self, Infallible> {
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        for (index, adapter) in channels.into_iter().enumerate().take(config.workers.max(1)) {
            let kill = Arc::new(AtomicBool::new(false));
            let worker = Worker {
                id: WorkerId::new(format!("worker-{index:03}")),
                ledger: Arc::clone(&ledger),
                channels: adapter,
                clock: Arc::clone(&clock),
                batch: config.batch.max(1),
                kill: Arc::clone(&kill),
                stop: Arc::clone(&stop),
                stats: PoolStats::default(),
            };
            workers.push(WorkerHandle { kill, task: tokio::spawn(worker.run()) });
        }
        Ok(LedgerWorkerPool { stop, workers })
    }

    /// Throws worker `index`'s kill switch: it dies between sends
    /// without recording outcomes, abandoning any leases it holds.
    pub fn kill(&self, index: usize) {
        if let Some(switch) = self.kill_switch(index) {
            switch.store(true, Ordering::Release);
        }
    }

    /// Worker `index`'s kill switch itself, for a caller that throws it
    /// from inside a send (a channel adapter): the worker then dies
    /// between that send and the next one of the same batch.
    pub fn kill_switch(&self, index: usize) -> Option<Arc<AtomicBool>> {
        self.workers.get(index).map(|handle| Arc::clone(&handle.kill))
    }

    /// Tells every worker to exit once the ledger drains, then joins
    /// them and returns the pooled totals. Dead letters do not block a
    /// drain; live leases held by killed workers do until they expire —
    /// the caller controls that via lease duration or
    /// `force_expire_leases`.
    pub async fn drain(self) -> PoolStats {
        self.stop.store(true, Ordering::Release);
        let mut total = PoolStats::default();
        for handle in self.workers {
            if let Ok(stats) = handle.task.await {
                total.absorb(stats);
            }
        }
        total
    }
}

struct Worker {
    id: WorkerId,
    ledger: SharedLedger,
    channels: Box<dyn LedgerChannels>,
    clock: LedgerClock,
    batch: usize,
    kill: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    stats: PoolStats,
}

impl Worker {
    fn killed(&self) -> bool {
        self.kill.load(Ordering::Acquire)
    }

    async fn run(mut self) -> PoolStats {
        loop {
            if self.killed() {
                self.stats.killed = 1;
                return self.stats;
            }
            let now = (self.clock)();
            // Lease, then make what is buffered — re-grants and the
            // outcomes recorded since the last commit — durable *before*
            // sending: a crash after this point re-delivers, never loses.
            // An empty lease leaves the outcomes to the next commit
            // unless the pool is draining.
            let (work, drained) = {
                let mut ledger = self.ledger.lock().unwrap_or_else(PoisonError::into_inner);
                let mut work = ledger.lease(&self.id, now, self.batch);
                let draining = self.stop.load(Ordering::Acquire);
                // simba-analyze: allow(concurrency.blocking-under-guard): a lease is only actionable once durable — lease+commit must be atomic under the ledger lock
                if (draining || !work.is_empty()) && ledger.commit().is_err() {
                    self.stats.io_errors += 1;
                    // Non-durable leases must not be acted on; they sit
                    // leased in memory until they expire and retry.
                    work.clear();
                }
                let drained = ledger.is_drained();
                (work, drained)
            };
            if work.is_empty() {
                if self.stop.load(Ordering::Acquire) && drained {
                    return self.stats;
                }
                tokio::time::sleep(IDLE_BACKOFF).await;
                continue;
            }
            self.stats.lease_batches += 1;
            let mut outcomes = Vec::with_capacity(work.len());
            for item in &work {
                // The kill switch models a crash: stop dead between
                // sends, record nothing — not even sends already
                // performed. Their leases expire, another worker
                // re-sends, and the adapter's idempotency filter keeps
                // the visible effect single.
                if self.killed() {
                    self.stats.killed = 1;
                    return self.stats;
                }
                outcomes.push((item.id, self.channels.send(item)));
            }
            // Outcomes buffer in the journal; the next commit — the shard
            // worker's next handoff, or a lease that finds work — makes
            // them durable.
            let now = (self.clock)();
            {
                let mut ledger = self.ledger.lock().unwrap_or_else(PoisonError::into_inner);
                for (id, outcome) in outcomes {
                    let result = match &outcome {
                        ChannelResult::Sent => ledger.record_sent(&self.id, id, now),
                        ChannelResult::Duplicate => ledger.record_duplicate(&self.id, id, now),
                        ChannelResult::Failed(error) => {
                            ledger.record_failed(&self.id, id, error, now)
                        }
                    };
                    match result {
                        Ok(()) => match outcome {
                            ChannelResult::Sent => self.stats.sent += 1,
                            ChannelResult::Duplicate => self.stats.deduped += 1,
                            ChannelResult::Failed(_) => self.stats.failed += 1,
                        },
                        Err(LedgerError::StaleLease { .. }) => self.stats.stale_reports += 1,
                        Err(_) => self.stats.io_errors += 1,
                    }
                }
            }
            // A worker that always finds work would otherwise starve its
            // siblings (and the caller) on the shared executor.
            tokio::time::sleep(Duration::from_millis(1)).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{DeliveryLedger, LedgerConfig};
    use simba_core::address::CommType;
    use simba_core::subscription::UserId;
    use simba_sim::SimDuration;
    use std::collections::HashMap;
    use std::sync::Mutex;

    /// Scripted adapter: dedupes on idempotency key like the runtime's
    /// ledger bridge, optionally failing the first N sends.
    struct FakeChannels {
        effects: Arc<Mutex<HashMap<String, u32>>>,
        fail_first: Arc<Mutex<u32>>,
    }

    impl LedgerChannels for FakeChannels {
        fn send(&mut self, work: &LeasedWork) -> ChannelResult {
            let mut failures = self.fail_first.lock().unwrap_or_else(PoisonError::into_inner);
            if *failures > 0 {
                *failures -= 1;
                return ChannelResult::Failed("injected".to_string());
            }
            drop(failures);
            let mut effects = self.effects.lock().unwrap_or_else(PoisonError::into_inner);
            let count = effects.entry(work.idempotency_key.to_string()).or_insert(0);
            if *count > 0 {
                ChannelResult::Duplicate
            } else {
                *count += 1;
                ChannelResult::Sent
            }
        }
    }

    type EffectCounts = Arc<Mutex<HashMap<String, u32>>>;

    fn pool_fixture(
        workers: usize,
        fail_first: u32,
    ) -> (SharedLedger, Vec<Box<dyn LedgerChannels>>, EffectCounts) {
        let config = LedgerConfig {
            lease_duration: SimDuration::from_millis(50),
            base_backoff: SimDuration::from_millis(2),
            max_backoff: SimDuration::from_millis(10),
            ..LedgerConfig::in_memory()
        };
        let ledger = Arc::new(Mutex::new(
            DeliveryLedger::open(config).expect("in-memory open cannot fail"),
        ));
        let effects = Arc::new(Mutex::new(HashMap::new()));
        let failures = Arc::new(Mutex::new(fail_first));
        let channels: Vec<Box<dyn LedgerChannels>> = (0..workers)
            .map(|_| {
                Box::new(FakeChannels {
                    effects: Arc::clone(&effects),
                    fail_first: Arc::clone(&failures),
                }) as Box<dyn LedgerChannels>
            })
            .collect();
        (ledger, channels, effects)
    }

    fn paused_clock() -> LedgerClock {
        let epoch = tokio::time::Instant::now();
        Arc::new(move || {
            SimTime::from_millis(tokio::time::Instant::now().duration_since(epoch).as_millis() as u64)
        })
    }

    fn enqueue_n(ledger: &SharedLedger, n: u64) {
        let mut guard = ledger.lock().unwrap_or_else(PoisonError::into_inner);
        for i in 0..n {
            let user = UserId::new(format!("user-{i}"));
            guard.enqueue(&user, i, CommType::Im, "im:addr", "alert", SimTime::ZERO);
        }
    }

    #[tokio::test(start_paused = true)]
    async fn pool_drains_everything_exactly_once() {
        let (ledger, channels, effects) = pool_fixture(3, 0);
        enqueue_n(&ledger, 200);
        let pool = LedgerWorkerPool::spawn(
            Arc::clone(&ledger),
            channels,
            paused_clock(),
            WorkerPoolConfig { workers: 3, batch: 16 },
        )
        .expect("local spawn cannot fail");
        let stats = pool.drain().await;
        assert_eq!(stats.sent + stats.deduped, 200);
        assert!(ledger.lock().unwrap_or_else(PoisonError::into_inner).is_drained());
        let effects = effects.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(effects.len(), 200);
        assert!(effects.values().all(|&c| c == 1), "every effect exactly once");
    }

    #[tokio::test(start_paused = true)]
    async fn a_pool_commits_once_per_lease_batch_plus_once_to_finish() {
        let (records, batch) = (200u64, 16usize);
        let (ledger, channels, _) = pool_fixture(3, 0);
        enqueue_n(&ledger, records);
        let pool = LedgerWorkerPool::spawn(
            Arc::clone(&ledger),
            channels,
            paused_clock(),
            WorkerPoolConfig { workers: 3, batch },
        )
        .expect("local spawn cannot fail");
        let stats = pool.drain().await;
        assert_eq!(stats.sent, records);
        let commits = ledger.lock().unwrap_or_else(PoisonError::into_inner).stats().commit_batches;
        let bound = records.div_ceil(batch as u64) + 1;
        assert!(commits <= bound, "{commits} commits for {records} records in batches of {batch} (bound {bound})");
    }

    #[tokio::test(start_paused = true)]
    async fn an_idle_pools_outcomes_ride_the_next_handoff_commit() {
        let records = 20u64;
        let (ledger, channels, effects) = pool_fixture(1, 0);
        let pool = LedgerWorkerPool::spawn(
            Arc::clone(&ledger),
            channels,
            paused_clock(),
            WorkerPoolConfig { workers: 1, ..WorkerPoolConfig::default() },
        )
        .expect("local spawn cannot fail");
        let lock = || ledger.lock().unwrap_or_else(PoisonError::into_inner);
        for i in 0..records {
            // A handoff as the shard worker makes it: enqueue and commit
            // under one guard.
            {
                let mut guard = lock();
                let user = UserId::new(format!("user-{i}"));
                guard.enqueue(&user, i, CommType::Im, "im:addr", "alert", SimTime::ZERO);
                guard.commit().expect("in-memory commit cannot fail");
            }
            tokio::time::sleep(Duration::from_millis(10)).await;
            assert_eq!(effects.lock().unwrap_or_else(PoisonError::into_inner).len() as u64, i + 1);
            assert!(lock().is_dirty(), "record {i}: the idle pool left its outcome buffered");
        }
        assert_eq!(pool.drain().await.sent, records);
        let stats = lock().stats();
        assert_eq!(stats.handed, records, "every first grant rode its image");
        assert_eq!(stats.commit_batches, records + 1, "one per handoff and one to drain");
    }

    /// Copies every file of `from` into a fresh `to`.
    fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
        let _ = std::fs::remove_dir_all(to);
        std::fs::create_dir_all(to).expect("create copy");
        for entry in std::fs::read_dir(from).expect("read ledger dir") {
            let entry = entry.expect("dir entry");
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy segment");
        }
    }

    /// What a crash at the first send of the second batch leaves owed:
    /// the first batch's ids, and how many records in all.
    type Owed = Arc<Mutex<Option<(Vec<u64>, usize)>>>;

    /// Sends everything; on the first send of the second batch, opens a
    /// copy of the ledger directory as a crash there would leave it and
    /// reports what is still owed in it.
    struct CrashProbe {
        dir: std::path::PathBuf,
        batch: usize,
        first_batch: Vec<u64>,
        owed_at_second_batch: Owed,
    }

    impl LedgerChannels for CrashProbe {
        fn send(&mut self, work: &LeasedWork) -> ChannelResult {
            if self.first_batch.len() < self.batch {
                self.first_batch.push(work.id);
            } else {
                let mut probed = self.owed_at_second_batch.lock().unwrap_or_else(PoisonError::into_inner);
                if probed.is_none() {
                    let copy = self.dir.with_extension("crash-copy");
                    copy_dir(&self.dir, &copy);
                    let reopened = DeliveryLedger::open(LedgerConfig::on_disk(&copy)).expect("open the copy");
                    let owed: Vec<u64> = reopened.records().chain(reopened.dead_letters()).map(|r| r.id).collect();
                    let first = owed.iter().copied().filter(|id| self.first_batch.contains(id)).collect();
                    *probed = Some((first, owed.len()));
                    drop(reopened);
                    let _ = std::fs::remove_dir_all(&copy);
                }
            }
            ChannelResult::Sent
        }
    }

    #[tokio::test(start_paused = true)]
    async fn a_batchs_outcomes_are_durable_before_the_next_batch_is_sent() {
        let dir = std::env::temp_dir().join(format!("simba-pool-outcomes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ledger = Arc::new(Mutex::new(
            DeliveryLedger::open(LedgerConfig::on_disk(&dir)).expect("open on-disk ledger"),
        ));
        enqueue_n(&ledger, 20);
        ledger.lock().unwrap_or_else(PoisonError::into_inner).commit().expect("commit the enqueues");
        let batch = 8;
        let probed: Owed = Arc::default();
        let probe = CrashProbe {
            dir: dir.clone(),
            batch,
            first_batch: Vec::new(),
            owed_at_second_batch: Arc::clone(&probed),
        };
        let pool = LedgerWorkerPool::spawn(
            Arc::clone(&ledger),
            vec![Box::new(probe)],
            paused_clock(),
            WorkerPoolConfig { workers: 1, batch },
        )
        .expect("local spawn cannot fail");
        assert_eq!(pool.drain().await.sent, 20);
        let owed = probed.lock().unwrap_or_else(PoisonError::into_inner).take();
        assert_eq!(owed, Some((Vec::new(), 12)), "every first-batch outcome was durable before the second batch");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[tokio::test(start_paused = true)]
    async fn failures_retry_until_sent() {
        let (ledger, channels, effects) = pool_fixture(2, 30);
        enqueue_n(&ledger, 50);
        let pool = LedgerWorkerPool::spawn(
            Arc::clone(&ledger),
            channels,
            paused_clock(),
            WorkerPoolConfig { workers: 2, batch: 8 },
        )
        .expect("local spawn cannot fail");
        let stats = pool.drain().await;
        assert_eq!(stats.sent + stats.deduped, 50);
        assert_eq!(stats.failed, 30, "every injected failure was retried");
        let effects = effects.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(effects.values().all(|&c| c == 1));
    }

    #[tokio::test(start_paused = true)]
    async fn killed_workers_leases_are_resumed_by_survivors() {
        let (ledger, channels, effects) = pool_fixture(2, 0);
        enqueue_n(&ledger, 100);
        let pool = LedgerWorkerPool::spawn(
            Arc::clone(&ledger),
            channels,
            paused_clock(),
            WorkerPoolConfig { workers: 2, batch: 8 },
        )
        .expect("local spawn cannot fail");
        // Let the pool get into flight, then kill worker 0 mid-stream.
        tokio::time::sleep(Duration::from_millis(3)).await;
        pool.kill(0);
        let stats = pool.drain().await;
        assert_eq!(stats.killed, 1);
        assert_eq!(stats.sent + stats.deduped, 100, "survivor finished the work");
        assert!(ledger.lock().unwrap_or_else(PoisonError::into_inner).is_drained());
        let effects = effects.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(effects.len(), 100);
        assert!(effects.values().all(|&c| c == 1), "kills caused no double effect");
    }
}
