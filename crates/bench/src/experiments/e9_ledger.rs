//! E9 — durable delivery ledger under crash fire: a worker pool drains
//! a disk-backed leased queue while workers are killed mid-send and
//! every outstanding lease is forcibly expired, and the acceptance
//! invariant holds — zero accepted-then-lost, zero double-visible-send.
//!
//! The tentpole claim (DESIGN.md §13): once a channel attempt is
//! committed to the `alert_deliveries` ledger, *some* worker eventually
//! produces its visible effect exactly once, regardless of which workers
//! die in between. The experiment drives that end to end:
//!
//! * enqueue `deliveries` records (full scale: 100 000) into an on-disk
//!   ledger and group-commit them — this is the §4.2.1 durable-before-ack
//!   boundary moved down a layer;
//! * drain with a pool of `workers` tasks on one executor, leases granted
//!   durably before any send;
//! * at ~25 % progress, arm `kills` workers' adapters: each throws its
//!   own worker's kill switch during the first send of its next batch,
//!   so the worker dies between two sends of that batch, recording
//!   nothing; then force-expire every outstanding lease — the worst
//!   legal interleaving;
//! * survivors reclaim the abandoned leases; the channel adapter counts
//!   effects per idempotency key;
//! * assert the matrix: ledger fully drained, every key's effect count
//!   exactly 1, expiries, reclaims and idempotent dedups actually
//!   happened.
//!
//! Throughput (deliveries per wall second over the drain window) is a
//! printed column, not a gate.

use crate::experiments::ExperimentOutput;
use crate::report::Table;
use simba_core::address::CommType;
use simba_core::subscription::UserId;
use simba_ledger::{
    ChannelResult, DeliveryLedger, LedgerChannels, LedgerClock, LedgerConfig, LedgerWorkerPool,
    LeasedWork, PoolStats, WorkerPoolConfig,
};
use simba_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Experiment shape. [`E9Options::full`] is the recorded configuration;
/// [`E9Options::smoke`] the CI shape (same code paths, reduced scale).
#[derive(Debug, Clone, Copy)]
pub struct E9Options {
    /// Channel attempts enqueued (one ledger record each).
    pub deliveries: usize,
    /// Pool workers.
    pub workers: usize,
    /// Workers killed mid-run. Must be < `workers`.
    pub kills: usize,
    /// Leases granted per worker cycle (commit amortization lever).
    pub batch: usize,
}

impl E9Options {
    /// Full scale: 4 workers × 100 k deliveries, 2 killed.
    pub fn full() -> Self {
        E9Options { deliveries: 100_000, workers: 4, kills: 2, batch: 256 }
    }

    /// CI smoke: 4 workers × 20 k deliveries, 2 killed.
    pub fn smoke() -> Self {
        E9Options { deliveries: 20_000, workers: 4, kills: 2, batch: 256 }
    }

    fn validate(&self) {
        assert!(self.workers >= 1, "need at least one worker");
        assert!(self.kills < self.workers, "at least one worker must survive the kills");
        assert!(self.deliveries >= 1, "need at least one delivery");
        assert!(
            self.kills == 0 || self.deliveries / 2 >= self.workers * self.batch,
            "a victim must still find a full batch after the quarter mark"
        );
    }
}

/// Measured headline numbers, exposed for regression tests.
#[derive(Debug, Clone, Copy)]
pub struct E9Numbers {
    /// Records enqueued (== deliveries requested).
    pub deliveries: u64,
    /// Distinct idempotency keys that produced a visible effect.
    pub effects: u64,
    /// Keys whose effect happened more than once (must be zero).
    pub double_effects: u64,
    /// Workers killed mid-run.
    pub killed: u64,
    /// Leases that expired and were reclaimed by another grant.
    pub lease_expiries: u64,
    /// Sends the adapters absorbed as idempotent duplicates.
    pub deduped: u64,
    /// Outcome reports rejected as stale (the losing side of races).
    pub stale_reports: u64,
    /// Failed sends retried under backoff.
    pub retried: u64,
    /// Records dead-lettered (must be zero — no send is permanently
    /// failing in this shape).
    pub dead_lettered: u64,
    /// Group commits the ledger performed.
    pub commit_batches: u64,
    /// Ledger records per group commit.
    pub records_per_commit: f64,
    /// Journal segments rotated during the run.
    pub segments_rotated: u64,
    /// Wall-clock seconds from pool spawn to drain.
    pub wall_secs: f64,
    /// Deliveries per wall-clock second.
    pub throughput: f64,
}

/// Where `drive` arms a victim's adapter: the kill switch of the
/// adapter's own worker, thrown (and taken) by its next send.
type Armed = Arc<Mutex<Option<Arc<AtomicBool>>>>;

/// The counting adapter: one entry per idempotency key, `Duplicate` on
/// re-sight — the same contract `runtime::LedgerChannelBridge` installs
/// over real channels, reduced to its observable core so the bench
/// measures the ledger, not a channel simulation.
struct CountingChannels {
    effects: Arc<Mutex<HashMap<String, u32>>>,
    armed: Armed,
}

impl LedgerChannels for CountingChannels {
    fn send(&mut self, work: &LeasedWork) -> ChannelResult {
        // The crash: this send happens, but its worker dies before the
        // next one and records neither.
        if let Some(switch) = self.armed.lock().unwrap_or_else(PoisonError::into_inner).take() {
            switch.store(true, Ordering::Release);
        }
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

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simba-e9-ledger-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create E9 scratch dir");
    dir
}

struct RawE9 {
    pool: PoolStats,
    ledger: simba_ledger::LedgerStats,
    effects: HashMap<String, u32>,
    wall_secs: f64,
}

async fn drive(opts: E9Options, dir: PathBuf, clock: LedgerClock) -> RawE9 {
    let config = LedgerConfig {
        // Short leases: abandoned work must be reclaimable well inside
        // the bench window even without the forced expiry.
        lease_duration: SimDuration::from_millis(200),
        base_backoff: SimDuration::from_millis(1),
        max_backoff: SimDuration::from_millis(20),
        ..LedgerConfig::on_disk(&dir)
    };
    let ledger = Arc::new(Mutex::new(DeliveryLedger::open(config).expect("open E9 ledger")));
    let effects: Arc<Mutex<HashMap<String, u32>>> = Arc::new(Mutex::new(HashMap::new()));

    // Accept everything up front: one enqueue per delivery, one group
    // commit for the lot. From here on the records are owned durably.
    {
        let mut guard = ledger.lock().unwrap_or_else(PoisonError::into_inner);
        for i in 0..opts.deliveries {
            let user = UserId::new(format!("user-{i}"));
            guard.enqueue(&user, i as u64, CommType::Im, "im:addr", "alert", SimTime::ZERO);
        }
        guard.commit().expect("commit enqueues");
    }

    let armed: Vec<Armed> = (0..opts.workers).map(|_| Armed::default()).collect();
    let adapters: Vec<Box<dyn LedgerChannels>> = armed
        .iter()
        .map(|armed| {
            Box::new(CountingChannels { effects: Arc::clone(&effects), armed: Arc::clone(armed) })
                as Box<dyn LedgerChannels>
        })
        .collect();
    let wall = std::time::Instant::now();
    let pool = LedgerWorkerPool::spawn(
        Arc::clone(&ledger),
        adapters,
        clock,
        WorkerPoolConfig { workers: opts.workers, batch: opts.batch },
    )
    .expect("spawn E9 pool");

    // Crash injection at ~25 % progress. A worker's batch runs without a
    // yield, so this task only ever runs between batches: a victim's
    // next send is the first of its next batch, and its worker dies
    // before the second. The forced expiry then hands every outstanding
    // lease — the victims' and the survivors' — to whoever leases next.
    if opts.kills > 0 {
        let quarter = (opts.deliveries / 4).max(1);
        let pause = || tokio::time::sleep(std::time::Duration::from_millis(1));
        while effects.lock().unwrap_or_else(PoisonError::into_inner).len() < quarter {
            pause().await;
        }
        for (victim, armed) in armed.iter().enumerate().take(opts.kills) {
            *armed.lock().unwrap_or_else(PoisonError::into_inner) = pool.kill_switch(victim);
        }
        // A victim that never leases again (the survivors drained the
        // rest first) would leave its switch armed forever: fail instead
        // of waiting for it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while armed.iter().any(|armed| armed.lock().unwrap_or_else(PoisonError::into_inner).is_some()) {
            let drained = ledger.lock().unwrap_or_else(PoisonError::into_inner).is_drained();
            assert!(
                !drained && std::time::Instant::now() < deadline,
                "every victim must take its armed kill switch before the ledger drains"
            );
            pause().await;
        }
        ledger.lock().unwrap_or_else(PoisonError::into_inner).force_expire_leases();
    }

    let pool_stats = pool.drain().await;
    let wall_secs = wall.elapsed().as_secs_f64();

    let guard = ledger.lock().unwrap_or_else(PoisonError::into_inner);
    assert!(guard.is_drained(), "ledger must drain: {:?}", guard.counts());
    let ledger_stats = guard.stats();
    drop(guard);
    let effects = Arc::try_unwrap(effects)
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .unwrap_or_else(|arc| arc.lock().unwrap_or_else(PoisonError::into_inner).clone());
    RawE9 { pool: pool_stats, ledger: ledger_stats, effects, wall_secs }
}

/// Runs E9 and returns the headline numbers plus tables.
pub fn measure(opts: E9Options) -> (E9Numbers, Vec<Table>) {
    opts.validate();
    let dir = scratch_dir();
    let epoch = std::time::Instant::now();
    let clock: LedgerClock =
        Arc::new(move || SimTime::from_millis(epoch.elapsed().as_millis() as u64));
    let raw = tokio::runtime::block_on(drive(opts, dir.clone(), clock));
    let _ = std::fs::remove_dir_all(&dir);

    let total = opts.deliveries as u64;
    let double_effects = raw.effects.values().filter(|&&c| c > 1).count() as u64;
    let commits = raw.ledger.commit_batches.max(1);
    let numbers = E9Numbers {
        deliveries: total,
        effects: raw.effects.len() as u64,
        double_effects,
        killed: raw.pool.killed,
        lease_expiries: raw.ledger.lease_expired,
        deduped: raw.ledger.deduped,
        stale_reports: raw.pool.stale_reports,
        retried: raw.ledger.retried,
        dead_lettered: raw.ledger.dead_lettered,
        commit_batches: raw.ledger.commit_batches,
        records_per_commit: (raw.ledger.enqueued + raw.ledger.leased + raw.ledger.sent) as f64
            / commits as f64,
        segments_rotated: raw.ledger.segments_rotated,
        wall_secs: raw.wall_secs,
        throughput: if raw.wall_secs > 0.0 {
            total as f64 / raw.wall_secs
        } else {
            f64::INFINITY
        },
    };

    // The acceptance matrix — all hard assertions, not report lines.
    assert_eq!(numbers.effects, total, "zero accepted-then-lost");
    assert_eq!(numbers.double_effects, 0, "zero double-visible-send");
    assert_eq!(numbers.killed, opts.kills as u64, "every kill switch landed");
    assert_eq!(numbers.dead_lettered, 0, "nothing may dead-letter in the clean shape");
    if opts.kills > 0 {
        assert!(
            numbers.lease_expiries > 0,
            "the forced expiry must actually reclaim leases"
        );
        assert!(
            numbers.deduped > 0,
            "a victim's unrecorded sends must come back as idempotent dedups"
        );
    }

    let mut config = Table::new(
        "E9: ledger crash-drain configuration",
        &["deliveries", "workers", "killed", "batch"],
    );
    config.row(&[
        total.to_string(),
        opts.workers.to_string(),
        opts.kills.to_string(),
        opts.batch.to_string(),
    ]);

    let mut matrix = Table::new(
        "E9: exactly-once matrix (all asserted)",
        &["enqueued", "effects", "double effects", "lost", "dead-lettered"],
    );
    matrix.row(&[
        total.to_string(),
        numbers.effects.to_string(),
        numbers.double_effects.to_string(),
        (total - numbers.effects).to_string(),
        numbers.dead_lettered.to_string(),
    ]);

    let mut crash = Table::new(
        "E9: crash traffic absorbed",
        &["workers killed", "lease expiries", "idempotent dedups", "stale reports", "retries"],
    );
    crash.row(&[
        numbers.killed.to_string(),
        numbers.lease_expiries.to_string(),
        numbers.deduped.to_string(),
        numbers.stale_reports.to_string(),
        numbers.retried.to_string(),
    ]);

    let mut durability = Table::new(
        "E9: group-commit journal",
        &["group commits", "records/commit", "segments rotated"],
    );
    durability.row(&[
        numbers.commit_batches.to_string(),
        format!("{:.1}", numbers.records_per_commit),
        numbers.segments_rotated.to_string(),
    ]);

    let mut perf = Table::new(
        "E9: wall-clock throughput",
        &["deliveries", "wall seconds", "deliveries/s"],
    );
    perf.row(&[
        total.to_string(),
        format!("{:.2}", numbers.wall_secs),
        format!("{:.0}", numbers.throughput),
    ]);

    (numbers, vec![config, matrix, crash, durability, perf])
}

/// Runs E9 at the given shape and packages the result.
fn run_with(opts: E9Options) -> ExperimentOutput {
    let (numbers, tables) = measure(opts);

    ExperimentOutput {
        id: "E9",
        title: "durable delivery ledger under worker kills and forced lease expiry",
        paper_claim: "§4.2.1 durable-before-ack, generalized: a committed channel attempt \
                      survives any worker crash and produces exactly one visible send",
        tables,
        notes: vec![
            format!(
                "{} deliveries drained by {} workers ({} killed mid-run) at {:.0} deliveries/s; \
                 {} leases force-expired and reclaimed, {} redeliveries absorbed as idempotent \
                 duplicates — zero lost, zero double-effect",
                numbers.deliveries,
                opts.workers,
                numbers.killed,
                numbers.throughput,
                numbers.lease_expiries,
                numbers.deduped,
            ),
            format!(
                "group commit amortized {:.1} ledger records per fsync-equivalent commit \
                 across {} commits ({} segment rotations)",
                numbers.records_per_commit, numbers.commit_batches, numbers.segments_rotated
            ),
        ],
    }
}

/// Runs E9 at full scale (the recorded shape).
pub fn run(_seed: u64) -> ExperimentOutput {
    run_with(E9Options::full())
}

/// The CI smoke shape.
pub fn run_smoke(_seed: u64) -> ExperimentOutput {
    run_with(E9Options::smoke())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_tiny_shape_holds_the_matrix() {
        // One kill. The exactly-once assertions (and that the victim's
        // sends came back as dedups) run inside measure(); no throughput
        // floor at test scale.
        let opts = E9Options { deliveries: 300, workers: 3, kills: 1, batch: 16 };
        let (n, _) = measure(opts);
        assert_eq!(n.deliveries, 300);
        assert_eq!(n.effects, 300);
        assert_eq!(n.double_effects, 0);
        assert_eq!(n.killed, 1);
        assert!(n.lease_expiries > 0, "the kill must abandon at least one lease");
        assert!(n.commit_batches > 0);
    }
}
