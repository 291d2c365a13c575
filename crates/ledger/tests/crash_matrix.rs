//! The crash matrix: every way a worker or process can die mid-delivery,
//! and the invariant that survives each one.
//!
//! * Process crash while records are leased → reopen reclaims the leases
//!   as Pending with attempts intact (zero accepted-then-lost).
//! * Worker kill mid-batch → a surviving worker resumes the abandoned
//!   leases and the idempotency filter keeps the effect single.
//! * Lease-expiry race → two workers hold opinions about one record;
//!   exactly one outcome report wins, the loser sees `StaleLease`.
//! * Backoff schedule → fully deterministic under `SimTime` for a fixed
//!   jitter seed.
//! * DLQ bound → the queue never exceeds its capacity; overflow evicts
//!   the oldest dead letter.

use simba_core::address::CommType;
use simba_core::subscription::UserId;
use simba_ledger::{
    ChannelResult, DeliveryLedger, LedgerChannels, LedgerConfig, LedgerError, LedgerWorkerPool,
    LeasedWork, RecordState, WorkerId, WorkerPoolConfig,
};
use simba_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "simba-ledger-crash-{}-{}",
        name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn enqueue(ledger: &mut DeliveryLedger, user: &str, delivery: u64) -> u64 {
    ledger.enqueue(
        &UserId::new(user),
        delivery,
        CommType::Im,
        "im:addr",
        "alert",
        SimTime::ZERO,
    )
}

/// A process crash is a drop without commit of in-memory state: whatever
/// the journal holds is the truth. Records leased by the dead process
/// must come back Pending — the lease holder no longer exists — with
/// their attempt counts preserved.
#[test]
fn process_crash_during_lease_reclaims_on_reopen() {
    let dir = scratch_dir("reopen");
    let worker = WorkerId::new("doomed");
    {
        let mut ledger =
            DeliveryLedger::open(LedgerConfig::on_disk(&dir)).expect("open fresh ledger");
        enqueue(&mut ledger, "alice", 1);
        enqueue(&mut ledger, "bob", 2);
        let work = ledger.lease(&worker, SimTime::ZERO, 10);
        assert_eq!(work.len(), 2);
        ledger.commit().expect("commit leases");
        // Crash: the ledger drops here. The sends never happened, the
        // outcome reports were never written.
    }
    let ledger = DeliveryLedger::open(LedgerConfig::on_disk(&dir)).expect("reopen after crash");
    let counts = ledger.counts();
    assert_eq!(counts.pending, 2, "leases of a dead process are reclaimed");
    assert_eq!(counts.leased, 0);
    for record in ledger.records() {
        assert_eq!(record.state, RecordState::Pending);
        assert_eq!(record.attempts, 1, "the interrupted attempt still counts");
        assert!(record.lease.is_none());
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Two workers, one record: A's lease expires mid-send, B re-leases and
/// delivers. Exactly one of the two outcome reports lands; the stale
/// holder is told so explicitly.
#[test]
fn lease_expiry_race_has_one_idempotent_winner() {
    let config = LedgerConfig {
        lease_duration: SimDuration::from_millis(10),
        ..LedgerConfig::in_memory()
    };
    let mut ledger = DeliveryLedger::open(config).expect("in-memory open");
    let id = enqueue(&mut ledger, "alice", 1);
    let slow = WorkerId::new("slow");
    let fast = WorkerId::new("fast");

    let granted = ledger.lease(&slow, SimTime::ZERO, 1);
    assert_eq!(granted.len(), 1);
    assert_eq!(granted[0].attempt, 1);

    // Time passes beyond the lease; the slow worker is still "sending".
    let later = SimTime::from_millis(20);
    let regranted = ledger.lease(&fast, later, 1);
    assert_eq!(regranted.len(), 1, "expired lease is reclaimed and regranted");
    assert_eq!(regranted[0].id, id);
    assert_eq!(regranted[0].attempt, 2);
    assert_eq!(
        regranted[0].idempotency_key, granted[0].idempotency_key,
        "the key is stable across re-leases — that is what makes the race safe"
    );

    // The fast worker's report wins...
    ledger.record_sent(&fast, id, later).expect("winner records");
    // ...and the slow worker, waking up, is told its lease moved on.
    match ledger.record_sent(&slow, id, later) {
        Err(LedgerError::StaleLease { id: stale, holder }) => {
            assert_eq!(stale, id);
            // The record closed Sent, so nobody holds it any more.
            assert_eq!(holder, None, "holder: {holder:?}");
        }
        other => panic!("expected StaleLease, got {other:?}"),
    }
    assert_eq!(ledger.stats().sent, 1, "one visible send despite two workers");
}

/// The reverse interleaving: the slow worker reports *first* (its send
/// did happen before the expiry), the fast re-lease then sends again and
/// the adapter dedupes it. Either way: one effect.
#[test]
fn lease_expiry_race_where_the_original_holder_wins() {
    let config = LedgerConfig {
        lease_duration: SimDuration::from_millis(10),
        ..LedgerConfig::in_memory()
    };
    let mut ledger = DeliveryLedger::open(config).expect("in-memory open");
    let id = enqueue(&mut ledger, "alice", 1);
    let slow = WorkerId::new("slow");
    let fast = WorkerId::new("fast");

    ledger.lease(&slow, SimTime::ZERO, 1);
    ledger.force_expire_leases();
    let regranted = ledger.lease(&fast, SimTime::from_millis(1), 1);
    assert_eq!(regranted.len(), 1);

    // Slow's report is now stale even though its send happened first…
    assert!(matches!(
        ledger.record_sent(&slow, id, SimTime::from_millis(2)),
        Err(LedgerError::StaleLease { .. })
    ));
    // …so fast re-sends, the adapter answers Duplicate, and the record
    // closes through the dedup path.
    ledger
        .record_duplicate(&fast, id, SimTime::from_millis(3))
        .expect("duplicate closes the record");
    assert!(ledger.is_drained() || ledger.is_dirty());
    assert_eq!(ledger.counts().pending + ledger.counts().leased, 0);
    assert_eq!(ledger.stats().deduped, 1);
}

/// Identical configuration must produce an identical retry schedule:
/// benchmarks and incident reconstructions rely on replayable timing.
#[test]
fn backoff_schedule_is_deterministic_under_sim_time() {
    let build = || {
        let config = LedgerConfig {
            base_backoff: SimDuration::from_millis(100),
            max_backoff: SimDuration::from_secs(60),
            jitter_seed: 0xD15EA5E,
            ..LedgerConfig::in_memory()
        };
        DeliveryLedger::open(config).expect("in-memory open")
    };
    let (mut a, mut b) = (build(), build());
    let id_a = enqueue(&mut a, "alice", 1);
    let id_b = enqueue(&mut b, "alice", 1);
    assert_eq!(id_a, id_b);

    let schedule: Vec<SimDuration> =
        (1..=8).map(|attempt| a.backoff_delay(id_a, attempt)).collect();
    let replay: Vec<SimDuration> =
        (1..=8).map(|attempt| b.backoff_delay(id_b, attempt)).collect();
    assert_eq!(schedule, replay, "same seed, same ids, same schedule");

    // The exponential shape holds under the jitter: each delay's floor
    // doubles until the cap.
    for (i, delay) in schedule.iter().enumerate() {
        let floor = 100u64 << i.min(20);
        let floor = floor.min(60_000);
        assert!(
            delay.as_millis() >= floor && delay.as_millis() < floor + (floor / 2).max(1),
            "attempt {}: {}ms outside [{floor}, {floor} + {floor}/2)",
            i + 1,
            delay.as_millis()
        );
    }

    // A different seed shifts the jitter somewhere in the schedule.
    let mut c = {
        let config = LedgerConfig {
            base_backoff: SimDuration::from_millis(100),
            max_backoff: SimDuration::from_secs(60),
            jitter_seed: 0xBADC0FFEE,
            ..LedgerConfig::in_memory()
        };
        DeliveryLedger::open(config).expect("in-memory open")
    };
    let id_c = enqueue(&mut c, "alice", 1);
    let other: Vec<SimDuration> =
        (1..=8).map(|attempt| c.backoff_delay(id_c, attempt)).collect();
    assert_ne!(schedule, other, "jitter seed feeds the schedule");
}

/// The DLQ is a bound, not a buffer: drive more records to death than it
/// can hold and the oldest dead letters are evicted, never the bound
/// broken.
#[test]
fn dlq_never_exceeds_its_bound() {
    let config = LedgerConfig {
        max_attempts: 1,
        dlq_capacity: 4,
        ..LedgerConfig::in_memory()
    };
    let mut ledger = DeliveryLedger::open(config).expect("in-memory open");
    let worker = WorkerId::new("w");
    let mut now = SimTime::ZERO;
    for i in 0..10u64 {
        enqueue(&mut ledger, &format!("user-{i}"), i);
        let work = ledger.lease(&worker, now, 1);
        assert_eq!(work.len(), 1);
        ledger
            .record_failed(&worker, work[0].id, "permanent", now)
            .expect("record failure");
        now += SimDuration::from_millis(1);
    }
    assert_eq!(ledger.counts().dead_lettered, 4, "bound enforced");
    assert_eq!(ledger.stats().dead_lettered, 10, "all ten died");
    assert_eq!(ledger.stats().dlq_evicted, 6, "overflow evicted the oldest");
    let kept: Vec<u64> = ledger.dead_letters().map(|r| r.delivery).collect();
    assert_eq!(kept, vec![6, 7, 8, 9], "newest dead letters survive");
}

/// End-to-end crash matrix on a real pool over a durable ledger: kill
/// workers mid-flight, crash the process, reopen, finish with a fresh
/// pool — zero lost, zero double-effect.
#[tokio::test(start_paused = true)]
async fn pool_crash_and_reopen_loses_nothing_and_doubles_nothing() {
    struct CountingChannels {
        effects: Arc<Mutex<HashMap<String, u32>>>,
    }
    impl LedgerChannels for CountingChannels {
        fn send(&mut self, work: &LeasedWork) -> ChannelResult {
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

    let dir = scratch_dir("pool-reopen");
    let effects: Arc<Mutex<HashMap<String, u32>>> = Arc::new(Mutex::new(HashMap::new()));
    let epoch = tokio::time::Instant::now();
    let clock: simba_ledger::LedgerClock = Arc::new(move || {
        SimTime::from_millis(tokio::time::Instant::now().duration_since(epoch).as_millis() as u64)
    });
    let total = 120u64;

    let open = |dir: &PathBuf| {
        let config = LedgerConfig {
            lease_duration: SimDuration::from_millis(30),
            base_backoff: SimDuration::from_millis(2),
            max_backoff: SimDuration::from_millis(10),
            ..LedgerConfig::on_disk(dir)
        };
        Arc::new(Mutex::new(DeliveryLedger::open(config).expect("open ledger")))
    };
    let adapters = |n: usize, effects: &Arc<Mutex<HashMap<String, u32>>>| {
        (0..n)
            .map(|_| {
                Box::new(CountingChannels { effects: Arc::clone(effects) })
                    as Box<dyn LedgerChannels>
            })
            .collect::<Vec<_>>()
    };

    // Round one: enqueue everything, kill both workers mid-flight.
    {
        let ledger = open(&dir);
        {
            let mut guard = ledger.lock().unwrap_or_else(PoisonError::into_inner);
            for i in 0..total {
                enqueue(&mut guard, &format!("user-{i}"), i);
            }
            guard.commit().expect("commit enqueues");
        }
        let pool = LedgerWorkerPool::spawn(
            Arc::clone(&ledger),
            adapters(2, &effects),
            Arc::clone(&clock),
            WorkerPoolConfig { workers: 2, batch: 8 },
        )
        .expect("spawn pool");
        tokio::time::sleep(std::time::Duration::from_millis(4)).await;
        pool.kill(0);
        pool.kill(1);
        let stats = pool.drain().await;
        assert_eq!(stats.killed, 2, "both workers died to the switch");
        // The process "crashes": the ledger drops with leases in flight.
    }

    // Round two: a different process picks the journal up and finishes.
    {
        let ledger = open(&dir);
        let remaining = {
            let guard = ledger.lock().unwrap_or_else(PoisonError::into_inner);
            let counts = guard.counts();
            assert_eq!(counts.leased, 0, "dead-process leases reclaimed on replay");
            counts.pending + counts.retrying
        };
        assert!(remaining > 0, "the kill landed mid-flight");
        let pool = LedgerWorkerPool::spawn(
            Arc::clone(&ledger),
            adapters(2, &effects),
            Arc::clone(&clock),
            WorkerPoolConfig { workers: 2, batch: 8 },
        )
        .expect("spawn second pool");
        pool.drain().await;
        assert!(
            ledger.lock().unwrap_or_else(PoisonError::into_inner).is_drained(),
            "second pool drained the survivors"
        );
    }

    let effects = effects.lock().unwrap_or_else(PoisonError::into_inner);
    assert_eq!(effects.len() as u64, total, "zero lost");
    assert!(effects.values().all(|&c| c == 1), "zero double-effect");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
