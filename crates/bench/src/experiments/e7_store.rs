//! E7 — soft-state store under concurrent write/read/subscribe load.
//!
//! WISH-style context facts are only useful if publishing them is cheap
//! enough to do on every send and reading them never returns stale truth
//! (§4.3: presence and channel health steer routing, but an *expired*
//! fact must behave exactly like an absent one). This harness hammers a
//! [`SoftStateStore`] with many writer threads publishing TTL'd facts —
//! a mix of short TTLs that decay mid-run and long TTLs that survive —
//! while every writer interleaves reads of other writers' keys and a
//! pool of bounded-channel subscribers drains the change feed, and
//! checks:
//!
//! * **zero expired-fact reads**: no `get` ever returns a fact already
//!   expired at the `now` the reader passed (asserted per read);
//! * **accounting balances**: hits + misses == reads, puts match the
//!   `store.puts` counter, and a final sweep leaves only live facts;
//! * **writers never block on observers**: laggy subscribers are shed
//!   (counted under `store.sub_dropped`), never waited on;
//! * combined puts + gets per second are printed, not gated.

use crate::experiments::ExperimentOutput;
use crate::report::Table;
use simba_sim::{SimDuration, SimTime};
use simba_store::{SoftStateStore, StoreConfig};
use simba_telemetry::{RingBufferSink, Telemetry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::sync::mpsc::error::TryRecvError;

/// Load shape for one store run.
#[derive(Debug, Clone, Copy)]
pub struct StoreBenchOptions {
    /// Concurrent writer threads.
    pub writers: usize,
    /// Facts each writer publishes (each put is paired with one read).
    pub facts_per_writer: usize,
    /// Subscriber threads draining the change feed.
    pub subscribers: usize,
    /// Distinct keys per writer; smaller means more refresh churn.
    pub keyspace: usize,
    /// Store tuning for the run.
    pub config: StoreConfig,
}

impl StoreBenchOptions {
    /// Full-scale defaults: 50 writers × 10 000 facts with 20
    /// subscribers on the default 16-shard store.
    pub fn full() -> Self {
        StoreBenchOptions {
            writers: 50,
            facts_per_writer: 10_000,
            subscribers: 20,
            keyspace: 128,
            config: StoreConfig::default(),
        }
    }

    /// CI smoke: 8 writers × 2 000 facts, 4 subscribers.
    pub fn smoke() -> Self {
        StoreBenchOptions {
            writers: 8,
            facts_per_writer: 2_000,
            subscribers: 4,
            keyspace: 64,
            config: StoreConfig::default(),
        }
    }
}

/// The ledger from one run, exposed for regression tests.
#[derive(Debug, Clone, Copy)]
pub struct StoreNumbers {
    /// Facts published.
    pub puts: u64,
    /// Reads issued (one per put, of another writer's key).
    pub reads: u64,
    /// ... that returned a live fact.
    pub hits: u64,
    /// ... that found nothing (absent, expired, or evicted).
    pub misses: u64,
    /// Reads that returned an already-expired fact. Must be zero.
    pub expired_reads: u64,
    /// `store.expired` as the store counted it (lazy + swept).
    pub counter_expired: u64,
    /// `store.evicted` (per-scope LRU shedding).
    pub counter_evicted: u64,
    /// Subscriber events the pool drained.
    pub events_seen: u64,
    /// Subscribers shed for lagging (`store.sub_dropped`).
    pub subs_dropped: u64,
    /// Live facts left after the final sweep.
    pub final_size: u64,
    /// Wall-clock seconds of the write/read phase.
    pub wall_secs: f64,
    /// Combined puts + reads per wall-clock second.
    pub ops_per_sec: f64,
}

/// Runs one concurrent store workload and returns the balanced ledger.
///
/// Time is a shared virtual clock that ticks once per operation, so TTLs
/// are measured in *operations*, not wall time: a short-TTL fact decays
/// after a deterministic amount of surrounding load at any machine speed.
pub fn measure(opts: StoreBenchOptions, seed: u64) -> StoreNumbers {
    let telemetry = Telemetry::with_sink(Arc::new(RingBufferSink::new(256)));
    let store = SoftStateStore::new(opts.config, telemetry.clone());
    let clock = Arc::new(AtomicU64::new(1));
    let done = Arc::new(AtomicBool::new(false));

    // Short TTLs sized so roughly half the facts decay under full load;
    // long TTLs outlive the whole run.
    let ops_total = (opts.writers * opts.facts_per_writer) as u64;
    let short_ttl = SimDuration::from_millis((ops_total / 4).max(64));
    let long_ttl = SimDuration::from_millis(u64::MAX / 4);

    let subscribers: Vec<_> = (0..opts.subscribers)
        .map(|i| {
            let mut feed = store.subscribe(Some("bench"));
            let done = Arc::clone(&done);
            // Odd-numbered subscribers drain slowly, exercising the
            // bounded-channel shed path under full load.
            let laggy = i % 2 == 1;
            std::thread::spawn(move || {
                let mut seen = 0u64;
                loop {
                    match feed.try_recv() {
                        Ok(event) => {
                            debug_assert_eq!(event.scope(), "bench");
                            seen += 1;
                            if laggy && seen.is_multiple_of(32) {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                        Err(TryRecvError::Disconnected) => break seen,
                        Err(TryRecvError::Empty) => {
                            if done.load(Ordering::Acquire) {
                                break seen;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
            })
        })
        .collect();

    let started = Instant::now();
    let writers: Vec<_> = (0..opts.writers)
        .map(|w| {
            let store = store.clone();
            let clock = Arc::clone(&clock);
            let facts = opts.facts_per_writer;
            let keyspace = opts.keyspace.max(1);
            let total_writers = opts.writers;
            // Per-writer deterministic stream (splitmix64 on seed + id).
            let mut rng = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(w as u64 + 1));
            std::thread::spawn(move || {
                let mut next = move || {
                    rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = rng;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^ (z >> 31)
                };
                let (mut hits, mut misses, mut expired_reads) = (0u64, 0u64, 0u64);
                for i in 0..facts {
                    let r = next();
                    let ttl = if r % 2 == 0 { short_ttl } else { long_ttl };
                    let key = format!("w{w}-k{}", i % keyspace);
                    let now = SimTime::from_millis(clock.fetch_add(1, Ordering::Relaxed));
                    store.put("bench", &key, "on", ttl, "bench-e7", now);

                    // Read a peer's keyspace with a fresh now: the store
                    // must hand back a live fact or nothing at all.
                    let peer = (r as usize) % total_writers;
                    let peer_key = format!("w{peer}-k{}", (r >> 32) as usize % keyspace);
                    let read_now = SimTime::from_millis(clock.fetch_add(1, Ordering::Relaxed));
                    match store.get("bench", &peer_key, read_now) {
                        Some(fact) if fact.is_expired(read_now) => expired_reads += 1,
                        Some(_) => hits += 1,
                        None => misses += 1,
                    }
                }
                (hits, misses, expired_reads)
            })
        })
        .collect();

    let (mut hits, mut misses, mut expired_reads) = (0u64, 0u64, 0u64);
    for t in writers {
        let (h, m, e) = t.join().unwrap();
        hits += h;
        misses += m;
        expired_reads += e;
    }
    let wall_secs = started.elapsed().as_secs_f64();

    // Advance past every short TTL and sweep: only long-TTL facts may
    // survive, and a post-sweep scan must see zero expired facts.
    let final_now =
        SimTime::from_millis(clock.load(Ordering::Relaxed) + short_ttl.as_millis() + 1);
    store.sweep(final_now);
    let survivors = store.snapshot_scope("bench", final_now);
    for (key, fact) in &survivors {
        assert!(!fact.is_expired(final_now), "sweep left expired fact {key:?}");
    }

    done.store(true, Ordering::Release);
    let events_seen: u64 = subscribers.into_iter().map(|t| t.join().unwrap()).sum();

    let snap = telemetry.metrics().snapshot();
    let numbers = StoreNumbers {
        puts: ops_total,
        reads: ops_total,
        hits,
        misses,
        expired_reads,
        counter_expired: snap.counter("store.expired"),
        counter_evicted: snap.counter("store.evicted"),
        events_seen,
        subs_dropped: snap.counter("store.sub_dropped"),
        final_size: survivors.len() as u64,
        wall_secs,
        ops_per_sec: if wall_secs > 0.0 {
            (2 * ops_total) as f64 / wall_secs
        } else {
            0.0
        },
    };

    // The staleness ledger. These hold at every scale — a violation is a
    // bug, not a tuning problem.
    assert_eq!(numbers.expired_reads, 0, "a get returned an already-expired fact");
    assert_eq!(numbers.hits + numbers.misses, numbers.reads, "every read resolved");
    assert_eq!(snap.counter("store.puts"), numbers.puts, "every put was counted");
    assert_eq!(
        snap.counter("store.hits") + snap.counter("store.misses"),
        numbers.reads,
        "the store's own hit/miss accounting matches the readers'"
    );
    numbers
}

/// Runs the headline load and renders the tables.
fn run_with(opts: StoreBenchOptions, seed: u64) -> ExperimentOutput {
    let n = measure(opts, seed);

    let mut config = Table::new(
        "E7: store load shape",
        &["writers", "facts/writer", "subscribers", "keyspace", "shards"],
    );
    config.row(&[
        opts.writers.to_string(),
        opts.facts_per_writer.to_string(),
        opts.subscribers.to_string(),
        opts.keyspace.to_string(),
        opts.config.shards.to_string(),
    ]);

    let mut ledger = Table::new(
        "E7: the staleness ledger balances",
        &["puts", "reads", "hits", "misses", "expired reads", "live after sweep"],
    );
    ledger.row(&[
        n.puts.to_string(),
        n.reads.to_string(),
        n.hits.to_string(),
        n.misses.to_string(),
        n.expired_reads.to_string(),
        n.final_size.to_string(),
    ]);

    let mut perf = Table::new(
        "E7: concurrent throughput and decay churn",
        &["ops/s", "wall seconds", "expired", "evicted", "sub events", "subs dropped"],
    );
    perf.row(&[
        format!("{:.0}", n.ops_per_sec),
        format!("{:.2}", n.wall_secs),
        n.counter_expired.to_string(),
        n.counter_evicted.to_string(),
        n.events_seen.to_string(),
        n.subs_dropped.to_string(),
    ]);

    ExperimentOutput {
        id: "E7",
        title: "soft-state store: sharded TTL'd facts under write/read/subscribe load",
        paper_claim: "§4.3: presence/context is soft state — cheap to publish on every send, and an expired fact must behave exactly like an absent one",
        tables: vec![config, ledger, perf],
        notes: vec![
            format!(
                "{} puts + {} reads across {} writers: zero expired-fact reads (asserted \
                 per read, and again after the final sweep)",
                n.puts, n.reads, opts.writers
            ),
            format!(
                "{:.0} combined ops/s; {} facts decayed and {} were LRU-shed while {} \
                 subscriber events were drained without ever blocking a writer",
                n.ops_per_sec, n.counter_expired, n.counter_evicted, n.events_seen
            ),
        ],
    }
}

/// Full-scale E7.
pub fn run(seed: u64) -> ExperimentOutput {
    run_with(StoreBenchOptions::full(), seed)
}

/// The CI smoke shape.
pub fn run_smoke(seed: u64) -> ExperimentOutput {
    run_with(StoreBenchOptions::smoke(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_smoke_ledger_balances_with_zero_expired_reads() {
        // 16 000 puts + 16 000 reads; the zero-expired-reads and
        // accounting assertions run inside measure().
        let n = measure(StoreBenchOptions::smoke(), 42);
        assert_eq!(n.puts, 16_000);
        assert_eq!(n.expired_reads, 0);
        assert!(n.counter_expired > 0, "short TTLs must actually decay mid-run");
        assert!(n.hits > 0, "peers must observe each other's live facts");
    }

    #[test]
    fn e7_tiny_store_evicts_instead_of_growing() {
        let n = measure(
            StoreBenchOptions {
                writers: 4,
                facts_per_writer: 500,
                subscribers: 2,
                keyspace: 64,
                config: StoreConfig { shards: 2, scope_capacity: 16, subscriber_capacity: 8 },
            },
            7,
        );
        assert!(n.counter_evicted > 0, "a tiny per-scope cap must shed");
        // 2 shards × 16 cap bounds the scope at 32 live facts.
        assert!(n.final_size <= 32, "final size {} exceeds the LRU bound", n.final_size);
    }
}
