//! Satellite 3: store concurrency guarantees.
//!
//! * Property test — expiry never resurrects a fact: once a key's fact
//!   of generation `g` has been observed gone (expired, swept, or
//!   evicted), no later read returns a generation `<= g`, and the
//!   generations a reader observes for one key never decrease.
//! * Race test — four writer threads publish concurrently and every put
//!   lands: the `store.puts` counter and `len()` both account for all of
//!   them.

use proptest::prelude::*;
use simba_sim::{SimDuration, SimTime};
use simba_store::{SoftStateStore, StoreConfig};
use simba_telemetry::Telemetry;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    /// Publish under one of a few fixed keys with a bounded TTL.
    Put { key: u8, ttl_ms: u64 },
    /// Read one of the fixed keys.
    Get { key: u8 },
    /// Run the periodic sweeper.
    Sweep,
    /// Let time pass.
    Advance { ms: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 1u64..200).prop_map(|(key, ttl_ms)| Op::Put { key, ttl_ms }),
        (0u8..4).prop_map(|key| Op::Get { key }),
        Just(Op::Sweep),
        (1u64..120).prop_map(|ms| Op::Advance { ms }),
    ]
}

proptest! {
    /// Drives a single-shard store through an arbitrary schedule with a
    /// monotone clock and checks, per key: observed generations never
    /// decrease, a generation seen dead is never read again, and an
    /// expired-at-read fact is never handed out.
    #[test]
    fn expiry_never_resurrects_a_fact(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let store = SoftStateStore::new(
            StoreConfig { shards: 1, ..StoreConfig::default() },
            Telemetry::disabled(),
        );
        let mut now = SimTime::from_millis(0);
        // Per key: highest generation we have put, highest we have read,
        // and the generation of the fact currently believed live.
        let mut last_put: HashMap<u8, u64> = HashMap::new();
        let mut last_read: HashMap<u8, u64> = HashMap::new();
        let mut dead_high: HashMap<u8, u64> = HashMap::new();

        for op in ops {
            match op {
                Op::Put { key, ttl_ms } => {
                    let gen = store.put(
                        "presence",
                        &format!("k{key}"),
                        "v",
                        SimDuration::from_millis(ttl_ms),
                        "prop",
                        now,
                    );
                    let prev = last_put.insert(key, gen);
                    prop_assert!(prev.is_none_or(|p| gen > p), "generation not monotone");
                }
                Op::Get { key } => {
                    match store.get("presence", &format!("k{key}"), now) {
                        Some(fact) => {
                            prop_assert!(!fact.is_expired(now), "expired fact returned");
                            prop_assert!(
                                last_read.get(&key).is_none_or(|&r| fact.generation >= r),
                                "observed generation went backwards"
                            );
                            prop_assert!(
                                dead_high.get(&key).is_none_or(|&d| fact.generation > d),
                                "a dead fact was resurrected"
                            );
                            last_read.insert(key, fact.generation);
                        }
                        None => {
                            // Whatever was live for this key is now gone;
                            // nothing at or below its generation may come back.
                            if let Some(&g) = last_put.get(&key) {
                                let d = dead_high.entry(key).or_insert(0);
                                *d = (*d).max(g);
                            }
                        }
                    }
                }
                Op::Sweep => {
                    store.sweep(now);
                }
                Op::Advance { ms } => {
                    now = SimTime::from_millis(now.as_millis() + ms);
                }
            }
        }
    }
}

/// Four writer threads publish 250 distinct facts each: every put
/// completes and is counted, and every fact is live afterwards.
#[test]
fn concurrent_writers_all_land() {
    let telemetry = Telemetry::with_sink(Arc::new(simba_telemetry::RingBufferSink::new(64)));
    let store = Arc::new(SoftStateStore::new(
        StoreConfig { shards: 4, ..StoreConfig::default() },
        telemetry.clone(),
    ));
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..250u64 {
                    store.put(
                        "presence",
                        &format!("w{w}-u{i}"),
                        "away",
                        SimDuration::from_millis(60_000),
                        "race",
                        SimTime::from_millis(i),
                    );
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("writer thread panicked");
    }

    let snap = telemetry.metrics().snapshot();
    assert_eq!(snap.counter("store.puts"), 1000, "every write completed");
    assert_eq!(store.len(), 1000);
}
