//! What one delivered alert costs the allocator, pinned: allocating
//! calls and requested bytes per alert on the admitted-alert path —
//! `ShardedHost` (E11's `user_config`, two shards, in-memory shard logs)
//! → in-memory `DeliveryLedger` → `LedgerWorkerPool` →
//! `LedgerChannelBridge` → a counting channel — read off the counting
//! global allocator in `common`. Everything between `submit_im` and the
//! channel send is counted, the test's own `IncomingAlert` included (two
//! strings copied out of a reused buffer, as the gateway decodes a
//! frame); buddies are resident before counting starts, so activation is
//! not in the figure.
//!
//! At the parent of the ownership diet (PR 20's tree, 18322f1) this test
//! read 48.8 allocations and 7 035 requested bytes per alert with 48-byte
//! bodies, 48.8 and 14 843 with 1 KiB bodies — the same on every run, in
//! debug and release. Those are [`PARENT`]; the budget is half of each.

mod common;

use common::{heap, user_config};
use simba_core::address::CommType;
use simba_core::subscription::UserId;
use simba_core::{IncomingAlert, Telemetry};
use simba_ledger::{
    DeliveryLedger, LedgerChannels, LedgerClock, LedgerConfig, LedgerWorkerPool, WorkerPoolConfig,
};
use simba_runtime::{
    shared_filter, Channels, ConfigFactory, LedgerChannelBridge, SendOutcome, ShardedHost,
    ShardedHostConfig, DEFAULT_DEDUPE_CAPACITY,
};
use simba_sim::SimTime;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const USERS: usize = 2_000;
const ALERTS: usize = 20_000;
/// Submitted between two waits for the channel to catch up: below the
/// shard queues' capacity, so `submit_im` never parks on a full queue.
const WINDOW: usize = 256;

/// `(body bytes, allocations per alert, requested bytes per alert)` at
/// the parent commit.
const PARENT: [(usize, f64, f64); 2] = [(48, 48.8, 7_035.0), (1_024, 48.8, 14_843.0)];

/// A channel that counts its sends and keeps nothing.
#[derive(Clone)]
struct Counted(Arc<AtomicUsize>);

impl Channels for Counted {
    fn send(&mut self, _: CommType, _: &str, _: &str) -> SendOutcome {
        self.0.fetch_add(1, Ordering::Relaxed);
        SendOutcome::Accepted
    }
}

/// Delivers `ALERTS` alerts of `body_bytes` bytes round-robin over
/// `USERS` resident users; returns `(allocations, requested bytes)` per
/// delivered alert.
async fn measure(body_bytes: usize) -> (f64, f64) {
    let ledger =
        Arc::new(Mutex::new(DeliveryLedger::open(LedgerConfig::in_memory()).expect("in memory")));
    let config = ShardedHostConfig {
        shards: 2,
        ledger: Some(Arc::clone(&ledger)),
        ..ShardedHostConfig::default()
    };
    let sent = Arc::new(AtomicUsize::new(0));
    let channel = Counted(Arc::clone(&sent));
    let factory: ConfigFactory = Arc::new(user_config);
    let (host, mut notices) =
        ShardedHost::new(channel.clone(), config, factory, Telemetry::disabled()).unwrap();
    let users: Vec<UserId> = (0..USERS).map(|i| UserId::new(format!("u{i:06}"))).collect();
    host.register_many(users.clone()).await;
    assert_eq!(host.snapshot().await.users, USERS);

    let filter = shared_filter(DEFAULT_DEDUPE_CAPACITY);
    let pool_config = WorkerPoolConfig::default();
    let adapters: Vec<Box<dyn LedgerChannels>> = (0..pool_config.workers)
        .map(|_| {
            Box::new(LedgerChannelBridge::with_filter(channel.clone(), Arc::clone(&filter)))
                as Box<dyn LedgerChannels>
        })
        .collect();
    let epoch = Instant::now();
    let clock: LedgerClock =
        Arc::new(move || SimTime::from_millis(epoch.elapsed().as_millis() as u64));
    let pool = LedgerWorkerPool::spawn(Arc::clone(&ledger), adapters, clock, pool_config)
        .expect("spawning tasks cannot fail");

    let pad = "x".repeat(body_bytes);
    // Stands for the gateway's frame buffer: each alert's strings are
    // copied out of it once, as a decoded frame's are.
    let mut frame = String::new();
    let mut submitted = 0usize;
    // One alert per user brings every buddy in; then the counted run.
    let mut counted_from = (0, 0);
    for round in [USERS, ALERTS] {
        let until = submitted + round;
        while submitted < until {
            for _ in 0..WINDOW.min(until - submitted) {
                frame.clear();
                let _ = write!(frame, "Sensor n #{submitted:x} ");
                frame.push_str(&pad[frame.len().min(body_bytes)..]);
                let alert = IncomingAlert::from_im("bench-normal", frame.as_str(), SimTime::ZERO);
                assert!(host.submit_im(&users[submitted % USERS], alert).await);
                submitted += 1;
            }
            while sent.load(Ordering::Relaxed) < submitted {
                tokio::time::sleep(Duration::from_millis(1)).await;
                while notices.try_recv().is_ok() {}
            }
        }
        if round == USERS {
            let (_, calls, requested) = heap();
            counted_from = (calls, requested);
        }
    }
    let (_, calls, requested) = heap();
    let snap = host.shutdown().await;
    assert_eq!(snap.stats.deliveries_started, submitted as u64);
    let stats = pool.drain().await;
    assert_eq!((stats.sent, stats.deduped, stats.failed), (submitted as u64, 0, 0));
    (
        (calls - counted_from.0) as f64 / ALERTS as f64,
        (requested - counted_from.1) as f64 / ALERTS as f64,
    )
}

#[test]
fn a_delivered_alert_costs_at_most_half_the_parents_allocations_and_bytes() {
    tokio::runtime::block_on(async {
        println!("body B | allocs/alert (parent) | bytes/alert (parent)");
        let mut over = Vec::new();
        for (body_bytes, parent_allocs, parent_bytes) in PARENT {
            let (allocs, bytes) = measure(body_bytes).await;
            println!(
                "{body_bytes:>6} | {allocs:>12.1} ({parent_allocs:>6.1}) | {bytes:>11.0} ({parent_bytes:>6.0})"
            );
            if allocs > parent_allocs / 2.0 || bytes > parent_bytes / 2.0 {
                over.push(body_bytes);
            }
        }
        assert!(over.is_empty(), "over half the parent's figure with {over:?}-byte bodies");
    });
}
