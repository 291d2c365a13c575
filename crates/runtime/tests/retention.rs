//! What a delivered alert leaves behind, pinned: the live requested heap
//! of a ledgered host and its worker pool, read off the counting global
//! allocator in `common` after each of two drains (2 000 alerts, then
//! 8 000 more). Once an alert's delivery is over and its ledger record
//! closed, nothing of it may stay: each drain's growth must be under
//! [`BUDGET`] bytes per alert. `make footprint` prints the figures.
//!
//! While the bridge's idempotency filter remembered every concluded
//! send (up to 64 Ki keys), each alert kept its key in the filter's set
//! and FIFO: the two drains read 106 and 93 B per alert.

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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const USERS: usize = 200;
/// The two drains, in alerts.
const DRAINS: [usize; 2] = [2_000, 8_000];
/// Submitted between two waits for the channel to catch up: below the
/// shard queues' capacity, so `submit_im` never parks on a full queue.
const WINDOW: usize = 256;
/// Live heap growth allowed per drained alert.
const BUDGET: f64 = 8.0;

/// A channel that counts its sends and keeps nothing.
#[derive(Clone)]
struct Counted(Arc<AtomicUsize>);

impl Channels for Counted {
    fn send(&mut self, _: CommType, _: &str, _: &str) -> SendOutcome {
        self.0.fetch_add(1, Ordering::Relaxed);
        SendOutcome::Accepted
    }
}

#[test]
fn a_drained_alert_leaves_nothing_on_the_heap() {
    tokio::runtime::block_on(async {
        let ledger = Arc::new(Mutex::new(
            DeliveryLedger::open(LedgerConfig::in_memory()).expect("in memory"),
        ));
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

        let mut submitted = 0usize;
        let mut kept = Vec::new();
        // One window brings every buddy in and every buffer to its
        // working size; then the two measured drains.
        for round in [WINDOW, DRAINS[0], DRAINS[1]] {
            let until = submitted + round;
            while submitted < until {
                for _ in 0..WINDOW.min(until - submitted) {
                    let alert = IncomingAlert::from_im(
                        "bench-normal",
                        format!("Sensor n #{submitted:x}"),
                        SimTime::ZERO,
                    );
                    assert!(host.submit_im(&users[submitted % USERS], alert).await);
                    submitted += 1;
                }
                while sent.load(Ordering::Relaxed) < submitted {
                    tokio::time::sleep(Duration::from_millis(1)).await;
                    while notices.try_recv().is_ok() {}
                }
            }
            // Let the buddies see their last sends accepted.
            host.snapshot().await;
            while notices.try_recv().is_ok() {}
            kept.push(heap().0);
        }
        host.shutdown().await;
        let stats = pool.drain().await;
        assert_eq!((stats.sent, stats.deduped, stats.failed), (submitted as u64, 0, 0));

        println!("drain alerts | heap kept B | B per alert (budget {BUDGET})");
        let mut over = Vec::new();
        for (alerts, pair) in DRAINS.into_iter().zip(kept.windows(2)) {
            let per_alert = (pair[1] - pair[0]) as f64 / alerts as f64;
            println!("{alerts:>12} | {:>11} | {per_alert:>5.1}", pair[1]);
            if per_alert >= BUDGET {
                over.push(alerts);
            }
        }
        assert!(over.is_empty(), "the drains of {over:?} alerts kept {BUDGET} B or more per alert");
    });
}
