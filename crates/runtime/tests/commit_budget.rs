//! What the durable path costs in fsyncs, pinned: shard-log and ledger
//! commits per delivered alert with both logs on disk — one shard, the
//! default four-worker ledger pool, E11's per-user profile (one
//! fire-and-forget IM block) — on the paused clock, so the count is the
//! same on every run. 200 alerts go to 20 users, one every millisecond,
//! so each alert is a shard batch of its own.
//!
//! Every buddy marks a record in the batch that logged it, so the shard
//! log writes, and commits, nothing. Each alert costs the ledger its
//! handoff commit and nothing else: the record's image already counts
//! its first lease grant, so the worker that claims it has nothing to
//! commit, and its outcome waits, buffered, for the next handoff's
//! commit. The pool commits once more to drain. This run counted 0 + 477
//! = 2.38 commits per alert while every pool cycle committed its own
//! grants (and an idle one its outcomes), and 200 + 594 = 3.97 while the
//! shard log also wrote every record.

use simba_core::address::{Address, AddressBook, CommType};
use simba_core::classify::{Classifier, KeywordField};
use simba_core::mode::{Block, DeliveryMode};
use simba_core::rejuvenate::RejuvenationPolicy;
use simba_core::subscription::{SubscriptionRegistry, UserId};
use simba_core::{IncomingAlert, MabConfig, Telemetry};
use simba_ledger::{
    DeliveryLedger, LedgerChannels, LedgerClock, LedgerConfig, LedgerWorkerPool, WorkerPoolConfig,
};
use simba_runtime::{
    shared_filter, Channels, ConfigFactory, LedgerChannelBridge, SendOutcome, ShardedHost,
    ShardedHostConfig, DEFAULT_DEDUPE_CAPACITY,
};
use simba_sim::SimTime;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

const USERS: usize = 20;
const ALERTS: usize = 200;
/// Shard-log plus ledger commits per delivered alert.
const BUDGET: f64 = 1.05;

/// A channel that counts its sends and keeps nothing.
#[derive(Clone)]
struct Counted(Arc<AtomicUsize>);

impl Channels for Counted {
    fn send(&mut self, _: CommType, _: &str, _: &str) -> SendOutcome {
        self.0.fetch_add(1, Ordering::Relaxed);
        SendOutcome::Accepted
    }
}

/// E11's profile: one IM address, one fire-and-forget mode.
fn user_config(user: &UserId) -> MabConfig {
    let mut classifier = Classifier::new();
    classifier.accept_source("bench-normal", KeywordField::Body, "cfg");
    classifier.map_keyword("Sensor", "Home");
    let mut registry = SubscriptionRegistry::new();
    let profile = registry.register_user(user.clone());
    let mut book = AddressBook::new();
    book.add(Address::new("IM", CommType::Im, format!("im:{user}")))
        .expect("fresh book");
    profile.address_book = book;
    let direct = vec![Block::fire_and_forget(vec!["IM".into()])];
    profile.define_mode(DeliveryMode::new("Direct", direct).expect("valid mode"));
    registry
        .subscribe("Home", user.clone(), "Direct")
        .expect("subscribed");
    MabConfig {
        classifier,
        registry,
        rejuvenation: RejuvenationPolicy::default(),
    }
}

#[tokio::test(start_paused = true)]
async fn the_durable_path_commits_at_most_its_budget_per_alert() {
    let dir = std::env::temp_dir().join(format!("simba-commit-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ledger = Arc::new(Mutex::new(
        DeliveryLedger::open(LedgerConfig::on_disk(dir.join("ledger"))).expect("ledger opens"),
    ));
    let config = ShardedHostConfig {
        shards: 1,
        log_dir: Some(dir.join("shards")),
        ledger: Some(Arc::clone(&ledger)),
        ..ShardedHostConfig::default()
    };
    let sent = Arc::new(AtomicUsize::new(0));
    let channel = Counted(Arc::clone(&sent));
    let factory: ConfigFactory = Arc::new(user_config);
    let (host, _notices) =
        ShardedHost::new(channel.clone(), config, factory, Telemetry::disabled())
            .expect("host opens");
    let users: Vec<UserId> = (0..USERS)
        .map(|i| UserId::new(format!("u{i:03}")))
        .collect();
    host.register_many(users.clone()).await;

    let filter = shared_filter(DEFAULT_DEDUPE_CAPACITY);
    let pool_config = WorkerPoolConfig::default();
    let adapters: Vec<Box<dyn LedgerChannels>> = (0..pool_config.workers)
        .map(|_| {
            Box::new(LedgerChannelBridge::with_filter(
                channel.clone(),
                Arc::clone(&filter),
            )) as Box<dyn LedgerChannels>
        })
        .collect();
    let epoch = tokio::time::Instant::now();
    let clock: LedgerClock = Arc::new(move || {
        SimTime::from_millis(
            tokio::time::Instant::now()
                .duration_since(epoch)
                .as_millis() as u64,
        )
    });
    let pool = LedgerWorkerPool::spawn(Arc::clone(&ledger), adapters, clock, pool_config)
        .expect("spawning tasks cannot fail");

    for i in 0..ALERTS {
        let alert = IncomingAlert::from_im("bench-normal", format!("Sensor {i} ON"), SimTime::ZERO);
        assert!(host.submit_im(&users[i % USERS], alert).await);
        tokio::time::sleep(Duration::from_millis(1)).await;
    }
    while sent.load(Ordering::Relaxed) < ALERTS {
        tokio::time::sleep(Duration::from_millis(1)).await;
    }
    let snap = host.shutdown().await;
    let stats = pool.drain().await;
    assert_eq!(
        (stats.sent, stats.deduped, stats.failed),
        (ALERTS as u64, 0, 0)
    );
    let shard_commits = snap.log.group_commits;
    let ledger_stats = ledger.lock().unwrap_or_else(PoisonError::into_inner).stats();
    let ledger_commits = ledger_stats.commit_batches;
    assert_eq!(
        ledger_stats.handed, ALERTS as u64,
        "every first grant rode its handoff commit"
    );
    let per_alert = (shard_commits + ledger_commits) as f64 / ALERTS as f64;
    println!("alerts | shard-log commits | ledger commits | per alert (budget)");
    println!(
        "{ALERTS:>6} | {shard_commits:>17} | {ledger_commits:>14} | {per_alert:>9.2} ({BUDGET})"
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        (snap.log.written, shard_commits),
        (0, 0),
        "a healthy run writes no shard-log record"
    );
    assert!(
        per_alert <= BUDGET,
        "{per_alert:.2} commits per alert, budget {BUDGET}"
    );
}
