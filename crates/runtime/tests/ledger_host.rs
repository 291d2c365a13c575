//! End-to-end ledger-routed delivery: the host's shard workers enqueue
//! channel attempts into the durable ledger instead of sending inline,
//! a worker pool draining the leases through the idempotency bridge into
//! the loopback channels, and the acceptance invariant — every alert's
//! visible effect happens exactly once — checked at the channel.

use simba_core::address::{Address, AddressBook, CommType};
use simba_core::classify::{Classifier, KeywordField};
use simba_core::mab::DeliveryId;
use simba_core::mode::{Block, DeliveryMode};
use simba_core::rejuvenate::RejuvenationPolicy;
use simba_core::subscription::{SubscriptionRegistry, UserId};
use simba_core::{IncomingAlert, MabConfig};
use simba_ledger::{
    DeliveryLedger, LedgerChannels, LedgerClock, LedgerConfig, LedgerWorkerPool, WorkerPoolConfig,
};
use simba_runtime::{
    shared_filter, Channels, ConfigFactory, HostNotice, LedgerChannelBridge, LoopbackChannels,
    RuntimeNotice, SendOutcome, SharedChannels, ShardedHost, ShardedHostConfig,
};
use simba_sim::{SimDuration, SimTime};
use simba_telemetry::{RingBufferSink, Telemetry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

fn user_config(name: &str) -> MabConfig {
    user_config_with(name, vec![Block::fire_and_forget(vec!["IM".into()])])
}

/// One user subscribed to `Home` under a mode made of `blocks`, with an
/// `IM` and an `Email` address to name in them.
fn user_config_with(name: &str, blocks: Vec<Block>) -> MabConfig {
    let mut classifier = Classifier::new();
    classifier.accept_source("aladdin-gw", KeywordField::Body, "cfg");
    classifier.map_keyword("Sensor", "Home");
    let mut registry = SubscriptionRegistry::new();
    let user = UserId::new(name);
    let profile = registry.register_user(user.clone());
    let mut book = AddressBook::new();
    book.add(Address::new("IM", CommType::Im, format!("im:{name}"))).expect("unique");
    book.add(Address::new("Email", CommType::Email, format!("{name}@example.org"))).expect("unique");
    profile.address_book = book;
    profile.define_mode(DeliveryMode::new("Urgent", blocks).expect("valid mode"));
    registry.subscribe("Home", user, "Urgent").expect("subscribed");
    MabConfig { classifier, registry, rejuvenation: RejuvenationPolicy::default() }
}

type LedgeredHost =
    (ShardedHost, tokio::sync::mpsc::Receiver<HostNotice>, simba_ledger::SharedLedger, LedgerWorkerPool);

/// An in-memory ledgered host whose users deliver by IM alone.
async fn ledgered_host<C: Channels + Clone>(
    channels: C,
    users: usize,
    telemetry: &Telemetry,
) -> LedgeredHost {
    let factory: ConfigFactory = Arc::new(|user: &UserId| user_config(&user.0));
    ledgered_host_with(channels, users, telemetry, LedgerConfig::in_memory(), factory).await
}

/// Everything the tests share: a ledgered host over `users` users, and a
/// two-worker pool whose bridges (one idempotency filter between them)
/// send through `channels`. `storage` says where the ledger lives.
async fn ledgered_host_with<C: Channels + Clone>(
    channels: C,
    users: usize,
    telemetry: &Telemetry,
    storage: LedgerConfig,
    factory: ConfigFactory,
) -> LedgeredHost {
    let ledger = open_ledger(telemetry, storage);
    let (host, notices) = host_over(&ledger, channels.clone(), users, telemetry, factory).await;
    let pool = spawn_pool(&ledger, channels);
    (host, notices, ledger, pool)
}

/// A ledger with short leases and backoffs, stored as `storage` says.
fn open_ledger(telemetry: &Telemetry, storage: LedgerConfig) -> simba_ledger::SharedLedger {
    Arc::new(Mutex::new(
        DeliveryLedger::open(LedgerConfig {
            lease_duration: SimDuration::from_millis(40),
            base_backoff: SimDuration::from_millis(2),
            max_backoff: SimDuration::from_millis(10),
            ..storage
        })
        .expect("ledger opens")
        .with_telemetry(telemetry.clone()),
    ))
}

/// A host over in-memory shard logs that hands its attempts to `ledger`,
/// with `users` users registered.
async fn host_over<C: Channels + Clone>(
    ledger: &simba_ledger::SharedLedger,
    channels: C,
    users: usize,
    telemetry: &Telemetry,
    factory: ConfigFactory,
) -> (ShardedHost, tokio::sync::mpsc::Receiver<HostNotice>) {
    let config =
        ShardedHostConfig { ledger: Some(Arc::clone(ledger)), ..ShardedHostConfig::default() };
    let (host, notices) = ShardedHost::new(channels, config, factory, telemetry.clone())
        .expect("in-memory shard logs");
    host.register_many((0..users).map(|i| UserId::new(format!("user-{i}"))).collect()).await;
    (host, notices)
}

/// Two workers draining `ledger` into `channels` through bridges that
/// share one idempotency filter.
fn spawn_pool<C: Channels + Clone>(
    ledger: &simba_ledger::SharedLedger,
    channels: C,
) -> LedgerWorkerPool {
    let filter = shared_filter(1024);
    let adapters: Vec<Box<dyn LedgerChannels>> = (0..2)
        .map(|_| {
            Box::new(LedgerChannelBridge::with_filter(channels.clone(), Arc::clone(&filter)))
                as Box<dyn LedgerChannels>
        })
        .collect();
    let epoch = tokio::time::Instant::now();
    let clock: LedgerClock = Arc::new(move || {
        SimTime::from_millis(tokio::time::Instant::now().duration_since(epoch).as_millis() as u64)
    });
    LedgerWorkerPool::spawn(
        Arc::clone(ledger),
        adapters,
        clock,
        WorkerPoolConfig { workers: 2, batch: 4 },
    )
    .expect("local spawn cannot fail")
}

/// Submits one alert per user and waits until the host has handed every
/// attempt to the ledger — acceptance is a commit, not a send.
async fn submit_one_each(
    host: &ShardedHost,
    notices: &mut tokio::sync::mpsc::Receiver<HostNotice>,
    users: usize,
) {
    for i in 0..users {
        let alert =
            IncomingAlert::from_im("aladdin-gw", format!("Sensor {i} ON"), SimTime::ZERO);
        assert!(host.submit_im(&UserId::new(format!("user-{i}")), alert).await);
    }
    wait_finished(notices, users).await;
}

/// Each user's IM address saw their alert exactly once.
fn assert_exactly_once(sent: &[(CommType, String, String)], users: usize) {
    assert_eq!(sent.len(), users, "exactly one visible send per alert: {sent:?}");
    for i in 0..users {
        let hits = sent
            .iter()
            .filter(|(ct, addr, _)| *ct == CommType::Im && addr == &format!("im:user-{i}"))
            .count();
        assert_eq!(hits, 1, "user-{i} saw the alert exactly once");
    }
}

async fn wait_finished(notices: &mut tokio::sync::mpsc::Receiver<HostNotice>, n: usize) {
    let mut finished = 0;
    while finished < n {
        let HostNotice { notice, .. } = notices.recv().await.expect("notice stream alive");
        if matches!(notice, RuntimeNotice::DeliveryFinished { .. }) {
            finished += 1;
        }
    }
}

/// Host accepts alerts by committing them to the ledger; the pool owns
/// the sends. Kill one worker mid-flight: the survivor resumes its
/// leases and the channel still sees each alert exactly once.
#[tokio::test(start_paused = true)]
async fn ledger_routed_host_delivers_exactly_once_despite_a_worker_kill() {
    let telemetry = Telemetry::with_sink(Arc::new(RingBufferSink::new(512)));
    let channels = SharedChannels::new(LoopbackChannels::accept_all());
    let users = 8usize;
    let (host, mut notices, ledger, pool) =
        ledgered_host(channels.clone(), users, &telemetry).await;
    submit_one_each(&host, &mut notices, users).await;

    // Crash one of the two workers mid-drain; the survivor picks up the
    // expired leases.
    pool.kill(0);
    let stats = pool.drain().await;
    assert_eq!(stats.sent + stats.deduped, users as u64, "every attempt closed");
    assert!(
        ledger.lock().unwrap_or_else(PoisonError::into_inner).is_drained(),
        "ledger fully drained"
    );

    channels.with(|c| assert_exactly_once(c.sent(), users));

    host.shutdown().await;
    let snap = telemetry.metrics().snapshot();
    assert_eq!(snap.counter("ledger.enqueued"), users as u64);
    assert_eq!(snap.counter("ledger.commit_batch") > 0, true);
    assert_eq!(
        snap.counter("ledger.leased") >= users as u64,
        true,
        "every record leased at least once"
    );
}

/// Loopback channels whose very first send is refused.
#[derive(Clone)]
struct FailsOnce {
    inner: SharedChannels<LoopbackChannels>,
    failed: Arc<AtomicBool>,
}

impl Channels for FailsOnce {
    fn send(&mut self, comm_type: CommType, address: &str, text: &str) -> SendOutcome {
        if !self.failed.swap(true, Ordering::Relaxed) {
            return SendOutcome::Failed(simba_core::delivery::SendFailure::ChannelDown);
        }
        self.inner.send(comm_type, address, text)
    }
}

/// Regression (found by E11): the bridge used to remember an idempotency
/// key before knowing the send's outcome, so the ledger's retry of a
/// *failed* send was absorbed as a duplicate and the alert never went
/// out. One refused send must cost one retry, nothing else.
#[tokio::test(start_paused = true)]
async fn a_send_that_fails_once_is_retried_and_delivered_exactly_once() {
    let telemetry = Telemetry::with_sink(Arc::new(RingBufferSink::new(512)));
    let loopback = SharedChannels::new(LoopbackChannels::accept_all());
    let channels = FailsOnce { inner: loopback.clone(), failed: Arc::new(AtomicBool::new(false)) };
    let users = 4usize;
    let (host, mut notices, ledger, pool) = ledgered_host(channels, users, &telemetry).await;
    submit_one_each(&host, &mut notices, users).await;

    let stats = pool.drain().await;
    assert_eq!(stats.failed, 1, "the injected refusal was reported to the ledger");
    assert_eq!(stats.sent, users as u64, "every alert went out, the refused one on its retry");
    assert_eq!(stats.deduped, 0, "a retry after a failure is not a duplicate");
    loopback.with(|c| assert_exactly_once(c.sent(), users));
    {
        let ledger = ledger.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(ledger.is_drained(), "ledger fully drained");
        assert_eq!(ledger.stats().dead_lettered, 0, "nothing was given up on");
    }
    host.shutdown().await;
    assert!(telemetry.metrics().snapshot().counter("ledger.retried") >= 1);
}

/// Regression: when the ledger commit behind a handoff failed, the buddy
/// was told `SendFailed` and fell back to its next block — but the record
/// stayed live in the ledger, and the next successful commit (the
/// fallback's own) made it durable and a worker sent it too. An attempt
/// reported failed must not also be delivered.
#[tokio::test(start_paused = true)]
async fn an_attempt_whose_ledger_commit_failed_is_not_also_delivered() {
    let dir = std::env::temp_dir().join(format!("simba-ledger-host-commit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let telemetry = Telemetry::with_sink(Arc::new(RingBufferSink::new(512)));
    let channels = SharedChannels::new(LoopbackChannels::accept_all());
    let factory: ConfigFactory = Arc::new(|user: &UserId| {
        let im_then_email = ["IM", "Email"].map(|a| Block::fire_and_forget(vec![a.into()]));
        user_config_with(&user.0, im_then_email.into())
    });
    let (host, mut notices, ledger, pool) =
        ledgered_host_with(channels.clone(), 1, &telemetry, LedgerConfig::on_disk(&dir), factory)
            .await;

    // The ledger is empty, so the next dirty commit is the IM handoff's.
    ledger.lock().unwrap_or_else(PoisonError::into_inner).inject_write_failure(3);
    submit_one_each(&host, &mut notices, 1).await;
    let stats = pool.drain().await;

    channels.with(|c| {
        let sent = c.sent();
        assert_eq!(sent.len(), 1, "the alert is visible exactly once: {sent:?}");
        assert_eq!(sent[0].0, CommType::Email, "by the fallback — the IM attempt was reported failed");
    });
    assert_eq!(stats.sent, 1);
    {
        let ledger = ledger.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(ledger.is_drained(), "ledger fully drained");
        assert_eq!(ledger.stats().retracted, 1, "the refused handoff was withdrawn");
    }
    host.shutdown().await;
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The alerts of the restart cases: two before the restart, two after.
const FOUR: [&str; 4] = ["Sensor 1 ON", "Sensor 2 ON", "Sensor 3 ON", "Sensor 4 ON"];

/// Submits `bodies` to `user` by IM, in order.
async fn submit(host: &ShardedHost, user: &UserId, bodies: &[&str]) {
    for body in bodies {
        let alert = IncomingAlert::from_im("aladdin-gw", *body, SimTime::ZERO);
        assert!(host.submit_im(user, alert).await);
    }
}

/// The ids of the next `n` finished deliveries. Bounded: on the paused
/// clock a delivery that never finishes would otherwise idle forever.
async fn finished_ids(
    notices: &mut tokio::sync::mpsc::Receiver<HostNotice>,
    n: usize,
) -> Vec<DeliveryId> {
    let wait = async {
        let mut ids = Vec::new();
        while ids.len() < n {
            let HostNotice { notice, .. } = notices.recv().await.expect("notice stream alive");
            if let RuntimeNotice::DeliveryFinished { delivery, .. } = notice {
                ids.push(delivery);
            }
        }
        ids
    };
    tokio::time::timeout(Duration::from_secs(600), wait).await.expect("every delivery finishes")
}

/// The channel saw each of `bodies` exactly once, and nothing else.
fn assert_each_sent_once(sent: &[(CommType, String, String)], bodies: &[&str]) {
    let texts: Vec<&str> = sent.iter().map(|(_, _, text)| text.as_str()).collect();
    assert_eq!(texts.len(), bodies.len(), "one send per alert: {texts:?}");
    for body in bodies {
        assert_eq!(texts.iter().filter(|t| *t == body).count(), 1, "{body:?} in {texts:?}");
    }
}

/// Regression: a buddy numbered its deliveries with a counter that a
/// remote rejuvenation restarted at 0. The alerts after the restart got
/// the idempotency keys of the alerts before it, and the ledger closed
/// them as duplicates without sending them.
#[tokio::test(start_paused = true)]
async fn alerts_after_a_remote_rejuvenation_are_each_sent_once() {
    let channels = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, mut notices, _ledger, pool) =
        ledgered_host(channels.clone(), 1, &Telemetry::disabled()).await;
    let user = UserId::new("user-0");
    submit(&host, &user, &FOUR[..2]).await;
    finished_ids(&mut notices, 2).await;
    // The command and the alerts after it share one batch.
    submit(&host, &user, &["SIMBA-REJUVENATE"]).await;
    submit(&host, &user, &FOUR[2..]).await;
    finished_ids(&mut notices, 2).await;

    let stats = pool.drain().await;
    assert_eq!(stats.deduped, 0, "no alert is a duplicate of another");
    channels.with(|c| assert_each_sent_once(c.sent(), &FOUR));
    let snap = host.shutdown().await;
    assert_eq!(snap.stats.deliveries_started, 4);
    assert_eq!(snap.acked + snap.unconfirmed + snap.exhausted, 4, "every delivery is counted once");
}

/// Regression: a buddy restarted for rejuvenation was folded and
/// replaced without first retiring what it had finished in that batch,
/// so a delivery it sent never reported `DeliveryFinished` and was never
/// counted as acked, unconfirmed or exhausted.
#[tokio::test(start_paused = true)]
async fn a_delivery_finished_in_a_rejuvenations_batch_is_reported() {
    let channels = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, mut notices, _ledger, pool) =
        ledgered_host(channels.clone(), 1, &Telemetry::disabled()).await;
    let user = UserId::new("user-0");
    submit(&host, &user, &["Sensor a ON", "SIMBA-REJUVENATE"]).await;
    let reported = tokio::time::timeout(Duration::from_secs(5), finished_ids(&mut notices, 1)).await;
    assert!(reported.is_ok(), "the alert sent before the restart never finished");

    pool.drain().await;
    channels.with(|c| assert_each_sent_once(c.sent(), &["Sensor a ON"]));
    let snap = host.shutdown().await;
    assert_eq!(snap.stats.deliveries_started, 1);
    assert_eq!((snap.acked, snap.unconfirmed, snap.exhausted), (0, 1, 0));
}

/// Regression (found in PR 37): a rejuvenation restarted the buddy at
/// once, so an alert whose IM was handed off and whose ack was still
/// awaited lost its delivery with the old incarnation — the email
/// fallback was never handed to the ledger and the delivery never
/// finished.
#[tokio::test(start_paused = true)]
async fn an_in_flight_delivery_survives_a_remote_rejuvenation() {
    let channels = SharedChannels::new(LoopbackChannels::accept_all());
    let factory: ConfigFactory = Arc::new(|user: &UserId| {
        let im = Block::acked(vec!["IM".into()], SimDuration::from_secs(1));
        user_config_with(&user.0, vec![im, Block::fire_and_forget(vec!["Email".into()])])
    });
    let telemetry = Telemetry::disabled();
    let (host, mut notices, _ledger, pool) =
        ledgered_host_with(channels.clone(), 1, &telemetry, LedgerConfig::in_memory(), factory).await;
    let user = UserId::new("user-0");
    submit(&host, &user, &["Sensor a ON"]).await;
    tokio::time::sleep(Duration::from_millis(100)).await;
    submit(&host, &user, &["SIMBA-REJUVENATE"]).await;

    let mut finished = Vec::new();
    let collect = async {
        while let Some(HostNotice { notice, .. }) = notices.recv().await {
            if let RuntimeNotice::DeliveryFinished { delivery, .. } = notice {
                finished.push(delivery);
            }
        }
    };
    let _ = tokio::time::timeout(Duration::from_secs(10), collect).await;
    assert_eq!(finished.len(), 1, "the in-flight delivery never finished, or finished twice");
    let snap = host.snapshot().await;
    assert_eq!(snap.stats.deliveries_started, 1);
    assert_eq!(snap.acked + snap.unconfirmed + snap.exhausted, 1, "counted once");
    assert_eq!((snap.active, snap.hibernated), (0, 1), "parked once idle");

    // The next alert rehydrates a fresh buddy, under a new delivery id.
    submit(&host, &user, &["Sensor b ON"]).await;
    let next = finished_ids(&mut notices, 1).await;
    assert_ne!(next, finished);
    pool.drain().await;
    channels.with(|c| {
        let sent: Vec<(CommType, &str)> =
            c.sent().iter().map(|(channel, _, text)| (*channel, text.as_str())).collect();
        let expected = ["Sensor a ON", "Sensor b ON"]
            .into_iter()
            .flat_map(|text| [(CommType::Im, text), (CommType::Email, text)]);
        assert_eq!(sent, expected.collect::<Vec<_>>(), "each alert's fallback is sent once");
    });
    let snap = host.shutdown().await;
    assert_eq!(snap.rehydrations, 1);
}

/// Regression: a failed processed-mark crashes the buddy, and its
/// successor replays the alert under a restarted counter — taking the
/// first alert's key for the replay and the replay's key for the next
/// alert, which the ledger then merged away. The replay must reuse its
/// own first routing's key, and every alert must go out once.
#[tokio::test(start_paused = true)]
async fn alerts_around_a_crash_and_replay_are_each_sent_once() {
    let channels = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, mut notices, _ledger, pool) =
        ledgered_host(channels.clone(), 1, &Telemetry::disabled()).await;
    let user = UserId::new("user-0");
    submit(&host, &user, &FOUR[..1]).await;
    finished_ids(&mut notices, 1).await;
    host.inject_mark_failure(&user).await;
    submit(&host, &user, &FOUR[1..]).await;
    finished_ids(&mut notices, 3).await;

    pool.drain().await;
    channels.with(|c| assert_each_sent_once(c.sent(), &FOUR));
    let snap = host.shutdown().await;
    assert_eq!((snap.crashes, snap.stats.replayed), (1, 1));
}

/// A parked user's next alert builds a fresh buddy, which keeps no id
/// state: its deliveries take new ids all the same, and every alert goes
/// out once.
#[tokio::test(start_paused = true)]
async fn alerts_after_a_rehydration_take_new_ids_and_are_each_sent_once() {
    let channels = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, mut notices, _ledger, pool) =
        ledgered_host(channels.clone(), 1, &Telemetry::disabled()).await;
    let user = UserId::new("user-0");
    submit(&host, &user, &FOUR[..2]).await;
    let before = finished_ids(&mut notices, 2).await;
    assert!(host.force_hibernate(&user).await, "an idle buddy hibernates");
    submit(&host, &user, &FOUR[2..]).await;
    let after = finished_ids(&mut notices, 2).await;
    assert!(after.iter().all(|id| !before.contains(id)), "{before:?} then {after:?}");

    pool.drain().await;
    channels.with(|c| assert_each_sent_once(c.sent(), &FOUR));
    let snap = host.shutdown().await;
    assert_eq!((snap.hibernations, snap.rehydrations), (1, 1));
}

/// Regression: a shard log forgets the ids of the records it compacted,
/// so a restarted process issued ids a pending ledger record of the
/// previous run still held, and the new alert merged into that record —
/// only the old alert was sent.
#[tokio::test(start_paused = true)]
async fn a_restart_over_a_pending_ledger_record_sends_both_alerts() {
    let dir =
        std::env::temp_dir().join(format!("simba-ledger-host-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let telemetry = Telemetry::disabled();
    let channels = SharedChannels::new(LoopbackChannels::accept_all());
    let factory: ConfigFactory = Arc::new(|user: &UserId| user_config(&user.0));
    let user = UserId::new("user-0");

    // Run 1: the alert is handed to the ledger, and no pool sends it.
    {
        let ledger = open_ledger(&telemetry, LedgerConfig::on_disk(&dir));
        let (host, mut notices) =
            host_over(&ledger, channels.clone(), 1, &telemetry, Arc::clone(&factory)).await;
        submit(&host, &user, &["Sensor a ON"]).await;
        finished_ids(&mut notices, 1).await;
        host.shutdown().await;
    }

    // Run 2, over the same ledger directory: a new alert for the same user.
    let ledger = open_ledger(&telemetry, LedgerConfig::on_disk(&dir));
    assert_eq!(ledger.lock().unwrap_or_else(PoisonError::into_inner).records().count(), 1);
    let (host, mut notices) = host_over(&ledger, channels.clone(), 1, &telemetry, factory).await;
    submit(&host, &user, &["Sensor b ON"]).await;
    finished_ids(&mut notices, 1).await;
    let stats = spawn_pool(&ledger, channels.clone()).drain().await;
    assert_eq!((stats.sent, stats.deduped), (2, 0));
    channels.with(|c| assert_each_sent_once(c.sent(), &["Sensor a ON", "Sensor b ON"]));
    host.shutdown().await;
    std::fs::remove_dir_all(&dir).unwrap();
}
