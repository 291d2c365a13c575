//! Integration tests for the host: routing, bounded state and the notice
//! stream, the delivery lifecycle against real (paused) time, rules and
//! presence wiring, the hibernation lifecycle and its races,
//! crash-replay over on-disk shard logs, rejuvenation, and the
//! one-buddy-crashes-alone group-commit contract.

use simba_core::address::{Address, AddressBook, CommType};
use simba_core::classify::{Classifier, KeywordField};
use simba_core::delivery::{AttemptId, SendFailure};
use simba_core::mab::DeliveryId;
use simba_core::mode::{Block, DeliveryMode};
use simba_core::rejuvenate::RejuvenationPolicy;
use simba_core::shardlog::{ShardLog, ShardLogConfig};
use simba_core::subscription::{SubscriptionRegistry, UserId};
use simba_core::{DeliveryStatus, IncomingAlert, MabConfig, Telemetry};
use simba_runtime::{
    ConfigFactory, HostNotice, LoopbackChannels, RuntimeNotice, SendOutcome, SharedChannels,
    ShardedHost, ShardedHostConfig,
};
use simba_sim::{SimDuration, SimTime};
use simba_telemetry::RingBufferSink;
use std::sync::Arc;
use std::time::Duration;
use tokio::sync::mpsc;

fn user_config(name: &str) -> MabConfig {
    let mut classifier = Classifier::new();
    classifier.accept_source("aladdin-gw", KeywordField::Body, "cfg");
    classifier.map_keyword("Sensor", "Home");
    let mut registry = SubscriptionRegistry::new();
    let user = UserId::new(name);
    let profile = registry.register_user(user.clone());
    let mut book = AddressBook::new();
    book.add(Address::new("IM", CommType::Im, format!("im:{name}"))).unwrap();
    book.add(Address::new("EM", CommType::Email, format!("{name}@mail"))).unwrap();
    profile.address_book = book;
    profile.define_mode(DeliveryMode::im_then_email(
        "Urgent",
        "IM",
        "EM",
        SimDuration::from_secs(60),
    ));
    registry.subscribe("Home", user, "Urgent").unwrap();
    MabConfig { classifier, registry, rejuvenation: RejuvenationPolicy::default() }
}

fn factory() -> ConfigFactory {
    Arc::new(|user: &UserId| user_config(&user.0))
}

fn sensor_alert(text: &str) -> IncomingAlert {
    IncomingAlert::from_im("aladdin-gw", text, SimTime::ZERO)
}

/// A config with auto-hibernation off; tests drive it explicitly.
fn test_config(shards: usize) -> ShardedHostConfig {
    ShardedHostConfig {
        shards,
        hibernate_after: SimDuration::ZERO,
        ..ShardedHostConfig::default()
    }
}

/// The next acknowledged alert's user and the delivery id of its one
/// subscriber: the alert's log record at fan-out position 0.
async fn next_ack(notices: &mut mpsc::Receiver<HostNotice>) -> (UserId, DeliveryId) {
    loop {
        let HostNotice { user, notice } = notices.recv().await.expect("host alive");
        if let RuntimeNotice::AckSent { record, .. } = notice {
            return (user, DeliveryId::new(record, 0));
        }
    }
}

async fn next_finished(notices: &mut mpsc::Receiver<HostNotice>) -> (UserId, DeliveryStatus) {
    loop {
        let HostNotice { user, notice } = notices.recv().await.expect("host alive");
        if let RuntimeNotice::DeliveryFinished { status, .. } = notice {
            return (user, status);
        }
    }
}

#[tokio::test(start_paused = true)]
async fn routes_and_delivers_across_shards() {
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(100)));
    let (host, mut notices) = ShardedHost::new(
        shared.clone(),
        test_config(4),
        factory(),
        Telemetry::disabled(),
    )
    .unwrap();
    let users: Vec<UserId> = (0..8).map(|i| UserId::new(format!("user{i}"))).collect();
    host.register_many(users.clone()).await;
    for user in &users {
        assert!(host.submit_im(user, sensor_alert("Sensor ON")).await);
    }
    for _ in 0..8 {
        let (_, status) = next_finished(&mut notices).await;
        assert!(matches!(status, DeliveryStatus::Acked { .. }));
    }
    let snap = host.snapshot().await;
    assert_eq!(snap.users, 8);
    assert_eq!(snap.stats.deliveries_started, 8);
    assert_eq!(snap.acked, 8);
    assert_eq!(snap.in_flight, 0);
    assert_eq!(snap.unrouted, 0);
    // Only the owning user's IM address saw each alert.
    shared.with(|c| {
        assert_eq!(c.sent().len(), 8);
        for user in &users {
            let to_user = c.sent().iter().filter(|(_, addr, _)| *addr == format!("im:{user}"));
            assert_eq!(to_user.count(), 1, "{user} heard exactly their own alert");
        }
    });
    let final_snap = host.shutdown().await;
    // The merged notice stream ends once the workers are gone.
    while let Some(HostNotice { notice, .. }) = notices.recv().await {
        assert!(!matches!(notice, RuntimeNotice::DeliveryFinished { .. }), "all eight were read");
    }
    assert_eq!(final_snap.stats.deliveries_started, 8);
    assert_eq!(final_snap.log.appends, 8);
    assert_eq!(final_snap.log.marks, 8);
    // Every record was marked in the batch that logged it, so no commit
    // had anything to write: a restart would replay nothing either way.
    assert_eq!((final_snap.log.written, final_snap.log.group_commits), (0, 0));
}

#[tokio::test(start_paused = true)]
async fn unregistered_user_is_counted_not_routed() {
    let telemetry = Telemetry::with_sink(Arc::new(RingBufferSink::new(64)));
    let shared = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, _notices) =
        ShardedHost::new(shared.clone(), test_config(2), factory(), telemetry.clone()).unwrap();
    host.register(UserId::new("alice")).await;
    // The front door only queues; the owning worker does the refusing.
    assert!(host.submit_im(&UserId::new("mallory"), sensor_alert("Sensor ON")).await);
    // Allow the worker to drain.
    tokio::time::sleep(Duration::from_millis(10)).await;
    let snap = host.snapshot().await;
    assert_eq!(snap.unrouted, 1);
    assert_eq!(snap.stats.received_im, 0);
    assert_eq!(telemetry.metrics().snapshot().counter("host.unrouted"), 1);
    shared.with(|c| assert!(c.sent().is_empty(), "nothing is sent for an unhosted user"));
}

#[tokio::test(start_paused = true)]
async fn fleet_state_returns_to_the_floor_after_mixed_load() {
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), test_config(2), factory(), Telemetry::disabled()).unwrap();
    let users: Vec<UserId> = (0..3).map(|i| UserId::new(format!("user{i}"))).collect();
    host.register_many(users.clone()).await;
    // One failing user exercises the fallback path under the host.
    shared.with(|c| c.script("im:user2", SendOutcome::Failed(SendFailure::RecipientUnreachable)));

    for round in 0..5 {
        for user in &users {
            host.submit_im(user, sensor_alert(&format!("Sensor {round} ON"))).await;
        }
    }
    let mut statuses = Vec::new();
    while statuses.len() < 15 {
        statuses.push(next_finished(&mut notices).await.1);
    }
    // user2's deliveries fell back to unconfirmed email.
    let unconfirmed = statuses.iter().filter(|s| matches!(s, DeliveryStatus::Unconfirmed { .. }));
    assert_eq!(unconfirmed.count(), 5);
    assert_eq!(statuses.iter().filter(|s| matches!(s, DeliveryStatus::Acked { .. })).count(), 10);

    // The acked deliveries left their 60 s block timers on the wheel;
    // once those lapse (dropped: the delivery is gone) nothing is held.
    assert!(host.snapshot().await.pending_timers > 0);
    tokio::time::sleep(Duration::from_secs(61)).await;
    let snap = host.snapshot().await;
    assert_eq!(snap.users, 3);
    assert_eq!(snap.stats.deliveries_started, 15);
    assert_eq!(snap.acked + snap.unconfirmed + snap.exhausted, 15);
    assert_eq!(snap.in_flight, 0);
    assert_eq!(snap.pending_timers, 0);
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn lagging_notice_consumer_drops_instead_of_buffering() {
    let telemetry = Telemetry::with_sink(Arc::new(RingBufferSink::new(256)));
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let config = ShardedHostConfig { notice_capacity: 2, ..test_config(1) };
    let (host, mut notices) =
        ShardedHost::new(shared, config, factory(), telemetry.clone()).unwrap();
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;

    // Ten deliveries finish while nobody reads the merged stream: each
    // produces several notices, but the stream holds only two.
    for round in 0..10 {
        host.submit_im(&alice, sensor_alert(&format!("Sensor {round} ON"))).await;
    }
    tokio::time::sleep(Duration::from_secs(5)).await;
    let dropped = telemetry.metrics().snapshot().counter("host.notice_dropped");
    assert!(dropped > 0, "expected overflow notices to be counted, got {dropped}");

    let snap = host.shutdown().await;
    assert_eq!(snap.stats.deliveries_started, 10, "delivery never waits on an observer");
    // Exactly the buffered capacity survives for a late reader.
    let mut buffered = 0;
    while notices.recv().await.is_some() {
        buffered += 1;
    }
    assert_eq!(buffered, 2);
}

#[tokio::test(start_paused = true)]
async fn external_ack_reaches_the_right_buddy() {
    // accept_all: no automatic ack, so both deliveries sit in their 60 s
    // IM window until a user ack is reported through the front door.
    let telemetry = Telemetry::with_sink(Arc::new(RingBufferSink::new(64)));
    let shared = SharedChannels::new(LoopbackChannels::accept_all());
    // Two shards: alice's and bob's logs each start at record 0. Dave
    // shares alice's shard and has no alert.
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), test_config(2), factory(), telemetry.clone()).unwrap();
    let (alice, bob, dave) = (UserId::new("alice"), UserId::new("bob"), UserId::new("dave"));
    host.register_many(vec![alice.clone(), bob.clone(), dave.clone()]).await;
    let t0 = tokio::time::Instant::now();
    host.submit_im(&alice, sensor_alert("Sensor A ON")).await;
    host.submit_im(&bob, sensor_alert("Sensor B ON")).await;
    let acks = [next_ack(&mut notices).await, next_ack(&mut notices).await];
    let of = |user: &UserId| acks.iter().find(|(u, _)| u == user).expect("acked").1;
    let delivery = of(&alice);
    assert_eq!(delivery, of(&bob), "both users hold the same delivery id");

    // An ack names its user: alice's id acked as dave's reaches no buddy.
    host.ack(&dave, delivery, AttemptId(0)).await;
    assert_eq!(host.snapshot().await.in_flight, 2);
    assert_eq!(telemetry.metrics().snapshot().counter("runtime.stale_dropped"), 1);

    // Acks are routed by user: alice's reaches her buddy alone.
    host.ack(&alice, delivery, AttemptId(0)).await;
    let (user, status) = next_finished(&mut notices).await;
    assert_eq!(user, alice);
    assert!(matches!(status, DeliveryStatus::Acked { .. }));
    let snap = host.snapshot().await;
    assert_eq!(snap.acked, 1);
    assert_eq!(snap.in_flight, 1, "bob's delivery is untouched by alice's ack");

    // The same ack again, now that alice's delivery has retired: dropped
    // and counted, never fed to the buddy.
    host.ack(&alice, delivery, AttemptId(0)).await;
    assert_eq!(host.snapshot().await.stats, snap.stats);
    assert_eq!(telemetry.metrics().snapshot().counter("runtime.stale_dropped"), 2);

    // Nobody acks bob: his 60 s window (a wheel entry, auto-advanced)
    // expires into the email fallback.
    let (user, status) = next_finished(&mut notices).await;
    assert_eq!(user, bob);
    assert!(matches!(status, DeliveryStatus::Unconfirmed { block: 1, .. }), "{status:?}");
    assert!(t0.elapsed() >= Duration::from_secs(60), "elapsed {:?}", t0.elapsed());
    shared.with(|c| assert_eq!(c.sent().last().unwrap().1, "bob@mail"));
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn hibernate_and_rehydrate_preserves_totals_exactly_once() {
    let sink = Arc::new(RingBufferSink::new(64));
    let telemetry = Telemetry::with_sink(sink.clone());
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(100)));
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), test_config(1), factory(), telemetry.clone()).unwrap();
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;

    host.submit_im(&alice, sensor_alert("Sensor 1 ON")).await;
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { .. }));

    // One sink spans both layers of that alert: the core pipeline's
    // events (mab.*, wal.*, delivery.*) and the worker's own counters.
    let names: Vec<String> = sink.events().into_iter().map(|e| e.name).collect();
    for expected in ["mab.received", "wal.append", "delivery.acked", "mab.retired"] {
        assert!(names.iter().any(|n| n == expected), "missing {expected} in {names:?}");
    }
    let metrics = telemetry.metrics().snapshot();
    assert_eq!(metrics.counter("runtime.sends"), 1);
    assert_eq!(metrics.counter("runtime.acks_sent"), 1);
    assert_eq!(metrics.counter("host.routed"), 1);
    assert_eq!(metrics.histogram("delivery.ack_latency_ms").unwrap().count, 1);

    assert!(host.force_hibernate(&alice).await, "idle buddy must hibernate");
    let parked = host.snapshot().await;
    assert_eq!(parked.active, 0);
    assert_eq!(parked.hibernated, 1);
    assert_eq!(parked.hibernations, 1);
    // Folded totals keep the fleet accounting intact while parked.
    assert_eq!(parked.stats.received_im, 1);
    assert_eq!(parked.stats.deliveries_started, 1);

    // The next routed alert rehydrates and delivers exactly once.
    host.submit_im(&alice, sensor_alert("Sensor 2 ON")).await;
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { .. }));
    let resumed = host.snapshot().await;
    assert_eq!(resumed.active, 1);
    assert_eq!(resumed.hibernated, 0);
    assert_eq!(resumed.rehydrations, 1);
    // No double counting: the parked totals stay folded, and the fresh
    // buddy counts only its own alert.
    assert_eq!(resumed.stats.received_im, 2);
    assert_eq!(resumed.stats.deliveries_started, 2);
    // Exactly one IM send per alert — nothing lost, nothing duplicated.
    shared.with(|c| assert_eq!(c.sent().len(), 2));
    let metrics = telemetry.metrics().snapshot();
    assert_eq!(metrics.counter("host.hibernated"), 1);
    assert_eq!(metrics.counter("host.rehydrated"), 1);
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn hibernation_refused_while_delivery_in_flight() {
    // The race: an alert is mid-delivery when hibernation is asked of
    // the buddy. Hibernation must refuse (not idle), and the later routed
    // alert must still deliver exactly once.
    let shared = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), test_config(1), factory(), Telemetry::disabled()).unwrap();
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;
    host.submit_im(&alice, sensor_alert("Sensor ON")).await;
    let (_, first) = next_ack(&mut notices).await;

    // In flight (accept_all: no ack yet, 60 s block window pending).
    assert!(!host.force_hibernate(&alice).await, "in-flight buddy must not hibernate");

    // The user acks; the delivery retires; now hibernation succeeds.
    host.ack(&alice, first, AttemptId(0)).await;
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { .. }));
    assert!(host.force_hibernate(&alice).await);

    // Rehydrate on the next alert; the stale 60 s block timer from the
    // pre-hibernation incarnation must not produce a duplicate send.
    host.submit_im(&alice, sensor_alert("Sensor 2 ON")).await;
    let (_, second) = next_ack(&mut notices).await;
    assert_ne!(second, first, "the rebuilt buddy issues a new id");
    host.ack(&alice, second, AttemptId(0)).await;
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { .. }));
    tokio::time::sleep(Duration::from_secs(120)).await;
    shared.with(|c| assert_eq!(c.sent().len(), 2, "one send per alert, no stale-timer dupes"));
    let snap = host.shutdown().await;
    assert_eq!(snap.stats.deliveries_started, 2);
    assert_eq!(snap.acked, 2);
}

#[tokio::test(start_paused = true)]
async fn restart_replays_committed_unmarked_records_only() {
    let dir = std::env::temp_dir().join(format!("simba-shardhost-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let carol = UserId::new("carol");
    let on_disk = |shards: usize| ShardedHostConfig {
        log_dir: Some(dir.clone()),
        ..test_config(shards)
    };

    // Session 1: a delivered (marked) alert.
    {
        let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
        let (host, mut notices) =
            ShardedHost::new(shared, on_disk(1), factory(), Telemetry::disabled()).unwrap();
        host.register(carol.clone()).await;
        host.submit_im(&carol, sensor_alert("Sensor A ON")).await;
        next_finished(&mut notices).await;
        host.shutdown().await;
    }

    // Between sessions, simulate the two crash windows directly against
    // the shard log. One record is appended AND committed but never
    // marked (the buddy died after the ack, before routing completed);
    // a second is appended but the process dies before the group commit
    // fsyncs — that one was never acked, so losing it is correct.
    {
        let mut log =
            ShardLog::open(ShardLogConfig::on_disk(dir.join("shard-000"))).unwrap();
        assert_eq!(log.unprocessed_len(), 0, "session 1 marked its record");
        log.append(&carol, &sensor_alert("Sensor B ON"), SimTime::from_secs(1)).unwrap();
        log.commit().unwrap();
        log.append(&carol, &sensor_alert("Sensor C lost ON"), SimTime::from_secs(2)).unwrap();
        // No commit: dropped with the "process".
    }

    // Session 2: startup replay must deliver exactly the committed,
    // unmarked record — not the marked one, not the torn tail.
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), on_disk(1), factory(), Telemetry::disabled()).unwrap();
    let (user, status) = next_finished(&mut notices).await;
    assert_eq!(user, carol);
    assert!(matches!(status, DeliveryStatus::Acked { .. }));
    let snap = host.snapshot().await;
    assert_eq!(snap.stats.replayed, 1);
    assert_eq!(snap.stats.deliveries_started, 1);
    shared.with(|c| {
        assert_eq!(c.sent().len(), 1);
        assert!(c.sent()[0].2.contains("Sensor B"), "only the committed record replays");
    });
    host.shutdown().await;

    // After the replay marked it, a third session finds a clean log.
    let log = ShardLog::open(ShardLogConfig::on_disk(dir.join("shard-000"))).unwrap();
    assert_eq!(log.unprocessed_len(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[tokio::test(start_paused = true)]
async fn replay_claims_delivery_ids_before_a_live_alert_queued_behind_it() {
    // §4.2.1: the restart protocol replays unprocessed records before new
    // alerts are accepted. Two committed, unmarked records sit in the
    // on-disk shard log; a live alert is queued before the worker has
    // taken its first turn.
    let dir = std::env::temp_dir().join(format!("simba-shardhost-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let carol = UserId::new("carol");
    let replays = {
        let mut log = ShardLog::open(ShardLogConfig::on_disk(dir.join("shard-000"))).unwrap();
        let a = log.append(&carol, &sensor_alert("Sensor replay A"), SimTime::ZERO).unwrap();
        let b = log.append(&carol, &sensor_alert("Sensor replay B"), SimTime::ZERO).unwrap();
        log.commit().unwrap();
        [a, b]
    };
    let config = ShardedHostConfig { log_dir: Some(dir.clone()), ..test_config(1) };
    let shared = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), config, factory(), Telemetry::disabled()).unwrap();
    host.submit_im(&carol, sensor_alert("Sensor live")).await;

    let snap = host.snapshot().await;
    assert_eq!(snap.stats.replayed, 2);
    assert_eq!(snap.stats.deliveries_started, 3);
    assert_eq!(snap.unrouted, 0, "the log's demand registered carol before the alert was routed");
    shared.with(|c| {
        let texts: Vec<&str> = c.sent().iter().map(|(_, _, text)| text.as_str()).collect();
        assert_eq!(texts.len(), 3, "{texts:?}");
        assert!(texts[0].contains("replay A") && texts[1].contains("replay B"), "{texts:?}");
        assert!(texts[2].contains("Sensor live"), "{texts:?}");
    });

    // Only the live alert is acked back to its source (once its record
    // is committed); replays are never re-acked.
    let HostNotice { notice, .. } = notices.recv().await.unwrap();
    let RuntimeNotice::AckSent { source, record: live } = notice else { panic!("{notice:?}") };
    assert_eq!(&*source, "aladdin-gw");
    assert!(!replays.contains(&live), "the live alert is a record of its own");

    // The replays' deliveries carry their records: acking those leaves
    // exactly the live alert's delivery to run out its IM window into
    // the email fallback.
    for record in replays {
        let id = DeliveryId::new(record, 0);
        host.ack(&carol, id, AttemptId(0)).await;
        let HostNotice { notice, .. } = notices.recv().await.unwrap();
        assert!(
            matches!(notice, RuntimeNotice::DeliveryFinished { delivery, status: DeliveryStatus::Acked { .. } } if delivery == id),
            "{notice:?}"
        );
    }
    let HostNotice { notice, .. } = notices.recv().await.unwrap();
    assert!(
        matches!(notice, RuntimeNotice::DeliveryFinished { delivery, status: DeliveryStatus::Unconfirmed { block: 1, .. } } if delivery == DeliveryId::new(live, 0)),
        "{notice:?}"
    );
    shared.with(|c| {
        let (channel, _, text) = c.sent().last().unwrap();
        assert_eq!(*channel, CommType::Email);
        assert!(text.contains("Sensor live"), "{text}");
    });
    host.shutdown().await;
    let _ = std::fs::remove_dir_all(&dir);
}

#[tokio::test(start_paused = true)]
async fn a_delivery_with_every_block_disabled_finishes_exhausted_exactly_once() {
    // Terminal at start: zero send commands, so nothing but retirement
    // can report it — an observer waiting on the stream must not hang.
    let nobody_home: ConfigFactory = Arc::new(|user: &UserId| {
        let mut config = user_config(&user.0);
        let book = &mut config.registry.user_mut(user).unwrap().address_book;
        book.set_enabled("IM", false);
        book.set_enabled("EM", false);
        config
    });
    let shared = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), test_config(1), nobody_home, Telemetry::disabled()).unwrap();
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;
    host.submit_im(&alice, sensor_alert("Sensor ON")).await;

    let snap = host.shutdown().await;
    assert_eq!(snap.exhausted, 1);
    let mut seen = Vec::new();
    while let Some(HostNotice { notice, .. }) = notices.recv().await {
        seen.push(notice);
    }
    assert_eq!(seen.len(), 2, "{seen:?}");
    assert!(matches!(&seen[0], RuntimeNotice::AckSent { source, .. } if &**source == "aladdin-gw"), "{seen:?}");
    assert!(
        matches!(seen[1], RuntimeNotice::DeliveryFinished { status: DeliveryStatus::Exhausted { .. }, .. }),
        "{seen:?}"
    );
    shared.with(|c| assert!(c.sent().is_empty()));
}

#[tokio::test(start_paused = true)]
async fn remote_rejuvenation_parks_the_buddy_and_its_next_alert_rehydrates() {
    use simba_core::rejuvenate::RejuvenationTrigger;

    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), test_config(1), factory(), Telemetry::disabled()).unwrap();
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;
    host.submit_im(&alice, sensor_alert("Sensor 1 ON")).await;
    let (_, first) = next_ack(&mut notices).await;
    next_finished(&mut notices).await;

    host.submit_im(&alice, sensor_alert("SIMBA-REJUVENATE")).await;
    loop {
        let HostNotice { user, notice } = notices.recv().await.unwrap();
        if let RuntimeNotice::Rejuvenating(trigger) = notice {
            assert_eq!((user, trigger), (alice.clone(), RejuvenationTrigger::RemoteCommand));
            break;
        }
    }
    // Nothing was in flight, so the buddy is parked in the command's own
    // batch — with hibernation off. Its totals are folded, not lost, and
    // the command itself started no delivery.
    let snap = host.snapshot().await;
    assert_eq!((snap.active, snap.hibernated, snap.hibernations), (0, 1, 1));
    assert_eq!(snap.stats.remote_commands, 1);
    assert_eq!(snap.stats.received_im, 2);
    assert_eq!(snap.stats.deliveries_started, 1);
    assert_eq!(snap.stats.replayed, 0, "the command's record was marked before the park");
    assert_eq!(snap.crashes, 0, "an orderly rejuvenation is not a crash");

    // The next alert rehydrates a fresh buddy, which keeps no id counter:
    // its delivery takes the alert's own log record, never one the old
    // incarnation issued.
    host.submit_im(&alice, sensor_alert("Sensor 2 ON")).await;
    let (_, second) = next_ack(&mut notices).await;
    assert_ne!(second, first);
    loop {
        let HostNotice { notice, .. } = notices.recv().await.unwrap();
        if let RuntimeNotice::DeliveryFinished { delivery, status } = notice {
            assert_eq!(delivery, second);
            assert!(matches!(status, DeliveryStatus::Acked { .. }));
            break;
        }
    }
    let snap = host.shutdown().await;
    assert_eq!((snap.active, snap.rehydrations), (1, 1));
    assert_eq!(snap.stats.deliveries_started, 2);
    shared.with(|c| assert_eq!(c.sent().len(), 2));
}

/// Every `DeliveryFinished` that arrives within `secs` of virtual time.
async fn finished_within(
    notices: &mut mpsc::Receiver<HostNotice>,
    secs: u64,
) -> Vec<(DeliveryId, DeliveryStatus)> {
    let mut finished = Vec::new();
    let collect = async {
        while let Some(HostNotice { notice, .. }) = notices.recv().await {
            if let RuntimeNotice::DeliveryFinished { delivery, status } = notice {
                finished.push((delivery, status));
            }
        }
    };
    let _ = tokio::time::timeout(Duration::from_secs(secs), collect).await;
    finished
}

/// Regression: a rejuvenation restarted the buddy at once, dropping a
/// delivery still waiting for its ack with the old incarnation: its
/// record was already marked processed, so nothing replayed it, and its
/// block timer fired into the new incarnation and was ignored. The email
/// fallback was never sent and the delivery never reported.
#[tokio::test(start_paused = true)]
async fn an_in_flight_delivery_survives_a_remote_rejuvenation() {
    let one_second: ConfigFactory = Arc::new(|user: &UserId| {
        let mut config = user_config(&user.0);
        let window = SimDuration::from_secs(1);
        let profile = config.registry.user_mut(user).unwrap();
        profile.define_mode(DeliveryMode::im_then_email("Urgent", "IM", "EM", window));
        config
    });
    let shared = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), test_config(1), one_second, Telemetry::disabled()).unwrap();
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;
    host.submit_im(&alice, sensor_alert("Sensor 1 ON")).await;
    let (_, first) = next_ack(&mut notices).await;
    tokio::time::sleep(Duration::from_millis(100)).await;
    host.submit_im(&alice, sensor_alert("SIMBA-REJUVENATE")).await;

    let finished = finished_within(&mut notices, 10).await;
    assert_eq!(finished.len(), 1, "the in-flight delivery never finished, or finished twice");
    assert_eq!(finished[0].0, first);
    assert!(matches!(finished[0].1, DeliveryStatus::Unconfirmed { block: 1, .. }), "{finished:?}");
    shared.with(|c| {
        let channels: Vec<CommType> = c.sent().iter().map(|(channel, _, _)| *channel).collect();
        assert_eq!(channels, [CommType::Im, CommType::Email], "the fallback is sent once");
    });
    let snap = host.snapshot().await;
    assert_eq!(snap.stats.deliveries_started, 1);
    assert_eq!(snap.acked + snap.unconfirmed + snap.exhausted, 1, "counted once");
    assert_eq!((snap.active, snap.hibernated), (0, 1), "parked once idle");

    host.submit_im(&alice, sensor_alert("Sensor 2 ON")).await;
    let (_, second) = next_ack(&mut notices).await;
    assert_ne!(second, first);
    assert_eq!(host.snapshot().await.rehydrations, 1);
    host.shutdown().await;
}

/// Regression: a crashed buddy was folded without retiring first, so a
/// delivery it had finished earlier in the crash's batch was never
/// reported and never counted.
#[tokio::test(start_paused = true)]
async fn a_delivery_finished_in_a_crashs_batch_is_reported() {
    let shared = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, mut notices) =
        ShardedHost::new(shared, test_config(1), factory(), Telemetry::disabled()).unwrap();
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;
    host.submit_im(&alice, sensor_alert("Sensor 1 ON")).await;
    let (_, first) = next_ack(&mut notices).await;

    // One batch: the user's ack finishes the delivery, then the next
    // alert's failed mark crashes the buddy.
    host.ack(&alice, first, AttemptId(0)).await;
    host.inject_mark_failure(&alice).await;
    host.submit_im(&alice, sensor_alert("Sensor 2 ON")).await;

    let finished = finished_within(&mut notices, 5).await;
    assert_eq!(finished.len(), 1, "the acked delivery never finished: {finished:?}");
    assert_eq!(finished[0].0, first);
    assert!(matches!(finished[0].1, DeliveryStatus::Acked { .. }), "{finished:?}");
    let snap = host.shutdown().await;
    assert_eq!((snap.crashes, snap.acked), (1, 1));
}

#[tokio::test(start_paused = true)]
async fn mark_failure_crashes_one_buddy_not_the_shard() {
    // PR 2's contract under group commit: a failed processed-mark crashes
    // the affected buddy only. Its shard-mates keep delivering, and a
    // fresh incarnation of the crashed buddy replays its records.
    let sink = Arc::new(RingBufferSink::new(128));
    let telemetry = Telemetry::with_sink(sink);
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), test_config(1), factory(), telemetry.clone()).unwrap();
    let alice = UserId::new("alice");
    let bob = UserId::new("bob");
    host.register_many(vec![alice.clone(), bob.clone()]).await;

    host.inject_mark_failure(&alice).await;
    host.submit_im(&alice, sensor_alert("Sensor A ON")).await;
    host.submit_im(&bob, sensor_alert("Sensor B ON")).await;

    // Both users' deliveries finish: bob's untouched, alice's via the
    // restarted incarnation's replay.
    let mut finished = std::collections::BTreeSet::new();
    while finished.len() < 2 {
        let (user, status) = next_finished(&mut notices).await;
        assert!(matches!(status, DeliveryStatus::Acked { .. }), "{user}: {status:?}");
        finished.insert(user);
    }
    assert!(finished.contains(&alice) && finished.contains(&bob));

    let snap = host.snapshot().await;
    assert_eq!(snap.crashes, 1, "exactly one buddy crashed");
    assert_eq!(snap.stats.replayed, 1, "the crashed buddy's record replayed");
    assert_eq!(snap.stats.received_im, 2);
    assert_eq!(telemetry.metrics().snapshot().counter("host.buddy_crashed"), 1);

    // The shard worker survived: both buddies keep delivering.
    host.submit_im(&alice, sensor_alert("Sensor A2 ON")).await;
    host.submit_im(&bob, sensor_alert("Sensor B2 ON")).await;
    for _ in 0..2 {
        let (_, status) = next_finished(&mut notices).await;
        assert!(matches!(status, DeliveryStatus::Acked { .. }));
    }
    let final_snap = host.shutdown().await;
    assert_eq!(final_snap.crashes, 1);
    assert_eq!(final_snap.stats.received_im, 4);
    // Replay may duplicate the crashed buddy's send (§4.2.1: the user-side
    // dedup absorbs it); bob's two sends stay exactly two.
    shared.with(|c| {
        let to_bob = c.sent().iter().filter(|(_, addr, _)| addr == "im:bob").count();
        assert_eq!(to_bob, 2);
    });
}

#[tokio::test(start_paused = true)]
async fn idle_buddies_hibernate_automatically() {
    let config = ShardedHostConfig {
        shards: 1,
        hibernate_after: SimDuration::from_millis(200),
        ..ShardedHostConfig::default()
    };
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let (host, mut notices) =
        ShardedHost::new(shared, config, factory(), Telemetry::disabled()).unwrap();
    let users: Vec<UserId> = (0..3).map(|i| UserId::new(format!("user{i}"))).collect();
    host.register_many(users.clone()).await;
    for user in &users {
        host.submit_im(user, sensor_alert("Sensor ON")).await;
    }
    for _ in 0..3 {
        next_finished(&mut notices).await;
    }
    // Past their idle deadlines, all three are parked.
    tokio::time::sleep(Duration::from_secs(2)).await;
    let snap = host.snapshot().await;
    assert_eq!(snap.active, 0, "idle buddies must hibernate: {snap:?}");
    assert_eq!(snap.hibernated, 3);
    assert_eq!(snap.hibernations, 3);
    assert_eq!(snap.stats.deliveries_started, 3);

    // Traffic brings one back.
    host.submit_im(&users[0], sensor_alert("Sensor again ON")).await;
    next_finished(&mut notices).await;
    let snap = host.snapshot().await;
    assert_eq!(snap.active, 1);
    assert_eq!(snap.hibernated, 2);
    assert_eq!(snap.rehydrations, 1);
    host.shutdown().await;
}

/// One shard, `hibernate_after` 500 ms, and E11's profile: a single
/// fire-and-forget IM block, so a delivery retires in the batch that
/// started it and leaves nothing on the timer wheel but idle deadlines
/// (`pending_timers` then counts exactly those).
fn deadline_host(telemetry: Telemetry) -> ShardedHost {
    let direct: ConfigFactory = Arc::new(|user: &UserId| {
        let mut config = user_config(&user.0);
        let profile = config.registry.user_mut(user).unwrap();
        profile.define_mode(
            DeliveryMode::new("Urgent", vec![Block::fire_and_forget(vec!["IM".into()])]).unwrap(),
        );
        config
    });
    let config = ShardedHostConfig {
        shards: 1,
        hibernate_after: SimDuration::from_millis(500),
        ..ShardedHostConfig::default()
    };
    let shared = SharedChannels::new(LoopbackChannels::accept_all());
    ShardedHost::new(shared, config, direct, telemetry).unwrap().0
}

/// `(active, hibernated, pending_timers)` at `at`.
async fn residency_at(host: &ShardedHost, at: tokio::time::Instant) -> (usize, usize, usize) {
    tokio::time::sleep_until(at).await;
    let snap = host.snapshot().await;
    (snap.active, snap.hibernated, snap.pending_timers)
}

#[tokio::test(start_paused = true)]
async fn a_buddy_hibernates_on_its_idle_deadline_and_an_alert_moves_it() {
    let host = deadline_host(Telemetry::disabled());
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;
    // Off any multiple of a whole-roster sweep period since host start:
    // such a sweep would find the buddy 400 ms idle at 500 ms and park it
    // only at 750 ms — 650 ms after its last alert.
    tokio::time::sleep(Duration::from_millis(100)).await;
    let ms = Duration::from_millis;

    let t = tokio::time::Instant::now();
    host.submit_im(&alice, sensor_alert("Sensor 1 ON")).await;
    let (active, hibernated, _) = residency_at(&host, t + ms(499)).await;
    assert_eq!((active, hibernated), (1, 0));
    let (active, hibernated, _) = residency_at(&host, t + ms(501)).await;
    assert_eq!((active, hibernated), (0, 1), "parked on the deadline, not at the next sweep");

    // A second alert 400 ms after the first moves the deadline to 900 ms
    // without arming a second entry: the one entry is re-armed when it
    // fires at 500 ms.
    let u = tokio::time::Instant::now();
    host.submit_im(&alice, sensor_alert("Sensor 2 ON")).await;
    tokio::time::sleep_until(u + ms(400)).await;
    host.submit_im(&alice, sensor_alert("Sensor 3 ON")).await;
    assert_eq!(residency_at(&host, u + ms(401)).await, (1, 0, 1));
    assert_eq!(residency_at(&host, u + ms(501)).await, (1, 0, 1));
    assert_eq!(residency_at(&host, u + ms(899)).await, (1, 0, 1));
    assert_eq!(residency_at(&host, u + ms(901)).await, (0, 1, 0));
    let snap = host.shutdown().await;
    assert_eq!((snap.hibernations, snap.rehydrations), (2, 1));
    assert_eq!(snap.stats.deliveries_started, 3);
}

#[tokio::test(start_paused = true)]
async fn an_in_flight_delivery_defers_the_idle_deadline_by_one_period() {
    // The 60 s IM window of the default profile, and nobody acks: at the
    // 500 ms deadline the delivery is still in flight.
    let config = ShardedHostConfig { hibernate_after: SimDuration::from_millis(500), ..test_config(1) };
    let shared = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, mut notices) =
        ShardedHost::new(shared, config, factory(), Telemetry::disabled()).unwrap();
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;
    let ms = Duration::from_millis;

    let t = tokio::time::Instant::now();
    host.submit_im(&alice, sensor_alert("Sensor ON")).await;
    let (_, delivery) = next_ack(&mut notices).await;
    let (active, hibernated, _) = residency_at(&host, t + ms(501)).await;
    assert_eq!((active, hibernated), (1, 0), "a delivering buddy is not parked");

    // The user acks at 700 ms: the delivery retires, and the ack is the
    // buddy's last activity — one period later it is parked.
    tokio::time::sleep_until(t + ms(700)).await;
    host.ack(&alice, delivery, AttemptId(0)).await;
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { .. }));
    let (active, hibernated, _) = residency_at(&host, t + ms(1_199)).await;
    assert_eq!((active, hibernated), (1, 0));
    let (active, hibernated, _) = residency_at(&host, t + ms(1_201)).await;
    assert_eq!((active, hibernated), (0, 1));
    assert_eq!(host.shutdown().await.acked, 1);
}

#[tokio::test(start_paused = true)]
async fn a_dead_incarnations_idle_deadline_never_parks_its_successor() {
    let telemetry = Telemetry::with_sink(Arc::new(RingBufferSink::new(64)));
    let host = deadline_host(telemetry.clone());
    let (alice, bob) = (UserId::new("alice"), UserId::new("bob"));
    host.register_many(vec![alice.clone(), bob.clone()]).await;
    let ms = Duration::from_millis;

    // Alice is force-hibernated at 300 ms and back at 400 ms; bob's
    // second alert at 300 ms crashes his buddy (failed processed-mark),
    // and the worker restarts it in the same batch. Both first
    // incarnations leave a deadline at 500 ms behind.
    let t = tokio::time::Instant::now();
    host.submit_im(&alice, sensor_alert("Sensor A1 ON")).await;
    host.submit_im(&bob, sensor_alert("Sensor B1 ON")).await;
    tokio::time::sleep_until(t + ms(300)).await;
    assert!(host.force_hibernate(&alice).await);
    host.inject_mark_failure(&bob).await;
    host.submit_im(&bob, sensor_alert("Sensor B2 ON")).await;
    tokio::time::sleep_until(t + ms(400)).await;
    host.submit_im(&alice, sensor_alert("Sensor A2 ON")).await;
    let snap = host.snapshot().await;
    assert_eq!((snap.crashes, snap.hibernations, snap.rehydrations), (1, 1, 1));
    assert_eq!((snap.active, snap.pending_timers), (2, 4), "two live deadlines, two dead ones");

    // 500 ms: the dead entries are dropped — silently, no delivery event
    // was lost with them — and hibernate nobody.
    assert_eq!(residency_at(&host, t + ms(501)).await, (2, 0, 2));
    assert_eq!(telemetry.metrics().snapshot().counter("runtime.stale_dropped"), 0);
    // The successors keep their own deadlines: bob 300 + 500, alice 400 + 500.
    assert_eq!(residency_at(&host, t + ms(799)).await, (2, 0, 2));
    assert_eq!(residency_at(&host, t + ms(801)).await, (1, 1, 1));
    assert_eq!(residency_at(&host, t + ms(899)).await, (1, 1, 1));
    assert_eq!(residency_at(&host, t + ms(901)).await, (0, 2, 0));
    assert_eq!(telemetry.metrics().snapshot().counter("runtime.stale_dropped"), 0);
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn with_hibernation_off_the_wheel_holds_no_idle_deadlines() {
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let (host, mut notices) =
        ShardedHost::new(shared, test_config(1), factory(), Telemetry::disabled()).unwrap();
    let users: Vec<UserId> = (0..50_000).map(|i| UserId::new(format!("user{i:05}"))).collect();
    let resident = users[7].clone();
    host.register_many(users).await;
    host.submit_im(&resident, sensor_alert("Sensor ON")).await;
    next_finished(&mut notices).await;

    // A hundred idle ticks (the worker wakes at most once a second):
    // nothing is armed, nobody is parked, the one resident buddy stays.
    tokio::time::sleep(Duration::from_secs(100)).await;
    let snap = host.shutdown().await;
    assert_eq!((snap.users, snap.active, snap.hibernated), (50_000, 1, 0));
    assert_eq!((snap.hibernations, snap.pending_timers), (0, 0));
}

#[tokio::test(start_paused = true)]
async fn im_failure_falls_back_to_email_under_sharding() {
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), test_config(1), factory(), Telemetry::disabled()).unwrap();
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;
    shared.with(|c| c.script("im:alice", SendOutcome::Failed(SendFailure::RecipientUnreachable)));
    host.submit_im(&alice, sensor_alert("Sensor ON")).await;
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Unconfirmed { block: 1, .. }));
    let snap = host.shutdown().await;
    assert_eq!(snap.unconfirmed, 1);
}

/// An in-memory engine where each of `users` folds everything
/// `aladdin-gw` sends them into one `window_ms` digest window, under a
/// key template without `{user}`: every user's window has the same key.
fn storm_engine(users: &[&str], window_ms: u64) -> simba_rules::SharedRuleEngine {
    use simba_rules::{DigestConfig, RuleEngine, RuleSpec, RulesConfig};

    let engine = Arc::new(RuleEngine::open(RulesConfig::in_memory()).unwrap());
    let window =
        DigestConfig { window_ms, max_count: 0, max_exemplars: 3, key: Some("{source}".into()) };
    for user in users {
        let storm = RuleSpec::digest("storm", "source == \"aladdin-gw\"", window.clone());
        engine.upsert(user, None, storm).unwrap();
    }
    engine
}

/// `(open_windows, deliveries_started)` at `at`.
async fn windows_at(host: &ShardedHost, at: tokio::time::Instant) -> (usize, u64) {
    tokio::time::sleep_until(at).await;
    let snap = host.snapshot().await;
    (snap.open_windows, snap.stats.deliveries_started)
}

/// The channel sends whose text contains `needle`, as `(address, text)`.
fn sends_containing(shared: &SharedChannels<LoopbackChannels>, needle: &str) -> Vec<(String, String)> {
    shared.with(|c| {
        c.sent()
            .iter()
            .filter(|(_, _, text)| text.contains(needle))
            .map(|(_, addr, text)| (addr.clone(), text.clone()))
            .collect()
    })
}

#[tokio::test(start_paused = true)]
async fn rules_digest_storm_collapses_inside_the_shard_worker() {
    let engine = storm_engine(&["alice"], 5_000);
    let config = ShardedHostConfig { rules: Some(engine), ..test_config(2) };
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let (host, mut notices) =
        ShardedHost::new(shared, config, factory(), Telemetry::disabled()).unwrap();
    host.register_many(vec![UserId::new("alice"), UserId::new("bob")]).await;

    // A 50-alert flap for alice plus one ordinary alert for bob.
    for round in 0..50 {
        assert!(host.submit_im(&UserId::new("alice"), sensor_alert(&format!("Sensor {round} ON"))).await);
    }
    assert!(host.submit_im(&UserId::new("bob"), sensor_alert("Sensor ON")).await);

    // Bob's delivery finishes while alice's storm stays absorbed.
    let (user, status) = next_finished(&mut notices).await;
    assert_eq!(user, UserId::new("bob"));
    assert!(matches!(status, DeliveryStatus::Acked { .. }));
    let snap = host.snapshot().await;
    assert_eq!((snap.open_windows, snap.stats.deliveries_started), (1, 1), "window not due yet");

    // Past the window, alice's shard worker routes exactly one digest.
    tokio::time::sleep(Duration::from_secs(6)).await;
    assert_eq!(host.snapshot().await.open_windows, 0);
    let (user, status) = next_finished(&mut notices).await;
    assert_eq!(user, UserId::new("alice"));
    assert!(matches!(status, DeliveryStatus::Acked { .. }));

    let snap = host.shutdown().await;
    // Two user deliveries plus one digest — never fifty-one.
    assert_eq!(snap.stats.deliveries_started, 2);
    assert_eq!(snap.unrouted, 0);
}

#[tokio::test(start_paused = true)]
async fn shutdown_flushes_open_digest_windows_instead_of_dropping_them() {
    let engine = storm_engine(&["alice"], 5_000);
    let config = ShardedHostConfig { rules: Some(engine), ..test_config(1) };
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let (host, _notices) =
        ShardedHost::new(shared.clone(), config, factory(), Telemetry::disabled()).unwrap();
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;

    // Five admitted alerts sit in a window that is not due for 5 s.
    for round in 0..5 {
        assert!(host.submit_im(&alice, sensor_alert(&format!("Sensor {round} ON"))).await);
    }
    let t = tokio::time::Instant::now();
    assert_eq!(windows_at(&host, t + Duration::from_secs(1)).await, (1, 0), "all five absorbed");

    // What `gateway serve` and E11 do at stop. Windows live in memory
    // only, so whatever stop leaves open is lost without a crash.
    let snap = host.shutdown().await;
    assert_eq!(snap.open_windows, 0, "stop delivers early, it does not drop");
    assert_eq!(snap.stats.deliveries_started, 1);
    shared.with(|c| {
        assert_eq!(c.sent().len(), 1, "exactly one digest: {:?}", c.sent());
        assert!(c.sent()[0].2.contains("5 alerts"), "carrying all five: {:?}", c.sent()[0]);
    });
}

/// A lone alert opens a 150 ms window, and nothing else ever arrives:
/// the worker's own wait must end on the window's deadline, whatever
/// window was open before (`already_open`: a 60 s one, which must not
/// become the worker's alarm clock).
async fn a_lone_window_flushes_on_its_deadline(already_open: bool) {
    use simba_rules::{DigestConfig, RuleEngine, RuleSpec, RulesConfig};

    let engine = Arc::new(RuleEngine::open(RulesConfig::in_memory()).unwrap());
    for (name, word, window_ms) in [("slow", "drift", 60_000), ("fold", "flap", 150)] {
        let window = DigestConfig { window_ms, key: Some(name.into()), ..DigestConfig::default() };
        let predicate = format!("body contains \"{word}\"");
        engine.upsert("alice", None, RuleSpec::digest(name, &predicate, window)).unwrap();
    }
    let config = ShardedHostConfig { rules: Some(engine), ..test_config(1) };
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(5)));
    let (host, _notices) =
        ShardedHost::new(shared.clone(), config, factory(), Telemetry::disabled()).unwrap();
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;
    if already_open {
        assert!(host.submit_im(&alice, sensor_alert("Sensor drift")).await);
    }
    let t = tokio::time::Instant::now();
    assert!(host.submit_im(&alice, sensor_alert("Sensor flap")).await);
    let ms = Duration::from_millis;
    let open = 1 + usize::from(already_open);
    assert_eq!(windows_at(&host, t + ms(149)).await, (open, 0));
    assert_eq!(windows_at(&host, t + ms(151)).await, (open - 1, 1), "flushed on its deadline");
    assert_eq!(sends_containing(&shared, "1 alerts").len(), 1);

    // Stop flushes the 60 s window early rather than dropping it.
    let snap = host.shutdown().await;
    assert_eq!(snap.stats.deliveries_started, open as u64, "digests only, no lone alert");
    assert_eq!(sends_containing(&shared, "1 alerts").len(), open);
}

#[tokio::test(start_paused = true)]
async fn a_digest_window_opened_on_an_idle_host_flushes_on_its_deadline() {
    a_lone_window_flushes_on_its_deadline(false).await;
}

#[tokio::test(start_paused = true)]
async fn a_short_digest_window_is_not_held_to_a_longer_one_already_open() {
    a_lone_window_flushes_on_its_deadline(true).await;
}

/// A worker whose queue never runs dry never sees its idle wait elapse,
/// and must flush a due window anyway. Here bob is fed every 0.5 ms for
/// 200 ms while one alert for alice opens a 50 ms window.
#[tokio::test(start_paused = true)]
async fn a_busy_host_still_flushes_a_digest_on_its_deadline() {
    let engine = storm_engine(&["alice"], 50);
    let config = ShardedHostConfig { rules: Some(engine), ..test_config(1) };
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(5)));
    let (host, _notices) =
        ShardedHost::new(shared, config, factory(), Telemetry::disabled()).unwrap();
    let (alice, bob) = (UserId::new("alice"), UserId::new("bob"));
    host.register_many(vec![alice.clone(), bob.clone()]).await;

    let t = tokio::time::Instant::now();
    assert!(host.submit_im(&alice, sensor_alert("Sensor flap")).await);
    let mut flushed_after = None;
    for i in 0..400 {
        tokio::time::sleep(Duration::from_micros(500)).await;
        assert!(host.submit_im(&bob, sensor_alert(&format!("Sensor {i} ON"))).await);
        if flushed_after.is_none() && host.snapshot().await.open_windows == 0 {
            flushed_after = Some(t.elapsed());
        }
    }
    let after = flushed_after.expect("the digest went out while the host was busy");
    assert!(after <= Duration::from_millis(51), "a 50 ms digest window went out after {after:?}");
    assert_eq!(host.shutdown().await.stats.deliveries_started, 401, "bob's 400 and one digest");
}

/// Alice and bob live on different shards of two (FNV-1a: shard 1 and
/// shard 0), and their windows share one correlation key.
fn two_shard_storm_host() -> (ShardedHost, SharedChannels<LoopbackChannels>) {
    let engine = storm_engine(&["alice", "bob"], 5_000);
    let config = ShardedHostConfig { rules: Some(engine), ..test_config(2) };
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(5)));
    let (host, _notices) =
        ShardedHost::new(shared.clone(), config, factory(), Telemetry::disabled()).unwrap();
    (host, shared)
}

/// Feeds alice three alerts and bob four, all absorbed.
async fn open_both_windows(host: &ShardedHost) {
    host.register_many(vec![UserId::new("alice"), UserId::new("bob")]).await;
    for (user, alerts) in [("alice", 3), ("bob", 4)] {
        for i in 0..alerts {
            let alert = sensor_alert(&format!("Sensor {user} {i}"));
            assert!(host.submit_im(&UserId::new(user), alert).await);
        }
    }
    let snap = host.snapshot().await;
    assert_eq!((snap.open_windows, snap.stats.deliveries_started), (2, 0));
}

/// Each user's digest: one send each, to their own address, with their
/// own count and exemplars and nobody else's.
fn assert_one_digest_each(shared: &SharedChannels<LoopbackChannels>) {
    let mut digests = sends_containing(shared, "alerts from aladdin-gw");
    digests.sort();
    assert_eq!(digests.len(), 2, "one digest per user: {digests:?}");
    for ((addr, text), (user, count, other)) in
        digests.iter().zip([("alice", 3, "bob"), ("bob", 4, "alice")])
    {
        assert_eq!(addr, &format!("im:{user}"));
        assert!(text.contains(&format!("{count} alerts")), "{user}'s count: {text}");
        assert!(text.contains(&format!("Sensor {user}")) && !text.contains(other), "{text}");
    }
}

#[tokio::test(start_paused = true)]
async fn users_on_different_shards_with_one_correlation_key_get_a_digest_each() {
    let (host, shared) = two_shard_storm_host();
    open_both_windows(&host).await;
    tokio::time::sleep(Duration::from_secs(6)).await;
    let snap = host.snapshot().await;
    assert_eq!((snap.open_windows, snap.stats.deliveries_started), (0, 2));
    assert_one_digest_each(&shared);
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn shutdown_flushes_an_open_window_on_every_shard_before_it_returns() {
    let (host, shared) = two_shard_storm_host();
    open_both_windows(&host).await;
    let snap = host.shutdown().await;
    assert_eq!((snap.open_windows, snap.stats.deliveries_started), (0, 2));
    assert_one_digest_each(&shared);
}

#[tokio::test(start_paused = true)]
async fn rules_suppress_before_routing_and_let_the_rest_through() {
    use simba_rules::{RuleEngine, RuleSpec, RulesConfig, SharedRuleEngine};

    let engine: SharedRuleEngine =
        Arc::new(RuleEngine::open(RulesConfig::in_memory()).unwrap());
    engine.upsert("alice", None, RuleSpec::suppress("mute-off", "body contains \"OFF\"")).unwrap();
    let config = ShardedHostConfig { rules: Some(engine), ..test_config(1) };
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), config, factory(), Telemetry::disabled()).unwrap();
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;

    host.submit_im(&alice, sensor_alert("Sensor OFF")).await;
    host.submit_im(&alice, sensor_alert("Sensor ON")).await;
    next_finished(&mut notices).await;
    let snap = host.shutdown().await;
    assert_eq!(snap.stats.received_im, 1, "the suppressed alert never reached the buddy");
    assert_eq!(snap.stats.deliveries_started, 1);
    shared.with(|c| {
        assert_eq!(c.sent().len(), 1);
        assert!(c.sent()[0].2.contains("Sensor ON"));
    });
}

#[tokio::test(start_paused = true)]
async fn rules_never_absorb_unregistered_users() {
    use simba_rules::{RuleEngine, RuleSpec, RulesConfig, SharedRuleEngine};

    let engine: SharedRuleEngine =
        Arc::new(RuleEngine::open(RulesConfig::in_memory()).unwrap());
    engine
        .upsert("mallory", None, RuleSpec::suppress("mute", "source == \"aladdin-gw\""))
        .unwrap();
    let config = ShardedHostConfig { rules: Some(engine.clone()), ..test_config(2) };
    let shared = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, _notices) =
        ShardedHost::new(shared, config, factory(), Telemetry::disabled()).unwrap();
    host.register(UserId::new("alice")).await;
    // Mallory has a suppress rule but no registration: still unrouted.
    host.submit_im(&UserId::new("mallory"), sensor_alert("Sensor ON")).await;
    tokio::time::sleep(Duration::from_millis(10)).await;
    let snap = host.snapshot().await;
    assert_eq!(snap.unrouted, 1);
    assert_eq!(snap.stats.received_im, 0);
    host.shutdown().await;
}

/// Presence-aware routing with each shard worker on its own OS thread:
/// the store is read from the worker threads while the test publishes
/// from this one, and the notice stream crosses back.
#[test]
fn presence_fact_steers_routing_on_threaded_shards() {
    use simba_store::{SoftStateStore, StoreConfig, PRESENCE_SCOPE};

    tokio::runtime::block_on(async {
        let store = SoftStateStore::new(StoreConfig::default(), Telemetry::disabled());
        let config = ShardedHostConfig {
            threads: true,
            store: Some(store.clone()),
            ..test_config(2)
        };
        let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(5)));
        let (host, mut notices) =
            ShardedHost::new(shared.clone(), config, factory(), Telemetry::disabled()).unwrap();
        let (alice, bob) = (UserId::new("alice"), UserId::new("bob"));
        host.register_many(vec![alice.clone(), bob.clone()]).await;
        store.put(
            PRESENCE_SCOPE,
            "alice",
            "away",
            SimDuration::from_secs(600),
            "wish",
            host.clock().now(),
        );

        host.submit_im(&alice, sensor_alert("Sensor A ON")).await;
        host.submit_im(&bob, sensor_alert("Sensor B ON")).await;
        for _ in 0..2 {
            next_finished(&mut notices).await;
        }
        shared.with(|c| {
            let sent = c.sent();
            assert_eq!(sent.len(), 2, "one send each: {sent:?}");
            let to = |needle: &str| sent.iter().find(|(_, _, text)| text.contains(needle)).unwrap();
            assert_eq!(to("Sensor A").0, CommType::Email, "away: alice's IM block is skipped");
            assert_eq!(to("Sensor B").0, CommType::Im, "bob has no fact: static profile");
        });
        let snap = host.shutdown().await;
        assert_eq!(snap.stats.mode_overridden, 1);
        assert_eq!(snap.stats.deliveries_started, 2);
    });
}
