//! Presence-aware routing end to end on the host: presence facts
//! published into the soft-state store (`ShardedHostConfig::store`)
//! change a delivery's block order, and once the facts expire the buddy
//! reverts to static-profile routing — with every alert delivered
//! exactly once either way.

use simba_core::address::{Address, AddressBook, CommType};
use simba_core::classify::{Classifier, KeywordField};
use simba_core::mode::DeliveryMode;
use simba_core::rejuvenate::RejuvenationPolicy;
use simba_core::subscription::{SubscriptionRegistry, UserId};
use simba_core::{IncomingAlert, MabConfig};
use simba_runtime::{
    ConfigFactory, HostNotice, LoopbackChannels, RuntimeNotice, SharedChannels, ShardedHost,
    ShardedHostConfig,
};
use simba_sim::{SimDuration, SimTime};
use simba_store::{SoftStateStore, StoreConfig, PRESENCE_SCOPE};
use simba_telemetry::{RingBufferSink, Telemetry};
use std::sync::Arc;
use std::time::Duration;

fn alice_config() -> MabConfig {
    let mut classifier = Classifier::new();
    classifier.accept_source("aladdin-gw", KeywordField::Body, "cfg");
    classifier.map_keyword("Sensor", "Home");
    let mut registry = SubscriptionRegistry::new();
    let user = UserId::new("alice");
    let profile = registry.register_user(user.clone());
    let mut book = AddressBook::new();
    book.add(Address::new("IM", CommType::Im, "im:alice")).expect("unique");
    book.add(Address::new("EM", CommType::Email, "alice@mail")).expect("unique");
    profile.address_book = book;
    profile.define_mode(DeliveryMode::im_then_email(
        "Urgent",
        "IM",
        "EM",
        SimDuration::from_secs(60),
    ));
    registry.subscribe("Home", user, "Urgent").expect("subscribed");
    MabConfig { classifier, registry, rejuvenation: RejuvenationPolicy::default() }
}

/// A host for alice alone, reading presence facts from `store`.
async fn host_with_store(
    channels: SharedChannels<LoopbackChannels>,
    store: &SoftStateStore,
    config: MabConfig,
    telemetry: Telemetry,
) -> (ShardedHost, tokio::sync::mpsc::Receiver<HostNotice>) {
    let host_config = ShardedHostConfig { store: Some(store.clone()), ..ShardedHostConfig::default() };
    let factory: ConfigFactory = Arc::new(move |_: &UserId| config.clone());
    let (host, notices) =
        ShardedHost::new(channels, host_config, factory, telemetry).expect("in-memory shard logs");
    host.register(UserId::new("alice")).await;
    (host, notices)
}

async fn wait_finished(notices: &mut tokio::sync::mpsc::Receiver<HostNotice>) {
    loop {
        let HostNotice { notice, .. } = notices.recv().await.expect("notice stream alive");
        if matches!(notice, RuntimeNotice::DeliveryFinished { .. }) {
            return;
        }
    }
}

/// The flagship scenario: with a live `presence/alice = away` fact the
/// IM block is skipped (first and only send goes to email); after the
/// fact's TTL has elapsed the next delivery runs the static IM-first
/// profile again. Each alert is sent exactly once.
#[tokio::test(start_paused = true)]
async fn presence_fact_reorders_blocks_then_expiry_restores_static_profile() {
    let telemetry = Telemetry::with_sink(Arc::new(RingBufferSink::new(512)));
    let channels = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(200)));
    let store = SoftStateStore::new(StoreConfig::default(), telemetry.clone());

    let (host, mut notices) =
        host_with_store(channels.clone(), &store, alice_config(), telemetry.clone()).await;

    // WISH reports alice away from her desk, valid for five seconds.
    store.put(
        PRESENCE_SCOPE,
        "alice",
        "away",
        SimDuration::from_secs(5),
        "wish",
        host.clock().now(),
    );

    // Delivery 1 starts while the fact is live: the IM block is skipped,
    // the alert goes straight (and only) to email.
    let alert1 = IncomingAlert::from_im("aladdin-gw", "Sensor A ON", SimTime::ZERO);
    assert!(host.submit_im(&UserId::new("alice"), alert1).await);
    wait_finished(&mut notices).await;
    channels.with(|c| {
        let sent = c.sent().to_vec();
        assert_eq!(sent.len(), 1, "exactly one send for alert 1: {sent:?}");
        assert_eq!(sent[0].0, CommType::Email, "away presence skips the IM block");
        assert_eq!(sent[0].1, "alice@mail");
    });

    // Let the fact decay: past its 5 s TTL the sweeper (period 1 s) or a
    // lazy read drops it, and routing must revert to the static profile.
    tokio::time::sleep(Duration::from_secs(6)).await;
    assert!(
        store.get(PRESENCE_SCOPE, "alice", host.clock().now()).is_none(),
        "presence fact expired"
    );

    // Delivery 2 runs IM-first again; the loopback ack completes block 1,
    // so email never fires.
    let alert2 = IncomingAlert::from_im("aladdin-gw", "Sensor B ON", SimTime::ZERO);
    assert!(host.submit_im(&UserId::new("alice"), alert2).await);
    wait_finished(&mut notices).await;
    channels.with(|c| {
        let sent = c.sent().to_vec();
        assert_eq!(sent.len(), 2, "exactly one more send for alert 2: {sent:?}");
        assert_eq!(sent[1].0, CommType::Im, "static profile restored after expiry");
        assert_eq!(sent[1].1, "im:alice");
        // Exactly-once: each alert body appears in exactly one send.
        assert_eq!(sent.iter().filter(|(_, _, text)| text.contains("Sensor A")).count(), 1);
        assert_eq!(sent.iter().filter(|(_, _, text)| text.contains("Sensor B")).count(), 1);
    });

    let stats = host.shutdown().await.stats;
    assert_eq!(stats.deliveries_started, 2, "no alert lost, none double-started");
    assert_eq!(stats.mode_overridden, 1, "only delivery 1 was presence-adjusted");

    let snap = telemetry.metrics().snapshot();
    assert_eq!(snap.counter("mab.mode_overridden"), 1);
    assert!(snap.counter("store.puts") >= 1);
    assert!(snap.counter("store.hits") >= 1);
    assert!(
        snap.counter("store.expired") >= 1,
        "the sweeper or a lazy read counted the expiry"
    );
}

/// A fact that expires *mid-delivery* does not disturb the in-flight
/// delivery (its mode was fixed at start) and the next delivery falls
/// back cleanly — nothing is lost or double-sent.
#[tokio::test(start_paused = true)]
async fn fact_expiring_mid_delivery_does_not_lose_or_duplicate() {
    use simba_core::mode::Block;

    // Urgent = IM (acked) → SMS (acked, 30 s) → email.
    let mut config = alice_config();
    let profile = config.registry.user_mut(&UserId::new("alice")).expect("alice profile");
    profile
        .address_book
        .add(Address::new("SMS", CommType::Sms, "sms:alice"))
        .expect("unique");
    profile.define_mode(
        DeliveryMode::new(
            "Urgent",
            vec![
                Block::acked(vec!["IM".into()], SimDuration::from_secs(60)),
                Block::acked(vec!["SMS".into()], SimDuration::from_secs(30)),
                Block::fire_and_forget(vec!["EM".into()]),
            ],
        )
        .expect("static mode"),
    );

    let channels = SharedChannels::new(LoopbackChannels::accept_all());
    let store = SoftStateStore::new(StoreConfig::default(), Telemetry::disabled());
    let (host, mut notices) =
        host_with_store(channels.clone(), &store, config, Telemetry::disabled()).await;

    // Away presence skips the IM block; the adjusted mode starts with the
    // acked SMS block whose 30 s window far outlives the fact's 2 s TTL.
    store.put(
        PRESENCE_SCOPE,
        "alice",
        "away",
        SimDuration::from_secs(2),
        "wish",
        host.clock().now(),
    );
    let alert = IncomingAlert::from_im("aladdin-gw", "Sensor A ON", SimTime::ZERO);
    assert!(host.submit_im(&UserId::new("alice"), alert).await);

    // accept_all never acks: SMS fires at once, the fact expires mid-wait
    // (the sweeper runs every second), the 30 s timer lapses, and email
    // concludes the delivery — the in-flight mode is unaffected by the
    // expiry, no block re-fires, and IM never fires at all.
    wait_finished(&mut notices).await;
    assert!(
        store.get(PRESENCE_SCOPE, "alice", host.clock().now()).is_none(),
        "fact expired during the delivery"
    );
    channels.with(|c| {
        let sent = c.sent().to_vec();
        assert_eq!(sent.len(), 2, "one send per adjusted block: {sent:?}");
        assert_eq!(sent[0].0, CommType::Sms, "away presence skipped IM, SMS led");
        assert_eq!(sent[1].0, CommType::Email, "email fired as the backup block");
        assert!(sent.iter().all(|(ty, _, _)| *ty != CommType::Im));
    });

    let stats = host.shutdown().await.stats;
    assert_eq!(stats.deliveries_started, 1);
    assert_eq!(stats.mode_overridden, 1);
}
