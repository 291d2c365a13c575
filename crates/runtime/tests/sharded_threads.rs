//! Multi-thread stress test for the sharded host: ≥4 shards on real OS
//! threads under real interleavings (not the deterministic paused shim),
//! with crashes injected and hibernation forced mid-traffic. Asserts the
//! per-buddy crash contract and the zero-accepted-then-lost ledger that
//! `sharded_host.rs` pins single-threaded.
//!
//! Seeded: which users crash, which hibernate, and the alert order are
//! all drawn from a fixed-seed LCG, so reruns explore the same injected
//! fault plan against fresh thread interleavings.

use simba_core::address::{Address, AddressBook, CommType};
use simba_core::classify::{Classifier, KeywordField};
use simba_core::mode::DeliveryMode;
use simba_core::rejuvenate::RejuvenationPolicy;
use simba_core::subscription::{SubscriptionRegistry, UserId};
use simba_core::{IncomingAlert, MabConfig, Telemetry};
use simba_runtime::{
    ConfigFactory, LoopbackChannels, SharedChannels, ShardedHost, ShardedHostConfig,
};
use simba_sim::{SimDuration, SimTime};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 42;
const USERS: usize = 48;
const WAVES: usize = 6;
const CRASH_INJECTIONS: usize = 5;

/// Deterministic fault-plan randomness (the interleavings stay real).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

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

#[test]
fn threaded_shards_keep_the_ledger_under_crashes_and_hibernation() {
    const { assert!(WAVES >= 2 && USERS >= 8) };
    let config = ShardedHostConfig {
        shards: 4,
        threads: true,
        // Short idle threshold so buddies hibernate between waves and
        // later waves rehydrate them mid-run.
        hibernate_after: SimDuration::from_millis(30),
        ..ShardedHostConfig::default()
    };
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(1)));
    let total = tokio::runtime::block_on(async move {
        let (host, _notices) =
            ShardedHost::new(shared, config, factory(), Telemetry::disabled()).unwrap();
        let users: Vec<UserId> = (0..USERS).map(|i| UserId::new(format!("user{i:03}"))).collect();
        host.register_many(users.clone()).await;

        let mut rng = Lcg(SEED);
        let mut crashed: Vec<UserId> = Vec::new();
        let mut submitted = 0u64;
        for wave in 0..WAVES {
            // Mid-traffic fault injection: at the second wave, pick the
            // crash victims; their next processed-mark fails, which must
            // crash exactly that buddy and replay its record.
            if wave == 1 {
                while crashed.len() < CRASH_INJECTIONS {
                    let victim = users[rng.pick(USERS)].clone();
                    if !crashed.contains(&victim) {
                        host.inject_mark_failure(&victim).await;
                        crashed.push(victim);
                    }
                }
            }
            // Shuffled submission order, seeded.
            let mut order: Vec<usize> = (0..USERS).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.pick(i + 1));
            }
            for index in order {
                let user = &users[index];
                assert!(
                    host.submit_im(user, sensor_alert(&format!("Sensor w{wave} ON"))).await,
                    "accepted submissions must reach a live shard"
                );
                submitted += 1;
            }
            // Force a few hibernation attempts mid-traffic: busy buddies
            // must refuse, idle ones park and rehydrate on the next wave.
            for _ in 0..4 {
                let user = &users[rng.pick(USERS)];
                let _ = host.force_hibernate(user).await;
            }
            tokio::time::sleep(Duration::from_millis(60)).await;
        }

        // Drain: real threads, so poll until every delivery retired.
        let mut snap = host.snapshot().await;
        let mut tries = 0;
        while (snap.in_flight > 0 || snap.stats.received_im < submitted) && tries < 400 {
            tokio::time::sleep(Duration::from_millis(10)).await;
            snap = host.snapshot().await;
            tries += 1;
        }
        let final_snap = host.shutdown().await;

        // Per-buddy crash contract: every injected mark failure crashed
        // exactly one buddy (never the shard), and each crashed buddy's
        // record replayed on a fresh incarnation.
        assert_eq!(final_snap.crashes, CRASH_INJECTIONS as u64, "{final_snap:?}");
        assert_eq!(final_snap.stats.replayed, CRASH_INJECTIONS as u64, "{final_snap:?}");
        assert_eq!(final_snap.users, USERS);

        // Zero accepted-then-lost: every accepted alert was processed
        // (received), appended durably, and processed-marked — a crash
        // delays a mark (replay re-marks it), it never loses one.
        assert_eq!(final_snap.stats.received_im, submitted, "{final_snap:?}");
        assert_eq!(final_snap.log.appends, submitted, "{final_snap:?}");
        assert_eq!(final_snap.log.marks, submitted, "{final_snap:?}");
        assert_eq!(final_snap.unrouted, 0);
        assert_eq!(final_snap.in_flight, 0);

        // Every alert's delivery retired acknowledged; a crashed-mid-
        // flight delivery may retire in both incarnations (the user-side
        // dedup absorbs the duplicate send), never zero.
        assert!(
            final_snap.acked >= submitted
                && final_snap.acked <= submitted + CRASH_INJECTIONS as u64,
            "acked {} outside [{submitted}, {}]",
            final_snap.acked,
            submitted + CRASH_INJECTIONS as u64
        );

        // Hibernation really happened mid-traffic and traffic came back.
        assert!(final_snap.hibernations >= 1, "{final_snap:?}");
        assert!(final_snap.rehydrations >= 1, "{final_snap:?}");
        submitted
    });
    assert_eq!(total, (USERS * WAVES) as u64);
}
