//! What one user costs the host, pinned: live requested heap bytes per
//! resident buddy and per hibernated user, read off a counting global
//! allocator. Its own test binary with a single `#[test]`, so nothing
//! else allocates while it counts.

use simba_core::address::{Address, AddressBook, CommType};
use simba_core::classify::{Classifier, KeywordField};
use simba_core::mode::{Block, DeliveryMode};
use simba_core::rejuvenate::RejuvenationPolicy;
use simba_core::subscription::{SubscriptionRegistry, UserId};
use simba_core::{IncomingAlert, MabConfig, Telemetry};
use simba_runtime::{Channels, ConfigFactory, SendOutcome, ShardedHost, ShardedHostConfig};
use simba_sim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

/// Requested bytes currently allocated.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic and publishes
// no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A channel that accepts everything and keeps nothing.
#[derive(Clone)]
struct Null;

impl Channels for Null {
    fn send(&mut self, _: CommType, _: &str, _: &str) -> SendOutcome {
        SendOutcome::Accepted
    }
}

/// E11's `user_config` shape: three accepted sources, one keyword, one
/// IM address, one fire-and-forget mode, one subscription.
fn user_config(user: &UserId) -> MabConfig {
    let mut classifier = Classifier::new();
    for source in ["bench-normal", "bench-flap", "bench-chatty"] {
        classifier.accept_source(source, KeywordField::Body, "cfg");
    }
    classifier.map_keyword("Sensor", "Home");
    let mut registry = SubscriptionRegistry::new();
    let profile = registry.register_user(user.clone());
    let mut book = AddressBook::new();
    book.add(Address::new("IM", CommType::Im, format!("im:{}", user.0))).unwrap();
    profile.address_book = book;
    profile.define_mode(
        DeliveryMode::new("Direct", vec![Block::fire_and_forget(vec!["IM".into()])]).unwrap(),
    );
    registry.subscribe("Home", user.clone(), "Direct").unwrap();
    MabConfig { classifier, registry, rejuvenation: RejuvenationPolicy::default() }
}

const USERS: usize = 2_000;

#[test]
fn a_resident_buddy_and_a_hibernated_user_stay_within_their_budgets() {
    tokio::runtime::block_on(async {
        let config = ShardedHostConfig {
            shards: 1,
            hibernate_after: SimDuration::ZERO,
            ..ShardedHostConfig::default()
        };
        let factory: ConfigFactory = Arc::new(user_config);
        let (host, mut notices) =
            ShardedHost::new(Null, config, factory, Telemetry::disabled()).unwrap();
        let users: Vec<UserId> = (0..USERS).map(|i| UserId::new(format!("u{i:06}"))).collect();
        host.register_many(users.clone()).await;
        assert_eq!(host.snapshot().await.users, USERS);
        let registered = LIVE.load(Ordering::Relaxed);

        // One alert at a time, each behind a `snapshot` round trip and
        // with its notices read, so neither the shard's inbound queue nor
        // the notice stream grows a buffer that would be counted against
        // the buddies.
        for user in &users {
            let alert = IncomingAlert::from_im("bench-normal", "Sensor ON", SimTime::ZERO);
            assert!(host.submit_im(user, alert).await);
            host.snapshot().await;
            while notices.try_recv().is_ok() {}
        }
        // Once more: a snapshot can share its batch with the alert before
        // it, whose send runs (and delivery retires) when the batch ends.
        let snap = host.snapshot().await;
        assert_eq!((snap.active, snap.tracked), (USERS, 0));
        assert_eq!(snap.stats.deliveries_started, USERS as u64);
        while notices.try_recv().is_ok() {}
        let per_buddy = (LIVE.load(Ordering::Relaxed) - registered) / USERS as isize;
        assert!(per_buddy <= 3_072, "{per_buddy} B per idle resident buddy");

        for user in &users {
            assert!(host.force_hibernate(user).await);
        }
        assert_eq!(host.snapshot().await.hibernated, USERS);
        let per_parked = (LIVE.load(Ordering::Relaxed) - registered) / USERS as isize;
        assert!(per_parked <= 96, "{per_parked} B per hibernated user");
        println!("footprint: {per_buddy} B per resident buddy, {per_parked} B per hibernated user");
        host.shutdown().await;
    });
}
