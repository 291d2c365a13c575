//! What one user costs the host, pinned: live requested heap bytes per
//! resident buddy and per hibernated user, read off the counting global
//! allocator in `common`. `make footprint` prints the two figures.

mod common;

use common::{heap, user_config};
use simba_core::address::CommType;
use simba_core::subscription::UserId;
use simba_core::{IncomingAlert, Telemetry};
use simba_runtime::{Channels, ConfigFactory, SendOutcome, ShardedHost, ShardedHostConfig};
use simba_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// A channel that accepts everything and keeps nothing.
#[derive(Clone)]
struct Null;

impl Channels for Null {
    fn send(&mut self, _: CommType, _: &str, _: &str) -> SendOutcome {
        SendOutcome::Accepted
    }
}

/// The two host sizes measured: a per-user cost shows as the difference
/// between them.
const USERS: [usize; 2] = [500, 2_000];

/// What hibernating every user leaves on the heap once its roster is
/// registered: the worker's own scratch, a fixed ≈ 2.9 KiB. A parked
/// user is its roster slot and nothing else, so this holds at both sizes;
/// a cost of even 1 B per parked user breaks it at the larger.
const PARKED_FIXED: isize = 4_096;

/// Live heap bytes per idle resident buddy, and what is left with every
/// user hibernated, for a one-shard host of `users` users.
fn measure(users: usize) -> (isize, isize) {
    tokio::runtime::block_on(async move {
        let config = ShardedHostConfig {
            shards: 1,
            hibernate_after: SimDuration::ZERO,
            ..ShardedHostConfig::default()
        };
        let factory: ConfigFactory = Arc::new(user_config);
        let (host, mut notices) =
            ShardedHost::new(Null, config, factory, Telemetry::disabled()).unwrap();
        let users: Vec<UserId> = (0..users).map(|i| UserId::new(format!("u{i:06}"))).collect();
        host.register_many(users.clone()).await;
        assert_eq!(host.snapshot().await.users, users.len());
        let registered = heap().0;

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
        assert_eq!((snap.active, snap.tracked), (users.len(), 0));
        assert_eq!(snap.stats.deliveries_started, users.len() as u64);
        while notices.try_recv().is_ok() {}
        let per_buddy = (heap().0 - registered) / users.len() as isize;

        for user in &users {
            assert!(host.force_hibernate(user).await);
        }
        assert_eq!(host.snapshot().await.hibernated, users.len());
        let left = heap().0 - registered;
        host.shutdown().await;
        (per_buddy, left)
    })
}

#[test]
fn a_resident_buddy_and_a_hibernated_user_stay_within_their_budgets() {
    let [(_, left_small), (per_buddy, left_large)] = USERS.map(measure);
    assert!(per_buddy <= 3_072, "{per_buddy} B per idle resident buddy");
    for (users, left) in USERS.into_iter().zip([left_small, left_large]) {
        assert!(left <= PARKED_FIXED, "{left} B left with {users} users hibernated");
    }
    let per_parked = (left_large - left_small) / (USERS[1] - USERS[0]) as isize;
    println!(
        "footprint: {per_buddy} B per resident buddy ({} users); hibernated: {left_small} B \
         left at {} users, {left_large} B at {}, {per_parked} B per user",
        USERS[1], USERS[0], USERS[1]
    );
}
