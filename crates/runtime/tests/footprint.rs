//! What one user costs the host, pinned: live requested heap bytes per
//! resident buddy and per hibernated user, read off the counting global
//! allocator in `common`.

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
        assert_eq!((snap.active, snap.tracked), (USERS, 0));
        assert_eq!(snap.stats.deliveries_started, USERS as u64);
        while notices.try_recv().is_ok() {}
        let per_buddy = (heap().0 - registered) / USERS as isize;
        assert!(per_buddy <= 3_072, "{per_buddy} B per idle resident buddy");

        for user in &users {
            assert!(host.force_hibernate(user).await);
        }
        assert_eq!(host.snapshot().await.hibernated, USERS);
        let per_parked = (heap().0 - registered) / USERS as isize;
        assert!(per_parked <= 96, "{per_parked} B per hibernated user");
        println!("footprint: {per_buddy} B per resident buddy, {per_parked} B per hibernated user");
        host.shutdown().await;
    });
}
