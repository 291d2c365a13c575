//! `simba-runtime` — a tokio-based live runtime for SIMBA.
//!
//! The deterministic simulation in `simba-sim` drives the evaluation; this
//! crate drives the *same* core state machines ([`simba_core::MyAlertBuddy`],
//! [`simba_core::DeliveryProcess`]) against real time: shard workers,
//! channel adapters, and a timer wheel for delivery ack windows.
//!
//! Nothing in `simba-core` knows about tokio — a shard worker simply maps
//! wall-clock instants onto [`simba_sim::SimTime`] through
//! [`RuntimeClock`] and feeds events in. That is the architectural payoff
//! of keeping the core event-driven: one implementation, two drivers —
//! the simulator and the shard worker.
//!
//! Every buddy lives on a [`ShardedHost`]: a fixed pool of shard workers
//! multiplexing thousands of buddies each over group-committed shard
//! logs, routing alerts to the owning buddy, retiring each delivery when
//! its staged end runs after the commit that covers it (so fleet state
//! stays bounded and nothing is reported before it is durable), and
//! hibernating idle buddies so memory
//! tracks *active* users rather than registered ones. The worker is also
//! the live Master Daemon Controller: it restarts a crashed buddy and
//! replays its log, and parks a rejuvenating one once it is idle (the
//! paper's probing MDC is reproduced in the simulator, `simba_core::mdc`).
//! One shard with hibernation off is the single-buddy shape. Rules, the
//! delivery ledger and the soft-state store all attach through
//! [`ShardedHostConfig`].
//!
//! ```no_run
//! use simba_runtime::{LoopbackChannels, RuntimeNotice, ShardedHost, ShardedHostConfig};
//! use simba_core::subscription::UserId;
//! use simba_core::{IncomingAlert, MabConfig, Telemetry};
//! use simba_sim::{SimDuration, SimTime};
//! use std::sync::Arc;
//!
//! # async fn demo(config: MabConfig) {
//! let channels = simba_runtime::SharedChannels::new(LoopbackChannels::always_ack(
//!     std::time::Duration::from_millis(400),
//! ));
//! let one_buddy = ShardedHostConfig {
//!     shards: 1,
//!     hibernate_after: SimDuration::ZERO,
//!     ..ShardedHostConfig::default()
//! };
//! let factory = Arc::new(move |_: &UserId| config.clone());
//! let (host, mut notices) =
//!     ShardedHost::new(channels, one_buddy, factory, Telemetry::disabled()).unwrap();
//! let alice = UserId::new("alice");
//! host.register(alice.clone()).await;
//! host.submit_im(
//!     &alice,
//!     IncomingAlert::from_im("aladdin-gw", "Basement Water Sensor ON", SimTime::ZERO),
//! )
//! .await;
//! while let Some(notice) = notices.recv().await {
//!     if let RuntimeNotice::DeliveryFinished { status, .. } = notice.notice {
//!         println!("delivered: {status:?}");
//!         break;
//!     }
//! }
//! host.shutdown().await;
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channels;
mod clock;
mod ledger_bridge;
mod presence;
mod shard;

pub use channels::{Channels, LoopbackChannels, SendOutcome, SharedChannels};
pub use clock::RuntimeClock;
pub use ledger_bridge::{
    shared_filter, BridgeFilter, LedgerChannelBridge, SharedFilter, DEFAULT_DEDUPE_CAPACITY,
};
pub use shard::{
    ConfigFactory, HostNotice, RuntimeNotice, ShardedHost, ShardedHostConfig, ShardedSnapshot,
    DEFAULT_NOTICE_CAPACITY,
};
pub use presence::{chanhealth_key, HEALTHY_VALUE};
