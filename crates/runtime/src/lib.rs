//! `simba-runtime` — a tokio-based live runtime for SIMBA.
//!
//! The deterministic simulation in `simba-sim` drives the evaluation; this
//! crate drives the *same* core state machines ([`simba_core::MyAlertBuddy`],
//! [`simba_core::DeliveryProcess`]) against real time: a long-running MAB
//! service task, channel adapters, tokio timers for delivery ack windows,
//! and a watchdog task playing the MDC role.
//!
//! Nothing in `simba-core` knows about tokio — the service here simply
//! maps wall-clock instants onto [`simba_sim::SimTime`] through
//! [`RuntimeClock`] and feeds events in. That is the architectural payoff
//! of keeping the core event-driven: one implementation, two drivers.
//!
//! [`MabService`] + [`run_watchdog`] are the paper's single-buddy shape
//! (one MyAlertBuddy under its MDC). Deployments host many buddies on
//! one [`ShardedHost`]: a fixed pool of shard workers multiplexing
//! thousands of buddies each over group-committed shard logs, routing
//! alerts to the owning buddy, retiring terminal deliveries so fleet
//! state stays bounded, and hibernating idle buddies to compact
//! snapshots so memory tracks *active* users rather than registered
//! ones. Rules, the delivery ledger and the soft-state store all attach
//! there, through [`ShardedHostConfig`].
//!
//! ```no_run
//! use simba_runtime::{LoopbackChannels, MabService, RuntimeNotice};
//! use simba_core::{IncomingAlert, MabConfig};
//! use simba_sim::SimTime;
//!
//! # async fn demo(config: MabConfig) {
//! let channels = LoopbackChannels::always_ack(std::time::Duration::from_millis(400));
//! let (service, handle, mut notices) = MabService::new(config, channels);
//! tokio::spawn(service.run());
//! handle
//!     .submit_im_alert(IncomingAlert::from_im("aladdin-gw", "Basement Water Sensor ON", SimTime::ZERO))
//!     .await;
//! while let Some(notice) = notices.recv().await {
//!     if let RuntimeNotice::DeliveryFinished { status, .. } = notice {
//!         println!("delivered: {status:?}");
//!         break;
//!     }
//! }
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channels;
mod clock;
mod ledger_bridge;
mod presence;
mod service;
mod shard;
mod watchdog;

pub use channels::{Channels, LoopbackChannels, SendOutcome, SharedChannels};
pub use clock::RuntimeClock;
pub use ledger_bridge::{
    shared_filter, LedgerChannelBridge, SharedFilter, DEFAULT_DEDUPE_CAPACITY,
};
pub use shard::{
    ConfigFactory, HostNotice, ShardedHost, ShardedHostConfig, ShardedSnapshot,
    DEFAULT_NOTICE_CAPACITY,
};
pub use presence::{chanhealth_key, StoreModeSelector, HEALTHY_VALUE};
pub use service::{MabHandle, MabService, RuntimeNotice, ServiceSnapshot};
pub use watchdog::{run_watchdog, run_watchdog_observed, WatchdogReport};
