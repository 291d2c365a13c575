//! `simba-core` — the SIMBA library and MyAlertBuddy.
//!
//! This crate implements the paper's primary contribution (§3–§4):
//!
//! * the **subscription layer** — user [`address`] books, personal alert
//!   categories, personalized [`mode`]s (delivery modes), and the
//!   [`subscription`] registry mapping categories to `(user, mode)` pairs,
//!   all expressible as XML documents per §4.1;
//! * the **delivery layer** — the [`delivery`] state machine that executes
//!   a delivery mode block by block: fire every enabled action in a block,
//!   await acknowledgement within the block's timeout, and fall back to the
//!   next block on failure (§3.2);
//! * **MyAlertBuddy** ([`mab`]) — the per-user personal alert router:
//!   [`classify`] (accepted sources + keyword extraction), aggregation and
//!   filtering (keyword → personal category and sub-categorization), and
//!   routing to every subscriber of the category (§4.2);
//! * the **fault-tolerance stack** that keeps MyAlertBuddy highly available
//!   (§4.2.1): [`wal`] (pessimistic logging: the record and its
//!   codec helpers), [`journal`] (the one durable log every file-backed
//!   component writes through) and [`shardlog`] (every buddy's WAL over
//!   it, in memory or on disk), [`mdc`] (the Master Daemon
//!   Controller watchdog), [`stabilize`] (self-stabilization invariant
//!   checks), [`rejuvenate`] (software rejuvenation policy), and
//!   [`horizon`] (the one bounded first-seen set: timestamp-based
//!   duplicate suppression at the user, idempotent sends, rule dedupe).
//!
//! Everything here is an event-driven state machine over
//! [`simba_sim::SimTime`]: the same code runs under the deterministic
//! simulation harness (experiments) and under the tokio live runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod alert;
pub mod classify;
pub mod delivery;
pub mod horizon;
pub mod journal;
pub mod mab;
pub mod mdc;
pub mod mode;
pub mod profile_xml;
pub mod rejuvenate;
pub mod routing;
pub mod shardlog;
pub mod stabilize;
pub mod subscription;
pub(crate) mod vecmap;
pub mod wal;

pub use address::{Address, AddressBook, CommType};
pub use alert::{Alert, AlertId, DigestAlert, IncomingAlert, Urgency};
pub use classify::{Classifier, KeywordField};
pub use delivery::{
    AttemptId, DeliveryCommand, DeliveryEvent, DeliveryProcess, DeliveryStatus, SendFailure,
};
pub use horizon::Horizon;
pub use mab::{MabCommand, MabConfig, MabEvent, MyAlertBuddy};
pub use mdc::{MasterDaemonController, MdcAction, MdcConfig};
pub use mode::{AckPolicy, Block, DeliveryMode};
pub use profile_xml::{registry_from_xml, registry_to_xml, RegistryXmlError};
pub use rejuvenate::{RejuvenationPolicy, RejuvenationTrigger};
pub use routing::{apply_routing, ModeSelector, PresenceHint, RoutingContext};
pub use shardlog::{ShardLog, ShardLogConfig, ShardLogStats};
pub use subscription::{Subscription, SubscriptionRegistry, UserId};
pub use wal::{WalError, WalRecord};

// Components take a `Telemetry` via `with_telemetry(..)`; re-exported so
// embedders don't need a direct `simba-telemetry` dependency.
pub use simba_telemetry::Telemetry;
