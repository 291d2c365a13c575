//! `simba-store` — the soft-state store behind presence-aware routing.
//!
//! The paper's evaluation (§5) integrates SIMBA with Aladdin's
//! **Soft-State Store** and the **WISH** user-location service: sensors
//! and gateways publish short-lived facts — where the user is, whether a
//! channel is healthy — and MyAlertBuddy consults them when it starts a
//! delivery, falling back to the static profile when the facts have
//! expired. This crate is that state layer:
//!
//! * a sharded, in-memory map `(scope, key) → Fact` with per-shard
//!   locking so concurrent writers and readers never serialize globally;
//! * **TTL expiry**, both lazy (an expired fact read through
//!   [`SoftStateStore::get`] is removed on the spot and never returned)
//!   and periodic (the owner drives [`SoftStateStore::sweep`] from its
//!   clock, so simulation time stays deterministic — the store itself
//!   never reads a wall clock);
//! * **bounded per-scope capacity** with LRU shedding — soft state is
//!   rediscoverable by design, so the oldest-touched fact is dropped
//!   rather than growing without bound.
//!
//! Soft state is read, never broadcast: whoever decides reads the facts
//! at the moment of deciding, and nothing subscribes to changes. Facts
//! arrive from outside the process over the gateway's `StateUpdate`
//! frame; this crate has no publisher of its own.
//!
//! Facts carry a **generation** from a store-wide monotone counter: a
//! later publication always carries a larger generation, so expiry can
//! never "resurrect" an old value — any fact observed after a removal is
//! provably newer. `crates/store/tests/` holds the property test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fact;
mod store;

pub use fact::Fact;
pub use store::{SoftStateStore, StoreConfig};

/// The scope presence facts are published under (`presence/<user>`).
pub const PRESENCE_SCOPE: &str = "presence";
/// The scope channel-health facts are published under
/// (`chanhealth/<channel>`, keys `im` / `email` / `sms`).
pub const CHANHEALTH_SCOPE: &str = "chanhealth";
/// The [`CHANHEALTH_SCOPE`] value meaning the channel is usable; any
/// other live value marks it unhealthy and demotes its delivery blocks.
pub const HEALTHY_VALUE: &str = "healthy";
