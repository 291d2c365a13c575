//! `simba-gateway` — the alert ingestion gateway: a framed TCP front
//! door with admission control and load shedding.
//!
//! The paper's MyAlertBuddy sits "interposed between all alert sources
//! and the user" (§3), but everything upstream of
//! [`simba_runtime::ShardedHost`] in this reproduction was in-process
//! until now. This crate is the wire:
//!
//! * [`proto`] — a versioned, length-prefixed, CRC-32-checked binary
//!   frame protocol carrying alert submissions, acks/nacks with reasons,
//!   health probes, soft-state facts, and user alert-rule management
//!   (see [`rulewire`] for the wire ↔ engine conversions);
//! * [`GatewayServer`] — a `std::net` TCP listener (thread-per-acceptor
//!   plus a small worker pool; the vendored tokio shim has no `net`, see
//!   `DESIGN.md` §10) with staged admission control: per-connection
//!   in-flight caps, per-source token buckets ([`admission`]), and the
//!   bounded global intake queue — overload is shed with explicit
//!   nack-plus-retry-after, never by stalling, and every drop is counted
//!   (`gateway.shed`, `gateway.decode_err`, `gateway.idle_closed`);
//! * [`GatewayClient`] — a blocking client with reconnect and bounded
//!   retry (at-least-once submission);
//! * [`pump_into_sharded_host`] — the bridge draining admitted
//!   submissions into the host running on the tokio-shim runtime.
//!
//! The contract the whole stack hangs off: **a submission is acked only
//! after it sits in the bounded intake queue, and the queue is fully
//! drained into the host before shutdown** — so an accepted alert is
//! never lost short of process death, and a rejected one always shows up
//! in a counter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
mod bridge;
mod client;
pub mod proto;
pub mod rulewire;
mod server;

pub use admission::{RateLimit, TokenBuckets};
pub use bridge::{
    intake, pump_into_sharded_host, IntakeReceiver, IntakeSender, PumpReport,
    Submission,
};
pub use client::{ClientError, GatewayClient, StateFact, SubmitResult};
pub use proto::{Frame, FrameError, NackReason, ProbeStats, WireChannel, WireRule};
pub use server::{GatewayConfig, GatewayServer};
