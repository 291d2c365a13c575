//! `simba-ledger` — the durable delivery ledger: a leased work queue
//! with retry, backoff, and idempotency keys.
//!
//! SIMBA's §4.2.1 dependability story ("durable before ack, recover by
//! replay") historically lived in per-shard WALs that only the owning
//! buddy could replay. The ledger generalizes it, modelled on the Trace
//! delivery service: one durable [`LedgerRecord`] per `(delivery,
//! channel, address)` attempt, which any worker can *lease*, send, and record an
//! outcome on. Crash-recovery becomes "any worker resumes any lease"
//! instead of "replay one buddy's WAL" — the precondition for running
//! several host processes against shared delivery state.
//!
//! # Record lifecycle
//!
//! ```text
//! Pending ──lease──▶ Leased ──sent──▶ Sent (terminal, compacted away)
//!    ▲                 │
//!    │                 ├──failed, attempts < max──▶ Retrying (backoff)
//!    │                 │                               │ not_before due
//!    │                 │                               ▼
//!    │                 │                        (leased again)
//!    │                 └──failed, attempts ≥ max──▶ DeadLettered (bounded DLQ)
//!    └────────── lease expired: any worker reclaims ──────┘
//! ```
//!
//! A failed send is transient: it resolves to `Retrying` (exponential
//! backoff with deterministic jitter) or `DeadLettered` (after
//! [`LedgerConfig::max_attempts`]). The dead-letter queue is bounded;
//! operators requeue it with `simba-cli ledger retry`.
//!
//! # Delivery guarantees
//!
//! Internal execution is **at-least-once**: a worker that dies between
//! send and outcome leaves a lease that expires and is re-leased, so the
//! external send may happen twice. Every outbound send therefore carries
//! the record's stable **idempotency key**
//! (`user/delivery/channel/address` — stamped at enqueue, identical
//! across every retry and re-lease), and channel adapters dedupe on it
//! (`runtime::LedgerChannelBridge`, through a
//! `simba_core::horizon::Horizon`), making the *visible* effect
//! exactly-once. An adapter holds a key only while its record is in
//! flight: the worker tells it when the ledger closes the record
//! ([`LedgerChannels::concluded`]). The worker pool runs every worker on the caller's
//! executor, which keeps an adapter's record → send → forget of a key
//! free of interleaving (see the `worker` module).
//!
//! # Durability
//!
//! The ledger is a record codec over [`simba_core::journal`], which owns
//! segments, framing and checksums, group commit
//! ([`DeliveryLedger::commit`]), rotation behind a guarded snapshot, and
//! torn-tail repair; the record shapes are in the `ledger` module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ledger;
mod worker;

pub use ledger::{
    DeliveryLedger, Lease, LeasedWork, LedgerConfig, LedgerCounts, LedgerError, LedgerRecord,
    LedgerStats, RecordState, SharedLedger, WorkerId, DEFAULT_SEGMENT_MAX_BYTES,
};
pub use worker::{
    ChannelResult, LedgerChannels, LedgerClock, LedgerWorkerPool, PoolStats, WorkerPoolConfig,
};
