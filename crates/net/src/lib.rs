//! `simba-net` — simulated communication substrates for SIMBA.
//!
//! The paper's delivery channels were real services: MSN Instant Messenger,
//! corporate SMTP email, and a cell carrier's SMS gateway. This crate
//! provides their synthetic equivalents (DESIGN.md §2), modelling exactly
//! the *observable* properties SIMBA depends on:
//!
//! * [`im`] — an IM service with accounts, logon sessions, presence,
//!   per-pair message sequence numbers, sub-second delivery latency,
//!   scheduled outages, and forced logouts on server recovery (§3.1, §5).
//! * [`email`] — a store-and-forward email service whose delivery time
//!   "can range from seconds to days" (§3.1): Pareto-tailed latency plus
//!   outright loss.
//! * [`sms`] — an SMS gateway with carrier queueing delay, coverage areas,
//!   and phone battery state (§2.3, §3.3).
//! * [`presence`] — where the user is and whether a message that reached a
//!   device is actually *seen and acknowledged* by the human, which is what
//!   end-to-end dependability means in this paper.
//!
//! Shared building blocks: [`latency`] (delay distributions), [`loss`]
//! (drop processes including a Gilbert–Elliott burst model), and
//! [`outage`] (service up/down schedules). Each service optionally
//! records per-channel sends, rejections, losses, and transit latency
//! through an [`observe::ChannelScope`] (install one with
//! `with_telemetry`).
//!
//! All types are pure state machines over virtual time: a `send` returns
//! either a failure or a "deliver after `d`" instruction; the simulation
//! harness owns the event queue and schedules the arrival.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod email;
pub mod im;
pub mod latency;
pub mod loss;
pub mod outage;
pub mod observe;
pub mod presence;
pub mod sms;

pub use latency::LatencyModel;
pub use loss::LossModel;
pub use observe::ChannelScope;
pub use outage::OutageSchedule;
