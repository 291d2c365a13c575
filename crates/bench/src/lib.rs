//! `simba-bench` — the experiment harness reproducing the SIMBA evaluation.
//!
//! The library half hosts the reusable pieces; `src/bin/exp.rs` is the one
//! runner over the [`experiments`] table (see `DESIGN.md` §5 and
//! `EXPERIMENTS.md`):
//!
//! * [`harness`] — the end-to-end pipeline world: alert sources → IM/email
//!   channels → MyAlertBuddy (with its client managers, watchdog,
//!   self-stabilization, rejuvenation) → the user's devices and eyes, all
//!   inside the deterministic `simba-sim` engine;
//! * [`faultlog`] — the 30-day fault-injection campaign behind experiment
//!   E5 (the paper's one-month recovery log);
//! * [`report`] — table formatting shared by the experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod faultlog;
pub mod harness;
pub mod report;
