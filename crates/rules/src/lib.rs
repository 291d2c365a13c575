//! `simba-rules` — user-owned alert rules, streaming evaluation, and
//! storm correlation into digest alerts.
//!
//! The paper's MAB classifies, aggregates, and filters before delivery
//! (§4.2); this crate is that stage for the live stack, a three-part
//! pipeline sitting between gateway ingestion and routing:
//!
//! 1. **Definition** ([`rule`], [`log`]): per-user [`AlertRule`]s — a
//!    small predicate language over source/kind/body ([`predicate`]), a
//!    Deliver/Suppress/Digest action, optional severity override and
//!    dedupe-key template — bounded per user and persisted in a
//!    versioned rules log (a record codec over `simba_core::journal`),
//!    so rules survive restart.
//! 2. **Evaluation** ([`engine`]): each rule compiles once and is held
//!    once, in its owner's id-ordered list; [`RuleEngine::evaluate`]
//!    scans that list for the lowest-id enabled match — the
//!    allocation-light hot path emitting `rules.*` telemetry.
//! 3. **Correlation & digests** ([`engine`]): a windowed [`Correlator`],
//!    one per owner (a host's shard worker owns its users' windows),
//!    collapses bursts sharing a correlation key into one
//!    [`simba_core::DigestAlert`] (count, first/last timestamps,
//!    exemplar payloads) with bounded per-user pending state,
//!    deterministic flush on deadline / count cap / severity
//!    escalation, and an unconditional critical-severity cut-through —
//!    a flapping source costs one delivery, not thousands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod log;
pub mod predicate;
pub mod rule;

pub use engine::{
    view_of, Correlator, Decision, RuleEngine, RulesConfig, SharedRuleEngine, SuppressReason,
};
pub use log::{RulesError, RulesLog, RulesLogConfig, MAX_RULES_PER_USER, RULES_LOG_VERSION};
pub use predicate::{AlertView, ParseError, Predicate};
pub use rule::{
    default_correlation_key, expand_template, severity_from_name, severity_name, AlertRule,
    DigestConfig, RuleAction, RuleSpec,
};
