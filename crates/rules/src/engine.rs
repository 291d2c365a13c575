//! The streaming rule engine: compiled per-user matching, Deliver /
//! Suppress / Digest decisions, and the windowed storm correlator.
//!
//! Each rule compiles once, when it is upserted or replayed, and is held
//! once: in its owner's id-ordered list in the [`RulesLog`]. Evaluation
//! scans that one user's list for the first enabled match, so it costs
//! at most [`crate::MAX_RULES_PER_USER`] predicate checks and no lookup
//! beyond the user's; a mutation edits only the mutated user's list, so
//! the engine lock is held for one binary search plus the commit. When
//! several rules match, the lowest id wins — rule order is creation
//! order, which users can reason about.
//!
//! The engine's lock guards definitions (the rules log); a
//! [`Correlator`] holds what evaluation leaves behind: the dedupe horizon
//! and [`PendingDigest`] windows keyed per user and correlation key (so a
//! key template without `{user}` cannot collide two users' bursts). Each
//! host shard worker owns the correlator of its users
//! ([`RuleEngine::evaluate_in`]); [`RuleEngine::evaluate`] uses the
//! engine's own. A window flushes when its deadline passes
//! ([`Correlator::flush_due`]: the owner calls it after every batch, and
//! for every window at shutdown), when its count cap is reached, or when
//! a later alert escalates its severity. Critical alerts never wait.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use simba_core::{DigestAlert, Horizon, IncomingAlert, Urgency};
use simba_sim::{SimDuration, SimTime};
use simba_telemetry::Telemetry;

use crate::log::{RulesError, RulesLog, RulesLogConfig};
use crate::predicate::AlertView;
use crate::rule::{default_correlation_key, expand_template, AlertRule, RuleAction, RuleSpec};

/// Engine construction knobs.
#[derive(Debug, Clone, Default)]
pub struct RulesConfig {
    /// Where the rules live (see [`RulesLogConfig`]).
    pub log: RulesLogConfig,
}

/// How long a dedupe-template key suppresses repeats: a repeat at exactly
/// this long after the key was first seen is still suppressed (the
/// [`Horizon`] boundary).
const DEDUPE_WINDOW: SimDuration = SimDuration::from_secs(60);

/// Per-user bound on remembered dedupe keys (oldest evicted first).
const MAX_DEDUPE_KEYS_PER_USER: usize = 128;

/// Per-user bound on open digest windows; alerts that would open one
/// beyond the bound deliver directly instead (never silently drop).
const MAX_PENDING_DIGESTS_PER_USER: usize = 32;

impl RulesConfig {
    /// An in-memory engine (tests, benches, simulation).
    pub fn in_memory() -> Self {
        RulesConfig::default()
    }

    /// A file-backed engine persisting rules under `dir`.
    pub fn on_disk(dir: impl Into<std::path::PathBuf>) -> Self {
        RulesConfig { log: RulesLogConfig::on_disk(dir) }
    }
}

/// Why an alert was suppressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuppressReason {
    /// A suppress-rule matched.
    Rule,
    /// The matching rule's dedupe-key template expanded to a recently
    /// seen key.
    Dedupe,
}

/// What the engine decided for one alert.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Route the alert onward. `rule` is `None` when no rule matched
    /// (the default path); `severity` is the rule's override, if any.
    Deliver {
        /// The deciding rule's id, if one matched.
        rule: Option<u64>,
        /// Severity override to apply before routing.
        severity: Option<Urgency>,
    },
    /// Drop the alert before routing.
    Suppress {
        /// The deciding rule.
        rule: u64,
        /// Rule action or dedupe-template repeat.
        reason: SuppressReason,
    },
    /// The alert was absorbed into a pending digest window.
    Digest {
        /// The deciding rule.
        rule: u64,
        /// The window's correlation key.
        key: String,
        /// When the window flushes (ms), absent an earlier escalation.
        deadline_ms: u64,
        /// A digest the absorption forced out early (count cap reached
        /// or severity escalated) — deliver it now.
        flushed: Option<Box<DigestAlert>>,
    },
}

impl Decision {
    /// True for the Deliver variant.
    pub fn is_deliver(&self) -> bool {
        matches!(self, Decision::Deliver { .. })
    }
}

/// A shareable engine handle: the engine is internally synchronized, so
/// the gateway's rule frames, every shard worker (each evaluating against
/// its own [`Correlator`]) and the CLI share one `Arc`.
pub type SharedRuleEngine = std::sync::Arc<RuleEngine>;

/// Builds the [`AlertView`] the predicate language evaluates: `kind` is
/// the subject line (email) or empty (IM).
pub fn view_of(alert: &IncomingAlert) -> AlertView<'_> {
    AlertView { source: &alert.source, kind: &alert.subject, body: &alert.body }
}

#[derive(Debug)]
struct PendingDigest {
    user: String,
    key: String,
    source: String,
    kind: String,
    count: u64,
    first: SimTime,
    last: SimTime,
    exemplars: Vec<String>,
    max_exemplars: usize,
    max_count: u32,
    urgency: Urgency,
    deadline_ms: u64,
    seq: u64,
}

impl PendingDigest {
    fn into_digest(self) -> DigestAlert {
        DigestAlert {
            user: self.user,
            key: self.key,
            source: self.source,
            kind: self.kind,
            count: self.count,
            first: self.first,
            last: self.last,
            exemplars: self.exemplars,
            urgency: self.urgency,
        }
    }
}

/// Correlation state for the users one owner evaluates: open digest
/// windows and recently seen dedupe keys. It is not synchronized. Each
/// owner holds its own (a host's shard worker, or the engine itself for
/// [`RuleEngine::evaluate`]), so a window never leaves its owner.
#[derive(Debug)]
pub struct Correlator {
    telemetry: Telemetry,
    /// Open digest windows, user → correlation key → window. Nesting by
    /// user means a custom key template without `{user}` can never
    /// collide two users into one window (which would leak one user's
    /// exemplars into the other's digest and lose their alerts).
    pending: HashMap<String, HashMap<String, PendingDigest>>,
    /// Flush order: (deadline_ms, seq) → (user, correlation key), one
    /// entry per open window.
    deadlines: BTreeMap<(u64, u64), (String, String)>,
    /// Per-user recently seen dedupe keys.
    recent: HashMap<String, Horizon<Arc<str>>>,
    seq: u64,
}

impl Correlator {
    fn new(telemetry: Telemetry) -> Correlator {
        let (pending, deadlines, recent) = Default::default();
        Correlator { telemetry, pending, deadlines, recent, seq: 0 }
    }

    /// Open digest windows across this correlator's users.
    pub fn open_windows(&self) -> usize {
        self.deadlines.len()
    }

    /// The earliest flush deadline (ms), if any window is open.
    pub fn next_deadline(&self) -> Option<u64> {
        self.deadlines.first_key_value().map(|((d, _), _)| *d)
    }

    /// Flushes every digest window whose deadline is at or before
    /// `now_ms`. The owner routes the returned digests as deliveries.
    pub fn flush_due(&mut self, now_ms: u64) -> Vec<DigestAlert> {
        let mut out = Vec::new();
        while let Some(due) = self.deadlines.first_entry().filter(|e| e.key().0 <= now_ms) {
            let (user, key) = due.remove();
            out.extend(self.remove_pending(&user, &key));
        }
        if !out.is_empty() && self.telemetry.enabled() {
            self.telemetry.metrics().counter("rules.digest_flushed").add(out.len() as u64);
        }
        out
    }

    /// What `rule`, the best match for one of `user`'s alerts, decides for
    /// it. The flag is true for a critical alert cutting through a digest
    /// rule.
    fn decide(
        &mut self,
        user: &str,
        rule: &AlertRule,
        urgency: Urgency,
        view: AlertView<'_>,
        now_ms: u64,
    ) -> (Decision, bool) {
        let severity = rule.spec.severity;
        let effective = severity.unwrap_or(urgency);
        let critical = effective >= Urgency::Critical;

        // Dedupe-key template: a repeat within the window is noise —
        // but critical alerts always cut through, so they are never
        // suppressed as repeats (and do not charge the window).
        if let Some(template) = &rule.spec.dedupe {
            if !critical && self.note_recent(user, expand_template(template, user, view), now_ms) {
                return (Decision::Suppress { rule: rule.id, reason: SuppressReason::Dedupe }, false);
            }
        }

        match &rule.spec.action {
            RuleAction::Deliver => (Decision::Deliver { rule: Some(rule.id), severity }, false),
            RuleAction::Suppress => {
                (Decision::Suppress { rule: rule.id, reason: SuppressReason::Rule }, false)
            }
            // Critical cuts through: never parked in a window.
            RuleAction::Digest(_) if critical => {
                (Decision::Deliver { rule: Some(rule.id), severity }, true)
            }
            RuleAction::Digest(config) => {
                let key = match &config.key {
                    Some(template) => expand_template(template, user, view),
                    None => default_correlation_key(user, view),
                };
                (self.absorb(user, rule.id, &key, config, view, severity, effective, now_ms), false)
            }
        }
    }

    /// Records `key` as recently seen; true when it was already live inside
    /// the dedupe window.
    fn note_recent(&mut self, user: &str, key: String, now_ms: u64) -> bool {
        let now = SimTime::from_millis(now_ms);
        if let Some(recent) = self.recent.get_mut(user) {
            return !recent.first_seen(key.into(), now);
        }
        // A user's first dedupe key: the only check that names the user.
        let mut recent = Horizon::new(DEDUPE_WINDOW, MAX_DEDUPE_KEYS_PER_USER);
        recent.first_seen(key.into(), now);
        self.recent.insert(user.to_string(), recent);
        false
    }

    #[allow(clippy::too_many_arguments)]
    fn absorb(
        &mut self,
        user: &str,
        rule_id: u64,
        key: &str,
        config: &crate::rule::DigestConfig,
        view: AlertView<'_>,
        severity: Option<Urgency>,
        urgency: Urgency,
        now_ms: u64,
    ) -> Decision {
        let open_for_user = self.pending.get(user).map_or(0, HashMap::len);
        if !self.pending.get(user).is_some_and(|open| open.contains_key(key)) {
            if open_for_user >= MAX_PENDING_DIGESTS_PER_USER {
                // Bounded correlator state: deliver directly (keeping the
                // rule's severity override, like the critical-bypass path)
                // rather than grow without bound or silently drop.
                return Decision::Deliver { rule: Some(rule_id), severity };
            }
            self.seq += 1;
            let seq = self.seq;
            let deadline_ms = now_ms + config.window_ms.max(1);
            self.pending.entry(user.to_string()).or_default().insert(
                key.to_string(),
                PendingDigest {
                    user: user.to_string(),
                    key: key.to_string(),
                    source: view.source.to_string(),
                    kind: view.kind.to_string(),
                    count: 0,
                    first: SimTime::from_millis(now_ms),
                    last: SimTime::from_millis(now_ms),
                    exemplars: Vec::new(),
                    max_exemplars: config.max_exemplars as usize,
                    max_count: config.max_count,
                    urgency: Urgency::Low,
                    deadline_ms,
                    seq,
                },
            );
            self.deadlines.insert((deadline_ms, seq), (user.to_string(), key.to_string()));
        }
        let pending = self
            .pending
            .get_mut(user)
            .and_then(|open| open.get_mut(key))
            .expect("just inserted or present");
        let escalated = pending.count > 0 && urgency > pending.urgency;
        pending.count += 1;
        pending.last = SimTime::from_millis(now_ms);
        pending.urgency = pending.urgency.max(urgency);
        if pending.exemplars.len() < pending.max_exemplars {
            pending.exemplars.push(view.body.to_string());
        }
        let capped = pending.max_count > 0 && pending.count >= u64::from(pending.max_count);
        let deadline_ms = pending.deadline_ms;
        let flushed = if escalated || capped {
            self.remove_pending(user, key).map(Box::new)
        } else {
            None
        };
        Decision::Digest { rule: rule_id, key: key.to_string(), deadline_ms, flushed }
    }

    fn remove_pending(&mut self, user: &str, key: &str) -> Option<DigestAlert> {
        let open = self.pending.get_mut(user)?;
        let pending = open.remove(key)?;
        if open.is_empty() {
            self.pending.remove(user);
        }
        self.deadlines.remove(&(pending.deadline_ms, pending.seq));
        Some(pending.into_digest())
    }
}

/// The rule engine. Internally synchronized; share via
/// [`SharedRuleEngine`].
#[derive(Debug)]
pub struct RuleEngine {
    telemetry: Telemetry,
    log: Mutex<RulesLog>,
    /// The correlator behind [`RuleEngine::evaluate`] and
    /// [`RuleEngine::flush_due`].
    correlator: Mutex<Correlator>,
}

impl RuleEngine {
    /// Opens the engine, replaying (and compiling) the persisted rules.
    ///
    /// # Errors
    ///
    /// Fails when the rules log cannot be opened or is corrupt.
    pub fn open(config: RulesConfig) -> Result<RuleEngine, RulesError> {
        Self::open_with_telemetry(config, Telemetry::disabled())
    }

    /// [`RuleEngine::open`] with `rules.*` telemetry routed to `telemetry`.
    ///
    /// # Errors
    ///
    /// Fails when the rules log cannot be opened or is corrupt.
    pub fn open_with_telemetry(
        config: RulesConfig,
        telemetry: Telemetry,
    ) -> Result<RuleEngine, RulesError> {
        let log = RulesLog::open(config.log)?;
        let loaded = log.len();
        if loaded > 0 && telemetry.enabled() {
            telemetry.metrics().counter("rules.loaded").add(loaded as u64);
        }
        Ok(RuleEngine {
            correlator: Mutex::new(Correlator::new(telemetry.clone())),
            telemetry,
            log: Mutex::new(log),
        })
    }

    fn with_log<R>(&self, f: impl FnOnce(&mut RulesLog) -> R) -> R {
        f(&mut lock(&self.log))
    }

    fn counter(&self, name: &str) {
        if self.telemetry.enabled() {
            self.telemetry.metrics().counter(name).incr();
        }
    }

    /// A fresh, empty correlator with this engine's telemetry, for an
    /// owner that evaluates through [`RuleEngine::evaluate_in`].
    pub fn correlator(&self) -> Correlator {
        Correlator::new(self.telemetry.clone())
    }

    /// Creates (`id: None`) or replaces (`id: Some`) a rule and commits
    /// it to the rules log before returning — a rule acknowledged is a
    /// rule that survives restart.
    ///
    /// # Errors
    ///
    /// See [`RulesLog::upsert`]; rejected mutations count `rules.rejected`.
    pub fn upsert(
        &self,
        user: &str,
        id: Option<u64>,
        spec: RuleSpec,
    ) -> Result<Arc<AlertRule>, RulesError> {
        let result = self.with_log(|log| {
            // Even when the commit fails the log keeps the mutation (buffered
            // for the retry), and evaluation reads the log's lists: the rules
            // follow the log, not the outcome.
            let rule = log.upsert(user, id, spec)?;
            // simba-analyze: allow(concurrency.blocking-under-guard): rule mutations are rare control-plane writes; the engine lock is the single-writer discipline — the user's rule list and its journal record change together
            log.commit()?;
            Ok(rule)
        });
        match &result {
            Ok(_) => self.counter("rules.upserts"),
            Err(_) => self.counter("rules.rejected"),
        }
        result
    }

    /// Deletes a rule (committed before returning). Returns whether it
    /// existed.
    ///
    /// # Errors
    ///
    /// Fails only on rules-log I/O errors.
    pub fn delete(&self, user: &str, id: u64) -> Result<bool, RulesError> {
        let existed = self.with_log(|log| {
            let existed = log.delete(user, id);
            if existed {
                // simba-analyze: allow(concurrency.blocking-under-guard): rule mutations are rare control-plane writes; the engine lock is the single-writer discipline — the user's rule list and its tombstone change together
                log.commit()?;
            }
            Ok::<bool, RulesError>(existed)
        })?;
        if existed {
            self.counter("rules.deletes");
        }
        Ok(existed)
    }

    /// One user's rules, ordered by id.
    pub fn list(&self, user: &str) -> Vec<Arc<AlertRule>> {
        self.with_log(|log| log.list(user))
    }

    /// Total rules across all users.
    pub fn rule_count(&self) -> usize {
        self.with_log(|log| log.len())
    }

    /// Open digest windows in the engine's own correlator.
    pub fn pending_digests(&self) -> usize {
        lock(&self.correlator).open_windows()
    }

    /// Decides what happens to one alert for `user` at `now_ms`, against
    /// the engine's own correlator. Digest absorption happens inside this
    /// call; a returned [`Decision::Digest`] means the alert must *not* be
    /// routed (its content lives in the pending window), except that any
    /// `flushed` digest it carries must be delivered now.
    pub fn evaluate(&self, user: &str, alert: &IncomingAlert, now_ms: u64) -> Decision {
        self.evaluate_in(&mut lock(&self.correlator), user, alert, now_ms)
    }

    /// The hot path: [`RuleEngine::evaluate`] against `correlator`, whose
    /// windows and dedupe horizon the decision reads and updates.
    pub fn evaluate_in(
        &self,
        correlator: &mut Correlator,
        user: &str,
        alert: &IncomingAlert,
        now_ms: u64,
    ) -> Decision {
        self.counter("rules.evaluated");
        let (decision, critical_bypass) = self.with_log(|log| {
            let view = view_of(alert);
            // The list is id-ordered: the first enabled match is the lowest.
            match log.rules_of(user).iter().find(|rule| rule.matches(view)) {
                Some(rule) => correlator.decide(user, rule, alert.urgency, view, now_ms),
                None => (Decision::Deliver { rule: None, severity: None }, false),
            }
        });
        match &decision {
            Decision::Deliver { rule: Some(_), .. } => {
                self.counter("rules.matched");
                if critical_bypass {
                    self.counter("rules.critical_bypass");
                }
            }
            Decision::Deliver { rule: None, .. } => {}
            Decision::Suppress { reason, .. } => {
                self.counter("rules.matched");
                self.counter("rules.suppressed");
                if *reason == SuppressReason::Dedupe {
                    self.counter("rules.deduped");
                }
            }
            Decision::Digest { flushed, .. } => {
                self.counter("rules.matched");
                self.counter("rules.digest_absorbed");
                if flushed.is_some() {
                    self.counter("rules.digest_flushed");
                    self.counter("rules.digest_escalated");
                }
            }
        }
        decision
    }

    /// Flushes every window of the engine's own correlator whose deadline
    /// has passed; the caller routes the returned digests as deliveries.
    pub fn flush_due(&self, now_ms: u64) -> Vec<DigestAlert> {
        lock(&self.correlator).flush_due(now_ms)
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::DigestConfig;

    fn im(source: &str, body: &str) -> IncomingAlert {
        IncomingAlert::from_im(source, body, SimTime::ZERO)
    }

    fn engine() -> RuleEngine {
        RuleEngine::open(RulesConfig::in_memory()).expect("open")
    }

    #[test]
    fn no_rules_means_default_deliver() {
        let e = engine();
        assert_eq!(
            e.evaluate("ada", &im("any", "x"), 0),
            Decision::Deliver { rule: None, severity: None }
        );
    }

    #[test]
    fn lowest_id_rule_wins_and_severity_overrides() {
        let e = engine();
        let mut first = RuleSpec::suppress("quiet", "source == noisy");
        first.severity = Some(Urgency::Low);
        let r1 = e.upsert("ada", None, first).unwrap();
        e.upsert("ada", None, RuleSpec::deliver("later", "source == noisy")).unwrap();
        assert_eq!(
            e.evaluate("ada", &im("noisy", "x"), 0),
            Decision::Suppress { rule: r1.id, reason: SuppressReason::Rule }
        );
        // Another user is untouched by ada's rules.
        assert!(e.evaluate("bob", &im("noisy", "x"), 0).is_deliver());

        let mut sev = RuleSpec::deliver("bump", "source == pager");
        sev.severity = Some(Urgency::Critical);
        let r3 = e.upsert("ada", None, sev).unwrap();
        assert_eq!(
            e.evaluate("ada", &im("pager", "x"), 0),
            Decision::Deliver { rule: Some(r3.id), severity: Some(Urgency::Critical) }
        );
    }

    #[test]
    fn dedupe_template_suppresses_repeats_within_window() {
        let e = engine();
        let w = DEDUPE_WINDOW.as_millis();
        let mut spec = RuleSpec::deliver("once", "source == s");
        spec.dedupe = Some("{source}/{body}".into());
        let r = e.upsert("ada", None, spec).unwrap();
        assert!(e.evaluate("ada", &im("s", "same"), 0).is_deliver());
        assert_eq!(
            e.evaluate("ada", &im("s", "same"), w / 2),
            Decision::Suppress { rule: r.id, reason: SuppressReason::Dedupe }
        );
        // A different body is a different key; the old key expires.
        assert!(e.evaluate("ada", &im("s", "other"), w / 2 + w / 10).is_deliver());
        assert!(e.evaluate("ada", &im("s", "same"), 3 * w / 2).is_deliver());
        // The boundary: a repeat at exactly first sight + window is still
        // suppressed; one millisecond later the key is forgotten.
        assert_eq!(
            e.evaluate("ada", &im("s", "same"), 5 * w / 2),
            Decision::Suppress { rule: r.id, reason: SuppressReason::Dedupe }
        );
        assert!(e.evaluate("ada", &im("s", "same"), 5 * w / 2 + 1).is_deliver());
    }

    #[test]
    fn digest_window_collapses_a_burst_and_flushes_on_deadline() {
        let e = engine();
        let r = e
            .upsert(
                "ada",
                None,
                RuleSpec::digest(
                    "storm",
                    "source == flappy",
                    DigestConfig { window_ms: 1000, max_count: 0, max_exemplars: 2, key: None },
                ),
            )
            .unwrap();
        for i in 0..100u64 {
            let d = e.evaluate("ada", &im("flappy", &format!("alarm {i}")), i);
            match d {
                Decision::Digest { rule, flushed: None, .. } => assert_eq!(rule, r.id),
                other => panic!("expected absorption, got {other:?}"),
            }
        }
        assert_eq!(e.pending_digests(), 1);
        assert!(e.flush_due(500).is_empty(), "window not due yet");
        let flushed = e.flush_due(1000);
        assert_eq!(flushed.len(), 1);
        let digest = &flushed[0];
        assert_eq!(digest.count, 100);
        assert_eq!(digest.user, "ada");
        assert_eq!(digest.key, "ada/flappy/");
        assert_eq!(digest.exemplars, vec!["alarm 0".to_string(), "alarm 1".to_string()]);
        assert_eq!(digest.first, SimTime::from_millis(0));
        assert_eq!(digest.last, SimTime::from_millis(99));
        assert_eq!(e.pending_digests(), 0);
        assert!(e.flush_due(10_000).is_empty(), "flush is one-shot");

        // The digest renders as a deliverable alert.
        let incoming = digest.to_incoming();
        assert!(incoming.subject.contains("100x"));
        assert!(incoming.body.contains("alarm 0"));
    }

    #[test]
    fn critical_cuts_through_digesting() {
        let e = engine();
        let r = e
            .upsert(
                "ada",
                None,
                RuleSpec::digest(
                    "storm",
                    "source == flappy",
                    DigestConfig { window_ms: 1000, ..DigestConfig::default() },
                ),
            )
            .unwrap();
        e.evaluate("ada", &im("flappy", "noise"), 0);
        let critical = im("flappy", "FIRE").with_urgency(Urgency::Critical);
        assert_eq!(
            e.evaluate("ada", &critical, 10),
            Decision::Deliver { rule: Some(r.id), severity: None }
        );
        // The pending window is untouched by the cut-through.
        assert_eq!(e.pending_digests(), 1);
        assert_eq!(e.flush_due(1000)[0].count, 1);
    }

    #[test]
    fn severity_escalation_flushes_early() {
        let e = engine();
        e.upsert(
            "ada",
            None,
            RuleSpec::digest(
                "storm",
                "source == s",
                DigestConfig { window_ms: 60_000, ..DigestConfig::default() },
            ),
        )
        .unwrap();
        let low = im("s", "drip").with_urgency(Urgency::Low);
        e.evaluate("ada", &low, 0);
        e.evaluate("ada", &low, 1);
        let normal = im("s", "steady leak");
        match e.evaluate("ada", &normal, 2) {
            Decision::Digest { flushed: Some(digest), .. } => {
                assert_eq!(digest.count, 3);
                assert_eq!(digest.urgency, Urgency::Normal);
            }
            other => panic!("expected escalated flush, got {other:?}"),
        }
        assert_eq!(e.pending_digests(), 0);
        assert!(e.flush_due(100_000).is_empty(), "deadline entry went stale with the flush");
    }

    #[test]
    fn count_cap_flushes_early() {
        let e = engine();
        e.upsert(
            "ada",
            None,
            RuleSpec::digest(
                "storm",
                "source == s",
                DigestConfig { window_ms: 60_000, max_count: 3, ..DigestConfig::default() },
            ),
        )
        .unwrap();
        assert!(matches!(e.evaluate("ada", &im("s", "1"), 0), Decision::Digest { flushed: None, .. }));
        assert!(matches!(e.evaluate("ada", &im("s", "2"), 1), Decision::Digest { flushed: None, .. }));
        match e.evaluate("ada", &im("s", "3"), 2) {
            Decision::Digest { flushed: Some(digest), .. } => assert_eq!(digest.count, 3),
            other => panic!("expected capped flush, got {other:?}"),
        }
    }

    #[test]
    fn pending_windows_are_bounded_per_user() {
        let e = engine();
        let r = e
            .upsert(
                "ada",
                None,
                RuleSpec::digest(
                    "per-body",
                    "source == s",
                    DigestConfig { window_ms: 60_000, key: Some("{user}/{body}".into()), ..DigestConfig::default() },
                ),
            )
            .unwrap();
        for i in 0..MAX_PENDING_DIGESTS_PER_USER {
            let d = e.evaluate("ada", &im("s", &format!("key {i}")), 0);
            assert!(matches!(d, Decision::Digest { .. }), "window {i}: {d:?}");
        }
        // A 33rd distinct key would exceed the bound: deliver directly.
        assert_eq!(
            e.evaluate("ada", &im("s", "one too many"), 0),
            Decision::Deliver { rule: Some(r.id), severity: None }
        );
        assert_eq!(e.pending_digests(), MAX_PENDING_DIGESTS_PER_USER);
    }

    #[test]
    fn custom_key_templates_never_collide_across_users() {
        // A key template without {user} must still scope windows per
        // user: bob's burst may not be absorbed into ada's window.
        let e = engine();
        for user in ["ada", "bob"] {
            e.upsert(
                user,
                None,
                RuleSpec::digest(
                    "storm",
                    "source == s",
                    DigestConfig { window_ms: 1000, key: Some("{source}".into()), ..DigestConfig::default() },
                ),
            )
            .unwrap();
        }
        assert!(matches!(e.evaluate("ada", &im("s", "from ada"), 0), Decision::Digest { .. }));
        assert!(matches!(e.evaluate("bob", &im("s", "from bob"), 1), Decision::Digest { .. }));
        assert_eq!(e.pending_digests(), 2, "one window per user despite identical keys");
        // bob's window opened at t=1, so both are due from t=1001.
        let mut flushed = e.flush_due(1001);
        flushed.sort_by(|a, b| a.user.cmp(&b.user));
        assert_eq!(flushed.len(), 2);
        assert_eq!((flushed[0].user.as_str(), flushed[0].count), ("ada", 1));
        assert_eq!(flushed[0].exemplars, vec!["from ada".to_string()]);
        assert_eq!((flushed[1].user.as_str(), flushed[1].count), ("bob", 1));
        assert_eq!(flushed[1].exemplars, vec!["from bob".to_string()]);
    }

    #[test]
    fn each_correlator_owns_its_windows() {
        let e = engine();
        let window = DigestConfig { window_ms: 1000, ..DigestConfig::default() };
        e.upsert("ada", None, RuleSpec::digest("storm", "source == s", window)).unwrap();
        let (mut mine, theirs) = (e.correlator(), e.correlator());
        assert!(matches!(e.evaluate_in(&mut mine, "ada", &im("s", "x"), 0), Decision::Digest { .. }));
        assert_eq!((mine.open_windows(), theirs.open_windows(), e.pending_digests()), (1, 0, 0));
        assert_eq!(mine.next_deadline(), Some(1000));
        assert!(e.flush_due(u64::MAX).is_empty(), "the engine's own correlator is another owner");
        assert_eq!(mine.flush_due(1000)[0].count, 1);
        assert_eq!((mine.open_windows(), mine.next_deadline()), (0, None));
    }

    #[test]
    fn critical_is_never_dedupe_suppressed() {
        let e = engine();
        let mut spec = RuleSpec::deliver("once", "source == s");
        spec.dedupe = Some("{source}".into());
        let r = e.upsert("ada", None, spec).unwrap();
        assert!(e.evaluate("ada", &im("s", "first"), 0).is_deliver());
        // A normal repeat is noise, but a critical repeat cuts through.
        let critical = im("s", "FIRE").with_urgency(Urgency::Critical);
        assert_eq!(
            e.evaluate("ada", &critical, 10),
            Decision::Deliver { rule: Some(r.id), severity: None }
        );
        assert_eq!(
            e.evaluate("ada", &im("s", "repeat"), 20),
            Decision::Suppress { rule: r.id, reason: SuppressReason::Dedupe }
        );
    }

    #[test]
    fn bound_overflow_delivery_keeps_severity_override() {
        let e = engine();
        let mut spec = RuleSpec::digest(
            "per-body",
            "source == s",
            DigestConfig { window_ms: 60_000, key: Some("{user}/{body}".into()), ..DigestConfig::default() },
        );
        spec.severity = Some(Urgency::Low);
        let r = e.upsert("ada", None, spec).unwrap();
        for i in 0..MAX_PENDING_DIGESTS_PER_USER {
            let d = e.evaluate("ada", &im("s", &format!("key {i}")), 0);
            assert!(matches!(d, Decision::Digest { .. }), "window {i}: {d:?}");
        }
        assert_eq!(
            e.evaluate("ada", &im("s", "one too many"), 0),
            Decision::Deliver { rule: Some(r.id), severity: Some(Urgency::Low) },
            "overflow delivery carries the rule's severity override"
        );
    }

    /// Where `user`'s stored rules live. The log compiles a replacement
    /// into a fresh `Arc`, so equal addresses mean untouched rules.
    fn rule_addrs(e: &RuleEngine, user: &str) -> Vec<*const AlertRule> {
        e.list(user).iter().map(Arc::as_ptr).collect()
    }

    /// Every decision `user` gets over a grid of alerts that pins source,
    /// kind, both or neither. The generated rules neither digest nor
    /// dedupe, so evaluating is free of side effects.
    fn decisions(e: &RuleEngine, user: &str) -> Vec<Decision> {
        let mut out = Vec::new();
        for source in ["s0", "s1", "s2", "elsewhere"] {
            for kind in ["", "k0", "k1"] {
                for body in ["water leak", "all dry"] {
                    let alert = IncomingAlert::from_email(source, "", kind, body, SimTime::ZERO);
                    out.push(e.evaluate(user, &alert, 0));
                }
            }
        }
        out
    }

    fn random_spec(rng: &mut simba_sim::SimRng, source: u64) -> RuleSpec {
        let kind = rng.range(0, 1);
        let predicate = match rng.range(0, 4) {
            0 => format!("source == s{source}"),
            1 => format!("kind == k{kind}"),
            2 => format!("source == s{source} and kind == k{kind}"),
            3 => format!("source == s{source} and body contains leak"),
            _ => "body contains leak".to_string(),
        };
        let mut spec = if rng.chance(0.5) {
            RuleSpec::suppress("r", &predicate)
        } else {
            RuleSpec::deliver("r", &predicate)
        };
        if rng.chance(0.3) {
            spec.severity = Some(Urgency::Low);
        }
        spec
    }

    #[test]
    fn every_mutation_leaves_the_rules_a_reopen_replays() {
        const USERS: [&str; 4] = ["ada", "bob", "cy", "dee"];
        let assert_same_as_reopened = |e: &RuleEngine, dir: &std::path::Path, ctx: &str| {
            let full = RuleEngine::open(RulesConfig::on_disk(dir)).expect("reopen");
            for user in USERS {
                let specs = |e: &RuleEngine| -> Vec<(u64, RuleSpec)> {
                    e.list(user).iter().map(|r| (r.id, r.spec.clone())).collect()
                };
                assert_eq!(specs(e), specs(&full), "{ctx}: {user}'s list");
                assert_eq!(decisions(e, user), decisions(&full, user), "{ctx}: {user}'s decisions");
            }
        };
        let mut emptied = 0;
        for seed in 1..=6u64 {
            let dir = std::env::temp_dir()
                .join(format!("simba-rules-incremental-{seed}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let e = RuleEngine::open(RulesConfig::on_disk(&dir)).expect("open");
            let mut rng = simba_sim::SimRng::new(seed);
            for step in 0..150 {
                let ctx = format!("seed {seed} step {step}");
                let at = rng.range(0, 3) as usize;
                let (user, bystander) = (USERS[at], USERS[(at + 1 + rng.range(0, 2) as usize) % 4]);
                let bystander_before = (rule_addrs(&e, bystander), decisions(&e, bystander));
                let held = e.list(user);
                let pick = held.get(rng.range(0, 63) as usize % held.len().max(1));
                match (rng.range(0, 9), pick) {
                    // Replace with another predicate: the rule keeps its
                    // place in the list.
                    (0..=1, Some(rule)) => {
                        let source = rng.range(0, 2);
                        e.upsert(user, Some(rule.id), random_spec(&mut rng, source)).unwrap();
                    }
                    (2, Some(rule)) => {
                        let spec = RuleSpec { enabled: !rule.spec.enabled, ..rule.spec.clone() };
                        e.upsert(user, Some(rule.id), spec).unwrap();
                    }
                    (3..=6, Some(rule)) => {
                        assert!(e.delete(user, rule.id).unwrap());
                        emptied += usize::from(held.len() == 1);
                    }
                    _ => {
                        let source = rng.range(0, 2);
                        e.upsert(user, None, random_spec(&mut rng, source)).unwrap();
                    }
                }
                let ids: Vec<u64> = e.list(user).iter().map(|r| r.id).collect();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ctx}: {user}'s list is id-ordered");
                assert_eq!(
                    (rule_addrs(&e, bystander), decisions(&e, bystander)),
                    bystander_before,
                    "{ctx}: mutating {user} touched {bystander}"
                );
                if step % 10 == 9 {
                    assert_same_as_reopened(&e, &dir, &ctx);
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert!(emptied > 0, "the sequences must delete some user's last rule");
    }

    /// Two rules match the same alert, and the list order, not the insertion
    /// order, decides: the lower id wins once it is enabled again.
    #[test]
    fn a_disabled_lower_id_rule_yields_to_an_enabled_higher_id_one() {
        let e = engine();
        let off = RuleSpec { enabled: false, ..RuleSpec::suppress("mute", "source == s") };
        let low = e.upsert("ada", None, off).unwrap();
        let high = e.upsert("ada", None, RuleSpec::deliver("pass", "source == s")).unwrap();
        assert_eq!(
            e.evaluate("ada", &im("s", "x"), 0),
            Decision::Deliver { rule: Some(high.id), severity: None },
            "the disabled rule is skipped"
        );
        e.upsert("ada", Some(low.id), RuleSpec::suppress("mute", "source == s")).unwrap();
        assert_eq!(
            e.evaluate("ada", &im("s", "x"), 0),
            Decision::Suppress { rule: low.id, reason: SuppressReason::Rule },
            "re-enabled, the lower id wins again"
        );
    }

    #[test]
    fn replacing_a_rule_keeps_the_list_id_ordered() {
        let e = engine();
        let off = RuleSpec { enabled: false, ..RuleSpec::suppress("off", "any") };
        let ids: Vec<u64> = [off, RuleSpec::deliver("b", "source == s"), RuleSpec::deliver("c", "any")]
            .into_iter()
            .map(|spec| e.upsert("ada", None, spec).unwrap().id)
            .collect();
        let mut lowered = RuleSpec::deliver("b, replaced", "source == s and body contains x");
        lowered.severity = Some(Urgency::Low);
        let replaced = e.upsert("ada", Some(ids[1]), lowered).unwrap();
        assert_eq!(e.list("ada").iter().map(|r| r.id).collect::<Vec<_>>(), ids);
        assert!(Arc::ptr_eq(&replaced, &e.list("ada")[1]), "upsert returns the stored rule");
        assert_eq!(
            e.evaluate("ada", &im("s", "x"), 0),
            Decision::Deliver { rule: Some(ids[1]), severity: Some(Urgency::Low) }
        );
        assert_eq!(
            e.evaluate("ada", &im("s", "y"), 0),
            Decision::Deliver { rule: Some(ids[2]), severity: None }
        );
    }

    /// Complexity guard: a mutation costs one user's rules, not the whole
    /// engine. Rebuilding every user's rules per upsert made this run
    /// quadratic (0.86 ms per upsert at 2 000 rules in release, so over a
    /// minute here and far longer in debug); editing one user's list takes
    /// well under a second, so the bound has no scheduler to blame.
    #[test]
    fn twenty_thousand_upserts_stay_linear() {
        let e = engine();
        let started = std::time::Instant::now();
        for user in 0..2000 {
            let user = format!("user-{user}");
            for rule in 0..10 {
                e.upsert(&user, None, RuleSpec::suppress("quiet", &format!("source == s{rule}")))
                    .unwrap();
            }
        }
        let took = started.elapsed();
        assert_eq!(e.rule_count(), 20_000);
        assert!(took < std::time::Duration::from_secs(10), "20 000 upserts took {took:?}");
    }

    #[test]
    fn rules_and_engine_survive_reopen() {
        let dir = std::env::temp_dir()
            .join(format!("simba-rules-engine-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let e = RuleEngine::open(RulesConfig::on_disk(&dir)).expect("open");
            e.upsert("ada", None, RuleSpec::suppress("quiet", "source == noisy")).unwrap();
        }
        let e = RuleEngine::open(RulesConfig::on_disk(&dir)).expect("reopen");
        assert_eq!(e.rule_count(), 1);
        assert!(matches!(
            e.evaluate("ada", &im("noisy", "x"), 0),
            Decision::Suppress { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
