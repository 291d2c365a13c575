//! The versioned rules log: user-owned rules that survive restart — a
//! record codec over [`simba_core::journal`], which owns segments,
//! framing and checksums, group commit, rotation and torn tails.
//!
//! Payloads (fields escaped with `simba_core::wal::escape`); each leads
//! with the record-format version so a future format can replay old logs:
//!
//! ```text
//! 1 \t U \t user \t id \t name \t enabled \t severity \t dedupe \t predicate \t action…
//! 1 \t D \t user \t id
//! ```
//!
//! A later `U` for an id replaces the earlier one, and a `D` for a rule
//! no longer held is tolerated — so a rotation's snapshot replays
//! idempotently over whatever history a crash left beside it.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use simba_core::journal::{Frames, Journal};
use simba_core::wal::{escape, unescape, WalError};

use crate::predicate::ParseError;
use crate::rule::{severity_from_name, severity_name, AlertRule, DigestConfig, RuleAction, RuleSpec};

/// Record-format version written on every record.
pub const RULES_LOG_VERSION: u32 = 1;

/// Default segment-rotation threshold.
pub const DEFAULT_SEGMENT_MAX_BYTES: u64 = 1024 * 1024;

/// Per-user rule-set bound: upserts that would grow a user past this many
/// rules are rejected.
pub const MAX_RULES_PER_USER: usize = 64;

/// How a [`RulesLog`] is stored and bounded.
#[derive(Debug, Clone)]
pub struct RulesLogConfig {
    /// Directory holding the journal's segments; `None` keeps the
    /// log in memory (tests, benches, simulation).
    pub dir: Option<PathBuf>,
    /// Rotate once the active segment grows past this many bytes.
    pub segment_max_bytes: u64,
}

impl Default for RulesLogConfig {
    fn default() -> Self {
        RulesLogConfig {
            dir: None,
            segment_max_bytes: DEFAULT_SEGMENT_MAX_BYTES,
        }
    }
}

impl RulesLogConfig {
    /// An in-memory rules log.
    pub fn in_memory() -> Self {
        RulesLogConfig::default()
    }

    /// A file-backed rules log under `dir`.
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        RulesLogConfig { dir: Some(dir.into()), ..RulesLogConfig::default() }
    }
}

/// Why a rule mutation was rejected.
#[derive(Debug)]
pub enum RulesError {
    /// Storage failed (I/O or replay corruption).
    Wal(WalError),
    /// The rule's predicate does not parse.
    Parse(ParseError),
    /// The user is at their rule-set bound.
    Bound {
        /// The owning user.
        user: String,
        /// The configured per-user maximum.
        max: usize,
    },
    /// No such rule for that user.
    UnknownRule {
        /// The owning user.
        user: String,
        /// The missing id.
        id: u64,
    },
}

impl fmt::Display for RulesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RulesError::Wal(e) => write!(f, "rules log: {e}"),
            RulesError::Parse(e) => write!(f, "{e}"),
            RulesError::Bound { user, max } => {
                write!(f, "user {user:?} is at the {max}-rule bound")
            }
            RulesError::UnknownRule { user, id } => {
                write!(f, "user {user:?} has no rule #{id}")
            }
        }
    }
}

impl std::error::Error for RulesError {}

impl From<WalError> for RulesError {
    fn from(e: WalError) -> Self {
        RulesError::Wal(e)
    }
}

impl From<ParseError> for RulesError {
    fn from(e: ParseError) -> Self {
        RulesError::Parse(e)
    }
}

/// The persistent rule store. Not internally synchronized — the engine
/// wraps it in its own lock.
#[derive(Debug)]
pub struct RulesLog {
    journal: Journal,
    /// Live rules by user: each user's list is id-ordered, so the first
    /// enabled match in it is the lowest-id one. No user holds an empty
    /// list.
    rules: HashMap<String, Vec<Arc<AlertRule>>>,
    next_id: u64,
}

impl RulesLog {
    /// Opens (or creates) the log, replaying what the journal holds.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or corruption before the tail.
    pub fn open(config: RulesLogConfig) -> Result<Self, WalError> {
        let mut log = RulesLog {
            journal: Journal::in_memory(),
            rules: HashMap::new(),
            next_id: 1,
        };
        if let Some(dir) = config.dir {
            log.journal = Journal::open(dir, config.segment_max_bytes, |payload| log.replay(payload))?;
        }
        Ok(log)
    }

    fn replay(&mut self, payload: &str) -> Result<(), String> {
        let mut fields = payload.split('\t');
        if fields.next().and_then(|s| s.parse().ok()) != Some(RULES_LOG_VERSION) {
            return Err("unknown record version".into());
        }
        let tag = fields.next();
        let mut next = || fields.next().map(unescape).ok_or("missing field");
        let user = next()?;
        let id: u64 = next()?.parse().map_err(|_| "bad id")?;
        self.next_id = self.next_id.max(id + 1);
        match tag {
            Some("U") => {
                let name = next()?;
                let enabled = match next()?.as_str() {
                    "1" => true,
                    "0" => false,
                    _ => return Err("bad enabled flag".into()),
                };
                let severity = match next()?.as_str() {
                    "-" => None,
                    s => Some(severity_from_name(s).ok_or("bad severity")?),
                };
                let dedupe = decode_opt(&next()?);
                let predicate_src = next()?;
                let action = match next()?.as_str() {
                    "d" => RuleAction::Deliver,
                    "s" => RuleAction::Suppress,
                    "g" => {
                        let window_ms: u64 = next()?.parse().map_err(|_| "bad window")?;
                        let max_count: u32 = next()?.parse().map_err(|_| "bad max_count")?;
                        let max_exemplars: u8 = next()?.parse().map_err(|_| "bad max_exemplars")?;
                        let key = decode_opt(&next()?);
                        RuleAction::Digest(DigestConfig { window_ms, max_count, max_exemplars, key })
                    }
                    _ => return Err("bad action tag".into()),
                };
                let spec = RuleSpec { name, enabled, severity, dedupe, predicate_src, action };
                // The predicate was validated at upsert time; a canonical
                // text that no longer parses is corruption, not user error.
                let rule = AlertRule::compile(id, &user, spec)
                    .map_err(|e| format!("stored predicate: {e}"))?;
                self.put(Arc::new(rule));
            }
            Some("D") => {
                self.remove(&user, id);
            }
            _ => return Err("unknown tag".into()),
        }
        Ok(())
    }

    /// Creates (id `None`) or replaces (id `Some`) a rule for `user`,
    /// buffering the record; call [`RulesLog::commit`] to make it
    /// durable. Returns the stored rule itself, with its assigned id.
    ///
    /// # Errors
    ///
    /// [`RulesError::Parse`] when the predicate does not compile,
    /// [`RulesError::Bound`] when a *new* rule would exceed the per-user
    /// bound, [`RulesError::UnknownRule`] when replacing an id the user
    /// does not own.
    pub fn upsert(
        &mut self,
        user: &str,
        id: Option<u64>,
        spec: RuleSpec,
    ) -> Result<Arc<AlertRule>, RulesError> {
        let held = self.rules_of(user);
        let id = match id {
            Some(id) => {
                if held.binary_search_by_key(&id, |rule| rule.id).is_err() {
                    return Err(RulesError::UnknownRule { user: user.into(), id });
                }
                id
            }
            None => {
                if held.len() >= MAX_RULES_PER_USER {
                    return Err(RulesError::Bound { user: user.into(), max: MAX_RULES_PER_USER });
                }
                let id = self.next_id;
                self.next_id += 1;
                id
            }
        };
        let rule = Arc::new(AlertRule::compile(id, user, spec)?);
        self.journal.append(|out| encode_upsert(out, &rule));
        self.put(Arc::clone(&rule));
        Ok(rule)
    }

    /// Deletes rule `id` for `user`, buffering the tombstone. Returns
    /// whether the rule existed.
    pub fn delete(&mut self, user: &str, id: u64) -> bool {
        if !self.remove(user, id) {
            return false;
        }
        self.journal.append(|out| {
            let _ = write!(out, "{RULES_LOG_VERSION}\tD\t{}\t{id}", escape(user));
        });
        true
    }

    /// Stores `rule` in its owner's list, replacing the rule with its id
    /// if there is one, keeping the list id-ordered.
    fn put(&mut self, rule: Arc<AlertRule>) {
        let held = self.rules.entry(rule.user.clone()).or_default();
        match held.binary_search_by_key(&rule.id, |r| r.id) {
            Ok(at) => held[at] = rule,
            Err(at) => held.insert(at, rule),
        }
    }

    /// Drops rule `id` from `user`'s list, and the list once it is empty.
    fn remove(&mut self, user: &str, id: u64) -> bool {
        let Some(held) = self.rules.get_mut(user) else { return false };
        let Ok(at) = held.binary_search_by_key(&id, |r| r.id) else { return false };
        held.remove(at);
        if held.is_empty() {
            self.rules.remove(user);
        }
        true
    }

    /// One group commit ([`Journal::commit`]); a rotation carries the
    /// live rules, compacting upsert/delete churn away.
    ///
    /// # Errors
    ///
    /// I/O failure leaves the batch non-durable and buffered for the
    /// retry; callers must not acknowledge the mutation.
    pub fn commit(&mut self) -> Result<(), WalError> {
        self.journal.commit(|out: &mut Frames| {
            for rule in self.rules.values().flatten() {
                out.push(|line| encode_upsert(line, rule));
            }
        })
    }

    /// One user's rules, ordered by id.
    pub fn list(&self, user: &str) -> Vec<Arc<AlertRule>> {
        self.rules_of(user).to_vec()
    }

    /// Every live rule, in no particular user order.
    pub fn iter(&self) -> impl Iterator<Item = &AlertRule> {
        self.rules.values().flatten().map(Arc::as_ref)
    }

    /// One user's rules in id order, borrowed — what the engine scans.
    pub fn rules_of(&self, user: &str) -> &[Arc<AlertRule>] {
        self.rules.get(user).map_or(&[], Vec::as_slice)
    }

    /// Total live rules.
    pub fn len(&self) -> usize {
        self.rules.values().map(Vec::len).sum()
    }

    /// Whether the log holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// The `U` image — what an upsert journals and what a rotation carries.
fn encode_upsert(out: &mut String, rule: &AlertRule) {
    let spec = &rule.spec;
    let _ = write!(
        out,
        "{RULES_LOG_VERSION}\tU\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        escape(&rule.user),
        rule.id,
        escape(&spec.name),
        if spec.enabled { "1" } else { "0" },
        spec.severity.map_or("-", severity_name),
        encode_opt(spec.dedupe.as_deref()),
        escape(&spec.predicate_src),
        spec.action.tag(),
    );
    if let RuleAction::Digest(d) = &spec.action {
        let _ = write!(
            out,
            "\t{}\t{}\t{}\t{}",
            d.window_ms,
            d.max_count,
            d.max_exemplars,
            encode_opt(d.key.as_deref()),
        );
    }
}

/// `None` → `"0"`; `Some(v)` → `"1" + escape(v)` — unambiguous even for
/// values like `"0"` or the empty string.
fn encode_opt(value: Option<&str>) -> String {
    match value {
        None => "0".into(),
        Some(v) => format!("1{}", escape(v)),
    }
}

fn decode_opt(field: &str) -> Option<String> {
    field.strip_prefix('1').map(unescape).or(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simba-ruleslog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn upsert_delete_and_per_user_bounds() {
        let mut log = RulesLog::open(RulesLogConfig::in_memory()).unwrap();
        let r1 = log.upsert("ada", None, RuleSpec::deliver("a", "any")).unwrap();
        for i in 2..MAX_RULES_PER_USER {
            log.upsert("ada", None, RuleSpec::deliver(&format!("r{i}"), "any")).unwrap();
        }
        let r2 = log.upsert("ada", None, RuleSpec::suppress("b", "source == noisy")).unwrap();
        assert!(r2.id > r1.id);
        assert_eq!(log.list("ada").len(), MAX_RULES_PER_USER);
        // The 65th rule is one past the bound.
        assert!(matches!(
            log.upsert("ada", None, RuleSpec::deliver("c", "any")),
            Err(RulesError::Bound { max: 64, .. })
        ));
        // Replacing an existing rule is allowed at the bound.
        let replaced = log.upsert("ada", Some(r1.id), RuleSpec::deliver("a2", "any")).unwrap();
        assert_eq!(replaced.id, r1.id);
        assert_eq!(log.list("ada").len(), MAX_RULES_PER_USER);
        // Other users have their own budget.
        log.upsert("bob", None, RuleSpec::deliver("d", "any")).unwrap();

        assert!(log.delete("ada", r2.id));
        assert!(!log.delete("ada", r2.id), "double delete reports absent");
        assert_eq!(log.list("ada").len(), MAX_RULES_PER_USER - 1);
        assert!(matches!(
            log.upsert("ada", Some(999), RuleSpec::deliver("x", "any")),
            Err(RulesError::UnknownRule { id: 999, .. })
        ));
        assert!(matches!(
            log.upsert("ada", None, RuleSpec::deliver("bad", "nonsense ==")),
            Err(RulesError::Parse(_))
        ));
    }

    #[test]
    fn committed_rules_survive_reopen_uncommitted_do_not() {
        let dir = temp_dir("durability");
        let mut log = RulesLog::open(RulesLogConfig::on_disk(&dir)).unwrap();
        let mut spec = RuleSpec::digest(
            "storm",
            "source == flappy and kind prefix \"alarm\"",
            DigestConfig { window_ms: 5000, max_count: 100, max_exemplars: 2, key: Some("{user}/{source}".into()) },
        );
        spec.severity = Some(simba_core::Urgency::Low);
        spec.dedupe = Some("{source}:{kind}".into());
        let stored = log.upsert("ada", None, spec.clone()).unwrap();
        log.commit().unwrap();
        // A second rule is buffered but the process dies before commit.
        log.upsert("ada", None, RuleSpec::deliver("lost", "any")).unwrap();
        drop(log);

        let log = RulesLog::open(RulesLogConfig::on_disk(&dir)).unwrap();
        let rules = log.list("ada");
        assert_eq!(rules.len(), 1, "uncommitted rule vanished");
        let back = &rules[0];
        assert_eq!(back.id, stored.id);
        assert_eq!(back.spec, stored.spec, "full spec round-trips through the log");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_compacts_churn_and_state_survives() {
        let dir = temp_dir("rotate");
        let config = RulesLogConfig { dir: Some(dir.clone()), segment_max_bytes: 512 };
        let mut log = RulesLog::open(config).unwrap();
        for i in 0..40 {
            let r = log.upsert("ada", None, RuleSpec::deliver(&format!("r{i}"), "any")).unwrap();
            log.commit().unwrap();
            if i % 2 == 0 {
                log.delete("ada", r.id);
                log.commit().unwrap();
            }
        }
        let keeper = log.upsert("bob", None, RuleSpec::suppress("quiet", "source == noisy")).unwrap();
        log.commit().unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "old segments deleted");
        drop(log);
        let log = RulesLog::open(RulesLogConfig::on_disk(&dir)).unwrap();
        assert_eq!(log.list("ada").len(), 20);
        assert_eq!(log.list("bob")[0].id, keeper.id);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
