//! Rule definitions: what a user-owned [`AlertRule`] is made of, and the
//! templates it may carry.
//!
//! A rule is a predicate (see [`crate::predicate`]) plus an action —
//! deliver, suppress, or digest — with optional severity override and a
//! dedupe-key template. Rules are owned by one user, bounded per user
//! (see [`crate::MAX_RULES_PER_USER`]), and survive restart through
//! the CRC-guarded rules log (`crate::log`).

use std::fmt;

use simba_core::Urgency;

use crate::predicate::{AlertView, ParseError, Predicate};

/// What a matching rule does with the alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleAction {
    /// Route the alert onward (optionally with the rule's severity).
    Deliver,
    /// Drop the alert before routing.
    Suppress,
    /// Absorb the alert into a windowed digest (storm correlation).
    Digest(DigestConfig),
}

impl RuleAction {
    /// Stable single-letter tag used on the wire and in the rules log.
    pub fn tag(&self) -> char {
        match self {
            RuleAction::Deliver => 'd',
            RuleAction::Suppress => 's',
            RuleAction::Digest(_) => 'g',
        }
    }

    /// Human label for CLI listings.
    pub fn label(&self) -> &'static str {
        match self {
            RuleAction::Deliver => "deliver",
            RuleAction::Suppress => "suppress",
            RuleAction::Digest(_) => "digest",
        }
    }
}

/// Storm-correlation knobs for a digest rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestConfig {
    /// Flush deadline, milliseconds after the first absorbed alert.
    pub window_ms: u64,
    /// Flush early once this many alerts are absorbed (0 = no count cap).
    pub max_count: u32,
    /// How many exemplar payloads the digest carries.
    pub max_exemplars: u8,
    /// Correlation-key template; `None` means the default
    /// `{user}/{source}/{kind}`.
    pub key: Option<String>,
}

impl Default for DigestConfig {
    fn default() -> Self {
        DigestConfig { window_ms: 60_000, max_count: 0, max_exemplars: 3, key: None }
    }
}

/// Everything a caller specifies when creating or updating a rule; the
/// engine adds the owner and id to make an [`AlertRule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSpec {
    /// Short human name, unique only in the owner's head.
    pub name: String,
    /// Disabled rules stay in the log but never match.
    pub enabled: bool,
    /// Optional severity override applied to matching alerts.
    pub severity: Option<Urgency>,
    /// Optional dedupe-key template: alerts expanding to a key seen
    /// recently (within the engine's dedupe window) are suppressed.
    pub dedupe: Option<String>,
    /// Predicate source text (the grammar in `predicate.rs`).
    pub predicate_src: String,
    /// What to do on match.
    pub action: RuleAction,
}

impl RuleSpec {
    /// A minimal enabled deliver-rule over `predicate_src`.
    pub fn deliver(name: &str, predicate_src: &str) -> Self {
        RuleSpec {
            name: name.into(),
            enabled: true,
            severity: None,
            dedupe: None,
            predicate_src: predicate_src.into(),
            action: RuleAction::Deliver,
        }
    }

    /// A minimal enabled suppress-rule over `predicate_src`.
    pub fn suppress(name: &str, predicate_src: &str) -> Self {
        RuleSpec { action: RuleAction::Suppress, ..RuleSpec::deliver(name, predicate_src) }
    }

    /// A minimal enabled digest-rule over `predicate_src`.
    pub fn digest(name: &str, predicate_src: &str, config: DigestConfig) -> Self {
        RuleSpec { action: RuleAction::Digest(config), ..RuleSpec::deliver(name, predicate_src) }
    }
}

/// One compiled, owned rule as the engine holds it.
#[derive(Debug, Clone)]
pub struct AlertRule {
    /// Engine-assigned id, unique per user, stable across restarts.
    pub id: u64,
    /// Owning user.
    pub user: String,
    /// The spec as last upserted (predicate text canonicalized).
    pub spec: RuleSpec,
    /// Compiled predicate.
    pub predicate: Predicate,
}

impl AlertRule {
    /// Compiles `spec` into a rule for `user` with the given id. The
    /// predicate text is canonicalized so log round-trips are stable.
    pub fn compile(id: u64, user: &str, mut spec: RuleSpec) -> Result<AlertRule, ParseError> {
        let predicate = Predicate::parse(&spec.predicate_src)?;
        spec.predicate_src = predicate.to_text();
        Ok(AlertRule { id, user: user.into(), spec, predicate })
    }

    /// True when the rule is enabled and its predicate matches.
    pub fn matches(&self, view: AlertView<'_>) -> bool {
        self.spec.enabled && self.predicate.eval(view)
    }
}

/// Expands a key template: `{user}`, `{source}`, `{kind}`, and `{body}`
/// placeholders are substituted; everything else is literal. Unknown
/// placeholders expand to themselves so typos stay visible in keys.
pub fn expand_template(template: &str, user: &str, view: AlertView<'_>) -> String {
    let mut out = String::with_capacity(template.len() + 16);
    let mut rest = template;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        let after = &rest[open + 1..];
        match after.find('}') {
            Some(close) => {
                let name = &after[..close];
                match name {
                    "user" => out.push_str(user),
                    "source" => out.push_str(view.source),
                    "kind" => out.push_str(view.kind),
                    "body" => out.push_str(view.body),
                    other => {
                        out.push('{');
                        out.push_str(other);
                        out.push('}');
                    }
                }
                rest = &after[close + 1..];
            }
            None => {
                out.push_str(&rest[open..]);
                rest = "";
            }
        }
    }
    out.push_str(rest);
    out
}

/// The default correlation key: `user/source/kind`.
pub fn default_correlation_key(user: &str, view: AlertView<'_>) -> String {
    format!("{user}/{}/{}", view.source, view.kind)
}

/// Parses a severity name as used on the wire, in the log, and by the CLI.
pub fn severity_from_name(name: &str) -> Option<Urgency> {
    match name {
        "low" => Some(Urgency::Low),
        "normal" => Some(Urgency::Normal),
        "critical" => Some(Urgency::Critical),
        _ => None,
    }
}

/// Inverse of [`severity_from_name`].
pub fn severity_name(urgency: Urgency) -> &'static str {
    match urgency {
        Urgency::Low => "low",
        Urgency::Normal => "normal",
        Urgency::Critical => "critical",
    }
}

impl fmt::Display for AlertRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {} [{}] when {} then {}",
            self.id,
            self.spec.name,
            if self.spec.enabled { "on" } else { "off" },
            self.spec.predicate_src,
            self.spec.action.label(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(source: &'a str, kind: &'a str, body: &'a str) -> AlertView<'a> {
        AlertView { source, kind, body }
    }

    #[test]
    fn compile_canonicalizes_predicate_text() {
        let rule =
            AlertRule::compile(1, "ada", RuleSpec::deliver("n", "source==aladdin")).expect("compile");
        assert_eq!(rule.spec.predicate_src, "source == \"aladdin\"");
        assert!(rule.matches(view("aladdin", "k", "b")));
        assert!(!rule.matches(view("proxy", "k", "b")));
    }

    #[test]
    fn disabled_rules_never_match() {
        let mut spec = RuleSpec::deliver("n", "any");
        spec.enabled = false;
        let rule = AlertRule::compile(1, "ada", spec).expect("compile");
        assert!(!rule.matches(view("a", "b", "c")));
    }

    #[test]
    fn template_expansion() {
        let v = view("aladdin", "water", "leak in basement");
        assert_eq!(expand_template("{user}/{source}/{kind}", "ada", v), "ada/aladdin/water");
        assert_eq!(expand_template("fixed", "ada", v), "fixed");
        assert_eq!(expand_template("{typo} x {user}", "ada", v), "{typo} x ada");
        assert_eq!(expand_template("tail{", "ada", v), "tail{");
        assert_eq!(default_correlation_key("ada", v), "ada/aladdin/water");
    }

    #[test]
    fn severity_names_round_trip() {
        for u in [Urgency::Low, Urgency::Normal, Urgency::Critical] {
            assert_eq!(severity_from_name(severity_name(u)), Some(u));
        }
        assert_eq!(severity_from_name("urgent"), None);
    }
}
