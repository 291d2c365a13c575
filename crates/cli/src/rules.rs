//! `rules ls|add|rm|test`: manage a user's alert rules in a rules log
//! (list, add or replace, delete) and dry-run an alert against them to see
//! which rule would fire and what the engine would decide.

use crate::flags::{Flags, Kind};
use crate::{Done, Outcome};
use simba_core::alert::IncomingAlert;
use simba_rules::{
    severity_from_name, severity_name, AlertRule, Decision, DigestConfig, RuleAction, RuleEngine,
    RuleSpec, RulesConfig,
};
use simba_sim::SimTime;
use std::fmt::Write as _;

/// The flags every `rules` action accepts.
const FLAGS: &[(&str, Kind)] = &[
    ("--dir", Kind::Value),
    ("--user", Kind::Value),
    ("--name", Kind::Value),
    ("--predicate", Kind::Value),
    ("--action", Kind::Choice(&["deliver", "suppress", "digest"])),
    ("--severity", Kind::Choice(&["low", "normal", "critical"])),
    ("--dedupe", Kind::Value),
    ("--window-ms", Kind::Number),
    ("--max-count", Kind::Number),
    ("--exemplars", Kind::Number),
    ("--key", Kind::Value),
    ("--id", Kind::Number),
    ("--disabled", Kind::Switch),
    ("--source", Kind::Value),
    ("--kind", Kind::Value),
    ("--body", Kind::Value),
];

/// `rules ls|add|rm|test --dir <dir> --user <u> ...` — manage and dry-run
/// a user's alert rules against a rules log on disk.
pub(crate) fn rules(args: &[String]) -> Done {
    let Some(action) = args.first() else {
        return Err(Outcome::usage("rules takes an action (ls, add, rm, or test)"));
    };
    let flags = Flags::parse(&args[1..], FLAGS)?;
    let dir = flags.required("--dir")?;
    let user = flags.required("--user")?;
    let engine = RuleEngine::open(RulesConfig::on_disk(dir))
        .map_err(|e| Outcome::error(format!("cannot open rules log at {dir}: {e}\n")))?;
    match action.as_str() {
        "ls" => {
            let rules = engine.list(user);
            let mut out = format!("{user}: {} rule(s)\n", rules.len());
            for rule in &rules {
                let _ = writeln!(out, "{}", render(rule));
            }
            Ok(Outcome::ok(out))
        }
        "add" => {
            let action = match flags.value("--action") {
                Some("suppress") => RuleAction::Suppress,
                Some("digest") => RuleAction::Digest(DigestConfig {
                    window_ms: flags.number("--window-ms")?.unwrap_or(60_000),
                    max_count: flags.number("--max-count")?.unwrap_or(0),
                    max_exemplars: flags.number("--exemplars")?.unwrap_or(3),
                    key: flags.value("--key").map(str::to_string),
                }),
                _ => RuleAction::Deliver,
            };
            let spec = RuleSpec {
                name: flags.required("--name")?.to_string(),
                enabled: !flags.has("--disabled"),
                severity: flags.value("--severity").and_then(severity_from_name),
                dedupe: flags.value("--dedupe").map(str::to_string),
                predicate_src: flags.required("--predicate")?.to_string(),
                action,
            };
            match engine.upsert(user, flags.number("--id")?, spec) {
                Ok(rule) => Ok(Outcome::ok(format!("stored\n{}\n", render(&rule)))),
                Err(e) => Err(Outcome::error(format!("rejected: {e}\n"))),
            }
        }
        "rm" => {
            let Some(id) = flags.number("--id")? else {
                return Err(Outcome::usage("rules rm needs --id"));
            };
            match engine.delete(user, id) {
                Ok(true) => Ok(Outcome::ok(format!("deleted rule #{id} for {user}\n"))),
                Ok(false) => Ok(Outcome::ok(format!("no rule #{id} for {user} (nothing to do)\n"))),
                Err(e) => Err(Outcome::error(format!("delete failed: {e}\n"))),
            }
        }
        "test" => {
            let source = flags.required("--source")?;
            let body = flags.value("--body").unwrap_or_default();
            let alert = match flags.value("--kind") {
                None | Some("") => IncomingAlert::from_im(source, body, SimTime::ZERO),
                Some(kind) => IncomingAlert::from_email(source, "cli", kind, body, SimTime::ZERO),
            };
            Ok(Outcome::ok(match engine.evaluate(user, &alert, 0) {
                Decision::Deliver { rule: None, .. } => {
                    "deliver (no rule matched — the default path)\n".to_string()
                }
                Decision::Deliver { rule: Some(id), severity } => {
                    let mut line = format!("deliver (rule #{id}");
                    if let Some(sev) = severity {
                        let _ = write!(line, ", severity override {}", severity_name(sev));
                    }
                    line.push_str(")\n");
                    line
                }
                Decision::Suppress { rule, reason } => {
                    format!("suppress (rule #{rule}, {reason:?})\n")
                }
                Decision::Digest { rule, key, deadline_ms, .. } => format!(
                    "digest (rule #{rule}): absorbed into window {key:?}, flushes at t+{deadline_ms}ms\n"
                ),
            }))
        }
        other => Err(Outcome::usage(&format!("unknown rules action {other:?}"))),
    }
}

/// Renders one stored rule the way `ls` and `add` report it.
fn render(rule: &AlertRule) -> String {
    let mut line = format!(
        "  #{} [{}] {:<10} {:?} when {}",
        rule.id,
        if rule.spec.enabled { "on " } else { "off" },
        rule.spec.action.label(),
        rule.spec.name,
        rule.spec.predicate_src,
    );
    if let Some(sev) = rule.spec.severity {
        let _ = write!(line, " severity={}", severity_name(sev));
    }
    if let Some(d) = &rule.spec.dedupe {
        let _ = write!(line, " dedupe={d:?}");
    }
    if let RuleAction::Digest(config) = &rule.spec.action {
        let _ = write!(line, " window={}ms", config.window_ms);
        if config.max_count > 0 {
            let _ = write!(line, " cap={}", config.max_count);
        }
        if let Some(k) = &config.key {
            let _ = write!(line, " key={k:?}");
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::strings;

    fn rules(args: &[String]) -> Outcome {
        super::rules(args).unwrap_or_else(|early| early)
    }

    #[test]
    fn rules_ls_add_rm_test_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "simba-cli-rules-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dir_s = dir.to_string_lossy().into_owned();

        // Empty listing first.
        let out = rules(&strings(&["ls", "--dir", &dir_s, "--user", "ada"]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("ada: 0 rule(s)"), "{}", out.output);

        // Add a digest rule and a suppress rule.
        let out = rules(&strings(&[
            "add", "--dir", &dir_s, "--user", "ada", "--name", "storm",
            "--predicate", "source == flappy", "--action", "digest",
            "--window-ms", "5000", "--max-count", "100", "--severity", "low",
        ]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("#1"), "{}", out.output);
        assert!(out.output.contains("window=5000ms"), "{}", out.output);
        let out = rules(&strings(&[
            "add", "--dir", &dir_s, "--user", "ada", "--name", "mute",
            "--predicate", "body contains noise", "--action", "suppress",
        ]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("#2"), "{}", out.output);

        // The log is durable: a fresh engine (new CLI call) sees both, with
        // the predicate canonicalized.
        let out = rules(&strings(&["ls", "--dir", &dir_s, "--user", "ada"]));
        assert!(out.output.contains("ada: 2 rule(s)"), "{}", out.output);
        assert!(out.output.contains("source == \"flappy\""), "{}", out.output);
        assert!(out.output.contains("severity=low"), "{}", out.output);

        // Dry-run: a flappy alert is absorbed; ordinary traffic delivers.
        let out = rules(&strings(&[
            "test", "--dir", &dir_s, "--user", "ada", "--source", "flappy",
        ]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("digest (rule #1)"), "{}", out.output);
        let out = rules(&strings(&[
            "test", "--dir", &dir_s, "--user", "ada", "--source", "calm",
        ]));
        assert!(out.output.contains("no rule matched"), "{}", out.output);

        // Remove the digest rule; the removal is durable and idempotent.
        let out = rules(&strings(&["rm", "--dir", &dir_s, "--user", "ada", "--id", "1"]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("deleted rule #1"), "{}", out.output);
        let out = rules(&strings(&["rm", "--dir", &dir_s, "--user", "ada", "--id", "1"]));
        assert!(out.output.contains("nothing to do"), "{}", out.output);
        let out = rules(&strings(&["ls", "--dir", &dir_s, "--user", "ada"]));
        assert!(out.output.contains("ada: 1 rule(s)"), "{}", out.output);

        // A bad predicate is a user error (1); bad flags are usage (2).
        let out = rules(&strings(&[
            "add", "--dir", &dir_s, "--user", "ada", "--name", "x",
            "--predicate", "source ==",
        ]));
        assert_eq!(out.code, 1, "{}", out.output);
        assert_eq!(rules(&strings(&["ls"])).code, 2);
        assert_eq!(rules(&strings(&["ls", "--dir", &dir_s])).code, 2);
        assert_eq!(rules(&strings(&["scrub", "--dir", &dir_s, "--user", "a"])).code, 2);
        assert_eq!(
            rules(&strings(&["add", "--dir", &dir_s, "--user", "a", "--severity", "loud"])).code,
            2
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
