//! The rule set: turns per-file facts into findings, applies
//! suppressions, and runs the workspace-level contracts (registered but
//! never emitted, README table sync, `#![forbid(unsafe_code)]` on every
//! crate root).

use crate::diag::Finding;
use crate::scan::{ApiKind, FileFacts, Suppression};
use crate::workspace::SourceFile;
use simba_telemetry::points::{self, PointKind};
use std::collections::{BTreeMap, BTreeSet};

/// Every rule id the pass can emit, with a one-line description.
/// (Rendered into the README's rules table; `allow(...)` directives are
/// validated against this list.)
pub const RULES: &[(&str, &str)] = &[
    (
        "telemetry.unknown-point",
        "a telemetry name is not registered in crates/telemetry/src/points.rs",
    ),
    (
        "telemetry.misspelled-point",
        "a telemetry name is one edit away from a registered point",
    ),
    (
        "telemetry.unemitted-point",
        "a registered point is never referenced outside test code",
    ),
    (
        "telemetry.kind-mismatch",
        "a registered name is used through the wrong API (e.g. counter vs gauge)",
    ),
    (
        "telemetry.naming",
        "an emitted name is not dotted lowercase scope.snake_case, or its scope is not declared by the emitting crate",
    ),
    (
        "hygiene.unwrap",
        ".unwrap()/.expect() outside test code in core, runtime, gateway, net, or ledger",
    ),
    (
        "hygiene.sleep-in-async",
        "std::thread::sleep inside an async fn or async block",
    ),
    (
        "hygiene.unbounded-channel",
        "an unbounded channel constructor outside the sim crate",
    ),
    (
        "hygiene.shared-mutability",
        "Rc or RefCell outside test code in core, runtime, or ledger (shard and worker state must stay Send)",
    ),
    (
        "hygiene.forbid-unsafe",
        "a workspace crate root is missing #![forbid(unsafe_code)]",
    ),
    (
        "concurrency.lock-order",
        "a cycle in the workspace lock-order graph (two sites acquire the same locks in conflicting orders)",
    ),
    (
        "concurrency.blocking-under-guard",
        "blocking I/O, commit, thread::sleep, channel recv, or .await reached (directly or one call deep) while a Mutex/RwLock guard is live",
    ),
    (
        "durability.ack-before-commit",
        "an ack-classified call or construction on a path with no dominating commit-classified call (§4.2.1 durable-before-ack; registry in crates/analyze/src/contracts.rs)",
    ),
    (
        "docs.points-table",
        "the README Observability table is out of sync with points.rs",
    ),
    (
        "suppression.missing-reason",
        "a simba-analyze: allow(...) directive without a reason",
    ),
    (
        "suppression.unknown-rule",
        "a simba-analyze: allow(...) directive naming no known rule",
    ),
];

/// Crates whose non-test code must not call `.unwrap()` / `.expect()` —
/// the layers the paper's watchdog/self-stabilization stack depends on
/// staying up.
pub const HYGIENE_UNWRAP_CRATES: &[&str] = &["core", "runtime", "gateway", "net", "ledger"];

/// Crates exempt from every telemetry rule (the vocabulary itself).
pub const TELEMETRY_EXEMPT_CRATES: &[&str] = &["telemetry"];

/// Crates allowed to build unbounded channels (simulation decks model
/// infinite queues deliberately).
pub const UNBOUNDED_EXEMPT_CRATES: &[&str] = &["sim"];

/// Crates whose non-test code must not use `Rc` / `RefCell`: their
/// futures run on shard threads, so shared state must be `Send`
/// (`Arc`/`Mutex` or per-shard ownership). Single-threaded interior
/// mutability here reintroduces the !Send types the thread-per-shard
/// executor migration removed.
pub const SHARED_MUT_CRATES: &[&str] = &["core", "runtime", "ledger"];

fn is_known_rule(rule: &str) -> bool {
    RULES.iter().any(|(id, _)| *id == rule)
}

/// Levenshtein distance with early exit above `cap`.
pub fn edit_distance(a: &str, b: &str, cap: usize) -> usize {
    if a == b {
        return 0;
    }
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    if a.len().abs_diff(b.len()) > cap {
        return cap + 1;
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        let mut row_min = cur[0];
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
            row_min = row_min.min(cur[j + 1]);
        }
        if row_min > cap {
            return cap + 1;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

fn nearest_registered(name: &str) -> Option<(&'static str, usize)> {
    points::POINTS
        .iter()
        .map(|def| (def.name, edit_distance(name, def.name, 2)))
        .min_by_key(|&(_, d)| d)
}

fn crate_scopes(crate_name: &str) -> Option<&'static [&'static str]> {
    points::CRATE_SCOPES
        .iter()
        .find(|(c, _)| *c == crate_name)
        .map(|(_, scopes)| *scopes)
}

fn api_matches_kind(api: ApiKind, kinds: &[PointKind]) -> bool {
    match api {
        ApiKind::Counter => kinds.contains(&PointKind::Counter),
        ApiKind::Gauge => kinds.contains(&PointKind::Gauge),
        ApiKind::Histogram => kinds.contains(&PointKind::Histogram),
        ApiKind::Span => kinds.contains(&PointKind::Span),
        ApiKind::Summary => kinds.contains(&PointKind::Summary),
        // Spans emit events under their own name, so an event read or
        // emission of a span name is consistent.
        ApiKind::Event | ApiKind::NameCmp => {
            kinds.contains(&PointKind::Event) || kinds.contains(&PointKind::Span)
        }
    }
}

fn name_shape_ok(name: &str) -> bool {
    let mut segments = name.split('.');
    let Some(first) = segments.next() else {
        return false;
    };
    let seg_ok = |s: &str| {
        !s.is_empty()
            && s.chars().next().is_some_and(|c| c.is_ascii_lowercase())
            && s.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    let mut rest = 0;
    for s in segments {
        if !seg_ok(s) {
            return false;
        }
        rest += 1;
    }
    seg_ok(first) && rest >= 1
}

/// Runs every per-file rule over `facts`, before suppression filtering.
pub fn file_findings(file: &SourceFile, facts: &FileFacts) -> Vec<Finding> {
    let mut findings = Vec::new();
    let crate_name = file.crate_name.as_str();
    let telemetry_checked = !TELEMETRY_EXEMPT_CRATES.contains(&crate_name);

    if telemetry_checked {
        for site in &facts.telemetry {
            if let Some(def) = points::find(&site.name) {
                if !api_matches_kind(site.api, def.kinds) {
                    let kinds: Vec<&str> = def.kinds.iter().map(|k| k.label()).collect();
                    findings.push(Finding {
                suppressed: false,
                        rule: "telemetry.kind-mismatch",
                        file: file.rel_path.clone(),
                        line: site.line,
                        message: format!(
                            "`{}` is registered as {} but used as a {} here",
                            site.name,
                            kinds.join("+"),
                            site.api.label()
                        ),
                        help: Some(
                            "use the registered kind, or widen the entry in crates/telemetry/src/points.rs".into(),
                        ),
                    });
                }
            } else {
                // Unregistered. Only names plausibly in our namespace are
                // findings: a declared (or near-declared) scope, or one
                // edit away from a registered point. Driver tests use
                // throwaway names like "x" — those are fine.
                let scope = site.name.split('.').next().unwrap_or_default();
                let dotted = site.name.contains('.');
                let scope_known = points::SCOPES.contains(&scope)
                    || points::SCOPES
                        .iter()
                        .any(|s| edit_distance(scope, s, 1) <= 1);
                let nearest = nearest_registered(&site.name);
                if let Some((suggestion, d)) = nearest {
                    if d <= 1 {
                        findings.push(Finding {
                suppressed: false,
                            rule: "telemetry.misspelled-point",
                            file: file.rel_path.clone(),
                            line: site.line,
                            message: format!(
                                "`{}` is not registered, but is one edit away from `{}`",
                                site.name, suggestion
                            ),
                            help: Some(format!("did you mean `{suggestion}`?")),
                        });
                        continue;
                    }
                }
                if dotted && scope_known {
                    findings.push(Finding {
                suppressed: false,
                        rule: "telemetry.unknown-point",
                        file: file.rel_path.clone(),
                        line: site.line,
                        message: format!(
                            "telemetry name `{}` is not in the registry",
                            site.name
                        ),
                        help: Some(
                            "register it in crates/telemetry/src/points.rs (name, kind, scope, doc)".into(),
                        ),
                    });
                } else if !site.in_test && site.api != ApiKind::NameCmp {
                    // A production emission outside every known scope is a
                    // naming violation even when we can't guess the intent.
                    findings.push(Finding {
                suppressed: false,
                        rule: "telemetry.naming",
                        file: file.rel_path.clone(),
                        line: site.line,
                        message: format!(
                            "emitted name `{}` has no declared scope (expected `scope.snake_case`)",
                            site.name
                        ),
                        help: Some(format!(
                            "declared scopes: {}",
                            points::SCOPES.join(", ")
                        )),
                    });
                }
            }

            // Shape + crate-scope convention for production emissions.
            if !site.in_test && site.api != ApiKind::NameCmp {
                if !name_shape_ok(&site.name) {
                    findings.push(Finding {
                suppressed: false,
                        rule: "telemetry.naming",
                        file: file.rel_path.clone(),
                        line: site.line,
                        message: format!(
                            "`{}` is not dotted lowercase `scope.snake_case`",
                            site.name
                        ),
                        help: None,
                    });
                } else if let Some(scopes) = crate_scopes(crate_name) {
                    let scope = site.name.split('.').next().unwrap_or_default();
                    if !scopes.contains(&scope) {
                        findings.push(Finding {
                suppressed: false,
                            rule: "telemetry.naming",
                            file: file.rel_path.clone(),
                            line: site.line,
                            message: format!(
                                "crate `{}` emits `{}`, but declares scope{} {}",
                                crate_name,
                                site.name,
                                if scopes.len() == 1 { "" } else { "s" },
                                if scopes.is_empty() {
                                    "none (it must not emit telemetry)".to_string()
                                } else {
                                    scopes
                                        .iter()
                                        .map(|s| format!("`{s}.`"))
                                        .collect::<Vec<_>>()
                                        .join(", ")
                                }
                            ),
                            help: Some(
                                "move the emission, or widen the crate's scopes in points.rs CRATE_SCOPES".into(),
                            ),
                        });
                    }
                }
            }
        }
    }

    for u in &facts.unwraps {
        if !u.in_test && HYGIENE_UNWRAP_CRATES.contains(&crate_name) {
            findings.push(Finding {
                suppressed: false,
                rule: "hygiene.unwrap",
                file: file.rel_path.clone(),
                line: u.line,
                message: format!(
                    "`.{}()` outside test code in dependability-critical crate `{}`",
                    u.method, crate_name
                ),
                help: Some(
                    "return a typed error, recover (e.g. PoisonError::into_inner), or suppress with a reason".into(),
                ),
            });
        }
    }

    for s in &facts.sleeps_in_async {
        findings.push(Finding {
                suppressed: false,
            rule: "hygiene.sleep-in-async",
            file: file.rel_path.clone(),
            line: s.line,
            message: "`thread::sleep` blocks the executor inside async code".into(),
            help: Some("use `tokio::time::sleep(..).await` instead".into()),
        });
    }

    for u in &facts.unbounded {
        if !u.in_test && !UNBOUNDED_EXEMPT_CRATES.contains(&crate_name) {
            findings.push(Finding {
                suppressed: false,
                rule: "hygiene.unbounded-channel",
                file: file.rel_path.clone(),
                line: u.line,
                message: format!("`{}` has no backpressure", u.what),
                help: Some(
                    "use a bounded channel and account for drops, like the host's notice stream".into(),
                ),
            });
        }
    }

    for s in &facts.shared_mut {
        if !s.in_test && SHARED_MUT_CRATES.contains(&crate_name) {
            findings.push(Finding {
                suppressed: false,
                rule: "hygiene.shared-mutability",
                file: file.rel_path.clone(),
                line: s.line,
                message: format!(
                    "`{}` outside test code in `{}` — shard futures must stay `Send`",
                    s.what, crate_name
                ),
                help: Some(
                    "use Arc/Mutex (or keep the state owned by one shard), or suppress with a reason".into(),
                ),
            });
        }
    }

    for s in &facts.suppressions {
        if s.rules.is_empty() || s.rules.iter().all(|r| !is_known_rule(r)) {
            findings.push(Finding {
                suppressed: false,
                rule: "suppression.unknown-rule",
                file: file.rel_path.clone(),
                line: s.line,
                message: format!(
                    "suppression names no known rule (got: {})",
                    if s.rules.is_empty() {
                        "nothing".to_string()
                    } else {
                        s.rules.join(", ")
                    }
                ),
                help: Some("rule ids are listed in the README's Static analysis section".into()),
            });
        } else if s.reason.is_empty() {
            findings.push(Finding {
                suppressed: false,
                rule: "suppression.missing-reason",
                file: file.rel_path.clone(),
                line: s.line,
                message: "suppression has no reason".into(),
                help: Some(
                    "write `// simba-analyze: allow(<rule>): <why this is safe here>`".into(),
                ),
            });
        }
    }

    findings
}

/// Marks findings covered by a well-formed suppression on the same line
/// or the line above. Suppression-rule findings are never suppressible.
/// (Marked findings stay in the report — the JSON keeps them with
/// `"suppressed":true` — but do not fail the run.)
pub fn mark_suppressed(findings: &mut [Finding], suppressions: &[Suppression]) {
    for f in findings {
        if f.rule.starts_with("suppression.") {
            continue;
        }
        f.suppressed = suppressions.iter().any(|s| {
            !s.reason.is_empty()
                && (s.line == f.line || s.line + 1 == f.line)
                && s.rules.iter().any(|r| r == f.rule)
        });
    }
}

/// Drops findings covered by a well-formed suppression on the same line
/// or the line above. Suppression-rule findings are never suppressible.
pub fn apply_suppressions(findings: Vec<Finding>, suppressions: &[Suppression]) -> Vec<Finding> {
    let mut findings = findings;
    mark_suppressed(&mut findings, suppressions);
    findings.retain(|f| !f.suppressed);
    findings
}

/// Workspace-level telemetry check: every registered point must be
/// referenced outside test code somewhere in the workspace. Span-implied
/// `<name>_ms` histograms count their span as the emitter.
pub fn unemitted_points(
    all_sites: &[(String, ApiKind, bool)],
    points_rs: Option<&FileFacts>,
    points_rs_path: &str,
) -> Vec<Finding> {
    let emitted: BTreeSet<&str> = all_sites
        .iter()
        .filter(|(_, api, in_test)| !in_test && *api != ApiKind::NameCmp)
        .map(|(name, _, _)| name.as_str())
        .collect();
    // Scopes whose production names are built at runtime (e.g.
    // `net.{channel}.{suffix}`) have no prod literal to find; any
    // reference at all — test assertions included — counts.
    let referenced: BTreeSet<&str> = all_sites.iter().map(|(name, _, _)| name.as_str()).collect();
    let line_of: BTreeMap<&str, u32> = points_rs
        .map(|facts| {
            facts
                .string_literals
                .iter()
                .map(|(s, line)| (s.as_str(), *line))
                .collect()
        })
        .unwrap_or_default();

    let mut findings = Vec::new();
    for def in points::POINTS {
        let scope = def.name.split('.').next().unwrap_or_default();
        let mut seen = if points::DYNAMIC_SCOPES.contains(&scope) {
            referenced.contains(def.name)
        } else {
            emitted.contains(def.name)
        };
        if !seen && def.name.ends_with("_ms") {
            // `t.span("x", ..)` implicitly records histogram `x_ms`.
            let base = &def.name[..def.name.len() - 3];
            seen = points::find(base)
                .is_some_and(|b| b.kinds.contains(&PointKind::Span))
                && emitted.contains(base);
        }
        if !seen {
            findings.push(Finding {
                suppressed: false,
                rule: "telemetry.unemitted-point",
                file: points_rs_path.to_string(),
                line: line_of.get(def.name).copied().unwrap_or(1),
                message: format!(
                    "`{}` is registered but never referenced outside test code",
                    def.name
                ),
                help: Some("emit it, or remove the registry entry".into()),
            });
        }
    }
    findings
}

/// Checks a crate root for `#![forbid(unsafe_code)]`.
pub fn forbid_unsafe_finding(file: &SourceFile, facts: &FileFacts) -> Option<Finding> {
    if file.is_crate_root && !facts.has_forbid_unsafe {
        Some(Finding {
            suppressed: false,
            rule: "hygiene.forbid-unsafe",
            file: file.rel_path.clone(),
            line: 1,
            message: format!(
                "crate `{}` root is missing `#![forbid(unsafe_code)]`",
                file.crate_name
            ),
            help: Some("every first-party crate builds without unsafe; forbid it".into()),
        })
    } else {
        None
    }
}

/// The marker lines the README table must sit between.
pub const TABLE_BEGIN: &str = "<!-- simba-analyze:points-table:begin (generated; run `cargo run -p simba-analyze -- points` and paste) -->";
/// Closing marker.
pub const TABLE_END: &str = "<!-- simba-analyze:points-table:end -->";

/// Verifies the README's generated Observability table matches
/// [`points::markdown_table`].
pub fn check_readme_table(readme: &str, readme_path: &str) -> Vec<Finding> {
    let expected = points::markdown_table();
    let begin = readme.find(TABLE_BEGIN);
    let end = readme.find(TABLE_END);
    let (Some(b), Some(e)) = (begin, end) else {
        return vec![Finding {
            suppressed: false,
            rule: "docs.points-table",
            file: readme_path.to_string(),
            line: 1,
            message: "README has no generated points-table markers".into(),
            help: Some(format!(
                "add `{TABLE_BEGIN}` and `{TABLE_END}` around the Observability table"
            )),
        }];
    };
    if e < b {
        return vec![Finding {
            suppressed: false,
            rule: "docs.points-table",
            file: readme_path.to_string(),
            line: 1,
            message: "README points-table markers are reversed".into(),
            help: None,
        }];
    }
    let body = readme[b + TABLE_BEGIN.len()..e].trim();
    if body != expected.trim() {
        let line = readme[..b].lines().count() as u32 + 1;
        return vec![Finding {
            suppressed: false,
            rule: "docs.points-table",
            file: readme_path.to_string(),
            line,
            message: "README Observability table is out of sync with points.rs".into(),
            help: Some("run `cargo run -p simba-analyze -- points` and paste the output between the markers".into()),
        }];
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("abc", "abc", 2), 0);
        assert_eq!(edit_distance("abc", "abd", 2), 1);
        assert_eq!(edit_distance("abc", "ab", 2), 1);
        assert_eq!(edit_distance("dialog_dismissed", "dialogs_dismissed", 2), 1);
        assert!(edit_distance("abc", "xyz", 2) > 2);
        assert!(edit_distance("a", "abcdef", 2) > 2);
    }

    #[test]
    fn name_shapes() {
        assert!(name_shape_ok("mab.routed"));
        assert!(name_shape_ok("net.im.latency_ms"));
        assert!(!name_shape_ok("mab"));
        assert!(!name_shape_ok("Mab.routed"));
        assert!(!name_shape_ok("mab.Routed"));
        assert!(!name_shape_ok("mab..x"));
        assert!(!name_shape_ok("mab.route-d"));
        assert!(!name_shape_ok("9mab.x"));
    }

    #[test]
    fn every_rule_id_is_kebab_dotted() {
        for (id, _) in RULES {
            assert!(id
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '.' || c == '-'));
        }
    }
}
