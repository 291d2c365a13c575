//! The workspace-wide half of the concurrency/durability analysis: a
//! call graph and a lock-acquisition graph over every function `model`
//! extracted, and the three rules that read them.
//!
//! * `concurrency.lock-order` — a cycle in the static lock-order graph.
//!   An edge `a → b` is recorded whenever a function acquires `b`
//!   (directly, through a guard-returning helper, or one call deep)
//!   while a guard on `a` is live. Two threads walking a cycle in
//!   opposite directions deadlock; the finding names every acquisition
//!   site on the cycle.
//! * `concurrency.blocking-under-guard` — a blocking call (per
//!   `contracts::BLOCKING`), or an `.await` point, reached directly or
//!   one call deep while a guard is live. Locks on the delivery path
//!   must bound their hold time or every worker convoys behind them.
//! * `durability.ack-before-commit` — an ack-classified construction or
//!   call (per `contracts::CONTRACTS`) on a path with no *dominating*
//!   commit-classified call. Domination is approximated by conditional
//!   block paths: a commit dominates an ack when the commit's stack of
//!   enclosing conditional blocks is a prefix of the ack's and the
//!   commit comes first. That is exact for the workspace's shapes
//!   (commit in the scrutinee or a shared prefix block) and
//!   conservative for early-return shapes, which carry a waiver.
//!
//! Everything is a static approximation: one call deep, no closures, no
//! trait dispatch. The registries in `contracts` and the waivers in the
//! source are the escape hatches, and both require a written reason.

use crate::contracts;
use crate::diag::Finding;
use crate::model::{EventKind, FnFact};
use std::collections::{BTreeMap, BTreeSet};

/// One analyzed file: `model::extract`'s output plus its identity.
#[derive(Debug)]
pub struct FileFunctions {
    /// Short crate name (`core`, `runtime`, …).
    pub crate_name: String,
    /// Workspace-relative path.
    pub rel_path: String,
    /// Extracted functions.
    pub functions: Vec<FnFact>,
}

/// (file index, function index) — a function's identity.
type Key = (usize, usize);

/// One lock-order edge with its acquisition site.
#[derive(Debug, Clone)]
struct EdgeSite {
    /// File of the inner acquisition.
    file: String,
    /// Line of the inner acquisition.
    line: u32,
    /// Line the held (outer) guard was acquired on.
    held_line: u32,
}

struct Tables<'a> {
    files: &'a [FileFunctions],
    /// name → every function with that name.
    by_name: BTreeMap<&'a str, Vec<Key>>,
    /// Guard-returning helper name → the lock its body acquires.
    guard_helpers: BTreeMap<&'a str, String>,
    /// key → first blocking call in the body (description, line).
    direct_blocking: BTreeMap<Key, (String, u32)>,
    /// key → first direct guard acquisition (lock, line).
    first_acquire: BTreeMap<Key, (String, u32)>,
    /// Names of functions with an unconditional commit-classified call
    /// (count as commits at their call sites, one level deep).
    commit_like: BTreeSet<&'a str>,
}

impl<'a> Tables<'a> {
    fn build(files: &'a [FileFunctions]) -> Self {
        let mut by_name: BTreeMap<&str, Vec<Key>> = BTreeMap::new();
        let mut guard_helpers = BTreeMap::new();
        let mut direct_blocking = BTreeMap::new();
        let mut first_acquire = BTreeMap::new();
        let mut commit_like = BTreeSet::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.functions.iter().enumerate() {
                let key = (fi, gi);
                by_name.entry(f.name.as_str()).or_default().push(key);
                let mut cond_depth = 0i32;
                let mut open_kinds: Vec<bool> = Vec::new();
                for ev in &f.events {
                    match &ev.kind {
                        EventKind::Open { conditional } => {
                            open_kinds.push(*conditional);
                            cond_depth += i32::from(*conditional);
                        }
                        EventKind::Close => {
                            if let Some(c) = open_kinds.pop() {
                                cond_depth -= i32::from(c);
                            }
                        }
                        EventKind::Acquire { lock, .. } => {
                            first_acquire
                                .entry(key)
                                .or_insert_with(|| (lock.clone(), ev.line));
                            if f.returns_guard {
                                guard_helpers
                                    .entry(f.name.as_str())
                                    .or_insert_with(|| lock.clone());
                            }
                        }
                        EventKind::Call {
                            name,
                            qualifier,
                            empty_args,
                            in_pattern: false,
                            ..
                        } => {
                            if let Some(what) =
                                contracts::blocking_what(name, qualifier.as_deref(), *empty_args)
                            {
                                direct_blocking
                                    .entry(key)
                                    .or_insert_with(|| (format!("`{name}` ({what})"), ev.line));
                            }
                            if cond_depth == 0
                                && contracts::is_commit(name, qualifier.as_deref())
                            {
                                commit_like.insert(f.name.as_str());
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        Tables {
            files,
            by_name,
            guard_helpers,
            direct_blocking,
            first_acquire,
            commit_like,
        }
    }

    /// Resolves a call to a single function: the unique same-file match,
    /// else the unique same-crate match. Ambiguity or a cross-crate-only
    /// match resolves to nothing (the rules stay quiet rather than
    /// guess).
    fn resolve(&self, name: &str, from: Key) -> Option<Key> {
        let candidates = self.by_name.get(name)?;
        let same_file: Vec<Key> = candidates.iter().copied().filter(|k| k.0 == from.0).collect();
        if same_file.len() == 1 {
            return Some(same_file[0]);
        }
        if !same_file.is_empty() {
            return None;
        }
        let from_crate = &self.files[from.0].crate_name;
        let same_crate: Vec<Key> = candidates
            .iter()
            .copied()
            .filter(|k| &self.files[k.0].crate_name == from_crate)
            .collect();
        match same_crate.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }

    fn site_of(&self, key: Key) -> String {
        let file = &self.files[key.0];
        format!("{}:{}", file.rel_path, file.functions[key.1].line)
    }
}

/// A live guard during interpretation.
struct LiveGuard {
    lock: String,
    line: u32,
    binding: Option<String>,
    depth: i32,
}

/// Runs the three graph rules over the whole workspace model.
pub fn check(files: &[FileFunctions]) -> Vec<Finding> {
    let tables = Tables::build(files);
    let mut findings: Vec<Finding> = Vec::new();
    // (from, to) → first acquisition site witnessing the edge.
    let mut edges: BTreeMap<(String, String), EdgeSite> = BTreeMap::new();

    for (fi, file) in files.iter().enumerate() {
        let concurrency = contracts::CONCURRENCY_CRATES.contains(&file.crate_name.as_str());
        let durability = contracts::DURABILITY_CRATES.contains(&file.crate_name.as_str());
        if !concurrency && !durability {
            continue;
        }
        for (gi, f) in file.functions.iter().enumerate() {
            if f.in_test {
                continue;
            }
            interpret(
                f,
                (fi, gi),
                &tables,
                concurrency,
                durability,
                &file.rel_path,
                &mut edges,
                &mut findings,
            );
        }
    }

    findings.extend(lock_order_cycles(&edges));
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    findings.dedup_by(|a, b| a.rule == b.rule && a.file == b.file && a.line == b.line);
    findings
}

#[allow(clippy::too_many_arguments)]
fn interpret(
    f: &FnFact,
    key: Key,
    tables: &Tables<'_>,
    concurrency: bool,
    durability: bool,
    rel_path: &str,
    edges: &mut BTreeMap<(String, String), EdgeSite>,
    findings: &mut Vec<Finding>,
) {
    let mut depth = 0i32;
    let mut open_kinds: Vec<bool> = Vec::new();
    let mut cond_path: Vec<u32> = Vec::new();
    let mut cond_id = 0u32;
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut commit_paths: Vec<Vec<u32>> = Vec::new();

    let acquire =
        |live: &mut Vec<LiveGuard>,
         edges: &mut BTreeMap<(String, String), EdgeSite>,
         lock: &str,
         line: u32,
         binding: Option<String>,
         depth: i32| {
            for g in live.iter() {
                if g.lock != lock {
                    edges
                        .entry((g.lock.clone(), lock.to_string()))
                        .or_insert_with(|| EdgeSite {
                            file: rel_path.to_string(),
                            line,
                            held_line: g.line,
                        });
                }
            }
            live.push(LiveGuard {
                lock: lock.to_string(),
                line,
                binding,
                depth,
            });
        };

    for ev in &f.events {
        match &ev.kind {
            EventKind::Open { conditional } => {
                depth += 1;
                open_kinds.push(*conditional);
                if *conditional {
                    cond_id += 1;
                    cond_path.push(cond_id);
                }
            }
            EventKind::Close => {
                if let Some(c) = open_kinds.pop() {
                    if c {
                        cond_path.pop();
                    }
                }
                depth -= 1;
                live.retain(|g| g.depth <= depth);
            }
            EventKind::StmtEnd => {
                live.retain(|g| g.binding.is_some() || g.depth < depth);
            }
            EventKind::DropGuard { binding } => {
                live.retain(|g| g.binding.as_deref() != Some(binding.as_str()));
            }
            EventKind::Await => {
                if concurrency && !live.is_empty() {
                    let g = &live[live.len() - 1];
                    findings.push(Finding::new(
                        "concurrency.blocking-under-guard",
                        rel_path,
                        ev.line,
                        format!(
                            "`.await` while the guard on `{}` (acquired line {}) is live — \
                             the future can park holding the lock",
                            g.lock, g.line
                        ),
                        Some("drop or scope the guard before awaiting".into()),
                    ));
                }
            }
            EventKind::Acquire { lock, binding, .. } => {
                if concurrency {
                    acquire(&mut live, edges, lock, ev.line, binding.clone(), depth);
                }
            }
            EventKind::Call {
                name,
                qualifier,
                empty_args,
                in_pattern,
                binding,
            } => {
                if *in_pattern {
                    continue;
                }
                let q = qualifier.as_deref();
                if durability {
                    if contracts::is_commit(name, q) || tables.commit_like.contains(name.as_str())
                    {
                        commit_paths.push(cond_path.clone());
                    } else if contracts::is_ack(name, q) {
                        let dominated = commit_paths.iter().any(|p| {
                            p.len() <= cond_path.len() && cond_path[..p.len()] == p[..]
                        });
                        if !dominated {
                            findings.push(Finding::new(
                                "durability.ack-before-commit",
                                rel_path,
                                ev.line,
                                format!(
                                    "`{}{}` is constructed in `{}` on a path with no dominating \
                                     commit-classified call",
                                    q.map(|q| format!("{q}::")).unwrap_or_default(),
                                    name,
                                    f.name
                                ),
                                Some(
                                    "make the work durable (commit/try_submit) before \
                                     acknowledging it — §4.2.1 durable-before-ack; the registry \
                                     lives in crates/analyze/src/contracts.rs"
                                        .into(),
                                ),
                            ));
                        }
                    }
                }
                if concurrency {
                    if let Some(what) = contracts::blocking_what(name, q, *empty_args) {
                        if let Some(g) = live.last() {
                            findings.push(Finding::new(
                                "concurrency.blocking-under-guard",
                                rel_path,
                                ev.line,
                                format!(
                                    "`{}` ({}) called while the guard on `{}` (acquired line {}) \
                                     is live",
                                    name, what, g.lock, g.line
                                ),
                                Some(
                                    "move the blocking work outside the guard's scope, or \
                                     suppress with the reason the hold is intended".into(),
                                ),
                            ));
                        }
                    } else if let Some(lock) = (*empty_args)
                        .then(|| tables.guard_helpers.get(name.as_str()))
                        .flatten()
                    {
                        // `let g = self.lock_ledger();` — the helper acquires
                        // for its caller.
                        let lock = lock.clone();
                        acquire(&mut live, edges, &lock, ev.line, binding.clone(), depth);
                    } else if let Some(callee) = tables.resolve(name, key) {
                        if let Some(g) = live.last() {
                            if let Some((what, bline)) = tables.direct_blocking.get(&callee) {
                                findings.push(Finding::new(
                                    "concurrency.blocking-under-guard",
                                    rel_path,
                                    ev.line,
                                    format!(
                                        "`{}` (defined at {}, blocks via {} at line {}) called \
                                         while the guard on `{}` (acquired line {}) is live",
                                        name,
                                        tables.site_of(callee),
                                        what,
                                        bline,
                                        g.lock,
                                        g.line
                                    ),
                                    Some(
                                        "move the call outside the guard's scope, or suppress \
                                         with the reason the hold is intended".into(),
                                    ),
                                ));
                            }
                        }
                        if !live.is_empty() {
                            if let Some((lock, _)) = tables.first_acquire.get(&callee) {
                                let lock = lock.clone();
                                for g in &live {
                                    if g.lock != lock {
                                        edges
                                            .entry((g.lock.clone(), lock.clone()))
                                            .or_insert_with(|| EdgeSite {
                                                file: rel_path.to_string(),
                                                line: ev.line,
                                                held_line: g.line,
                                            });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Finds every elementary cycle (as a canonical lock set) in the
/// lock-order graph and reports one finding per cycle, anchored at its
/// lexically-first edge, naming every acquisition site.
fn lock_order_cycles(edges: &BTreeMap<(String, String), EdgeSite>) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from.as_str()).or_default().push(to.as_str());
    }
    let mut seen: BTreeSet<Vec<&str>> = BTreeSet::new();
    let mut findings = Vec::new();

    for ((from, to), _) in edges.iter() {
        // BFS from `to` back to `from`: a path closes the cycle.
        let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<&str> = [to.as_str()].into();
        let mut reached = false;
        while let Some(n) = queue.pop_front() {
            if n == from.as_str() {
                reached = true;
                break;
            }
            for &m in adj.get(n).map(|v| v.as_slice()).unwrap_or_default() {
                if m != to.as_str() && !parent.contains_key(m) {
                    parent.insert(m, n);
                    queue.push_back(m);
                }
            }
        }
        if !reached {
            continue;
        }
        // Reconstruct to → … → from, then close with the from → to edge.
        let mut path = vec![from.as_str()];
        let mut n = from.as_str();
        while n != to.as_str() {
            n = parent.get(n).copied().unwrap_or(to.as_str());
            path.push(n);
        }
        path.reverse(); // from, …, to (acquisition order)
        let mut canon: Vec<&str> = path.clone();
        canon.sort_unstable();
        canon.dedup();
        if !seen.insert(canon) {
            continue;
        }
        let mut sites = Vec::new();
        for w in path.windows(2) {
            if let Some(site) = edges.get(&(w[0].to_string(), w[1].to_string())) {
                sites.push(format!(
                    "`{}` acquired at {}:{} while holding `{}` (line {})",
                    w[1], site.file, site.line, w[0], site.held_line
                ));
            }
        }
        let closing = edges
            .get(&(path[path.len() - 1].to_string(), path[0].to_string()))
            .map(|site| {
                format!(
                    "`{}` acquired at {}:{} while holding `{}` (line {})",
                    path[0],
                    site.file,
                    site.line,
                    path[path.len() - 1],
                    site.held_line
                )
            });
        sites.extend(closing);
        let anchor = &edges[&(from.clone(), to.clone())];
        findings.push(Finding::new(
            "concurrency.lock-order",
            anchor.file.clone(),
            anchor.line,
            format!(
                "lock-order cycle through {}: {}",
                path.iter()
                    .map(|l| format!("`{l}`"))
                    .collect::<Vec<_>>()
                    .join(" → "),
                sites.join("; ")
            ),
            Some(
                "acquire these locks in one canonical order everywhere, or suppress with the \
                 reason the orders can never interleave"
                    .into(),
            ),
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model;

    fn files_of(sources: &[(&str, &str, &str)]) -> Vec<FileFunctions> {
        sources
            .iter()
            .map(|(krate, path, src)| FileFunctions {
                crate_name: krate.to_string(),
                rel_path: path.to_string(),
                functions: model::extract(src, false),
            })
            .collect()
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn lock_order_cycle_detected_with_both_sites() {
        let src = r#"
            impl S {
                fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); b.touch(); }
                fn ba(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); a.touch(); }
            }
        "#;
        let findings = check(&files_of(&[("runtime", "crates/runtime/src/x.rs", src)]));
        assert_eq!(rules_of(&findings), vec!["concurrency.lock-order"]);
        let msg = &findings[0].message;
        assert!(msg.contains("alpha") && msg.contains("beta"), "{msg}");
        // Both acquisition sites present.
        assert_eq!(msg.matches("crates/runtime/src/x.rs:").count(), 2, "{msg}");
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let src = r#"
            impl S {
                fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); b.touch(); }
                fn also_ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); a.touch(); }
            }
        "#;
        let findings = check(&files_of(&[("runtime", "crates/runtime/src/x.rs", src)]));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn one_call_deep_lock_edge_closes_a_cycle() {
        let src = r#"
            impl S {
                fn grab_beta(&self) { let b = self.beta.lock(); b.touch(); }
                fn ab(&self) { let a = self.alpha.lock(); self.grab_beta(); }
                fn ba(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); a.touch(); }
            }
        "#;
        let findings = check(&files_of(&[("runtime", "crates/runtime/src/x.rs", src)]));
        assert_eq!(rules_of(&findings), vec!["concurrency.lock-order"]);
    }
}
