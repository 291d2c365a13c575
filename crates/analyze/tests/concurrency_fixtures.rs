//! Fixtures for the cross-file concurrency/durability pass: each of the
//! three rule families must fire on a seeded true positive and stay
//! quiet on the corresponding known-clean shape. Fixtures are inline
//! string constants — string literals don't produce code tokens, so the
//! analyzer's own workspace self-scan never trips over them.

use simba_analyze::diag::Finding;
use simba_analyze::graph::{self, FileFunctions};
use simba_analyze::model;

/// Runs the graph pass over fixture "files" of `(crate, path, source)`.
fn graph_findings(sources: &[(&str, &str, &str)]) -> Vec<Finding> {
    let files: Vec<FileFunctions> = sources
        .iter()
        .map(|(krate, path, src)| FileFunctions {
            crate_name: krate.to_string(),
            rel_path: path.to_string(),
            functions: model::extract(src, false),
        })
        .collect();
    graph::check(&files)
}

fn one_file(src: &str) -> Vec<Finding> {
    graph_findings(&[("runtime", "crates/runtime/src/fixture.rs", src)])
}

fn rules_fired(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------- concurrency.lock-order

#[test]
fn opposite_acquisition_orders_fire_across_files() {
    // The cycle spans two files in two crates — the whole point of the
    // workspace-wide pass.
    let a = "impl S { fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); b.t(); } }";
    let b = "impl T { fn ba(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); a.t(); } }";
    let findings = graph_findings(&[
        ("runtime", "crates/runtime/src/a.rs", a),
        ("ledger", "crates/ledger/src/b.rs", b),
    ]);
    assert_eq!(rules_fired(&findings), vec!["concurrency.lock-order"]);
    let msg = &findings[0].message;
    assert!(
        msg.contains("crates/runtime/src/a.rs") && msg.contains("crates/ledger/src/b.rs"),
        "both acquisition sites must be named: {msg}"
    );
}

#[test]
fn consistent_order_and_sequential_acquisition_are_clean() {
    // Same order everywhere: no cycle.
    let src = "impl S {\n        fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); b.t(); }\n        fn ab2(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); a.t(); }\n    }";
    assert!(one_file(src).is_empty());

    // Sequential (drop-then-acquire) is not nesting: no edge, no cycle.
    let src = "impl S {\n        fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); b.t(); }\n        fn ba(&self) { { let b = self.beta.lock(); b.t(); } let a = self.alpha.lock(); a.t(); }\n    }";
    assert!(one_file(src).is_empty(), "scoped guard released before the second lock");
}

// ------------------------------------------- concurrency.blocking-under-guard

#[test]
fn blocking_call_under_live_guard_fires() {
    let src = "impl S { fn f(&self) { let g = self.state.lock(); std::thread::sleep(d); } }";
    let findings = one_file(src);
    assert_eq!(rules_fired(&findings), vec!["concurrency.blocking-under-guard"]);
    assert!(findings[0].message.contains("sleep"), "{}", findings[0].message);
}

#[test]
fn chained_temporary_guard_blocks_inside_its_own_statement_only() {
    // `lock().recv()` blocks while the temporary guard lives: fires.
    let src = "impl S { fn f(&self) { let m = self.rx.lock().recv(); } }";
    let findings = one_file(src);
    assert_eq!(rules_fired(&findings), vec!["concurrency.blocking-under-guard"]);

    // The guard dies at the `;` — blocking on the *next* line is clean.
    let src = "impl S { fn f(&self) { let d = self.log.lock().is_dirty();\n        std::thread::sleep(d); } }";
    assert!(one_file(src).is_empty(), "chained guard is a statement temporary");
}

#[test]
fn await_under_guard_fires_and_drop_clears_it() {
    // `idle()` itself is unknown (unresolvable — stays quiet); only the
    // `.await` point under the live guard fires.
    let src = "impl S { async fn f(&self) { let g = self.state.lock(); self.idle().await; } }";
    let findings = one_file(src);
    assert_eq!(rules_fired(&findings), vec!["concurrency.blocking-under-guard"]);
    assert!(
        findings[0].message.contains(".await"),
        "await finding expected: {findings:?}"
    );

    let src = "impl S { async fn f(&self) { let g = self.state.lock(); g.touch(); drop(g); self.idle().await; } }";
    assert!(one_file(src).is_empty(), "explicit drop releases the guard");
}

#[test]
fn one_call_deep_blocking_fires_and_unguarded_is_clean() {
    let src = "impl S {\n        fn commit_all(&self) { self.wal.commit(); }\n        fn f(&self) { let g = self.state.lock(); self.commit_all(); }\n    }";
    let findings = one_file(src);
    assert_eq!(rules_fired(&findings), vec!["concurrency.blocking-under-guard"]);
    assert!(
        findings[0].message.contains("commit_all"),
        "names the intermediate callee: {}",
        findings[0].message
    );

    // The same call with no guard held is clean.
    let src = "impl S {\n        fn commit_all(&self) { self.wal.commit(); }\n        fn f(&self) { self.commit_all(); }\n    }";
    assert!(one_file(src).is_empty());
}

#[test]
fn guard_returning_helper_counts_as_acquisition() {
    let src = "impl S {\n        fn lock_ledger(&self) -> MutexGuard<'_, Ledger> { self.ledger.lock() }\n        fn f(&self) { let g = self.lock_ledger(); std::thread::sleep(d); }\n    }";
    let findings = one_file(src);
    assert_eq!(rules_fired(&findings), vec!["concurrency.blocking-under-guard"]);
    // The helper's lock identity is its receiver field (`self.ledger`).
    assert!(findings[0].message.contains("`ledger`"), "{}", findings[0].message);
}

#[test]
fn positional_writes_and_length_changes_under_a_guard_fire() {
    // A journal writes its batch in place and cuts its file back with
    // `set_len`: both are file I/O, seen directly and one call deep.
    let src = "impl S { fn f(&self) { let g = self.state.lock(); self.file.write_all_at(b, at); } }";
    let findings = one_file(src);
    assert_eq!(rules_fired(&findings), vec!["concurrency.blocking-under-guard"]);
    assert!(findings[0].message.contains("write_all_at"), "{}", findings[0].message);
    let src = "impl S {\n        fn cut(&self) { self.file.set_len(n); }\n        fn f(&self) { let g = self.state.lock(); self.cut(); }\n    }";
    let findings = one_file(src);
    assert_eq!(rules_fired(&findings), vec!["concurrency.blocking-under-guard"]);
    assert!(findings[0].message.contains("cut"), "{}", findings[0].message);

    // With no guard held both are clean.
    let src = "impl S { fn f(&self) { self.file.write_all_at(b, at); self.file.set_len(n); } }";
    assert!(one_file(src).is_empty());
}

#[test]
fn out_of_scope_crates_are_not_checked() {
    // bench drives load with guards held on purpose; it is not on
    // CONCURRENCY_CRATES and must not be checked.
    let src = "impl S { fn f(&self) { let g = self.state.lock(); std::thread::sleep(d); } }";
    let findings = graph_findings(&[("bench", "crates/bench/src/fixture.rs", src)]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// --------------------------------------------- durability.ack-before-commit

#[test]
fn ack_without_commit_fires() {
    let src = "fn handle(seq: u64) -> Frame { enqueue(seq); Frame::Ack { seq } }";
    let findings = one_file(src);
    assert_eq!(rules_fired(&findings), vec!["durability.ack-before-commit"]);
    assert!(findings[0].message.contains("Ack"), "{}", findings[0].message);
}

#[test]
fn commit_dominating_the_ack_is_clean() {
    // Straight line: commit, then ack.
    let src = "fn handle(&self, seq: u64) -> Frame { self.wal.commit(); Frame::Ack { seq } }";
    assert!(one_file(src).is_empty());

    // The workspace's real shape: commit in the scrutinee dominates both
    // arms, and only the success arm acks.
    let src = "fn handle(&self, seq: u64) -> Frame {\n        match self.wal.commit() {\n            Ok(()) => Frame::Ack { seq },\n            Err(_) => Frame::Nack { seq },\n        }\n    }";
    assert!(one_file(src).is_empty());
}

#[test]
fn commit_on_a_sibling_branch_does_not_dominate() {
    // The commit happens only in the `if` arm; the ack is unconditional
    // afterwards — the else path acks undurable work.
    let src = "fn handle(&self, seq: u64, fast: bool) -> Frame {\n        if fast { self.wal.commit(); }\n        Frame::Ack { seq }\n    }";
    let findings = one_file(src);
    assert_eq!(rules_fired(&findings), vec!["durability.ack-before-commit"]);
}

#[test]
fn ack_patterns_and_test_code_are_exempt() {
    // Matching on an inbound ack is reading, not acknowledging.
    let src = "fn classify(f: &Frame) -> bool { match f { Frame::Ack { .. } => true, _ => false } }";
    assert!(one_file(src).is_empty(), "pattern position is exempt");

    // Test functions may fabricate acks freely.
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let f = Frame::Ack { seq: 1 }; assert(f); }\n}";
    assert!(one_file(src).is_empty(), "test code is exempt");
}

#[test]
fn try_submit_counts_as_commit_classified() {
    let src = "fn admit(&self, seq: u64) -> Frame {\n        match self.ledger.try_submit(seq) {\n            Ok(()) => Frame::Ack { seq },\n            Err(_) => Frame::Nack { seq },\n        }\n    }";
    assert!(one_file(src).is_empty(), "try_submit is commit-classified");
}
