//! Per-file fact extraction: telemetry call sites, hygiene facts,
//! suppression directives, and `#[cfg(test)]` / `async fn` regions.
//!
//! The scanner reports *facts*; deciding which facts are findings (and
//! which crates each rule applies to) is `rules`' job.

use crate::lexer::{lex, Token, TokenKind};

/// Which telemetry API referenced a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiKind {
    /// `Event::new("...")` or the `.event("...")` builder helper.
    Event,
    /// `.counter("...")` — register or snapshot lookup.
    Counter,
    /// `.gauge("...")`.
    Gauge,
    /// `.histogram("...")`.
    Histogram,
    /// `.span("...")` — emits an event plus a `<name>_ms` histogram.
    Span,
    /// `.observe("...", v)` / `.observe_duration("...", d)` /
    /// `.summary("...")` — the sim-side `MetricSet` summary API.
    Summary,
    /// `.name == "..."` — an event-name comparison (read-only; common in
    /// test assertions, where misspellings silently never match).
    NameCmp,
}

impl ApiKind {
    /// Short label for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            ApiKind::Event => "event",
            ApiKind::Counter => "counter",
            ApiKind::Gauge => "gauge",
            ApiKind::Histogram => "histogram",
            ApiKind::Span => "span",
            ApiKind::Summary => "summary",
            ApiKind::NameCmp => "event-name comparison",
        }
    }
}

/// One telemetry name reference.
#[derive(Debug, Clone)]
pub struct TelemetrySite {
    /// The string literal as written.
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// Which API shape referenced it.
    pub api: ApiKind,
    /// Inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
}

/// A `.unwrap()` / `.expect(...)` call.
#[derive(Debug, Clone)]
pub struct UnwrapSite {
    /// 1-based line.
    pub line: u32,
    /// `"unwrap"` or `"expect"`.
    pub method: &'static str,
    /// Inside test code.
    pub in_test: bool,
}

/// A `thread::sleep` call lexically inside an `async fn` or async block.
#[derive(Debug, Clone)]
pub struct SleepSite {
    /// 1-based line.
    pub line: u32,
    /// Inside test code.
    pub in_test: bool,
}

/// An unbounded channel constructor.
#[derive(Debug, Clone)]
pub struct UnboundedSite {
    /// 1-based line.
    pub line: u32,
    /// What was called (for the message).
    pub what: &'static str,
    /// Inside test code.
    pub in_test: bool,
}

/// An `Rc<`/`RefCell<` (or `Rc::`/`RefCell::`) reference — single-thread
/// shared mutability, which pins the surrounding future to one thread.
#[derive(Debug, Clone)]
pub struct SharedMutSite {
    /// 1-based line.
    pub line: u32,
    /// `"Rc"` or `"RefCell"`.
    pub what: &'static str,
    /// Inside test code.
    pub in_test: bool,
}

/// A `// simba-analyze: allow(rule, ...): reason` directive. It covers
/// findings on its own line (trailing comment) and on the next line
/// (comment-above style).
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Line the comment is on.
    pub line: u32,
    /// Rule ids listed in `allow(...)`.
    pub rules: Vec<String>,
    /// The reason after the closing paren, if any.
    pub reason: String,
}

/// Everything extracted from one source file.
#[derive(Debug, Default)]
pub struct FileFacts {
    /// Telemetry name references.
    pub telemetry: Vec<TelemetrySite>,
    /// `.unwrap()` / `.expect()` calls.
    pub unwraps: Vec<UnwrapSite>,
    /// `thread::sleep` inside async code.
    pub sleeps_in_async: Vec<SleepSite>,
    /// Unbounded channel constructors.
    pub unbounded: Vec<UnboundedSite>,
    /// `Rc` / `RefCell` references.
    pub shared_mut: Vec<SharedMutSite>,
    /// Suppression directives.
    pub suppressions: Vec<Suppression>,
    /// The file carries `#![forbid(unsafe_code)]`.
    pub has_forbid_unsafe: bool,
    /// Every string literal in the file with its line (used to locate
    /// registry entries inside `points.rs` for unemitted-point reports).
    pub string_literals: Vec<(String, u32)>,
}

/// Scans one file. `whole_file_is_test` forces every fact to
/// `in_test = true` (integration-test files under `tests/`).
pub fn scan_source(source: &str, whole_file_is_test: bool) -> FileFacts {
    let tokens = lex(source);
    let in_test = test_regions(&tokens, whole_file_is_test);
    let in_async = async_regions(&tokens);

    let mut facts = FileFacts::default();

    for t in &tokens {
        if let TokenKind::LineComment(text) = &t.kind {
            if let Some(s) = parse_suppression(text, t.line) {
                facts.suppressions.push(s);
            }
        }
        if let TokenKind::Str(s) = &t.kind {
            facts.string_literals.push((s.clone(), t.line));
        }
    }

    // Comment-free view with back-pointers into the full stream.
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment(_)))
        .collect();

    let ident_at = |i: usize| -> Option<&str> { code.get(i).and_then(|(_, t)| t.kind.ident()) };
    let punct_at =
        |i: usize, c: char| -> bool { code.get(i).is_some_and(|(_, t)| t.kind.is_punct(c)) };
    let str_at = |i: usize| -> Option<(&str, u32)> {
        code.get(i).and_then(|(_, t)| match &t.kind {
            TokenKind::Str(s) => Some((s.as_str(), t.line)),
            _ => None,
        })
    };

    for i in 0..code.len() {
        let (full_idx, tok) = code[i];
        let tested = in_test[full_idx];

        // `#![forbid(unsafe_code)]`
        if tok.kind.is_punct('#')
            && punct_at(i + 1, '!')
            && punct_at(i + 2, '[')
            && ident_at(i + 3) == Some("forbid")
            && punct_at(i + 4, '(')
            && ident_at(i + 5) == Some("unsafe_code")
        {
            facts.has_forbid_unsafe = true;
        }

        // `Event::new("...")`
        if tok.kind.ident() == Some("Event")
            && punct_at(i + 1, ':')
            && punct_at(i + 2, ':')
            && ident_at(i + 3) == Some("new")
            && punct_at(i + 4, '(')
        {
            if let Some((name, line)) = str_at(i + 5) {
                facts.telemetry.push(TelemetrySite {
                    name: name.to_string(),
                    line,
                    api: ApiKind::Event,
                    in_test: tested,
                });
            }
        }

        if tok.kind.is_punct('.') {
            // `.counter("...")` / `.gauge` / `.histogram` / `.span` / `.event`
            if let Some(method) = ident_at(i + 1) {
                let api = match method {
                    "counter" | "incr" | "add" => Some(ApiKind::Counter),
                    "gauge" => Some(ApiKind::Gauge),
                    "histogram" => Some(ApiKind::Histogram),
                    "span" => Some(ApiKind::Span),
                    "event" => Some(ApiKind::Event),
                    "observe" | "observe_duration" | "summary" | "summary_mut" => {
                        Some(ApiKind::Summary)
                    }
                    _ => None,
                };
                if let Some(api) = api {
                    if punct_at(i + 2, '(') {
                        if let Some((name, line)) = str_at(i + 3) {
                            facts.telemetry.push(TelemetrySite {
                                name: name.to_string(),
                                line,
                                api,
                                in_test: tested,
                            });
                        }
                    }
                }

                // `.name == "..."` event-name comparison.
                if method == "name"
                    && punct_at(i + 2, '=')
                    && punct_at(i + 3, '=')
                {
                    if let Some((name, line)) = str_at(i + 4) {
                        facts.telemetry.push(TelemetrySite {
                            name: name.to_string(),
                            line,
                            api: ApiKind::NameCmp,
                            in_test: tested,
                        });
                    }
                }

                // `.unwrap()` / `.expect(`
                if (method == "unwrap" || method == "expect") && punct_at(i + 2, '(') {
                    facts.unwraps.push(UnwrapSite {
                        line: code[i + 1].1.line,
                        method: if method == "unwrap" { "unwrap" } else { "expect" },
                        in_test: tested,
                    });
                }
            }
        }

        // `thread::sleep(` inside async code.
        if tok.kind.ident() == Some("thread")
            && punct_at(i + 1, ':')
            && punct_at(i + 2, ':')
            && ident_at(i + 3) == Some("sleep")
            && punct_at(i + 4, '(')
            && in_async[full_idx]
        {
            facts.sleeps_in_async.push(SleepSite {
                line: tok.line,
                in_test: tested,
            });
        }

        // `unbounded_channel(`
        if tok.kind.ident() == Some("unbounded_channel") && punct_at(i + 1, '(') {
            facts.unbounded.push(UnboundedSite {
                line: tok.line,
                what: "unbounded_channel()",
                in_test: tested,
            });
        }

        // `Rc<`, `Rc::`, `RefCell<`, `RefCell::` — both the type position
        // and the constructor path, so inferred `let x = Rc::new(..)`
        // bindings are caught too. (`use std::rc::Rc;` ends in `;` and
        // matches neither.)
        if let Some(what @ ("Rc" | "RefCell")) = tok.kind.ident() {
            let type_pos = punct_at(i + 1, '<');
            let path_pos = punct_at(i + 1, ':') && punct_at(i + 2, ':');
            if type_pos || path_pos {
                facts.shared_mut.push(SharedMutSite {
                    line: tok.line,
                    what: if what == "Rc" { "Rc" } else { "RefCell" },
                    in_test: tested,
                });
            }
        }

        // `mpsc::channel()` — std's zero-argument constructor is the
        // unbounded one (`sync_channel` and tokio's `channel(n)` take a
        // capacity).
        if tok.kind.ident() == Some("mpsc")
            && punct_at(i + 1, ':')
            && punct_at(i + 2, ':')
            && ident_at(i + 3) == Some("channel")
            && punct_at(i + 4, '(')
            && punct_at(i + 5, ')')
        {
            facts.unbounded.push(UnboundedSite {
                line: tok.line,
                what: "std::sync::mpsc::channel()",
                in_test: tested,
            });
        }
    }

    facts
}

/// Parses `simba-analyze: allow(rule-a, rule-b): reason` out of a line
/// comment's text. Returns `None` when the comment is not a directive at
/// all; a malformed directive still returns (with empty `rules` or
/// `reason`) so the rules layer can flag it rather than silently ignore.
fn parse_suppression(comment: &str, line: u32) -> Option<Suppression> {
    let text = comment.trim_start_matches(['/', '!']).trim();
    let rest = text.strip_prefix("simba-analyze:")?.trim();
    let rest = rest.strip_prefix("allow").unwrap_or(rest).trim();
    let (rules_part, after) = match rest.strip_prefix('(') {
        Some(r) => match r.split_once(')') {
            Some((inside, after)) => (inside, after),
            None => (r, ""),
        },
        None => ("", rest),
    };
    let rules: Vec<String> = rules_part
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let reason = after
        .trim()
        .trim_start_matches([':', '-', '—'])
        .trim()
        .to_string();
    Some(Suppression { line, rules, reason })
}

/// `in_test[i]`: token `i` is inside a `#[test]` / `#[cfg(test)]` item.
/// (Shared with `model`, which needs per-function test marks.)
pub(crate) fn test_regions(tokens: &[Token], whole_file: bool) -> Vec<bool> {
    let mut marks = vec![whole_file; tokens.len()];
    if whole_file {
        return marks;
    }
    let code: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment(_)))
        .map(|(i, _)| i)
        .collect();

    let mut k = 0usize;
    while k < code.len() {
        if tokens[code[k]].kind.is_punct('#')
            && code.get(k + 1).is_some_and(|&j| tokens[j].kind.is_punct('['))
        {
            // Collect the attribute's tokens up to the matching `]`.
            let mut depth = 0i32;
            let mut end = k + 1;
            let mut is_test = false;
            let mut negated = false;
            for (off, &j) in code[k + 1..].iter().enumerate() {
                match &tokens[j].kind {
                    TokenKind::Punct('[') => depth += 1,
                    TokenKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            end = k + 1 + off;
                            break;
                        }
                    }
                    TokenKind::Ident(s) if s == "test" => is_test = true,
                    TokenKind::Ident(s) if s == "not" => negated = true,
                    _ => {}
                }
            }
            if is_test && !negated {
                // Skip any further attributes, then mark the item: through
                // the matching `}` of its first `{`, or to a `;` if one
                // comes first (e.g. `#[cfg(test)] mod tests;`).
                let mut p = end + 1;
                while p + 1 < code.len()
                    && tokens[code[p]].kind.is_punct('#')
                    && tokens[code[p + 1]].kind.is_punct('[')
                {
                    let mut d = 0i32;
                    let mut q = p + 1;
                    for (off, &j) in code[p + 1..].iter().enumerate() {
                        match &tokens[j].kind {
                            TokenKind::Punct('[') => d += 1,
                            TokenKind::Punct(']') => {
                                d -= 1;
                                if d == 0 {
                                    q = p + 1 + off;
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    p = q + 1;
                }
                let mut brace = 0i32;
                let mut item_end = code.len().saturating_sub(1);
                for (off, &j) in code[p..].iter().enumerate() {
                    match &tokens[j].kind {
                        TokenKind::Punct(';') if brace == 0 => {
                            item_end = p + off;
                            break;
                        }
                        TokenKind::Punct('{') => brace += 1,
                        TokenKind::Punct('}') => {
                            brace -= 1;
                            if brace == 0 {
                                item_end = p + off;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                for &j in &code[k..=item_end.min(code.len() - 1)] {
                    marks[j] = true;
                }
                k = item_end + 1;
                continue;
            }
            k = end + 1;
            continue;
        }
        k += 1;
    }
    marks
}

/// `in_async[i]`: token `i` is lexically inside an `async fn` body or an
/// `async { }` / `async move { }` block.
fn async_regions(tokens: &[Token]) -> Vec<bool> {
    let mut marks = vec![false; tokens.len()];
    let code: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment(_)))
        .map(|(i, _)| i)
        .collect();

    for k in 0..code.len() {
        if tokens[code[k]].kind.ident() != Some("async") {
            continue;
        }
        // async fn …  /  async move { }  /  async { }
        let mut p = k + 1;
        if code.get(p).is_some_and(|&j| tokens[j].kind.ident() == Some("move")) {
            p += 1;
        }
        let is_fn = code.get(p).is_some_and(|&j| tokens[j].kind.ident() == Some("fn"));
        let is_block = code.get(p).is_some_and(|&j| tokens[j].kind.is_punct('{'));
        if !is_fn && !is_block {
            continue;
        }
        // Find the opening brace (for a block, `p` already is it).
        let mut open = None;
        for (off, &j) in code[p..].iter().enumerate() {
            if tokens[j].kind.is_punct('{') {
                open = Some(p + off);
                break;
            }
            if tokens[j].kind.is_punct(';') {
                break; // trait method signature without a body
            }
        }
        let Some(open) = open else { continue };
        let mut brace = 0i32;
        for &j in &code[open..] {
            match &tokens[j].kind {
                TokenKind::Punct('{') => brace += 1,
                TokenKind::Punct('}') => {
                    brace -= 1;
                    if brace == 0 {
                        marks[j] = true;
                        break;
                    }
                }
                _ => {}
            }
            marks[j] = true;
        }
    }
    marks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_event_and_metric_sites() {
        let src = r#"
            fn f(t: &Telemetry) {
                t.emit(Event::new("mab.received", 5));
                t.metrics().counter("mab.routed").incr();
                t.metrics().gauge("gateway.queue_depth").set(2);
                t.metrics().histogram("net.im.latency_ms").observe_ms(3);
                let s = t.span("mab.route", 0);
                self.event("delivery.acked", now);
            }
        "#;
        let facts = scan_source(src, false);
        let got: Vec<(&str, ApiKind)> = facts
            .telemetry
            .iter()
            .map(|s| (s.name.as_str(), s.api))
            .collect();
        assert_eq!(
            got,
            vec![
                ("mab.received", ApiKind::Event),
                ("mab.routed", ApiKind::Counter),
                ("gateway.queue_depth", ApiKind::Gauge),
                ("net.im.latency_ms", ApiKind::Histogram),
                ("mab.route", ApiKind::Span),
                ("delivery.acked", ApiKind::Event),
            ]
        );
        assert!(facts.telemetry.iter().all(|s| !s.in_test));
    }

    #[test]
    fn metric_set_sites() {
        let src = r#"
            fn f(world: &mut World) {
                world.metrics.incr("user.seen");
                world.metrics.add("monkey.dismissed", 3);
                world.metrics.observe_duration("im.one_way", d);
                world.metrics.observe("source.ack_rtt", 1.5);
                let s = world.metrics.summary("user.seen_latency");
                counter.incr();                 // no name: ignored
                summary.observe(0.5);           // no name: ignored
            }
        "#;
        let facts = scan_source(src, false);
        let got: Vec<(&str, ApiKind)> = facts
            .telemetry
            .iter()
            .map(|s| (s.name.as_str(), s.api))
            .collect();
        assert_eq!(
            got,
            vec![
                ("user.seen", ApiKind::Counter),
                ("monkey.dismissed", ApiKind::Counter),
                ("im.one_way", ApiKind::Summary),
                ("source.ack_rtt", ApiKind::Summary),
                ("user.seen_latency", ApiKind::Summary),
            ]
        );
    }

    #[test]
    fn multiline_call_still_matches() {
        let src = "fn f() {\n    t.emit(Event::new(\n        \"mab.crashed\",\n        now,\n    ));\n}";
        let facts = scan_source(src, false);
        assert_eq!(facts.telemetry.len(), 1);
        assert_eq!(facts.telemetry[0].name, "mab.crashed");
        assert_eq!(facts.telemetry[0].line, 3);
    }

    #[test]
    fn name_comparison_site() {
        let src = r#"fn f() { let x = events.iter().find(|e| e.name == "mab.routed"); }"#;
        let facts = scan_source(src, false);
        assert_eq!(facts.telemetry.len(), 1);
        assert_eq!(facts.telemetry[0].api, ApiKind::NameCmp);
    }

    #[test]
    fn test_region_marks_cfg_test_module() {
        let src = r#"
            fn prod() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { y.unwrap(); }
            }
        "#;
        let facts = scan_source(src, false);
        assert_eq!(facts.unwraps.len(), 2);
        assert!(!facts.unwraps[0].in_test);
        assert!(facts.unwraps[1].in_test);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn prod() { x.unwrap(); }";
        let facts = scan_source(src, false);
        assert!(!facts.unwraps[0].in_test);
    }

    #[test]
    fn tokio_test_attribute_counts() {
        let src = "#[tokio::test(start_paused = true)]\nasync fn t() { y.expect(\"msg\"); }";
        let facts = scan_source(src, false);
        assert!(facts.unwraps[0].in_test);
        assert_eq!(facts.unwraps[0].method, "expect");
    }

    #[test]
    fn sleep_only_flagged_inside_async() {
        let src = r#"
            fn sync_fn() { std::thread::sleep(d); }
            async fn bad() { std::thread::sleep(d); }
            fn also_sync() { let f = async move { thread::sleep(d); }; }
        "#;
        let facts = scan_source(src, false);
        assert_eq!(facts.sleeps_in_async.len(), 2);
        assert_eq!(facts.sleeps_in_async[0].line, 3);
        assert_eq!(facts.sleeps_in_async[1].line, 4);
    }

    #[test]
    fn unbounded_channels() {
        let src = r#"
            fn f() {
                let (a, b) = mpsc::unbounded_channel();
                let (c, d) = std::sync::mpsc::channel();
                let (e, g) = mpsc::channel(64);
                let (h, i) = std::sync::mpsc::sync_channel(8);
            }
        "#;
        let facts = scan_source(src, false);
        assert_eq!(facts.unbounded.len(), 2);
        assert_eq!(facts.unbounded[0].what, "unbounded_channel()");
        assert_eq!(facts.unbounded[1].what, "std::sync::mpsc::channel()");
    }

    #[test]
    fn rc_and_refcell_sites() {
        let src = r#"
            use std::rc::Rc;
            struct S { log: Rc<RefCell<Log>> }
            fn f() { let x = Rc::new(1); }
            #[cfg(test)]
            mod tests {
                fn t() { let y = RefCell::new(2); }
            }
        "#;
        let facts = scan_source(src, false);
        let got: Vec<(&str, bool)> =
            facts.shared_mut.iter().map(|s| (s.what, s.in_test)).collect();
        // The `use` line matches neither `<` nor `::` after `Rc`.
        assert_eq!(
            got,
            vec![("Rc", false), ("RefCell", false), ("Rc", false), ("RefCell", true)]
        );
    }

    #[test]
    fn forbid_unsafe_detected() {
        assert!(scan_source("#![forbid(unsafe_code)]\nfn x() {}", false).has_forbid_unsafe);
        assert!(!scan_source("#![deny(missing_docs)]\nfn x() {}", false).has_forbid_unsafe);
    }

    #[test]
    fn suppression_with_reason() {
        let src = "fn f() { x.unwrap(); // simba-analyze: allow(hygiene.unwrap): startup, nothing to recover\n}";
        let facts = scan_source(src, false);
        let s = &facts.suppressions[0];
        assert_eq!(s.rules, vec!["hygiene.unwrap"]);
        assert_eq!(s.reason, "startup, nothing to recover");
        assert_eq!(s.line, 1);
    }

    #[test]
    fn suppression_without_reason_is_reported_not_dropped() {
        let facts = scan_source("// simba-analyze: allow(hygiene.unwrap)\n", false);
        assert_eq!(facts.suppressions[0].reason, "");
    }

    #[test]
    fn unrelated_comment_is_not_a_directive() {
        let facts = scan_source("// allow(hygiene.unwrap) but not ours\n", false);
        assert!(facts.suppressions.is_empty());
    }

    #[test]
    fn whole_file_test_marks_everything() {
        let facts = scan_source("fn helper() { x.unwrap(); }", true);
        assert!(facts.unwraps[0].in_test);
    }
}
