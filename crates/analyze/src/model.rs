//! Per-file *function facts* for the cross-file concurrency and
//! durability analysis.
//!
//! Where `scan` extracts flat per-file facts, this module recovers just
//! enough structure to reason about control flow: each function becomes
//! an ordered **event stream** — block opens/closes (tagged conditional
//! or not), statement ends, `Mutex`/`RwLock` guard acquisitions with
//! their `let` binding, calls with their path qualifier, `.await`
//! points, and explicit `drop(guard)` calls. `graph` interprets these
//! streams to track guard live-ranges, build the workspace lock-order
//! graph, and check the ack/commit contract.
//!
//! Same trade-off as the lexer: hand-rolled, deliberately partial.
//! Closures and nested blocks are treated as inline conditional code;
//! macro bodies contribute their tokens; anything the parser cannot
//! shape degrades to "no event", which can only make a rule miss.

use crate::lexer::{lex, Token, TokenKind};
use crate::scan;

/// One function's extracted facts.
#[derive(Debug, Clone)]
pub struct FnFact {
    /// Function name as written.
    pub name: String,
    /// Enclosing `impl` type's last path segment, when inside one.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared `async`.
    pub is_async: bool,
    /// Inside `#[test]`/`#[cfg(test)]` code or a `tests/` file.
    pub in_test: bool,
    /// The return type mentions a `MutexGuard`/`RwLock*Guard` — calling
    /// this function acquires whatever lock its body locks.
    pub returns_guard: bool,
    /// The body as an ordered event stream.
    pub events: Vec<BodyEvent>,
}

/// One event in a function body, in source order.
#[derive(Debug, Clone)]
pub struct BodyEvent {
    /// What happened.
    pub kind: EventKind,
    /// 1-based line.
    pub line: u32,
}

/// The event alphabet `graph` interprets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A `{` opened. `conditional` means control may skip or repeat the
    /// block (`if`/`match`/loop/closure bodies); plain block expressions
    /// and struct literals are unconditional.
    Open {
        /// Entry into the block is control-flow dependent.
        conditional: bool,
    },
    /// A `}` closed the innermost block.
    Close,
    /// A `;` ended the current statement (kills temporary guards).
    StmtEnd,
    /// `receiver.lock()` / `.read()` / `.write()` with no arguments.
    Acquire {
        /// Lock identity: the last path segment of the receiver.
        lock: String,
        /// The `let` binding holding the guard, when the acquisition is
        /// the statement's top-level initializer; `None` = temporary.
        binding: Option<String>,
        /// `"lock"`, `"read"`, or `"write"`.
        method: &'static str,
    },
    /// A call (`f(..)`, `x.m(..)`, `Path::f(..)`) or a qualified struct
    /// construction (`Frame::Ack { .. }`).
    Call {
        /// Callee or variant name.
        name: String,
        /// The path segment before `::`, if any.
        qualifier: Option<String>,
        /// The argument list is empty (`()`).
        empty_args: bool,
        /// The site is a match/let *pattern*, not an expression.
        in_pattern: bool,
        /// Same binding rule as [`EventKind::Acquire`] — lets `graph`
        /// treat `let g = self.lock_ledger();` as an acquisition.
        binding: Option<String>,
    },
    /// An `.await` point.
    Await,
    /// An explicit `drop(binding)`.
    DropGuard {
        /// The dropped binding's name.
        binding: String,
    },
}

/// Extracts every function in `source` as an event stream.
pub fn extract(source: &str, whole_file_is_test: bool) -> Vec<FnFact> {
    let tokens = lex(source);
    let in_test = scan::test_regions(&tokens, whole_file_is_test);
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment(_)))
        .collect();

    let mut facts = Vec::new();
    // (owner type name, index of the impl block's closing brace)
    let mut owners: Vec<(Option<String>, usize)> = Vec::new();
    let mut k = 0usize;
    while k < code.len() {
        while owners.last().is_some_and(|&(_, end)| k > end) {
            owners.pop();
        }
        match ident_at(&code, k) {
            Some("macro_rules") => {
                // `macro_rules! name { ... }` — skip the whole body; its
                // tokens are patterns, not code.
                let mut p = k + 1;
                while p < code.len() && !is_open_delim(&code, p) {
                    p += 1;
                }
                k = matching_close(&code, p) + 1;
            }
            Some("impl") => {
                let mut ob = k + 1;
                while ob < code.len() && !punct_at(&code, ob, '{') {
                    ob += 1;
                }
                let owner = impl_type_name(&code[k + 1..ob.min(code.len())]);
                owners.push((owner, matching_close(&code, ob)));
                k = ob + 1;
            }
            Some("fn") => {
                let Some(name) = ident_at(&code, k + 1) else {
                    // `fn(u32) -> u32` — a fn-pointer type, not an item.
                    k += 1;
                    continue;
                };
                let name = name.to_string();
                let line = code[k].1.line;
                let is_async = k > 0 && ident_at(&code, k - 1) == Some("async");
                // Params: first `(` outside the generics' angle brackets.
                let mut p = k + 2;
                let mut angle = 0i32;
                while p < code.len() {
                    match &code[p].1.kind {
                        TokenKind::Punct('<') => angle += 1,
                        TokenKind::Punct('>') => angle -= 1,
                        TokenKind::Punct('(') if angle <= 0 => break,
                        _ => {}
                    }
                    p += 1;
                }
                let pe = matching_close(&code, p);
                // Signature tail: return type up to the body `{` (or `;`
                // for a bodyless trait method).
                let mut body_open = None;
                let mut returns_guard = false;
                let mut q = pe + 1;
                while q < code.len() {
                    match &code[q].1.kind {
                        TokenKind::Punct('{') => {
                            body_open = Some(q);
                            break;
                        }
                        TokenKind::Punct(';') => break,
                        TokenKind::Ident(s)
                            if s == "MutexGuard"
                                || s == "RwLockReadGuard"
                                || s == "RwLockWriteGuard" =>
                        {
                            returns_guard = true;
                        }
                        _ => {}
                    }
                    q += 1;
                }
                let Some(bo) = body_open else {
                    k = q + 1;
                    continue;
                };
                let bc = matching_close(&code, bo);
                facts.push(FnFact {
                    name,
                    owner: owners.last().and_then(|(o, _)| o.clone()),
                    line,
                    is_async,
                    in_test: in_test[code[k].0],
                    returns_guard,
                    events: parse_body(&code, bo, bc, owners.last().and_then(|(o, _)| o.as_deref())),
                });
                k = bc + 1;
            }
            _ => k += 1,
        }
    }
    facts
}

fn ident_at<'a>(code: &[(usize, &'a Token)], i: usize) -> Option<&'a str> {
    code.get(i).and_then(|(_, t)| t.kind.ident())
}

fn punct_at(code: &[(usize, &Token)], i: usize, c: char) -> bool {
    code.get(i).is_some_and(|(_, t)| t.kind.is_punct(c))
}

fn is_open_delim(code: &[(usize, &Token)], i: usize) -> bool {
    punct_at(code, i, '{') || punct_at(code, i, '(') || punct_at(code, i, '[')
}

/// Index of the delimiter matching the opener at `open` (any of
/// `{(['s`), or the last index when unbalanced.
fn matching_close(code: &[(usize, &Token)], open: usize) -> usize {
    let mut depth = 0i32;
    for (off, (_, t)) in code[open.min(code.len())..].iter().enumerate() {
        match t.kind {
            TokenKind::Punct('{' | '(' | '[') => depth += 1,
            TokenKind::Punct('}' | ')' | ']') => {
                depth -= 1;
                if depth == 0 {
                    return open + off;
                }
            }
            _ => {}
        }
    }
    code.len().saturating_sub(1)
}

/// Backwards match: index of the opener matching the closer at `close`.
fn matching_open(code: &[(usize, &Token)], close: usize) -> usize {
    let mut depth = 0i32;
    let mut i = close;
    loop {
        match code[i].1.kind {
            TokenKind::Punct('}' | ')' | ']') => depth += 1,
            TokenKind::Punct('{' | '(' | '[') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        if i == 0 {
            return 0;
        }
        i -= 1;
    }
}

/// The last type-path segment of an `impl` header: `impl Foo for
/// Arc<Mutex<Ledger>>` → `Ledger` (the innermost type is the most
/// useful lock identity). `where` clauses are cut first.
fn impl_type_name(header: &[(usize, &Token)]) -> Option<String> {
    let cut = header
        .iter()
        .position(|(_, t)| t.kind.ident() == Some("where"))
        .unwrap_or(header.len());
    let header = &header[..cut];
    let start = header
        .iter()
        .rposition(|(_, t)| t.kind.ident() == Some("for"))
        .map(|i| i + 1)
        .unwrap_or(0);
    header[start..]
        .iter()
        .rev()
        .find_map(|(_, t)| t.kind.ident())
        .map(|s| s.to_string())
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "in",
    "as", "move", "async", "await", "fn", "impl", "pub", "use", "mod", "where", "struct", "enum",
    "trait", "type", "const", "static", "ref", "mut", "dyn", "box", "unsafe", "crate", "super",
    "self", "Self",
];

/// Parses the body tokens between `bo` and `bc` (the outer braces,
/// exclusive) into an event stream.
fn parse_body(
    code: &[(usize, &Token)],
    bo: usize,
    bc: usize,
    owner: Option<&str>,
) -> Vec<BodyEvent> {
    let mut events: Vec<BodyEvent> = Vec::new();
    // Per-open-brace frames; the root frame is the fn body itself.
    // Each holds the active `let` binding for the current statement.
    let mut bindings: Vec<Option<String>> = vec![None];
    let mut paren = 0i32;
    let mut force_uncond = false;

    let push = |events: &mut Vec<BodyEvent>, kind: EventKind, line: u32| {
        events.push(BodyEvent { kind, line });
    };

    let mut i = bo + 1;
    while i < bc {
        let line = code[i].1.line;
        match &code[i].1.kind {
            TokenKind::Punct('(' | '[') => paren += 1,
            TokenKind::Punct(')' | ']') => paren -= 1,
            TokenKind::Punct(';') if paren == 0 => {
                push(&mut events, EventKind::StmtEnd, line);
                if let Some(b) = bindings.last_mut() {
                    *b = None;
                }
            }
            TokenKind::Punct('{') => {
                let conditional = if force_uncond {
                    false
                } else {
                    match code.get(i - 1).map(|(_, t)| &t.kind) {
                        // Statement start, block-expression positions.
                        Some(TokenKind::Punct('=' | ';' | '{' | '}' | '(' | ',')) => false,
                        None => false,
                        // `if cond {`, `match x {`, `=> {`, `|c| {`, `else {`…
                        _ => true,
                    }
                };
                force_uncond = false;
                push(&mut events, EventKind::Open { conditional }, line);
                bindings.push(None);
            }
            TokenKind::Punct('}') => {
                push(&mut events, EventKind::Close, line);
                if bindings.len() > 1 {
                    bindings.pop();
                }
            }
            TokenKind::Punct('.') => {
                if ident_at(code, i + 1) == Some("await") {
                    push(&mut events, EventKind::Await, line);
                } else if let Some(m) = ident_at(code, i + 1) {
                    if punct_at(code, i + 2, '(') {
                        let empty = punct_at(code, i + 3, ')');
                        let method: Option<&'static str> = match m {
                            "lock" => Some("lock"),
                            "read" => Some("read"),
                            "write" => Some("write"),
                            _ => None,
                        };
                        let binding = if paren == 0 && !chained_past_identity(code, i + 2) {
                            bindings.last().cloned().flatten()
                        } else {
                            None
                        };
                        match method {
                            // Only the zero-argument form is a guard
                            // acquisition (`io::Read::read(&mut buf)` and
                            // friends all take arguments).
                            Some(method) if empty => push(
                                &mut events,
                                EventKind::Acquire {
                                    lock: receiver_name(code, i, owner),
                                    binding,
                                    method,
                                },
                                code[i + 1].1.line,
                            ),
                            _ => push(
                                &mut events,
                                EventKind::Call {
                                    name: m.to_string(),
                                    qualifier: None,
                                    empty_args: empty,
                                    in_pattern: false,
                                    binding,
                                },
                                code[i + 1].1.line,
                            ),
                        }
                    }
                }
            }
            TokenKind::Ident(s) => {
                let s = s.as_str();
                if s == "let" {
                    // `let [mut] NAME =` / `let NAME:` — capture the
                    // binding for this statement's top-level initializer.
                    let mut j = i + 1;
                    if ident_at(code, j) == Some("mut") {
                        j += 1;
                    }
                    if let Some(name) = ident_at(code, j) {
                        if punct_at(code, j + 1, '=') || punct_at(code, j + 1, ':') {
                            if let Some(b) = bindings.last_mut() {
                                *b = Some(name.to_string());
                            }
                        }
                    }
                } else if s == "drop"
                    && punct_at(code, i + 1, '(')
                    && ident_at(code, i + 2).is_some()
                    && punct_at(code, i + 3, ')')
                {
                    push(
                        &mut events,
                        EventKind::DropGuard {
                            binding: ident_at(code, i + 2).unwrap_or_default().to_string(),
                        },
                        line,
                    );
                } else if !KEYWORDS.contains(&s) && !punct_at(code, i - 1, '.') {
                    let qualified = i >= 3
                        && punct_at(code, i - 1, ':')
                        && punct_at(code, i - 2, ':');
                    let qualifier = if qualified {
                        ident_at(code, i - 3).map(|q| q.to_string())
                    } else {
                        None
                    };
                    if punct_at(code, i + 1, '{') && qualified {
                        // Qualified struct construction `Frame::Ack { .. }`
                        // — or the same shape used as a *pattern*.
                        let close = matching_close(code, i + 1);
                        push(
                            &mut events,
                            EventKind::Call {
                                name: s.to_string(),
                                qualifier,
                                empty_args: false,
                                in_pattern: follower_is_pattern(code, close),
                                binding: None,
                            },
                            line,
                        );
                        force_uncond = true;
                    } else if punct_at(code, i + 1, '(') && !punct_at(code, i + 1, '!') {
                        let empty = punct_at(code, i + 2, ')');
                        // Uppercase-initial names are tuple constructions
                        // (`Ok(v)`, `Frame::Probe(n)`) — those can sit in
                        // patterns too.
                        let in_pattern = s.starts_with(char::is_uppercase)
                            && follower_is_pattern(code, matching_close(code, i + 1));
                        let binding = if paren == 0 && !chained_past_identity(code, i + 1) {
                            bindings.last().cloned().flatten()
                        } else {
                            None
                        };
                        push(
                            &mut events,
                            EventKind::Call {
                                name: s.to_string(),
                                qualifier,
                                empty_args: empty,
                                in_pattern,
                                binding,
                            },
                            line,
                        );
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    events
}

/// A call whose result is immediately chained into another method
/// (`self.lock_ledger().is_dirty()`) yields a statement *temporary*: the
/// `let` binding (if any) holds the chain's final value, not the guard,
/// which drops at the `;`. `unwrap`/`expect`/`unwrap_or_else` are
/// identity adapters — they return the guard itself — so chains through
/// them (`.lock().unwrap_or_else(PoisonError::into_inner)`) keep the
/// binding. `open` is the call's argument-list `(`.
fn chained_past_identity(code: &[(usize, &Token)], open: usize) -> bool {
    let mut close = matching_close(code, open);
    loop {
        if !punct_at(code, close + 1, '.') {
            return false;
        }
        match ident_at(code, close + 2) {
            Some("unwrap" | "expect" | "unwrap_or_else") if punct_at(code, close + 3, '(') => {
                close = matching_close(code, close + 3);
            }
            // `.await` keeps the value (tokio's `lock().await`).
            Some("await") => return false,
            _ => return true,
        }
    }
}

/// After a pattern's closing delimiter come `=>`, `|`, `=` (an `if let`
/// scrutinee follows), or a match guard's `if`; expressions are followed
/// by anything else.
fn follower_is_pattern(code: &[(usize, &Token)], close: usize) -> bool {
    if punct_at(code, close + 1, '=') && punct_at(code, close + 2, '>') {
        return true; // `X { .. } =>`
    }
    if punct_at(code, close + 1, '=') && !punct_at(code, close + 2, '=') {
        return true; // `if let X { .. } = expr`
    }
    punct_at(code, close + 1, '|') || ident_at(code, close + 1) == Some("if")
}

/// The lock identity behind a `.lock()`-style acquisition at the `.`
/// token `dot`: the last path segment of the receiver, skipping balanced
/// call/index groups. `self.lock()` uses the impl type's name.
fn receiver_name(code: &[(usize, &Token)], dot: usize, owner: Option<&str>) -> String {
    let mut j = dot;
    loop {
        if j == 0 {
            return "anon".to_string();
        }
        j -= 1;
        match &code[j].1.kind {
            TokenKind::Ident(s) => {
                return if s == "self" {
                    owner.unwrap_or("self").to_string()
                } else {
                    s.clone()
                };
            }
            TokenKind::Punct(')' | ']') => j = matching_open(code, j),
            _ => return "anon".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns(src: &str) -> Vec<FnFact> {
        extract(src, false)
    }

    fn events_of(src: &str, name: &str) -> Vec<EventKind> {
        fns(src)
            .into_iter()
            .find(|f| f.name == name)
            .map(|f| f.events.into_iter().map(|e| e.kind).collect())
            .unwrap_or_default()
    }

    #[test]
    fn finds_functions_with_owner_and_async() {
        let src = r#"
            impl Shard {
                async fn run(&mut self) { }
                fn lock_ledger(&self) -> MutexGuard<'_, Ledger> { self.ledger.lock() }
            }
            fn free() { }
        "#;
        let got = fns(src);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].name, "run");
        assert!(got[0].is_async);
        assert_eq!(got[0].owner.as_deref(), Some("Shard"));
        assert!(got[1].returns_guard);
        assert_eq!(got[2].name, "free");
        assert_eq!(got[2].owner, None);
    }

    #[test]
    fn impl_for_takes_innermost_type() {
        let src = "impl Lend for std::sync::Arc<std::sync::Mutex<Ledger>> { fn f(&self) { self.lock(); } }";
        let got = fns(src);
        assert_eq!(got[0].owner.as_deref(), Some("Ledger"));
        assert!(matches!(
            &got[0].events[0].kind,
            EventKind::Acquire { lock, .. } if lock == "Ledger"
        ));
    }

    #[test]
    fn acquire_with_binding_and_temporary() {
        let ev = events_of(
            "fn f(&self) { let mut g = self.state.lock(); self.other.lock(); }",
            "f",
        );
        assert_eq!(
            ev,
            vec![
                EventKind::Acquire {
                    lock: "state".into(),
                    binding: Some("g".into()),
                    method: "lock"
                },
                EventKind::StmtEnd,
                EventKind::Acquire {
                    lock: "other".into(),
                    binding: None,
                    method: "lock"
                },
                EventKind::StmtEnd,
            ]
        );
    }

    #[test]
    fn read_with_args_is_not_an_acquisition() {
        let ev = events_of("fn f() { file.read(&mut buf); }", "f");
        assert!(matches!(&ev[0], EventKind::Call { name, .. } if name == "read"));
    }

    #[test]
    fn conditional_vs_unconditional_blocks() {
        let ev = events_of("fn f() { let x = { 1 }; if c { g(); } }", "f");
        assert_eq!(ev[0], EventKind::Open { conditional: false });
        assert!(ev.contains(&EventKind::Open { conditional: true }));
    }

    #[test]
    fn construction_vs_pattern() {
        let src = r#"
            fn encode(seq: u64) -> Frame { Frame::Ack { seq } }
            fn decode(f: &Frame) -> bool { matches2(f, Frame::Ack { .. } | Frame::Nack { .. }) }
            fn arm(f: Frame) { match f { Frame::Ack { seq } => use_it(seq), _ => {} } }
        "#;
        let is_ack_expr = |ev: &[EventKind]| {
            ev.iter().any(|e| matches!(e, EventKind::Call { name, in_pattern, .. } if name == "Ack" && !in_pattern))
        };
        assert!(is_ack_expr(&events_of(src, "encode")));
        assert!(!is_ack_expr(&events_of(src, "decode")), "pattern via `|`");
        assert!(!is_ack_expr(&events_of(src, "arm")), "pattern via `=>`");
    }

    #[test]
    fn await_and_drop_events() {
        let ev = events_of("async fn f() { let g = m.lock(); drop(g); rx.recv().await; }", "f");
        assert!(ev.contains(&EventKind::DropGuard { binding: "g".into() }));
        assert!(ev.contains(&EventKind::Await));
    }

    #[test]
    fn chained_guard_is_a_temporary_but_identity_adapters_keep_binding() {
        // `lock_ledger().is_dirty()` binds the *chain result*, not the guard.
        let ev = events_of("fn f(&self) { let dirty = self.lock_ledger().is_dirty(); }", "f");
        assert!(matches!(
            &ev[0],
            EventKind::Call { name, binding: None, .. } if name == "lock_ledger"
        ));
        // `.lock().unwrap_or_else(..)` still yields the guard itself.
        let ev = events_of(
            "fn f(&self) { let mut g = self.log.lock().unwrap_or_else(PoisonError::into_inner); }",
            "f",
        );
        assert!(matches!(
            &ev[0],
            EventKind::Acquire { lock, binding: Some(b), .. } if lock == "log" && b == "g"
        ));
        // ...but a chain continuing *past* the adapter is a temporary again.
        let ev = events_of(
            "fn f(&self) { let d = self.l.lock().unwrap_or_else(PoisonError::into_inner).is_drained(); }",
            "f",
        );
        assert!(matches!(
            &ev[0],
            EventKind::Acquire { lock, binding: None, .. } if lock == "l"
        ));
    }

    #[test]
    fn test_regions_mark_functions() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests { #[test]\nfn t() {} }";
        let got = fns(src);
        assert!(!got[0].in_test);
        assert!(got[1].in_test);
    }

    #[test]
    fn guard_returning_helper_call_keeps_binding() {
        let ev = events_of("fn f(&self) { let mut ledger = self.lock_ledger(); ledger.commit(); }", "f");
        assert!(matches!(
            &ev[0],
            EventKind::Call { name, binding: Some(b), empty_args: true, .. }
                if name == "lock_ledger" && b == "ledger"
        ));
        assert!(matches!(
            &ev[2],
            EventKind::Call { name, .. } if name == "commit"
        ));
    }
}
