//! The rule predicate language: a small hand-rolled expression grammar
//! over an alert's `source`, `kind`, and `body` fields.
//!
//! ```text
//! expr    := or
//! or      := and ("or" and)*
//! and     := unary ("and" unary)*
//! unary   := "not" unary | primary
//! primary := "(" expr ")" | "any" | field op value
//! field   := "source" | "kind" | "body"
//! op      := "==" | "!=" | "contains" | "prefix"
//! value   := "\"…\"" (backslash escapes) | bareword
//! ```
//!
//! The language is deliberately tiny: three fields, four comparison
//! operators, boolean combinators, and parentheses. Parsing happens once
//! at rule-upsert time; evaluation is a straight AST walk with no
//! allocation, so the hot path stays cheap (see `engine.rs` for the
//! per-user scan, bounded by `MAX_RULES_PER_USER`).

use std::fmt;

/// The alert fields a predicate may inspect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// The originating alert service (`IncomingAlert::source`).
    Source,
    /// The alert kind — the subject line / category of the alert.
    Kind,
    /// The alert payload body.
    Body,
}

impl Field {
    fn name(self) -> &'static str {
        match self {
            Field::Source => "source",
            Field::Kind => "kind",
            Field::Body => "body",
        }
    }
}

/// Comparison operators over a field and a literal value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Exact equality.
    Eq,
    /// Exact inequality.
    Ne,
    /// Substring containment.
    Contains,
    /// Prefix match.
    Prefix,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Eq => "==",
            Op::Ne => "!=",
            Op::Contains => "contains",
            Op::Prefix => "prefix",
        }
    }
}

/// A compiled predicate AST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Matches every alert (`any`).
    Any,
    /// One field comparison.
    Cmp {
        /// Field under test.
        field: Field,
        /// Comparison operator.
        op: Op,
        /// Literal right-hand side.
        value: String,
    },
    /// All branches must match.
    And(Vec<Predicate>),
    /// At least one branch must match.
    Or(Vec<Predicate>),
    /// Inverts its operand.
    Not(Box<Predicate>),
}

/// A borrowed view of the alert fields a predicate evaluates against.
#[derive(Debug, Clone, Copy)]
pub struct AlertView<'a> {
    /// Originating service name.
    pub source: &'a str,
    /// Alert kind (subject / category).
    pub kind: &'a str,
    /// Payload body.
    pub body: &'a str,
}

/// A parse failure, with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong, with enough context to fix the rule text.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "predicate parse error: {}", self.reason)
    }
}

impl std::error::Error for ParseError {}

impl Predicate {
    /// Parses the predicate grammar above.
    pub fn parse(text: &str) -> Result<Predicate, ParseError> {
        let tokens = lex(text)?;
        let mut p = Parser { tokens, pos: 0 };
        let expr = p.expr()?;
        if p.pos != p.tokens.len() {
            return Err(ParseError {
                reason: format!("trailing input after expression: {:?}", p.tokens[p.pos]),
            });
        }
        Ok(expr)
    }

    /// Evaluates the predicate against one alert. No allocation.
    pub fn eval(&self, view: AlertView<'_>) -> bool {
        match self {
            Predicate::Any => true,
            Predicate::Cmp { field, op, value } => {
                let actual = match field {
                    Field::Source => view.source,
                    Field::Kind => view.kind,
                    Field::Body => view.body,
                };
                match op {
                    Op::Eq => actual == value,
                    Op::Ne => actual != value,
                    Op::Contains => actual.contains(value.as_str()),
                    Op::Prefix => actual.starts_with(value.as_str()),
                }
            }
            Predicate::And(parts) => parts.iter().all(|p| p.eval(view)),
            Predicate::Or(parts) => parts.iter().any(|p| p.eval(view)),
            Predicate::Not(inner) => !inner.eval(view),
        }
    }

    /// Canonical text form; `parse(to_text())` round-trips to an equal AST.
    pub fn to_text(&self) -> String {
        match self {
            Predicate::Any => "any".into(),
            Predicate::Cmp { field, op, value } => {
                format!("{} {} {}", field.name(), op.name(), quote(value))
            }
            Predicate::And(parts) => {
                let inner: Vec<String> = parts.iter().map(|p| p.to_text()).collect();
                format!("({})", inner.join(" and "))
            }
            Predicate::Or(parts) => {
                let inner: Vec<String> = parts.iter().map(|p| p.to_text()).collect();
                format!("({})", inner.join(" or "))
            }
            Predicate::Not(inner) => format!("not ({})", inner.to_text()),
        }
    }
}

fn quote(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Word(String),
    Str(String),
    LParen,
    RParen,
    EqEq,
    NotEq,
}

fn lex(text: &str) -> Result<Vec<Token>, ParseError> {
    let mut tokens = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '(' => {
                chars.next();
                tokens.push(Token::LParen);
            }
            ')' => {
                chars.next();
                tokens.push(Token::RParen);
            }
            '=' => {
                chars.next();
                if chars.next() != Some('=') {
                    return Err(ParseError { reason: "expected '==' (single '=' is not an operator)".into() });
                }
                tokens.push(Token::EqEq);
            }
            '!' => {
                chars.next();
                if chars.next() != Some('=') {
                    return Err(ParseError { reason: "expected '!=' after '!'".into() });
                }
                tokens.push(Token::NotEq);
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some(other) => {
                                s.push('\\');
                                s.push(other);
                            }
                            None => {
                                return Err(ParseError { reason: "unterminated string literal".into() })
                            }
                        },
                        Some(other) => s.push(other),
                        None => return Err(ParseError { reason: "unterminated string literal".into() }),
                    }
                }
                tokens.push(Token::Str(s));
            }
            c if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' || c == '/' => {
                let mut w = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' || c == '/' {
                        w.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Word(w));
            }
            other => {
                return Err(ParseError { reason: format!("unexpected character {other:?}") });
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_word(&self) -> Option<&str> {
        match self.peek() {
            Some(Token::Word(w)) => Some(w.as_str()),
            _ => None,
        }
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expr(&mut self) -> Result<Predicate, ParseError> {
        let first = self.and_chain()?;
        let mut parts = vec![first];
        while self.peek_word() == Some("or") {
            self.bump();
            parts.push(self.and_chain()?);
        }
        Ok(if parts.len() == 1 { parts.pop().expect("non-empty") } else { Predicate::Or(parts) })
    }

    fn and_chain(&mut self) -> Result<Predicate, ParseError> {
        let first = self.unary()?;
        let mut parts = vec![first];
        while self.peek_word() == Some("and") {
            self.bump();
            parts.push(self.unary()?);
        }
        Ok(if parts.len() == 1 { parts.pop().expect("non-empty") } else { Predicate::And(parts) })
    }

    fn unary(&mut self) -> Result<Predicate, ParseError> {
        if self.peek_word() == Some("not") {
            self.bump();
            return Ok(Predicate::Not(Box::new(self.unary()?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Predicate, ParseError> {
        match self.bump() {
            Some(Token::LParen) => {
                let inner = self.expr()?;
                match self.bump() {
                    Some(Token::RParen) => Ok(inner),
                    other => Err(ParseError { reason: format!("expected ')', got {other:?}") }),
                }
            }
            Some(Token::Word(w)) if w == "any" => Ok(Predicate::Any),
            Some(Token::Word(w)) => {
                let field = match w.as_str() {
                    "source" => Field::Source,
                    "kind" => Field::Kind,
                    "body" => Field::Body,
                    other => {
                        return Err(ParseError {
                            reason: format!("unknown field {other:?} (expected source, kind, or body)"),
                        })
                    }
                };
                let op = match self.bump() {
                    Some(Token::EqEq) => Op::Eq,
                    Some(Token::NotEq) => Op::Ne,
                    Some(Token::Word(w)) if w == "contains" => Op::Contains,
                    Some(Token::Word(w)) if w == "prefix" => Op::Prefix,
                    other => {
                        return Err(ParseError {
                            reason: format!("expected an operator (==, !=, contains, prefix), got {other:?}"),
                        })
                    }
                };
                let value = match self.bump() {
                    Some(Token::Str(s)) => s,
                    Some(Token::Word(w)) => w,
                    other => {
                        return Err(ParseError { reason: format!("expected a value, got {other:?}") })
                    }
                };
                Ok(Predicate::Cmp { field, op, value })
            }
            other => Err(ParseError { reason: format!("expected a predicate, got {other:?}") }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(source: &'a str, kind: &'a str, body: &'a str) -> AlertView<'a> {
        AlertView { source, kind, body }
    }

    #[test]
    fn comparisons_and_combinators() {
        let p = Predicate::parse("source == aladdin and kind prefix water").expect("parse");
        assert!(p.eval(view("aladdin", "water-leak", "basement sensor")));
        assert!(!p.eval(view("aladdin", "power", "x")));
        assert!(!p.eval(view("proxy", "water-leak", "x")));

        let p = Predicate::parse("body contains \"recount\" or body contains ps2").expect("parse");
        assert!(p.eval(view("proxy", "page", "florida recount news")));
        assert!(p.eval(view("proxy", "page", "ps2 in stock")));
        assert!(!p.eval(view("proxy", "page", "nothing")));

        let p = Predicate::parse("not (source == noisy)").expect("parse");
        assert!(p.eval(view("quiet", "k", "b")));
        assert!(!p.eval(view("noisy", "k", "b")));

        assert!(Predicate::parse("any").expect("parse").eval(view("a", "b", "c")));
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let p = Predicate::parse("source == a and kind == x or source == b").expect("parse");
        assert!(p.eval(view("a", "x", "")));
        assert!(p.eval(view("b", "anything", "")));
        assert!(!p.eval(view("a", "y", "")));
    }

    #[test]
    fn quoted_values_with_escapes() {
        let p = Predicate::parse(r#"body contains "say \"hi\" \\ there""#).expect("parse");
        assert!(p.eval(view("s", "k", r#"please say "hi" \ there now"#)));
    }

    #[test]
    fn to_text_round_trips() {
        for src in [
            "any",
            "source == aladdin",
            "kind prefix \"water\"",
            "(source == a and kind == b) or not (body contains x)",
            "not (not (body != \"a b\"))",
        ] {
            let p = Predicate::parse(src).expect("parse");
            let round = Predicate::parse(&p.to_text()).expect("re-parse");
            assert_eq!(p, round, "canonical text round-trips for {src:?}");
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in ["source = a", "unknownfield == x", "source ==", "(source == a", "source == a extra", "!x"] {
            assert!(Predicate::parse(bad).is_err(), "{bad:?} must fail");
        }
    }
}
