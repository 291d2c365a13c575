//! Pessimistic logging (§4.2.1): the record, the error type and the
//! payload escaping shared by every log in the workspace.
//!
//! "Upon receiving an IM, MyAlertBuddy instructs the SIMBA library to save
//! a copy to a log file **before** sending the acknowledgement. After
//! processing the IM, MyAlertBuddy marks the saved copy as 'Processed'.
//! Every time MyAlertBuddy is restarted, it first checks the log file for
//! unprocessed IMs before accepting new alerts."
//!
//! The log a buddy writes is its shard's [`ShardLog`](crate::shardlog::ShardLog),
//! in memory or on disk, which the shard worker — the "SIMBA library" of
//! the quote — owns and lends to the buddy's calls. The invariant this buys
//! (property-tested in `tests/wal_safety.rs`, in memory and across a
//! reopen from disk): an alert that was acknowledged to its sender is never
//! lost, at any crash point. Crash before append ⇒ no ack ⇒ the sender's
//! delivery mode falls back. Crash after append ⇒ replayed on restart
//! (possibly causing a duplicate, which timestamp dedup discards at the
//! user).

use crate::alert::IncomingAlert;
use crate::subscription::UserId;
use simba_sim::SimTime;

/// One logged, not yet processed alert. A processed-mark removes the
/// record, so a log only ever hands out unprocessed ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Log-assigned id (monotonic).
    pub id: u64,
    /// When MyAlertBuddy received the alert.
    pub received_at: SimTime,
    /// The raw alert payload.
    pub alert: IncomingAlert,
    /// Which buddy the record belongs to: a shard log multiplexes many
    /// buddies into one journal.
    pub user: UserId,
}

/// Errors from a write-ahead log.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failed (file backend).
    Io(std::io::Error),
    /// A persisted line could not be parsed during recovery.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// `mark_processed` named an id that was never appended.
    UnknownId(
        /// The offending id.
        u64,
    ),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::Corrupt { line, reason } => write!(f, "wal corrupt at line {line}: {reason}"),
            WalError::UnknownId(id) => write!(f, "wal id {id} unknown"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Escapes tabs, newlines, backslashes and NULs so `s` survives a
/// tab-separated, newline-terminated journal payload
/// ([`crate::journal`], whose zero tail and torn-write check rely on
/// frames holding no NUL); every record codec in the workspace uses it.
/// The escaped form is written where it is formatted — straight into
/// the journal's buffer — never into a string of its own.
pub fn escape(s: &str) -> Escaped<'_> {
    Escaped(s)
}

/// [`escape`]'s result: displays as the escaped text.
#[derive(Debug, Clone, Copy)]
pub struct Escaped<'a>(&'a str);

impl std::fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut rest = self.0;
        while let Some(at) = rest.find(['\\', '\t', '\n', '\r', '\0']) {
            f.write_str(&rest[..at])?;
            f.write_str(match rest.as_bytes()[at] {
                b'\\' => "\\\\",
                b'\t' => "\\t",
                b'\n' => "\\n",
                b'\r' => "\\r",
                _ => "\\0",
            })?;
            rest = &rest[at + 1..];
        }
        f.write_str(rest)
    }
}

/// Inverse of [`escape`].
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('0') => out.push('\0'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_unescape_inverse() {
        for s in ["plain", "a\tb", "a\nb", "a\\b", "\\t literal", "", "trailing\\", "nul\0", "\\0 literal"] {
            assert_eq!(unescape(&escape(s).to_string()), s, "for {s:?}");
            assert!(!escape(s).to_string().contains('\0'), "for {s:?}");
        }
    }
}
