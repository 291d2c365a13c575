//! Pessimistic logging (§4.2.1).
//!
//! "Upon receiving an IM, MyAlertBuddy instructs the SIMBA library to save
//! a copy to a log file **before** sending the acknowledgement. After
//! processing the IM, MyAlertBuddy marks the saved copy as 'Processed'.
//! Every time MyAlertBuddy is restarted, it first checks the log file for
//! unprocessed IMs before accepting new alerts."
//!
//! The invariant this buys (property-tested in `tests/wal_safety.rs`): an
//! alert that was acknowledged to its sender is never lost, at any crash
//! point. Crash before append ⇒ no ack ⇒ the sender's delivery mode falls
//! back. Crash after append ⇒ replayed on restart (possibly causing a
//! duplicate, which timestamp dedup discards at the user).

use crate::alert::IncomingAlert;
use crate::subscription::UserId;
use simba_sim::SimTime;
use std::collections::BTreeMap;

/// One logged alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Log-assigned id (monotonic).
    pub id: u64,
    /// When MyAlertBuddy received the alert.
    pub received_at: SimTime,
    /// The raw alert payload.
    pub alert: IncomingAlert,
    /// Whether routing completed.
    pub processed: bool,
    /// Which buddy the record belongs to. Per-user logs leave this `None`
    /// (the log itself scopes the owner); shard logs multiplex many
    /// buddies into one journal and tag every record with its owner.
    pub user: Option<UserId>,
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

/// The pessimistic-logging interface used by MyAlertBuddy.
pub trait WriteAheadLog {
    /// Persists an alert *before* it is acknowledged. Returns the log id.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] if persistence failed — in that case the
    /// caller must NOT acknowledge the alert.
    fn append(&mut self, alert: &IncomingAlert, received_at: SimTime) -> Result<u64, WalError>;

    /// Marks a logged alert as processed (routing completed).
    ///
    /// # Errors
    ///
    /// Returns [`WalError::UnknownId`] for ids never appended.
    fn mark_processed(&mut self, id: u64) -> Result<(), WalError>;

    /// All records still unprocessed, in append order — the restart replay
    /// set.
    fn unprocessed(&self) -> Vec<WalRecord>;

    /// Whether any record is still unprocessed. A buddy's idle deadline
    /// calls this before hibernating it, so implementations should
    /// answer without building the full replay set.
    fn has_unprocessed(&self) -> bool {
        !self.unprocessed().is_empty()
    }

    /// Total records in the log.
    fn len(&self) -> usize;

    /// Whether the log holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An in-memory log for simulation harnesses: the harness owns the log so
/// it survives a simulated MyAlertBuddy crash.
#[derive(Debug, Clone, Default)]
pub struct InMemoryWal {
    records: BTreeMap<u64, WalRecord>,
    next_id: u64,
}

impl InMemoryWal {
    /// An empty log.
    pub fn new() -> Self {
        InMemoryWal::default()
    }
}

impl WriteAheadLog for InMemoryWal {
    fn append(&mut self, alert: &IncomingAlert, received_at: SimTime) -> Result<u64, WalError> {
        let id = self.next_id;
        self.next_id += 1;
        self.records.insert(
            id,
            WalRecord {
                id,
                received_at,
                alert: alert.clone(),
                processed: false,
                user: None,
            },
        );
        Ok(id)
    }

    fn mark_processed(&mut self, id: u64) -> Result<(), WalError> {
        match self.records.get_mut(&id) {
            Some(r) => {
                r.processed = true;
                Ok(())
            }
            None => Err(WalError::UnknownId(id)),
        }
    }

    fn unprocessed(&self) -> Vec<WalRecord> {
        self.records.values().filter(|r| !r.processed).cloned().collect()
    }

    fn has_unprocessed(&self) -> bool {
        self.records.values().any(|r| !r.processed)
    }

    fn len(&self) -> usize {
        self.records.len()
    }
}

/// Escapes tabs, newlines, and backslashes so `s` survives a
/// tab-separated, newline-terminated journal payload
/// ([`crate::journal`]); every record codec in the workspace uses it.
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
        while let Some(at) = rest.find(['\\', '\t', '\n', '\r']) {
            f.write_str(&rest[..at])?;
            f.write_str(match rest.as_bytes()[at] {
                b'\\' => "\\\\",
                b'\t' => "\\t",
                b'\n' => "\\n",
                _ => "\\r",
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

    fn alert(body: &str, origin_secs: u64) -> IncomingAlert {
        IncomingAlert::from_im("aladdin-gw", body, SimTime::from_secs(origin_secs))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn in_memory_append_mark_replay() {
        let mut wal = InMemoryWal::new();
        let a = wal.append(&alert("one", 1), t(1)).unwrap();
        let b = wal.append(&alert("two", 2), t(2)).unwrap();
        assert_ne!(a, b);
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.unprocessed().len(), 2);
        wal.mark_processed(a).unwrap();
        let un = wal.unprocessed();
        assert_eq!(un.len(), 1);
        assert_eq!(&*un[0].alert.body, "two");
        assert!(matches!(wal.mark_processed(99), Err(WalError::UnknownId(99))));
    }

    #[test]
    fn escape_unescape_inverse() {
        for s in ["plain", "a\tb", "a\nb", "a\\b", "\\t literal", "", "trailing\\"] {
            assert_eq!(unescape(&escape(s).to_string()), s, "for {s:?}");
        }
    }
}
