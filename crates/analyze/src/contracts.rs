//! The annotated contract registry behind the `durability.*` and
//! `concurrency.*` rule families.
//!
//! §4.2.1's durable-before-ack invariant is spread across four crates
//! (wal, shardlog, gateway, ledger), so the checker cannot infer it —
//! it has to be *told* which calls acknowledge an alert to the outside
//! world and which calls make state durable. This module is that
//! annotation: a reviewed, documented list. Growing the system means
//! growing this file; an ack path the registry does not know about is
//! invisible to `durability.ack-before-commit`, so new ack shapes must
//! land here in the same PR that introduces them.

/// How a registered name participates in the durable-before-ack
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContractKind {
    /// Acknowledges accepted work to the outside world (a wire frame or
    /// a lifecycle event an observer may trust).
    Ack,
    /// Makes the accepted work durable (or hands it to a stage that
    /// guarantees it will be).
    Commit,
}

/// One registry entry: a call or construction name, an optional path
/// qualifier (the segment right before `::`), its role, and why.
#[derive(Debug, Clone, Copy)]
pub struct Contract {
    /// The function or variant name as written at the call site.
    pub name: &'static str,
    /// Required `Qualifier::name` segment; `None` matches any shape,
    /// including bare method calls.
    pub qualifier: Option<&'static str>,
    /// Ack or commit.
    pub kind: ContractKind,
    /// Why this name is in the registry (rendered by `simba-analyze rules`).
    pub doc: &'static str,
}

/// The reviewed ack/commit registry.
pub const CONTRACTS: &[Contract] = &[
    Contract {
        name: "Ack",
        qualifier: Some("Frame"),
        kind: ContractKind::Ack,
        doc: "the gateway's wire-level acceptance frame — once sent, the \
              client may stop retrying (§4.2.1 durable-before-ack)",
    },
    Contract {
        name: "SendAccepted",
        qualifier: Some("DeliveryEvent"),
        kind: ContractKind::Ack,
        doc: "the delivery lifecycle's acceptance event; observers treat \
              it as 'this alert will not be lost'",
    },
    Contract {
        name: "commit",
        qualifier: None,
        kind: ContractKind::Commit,
        doc: "group commit — the durable point for WAL, shard-log, and \
              ledger batches",
    },
    Contract {
        name: "try_submit",
        qualifier: None,
        kind: ContractKind::Commit,
        doc: "bounded intake handoff into the host: in memory only, not \
              durable. The gateway acks right after it, and the pump may \
              see the submission up to one executor park (1 ms) later; \
              a process death loses what is still queued",
    },
];

/// True when `(name, qualifier)` matches an ack-classified entry.
pub fn is_ack(name: &str, qualifier: Option<&str>) -> bool {
    matches(name, qualifier, ContractKind::Ack)
}

/// True when `(name, qualifier)` matches a commit-classified entry.
pub fn is_commit(name: &str, qualifier: Option<&str>) -> bool {
    matches(name, qualifier, ContractKind::Commit)
}

fn matches(name: &str, qualifier: Option<&str>, kind: ContractKind) -> bool {
    CONTRACTS.iter().any(|c| {
        c.kind == kind
            && c.name == name
            && match c.qualifier {
                Some(q) => qualifier == Some(q),
                None => true,
            }
    })
}

/// One blocking-call classification for `concurrency.blocking-under-guard`.
#[derive(Debug, Clone, Copy)]
pub struct BlockingCall {
    /// Call name at the site.
    pub name: &'static str,
    /// Required qualifier (`thread::sleep` — plain `sleep` is tokio's
    /// async one and is caught by the `.await` check instead).
    pub qualifier: Option<&'static str>,
    /// Only match zero-argument calls (`handle.join()` blocks; a slice's
    /// `join(", ")` does not).
    pub empty_args_only: bool,
    /// What the call does, for the message.
    pub what: &'static str,
}

/// Calls that can park the current OS thread. Reaching one of these —
/// directly or one call deep — while a `Mutex`/`RwLock` guard is live
/// turns the lock into a convoy under load.
pub const BLOCKING: &[BlockingCall] = &[
    BlockingCall { name: "sleep", qualifier: Some("thread"), empty_args_only: false, what: "thread::sleep parks the OS thread" },
    BlockingCall { name: "recv", qualifier: None, empty_args_only: true, what: "channel receive blocks until a message arrives" },
    BlockingCall { name: "recv_timeout", qualifier: None, empty_args_only: false, what: "channel receive blocks up to the timeout" },
    BlockingCall { name: "commit", qualifier: None, empty_args_only: false, what: "group commit performs fsync-class file I/O" },
    BlockingCall { name: "write_all", qualifier: None, empty_args_only: false, what: "file/socket write" },
    BlockingCall { name: "write_all_at", qualifier: None, empty_args_only: false, what: "positional file write" },
    BlockingCall { name: "set_len", qualifier: None, empty_args_only: false, what: "file truncate or extend" },
    BlockingCall { name: "flush", qualifier: None, empty_args_only: false, what: "file/socket flush" },
    BlockingCall { name: "sync_all", qualifier: None, empty_args_only: false, what: "fsync" },
    BlockingCall { name: "sync_data", qualifier: None, empty_args_only: false, what: "fdatasync" },
    BlockingCall { name: "read_exact", qualifier: None, empty_args_only: false, what: "file/socket read" },
    BlockingCall { name: "read_to_end", qualifier: None, empty_args_only: false, what: "file/socket read" },
    BlockingCall { name: "read_to_string", qualifier: None, empty_args_only: false, what: "file/socket read" },
    BlockingCall { name: "accept", qualifier: None, empty_args_only: true, what: "blocks until a connection arrives" },
    BlockingCall { name: "connect", qualifier: None, empty_args_only: false, what: "blocks on the TCP handshake" },
    BlockingCall { name: "join", qualifier: None, empty_args_only: true, what: "blocks until the thread exits" },
];

/// Looks up the blocking classification for `(name, qualifier, empty_args)`.
pub fn blocking_what(name: &str, qualifier: Option<&str>, empty_args: bool) -> Option<&'static str> {
    BLOCKING
        .iter()
        .find(|b| {
            b.name == name
                && (!b.empty_args_only || empty_args)
                && match b.qualifier {
                    Some(q) => qualifier == Some(q),
                    None => true,
                }
        })
        .map(|b| b.what)
}

/// Crates the `concurrency.*` rules apply to: everything on a delivery
/// or ingestion hot path where a lock convoy or deadlock loses alerts.
/// (`telemetry` buffers under its own sink lock by design; `bench`,
/// `sim`, `cli`, and `client` drive the system rather than serve it.)
pub const CONCURRENCY_CRATES: &[&str] =
    &["core", "runtime", "gateway", "net", "ledger", "store", "rules"];

/// Crates the `durability.ack-before-commit` rule applies to: the ones
/// that construct ack-classified frames or events.
pub const DURABILITY_CRATES: &[&str] = &["core", "runtime", "gateway", "ledger", "rules"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_and_commit_lookups() {
        assert!(is_ack("Ack", Some("Frame")));
        assert!(is_ack("SendAccepted", Some("DeliveryEvent")));
        assert!(!is_ack("Ack", None), "wire frame requires its qualifier");
        assert!(!is_ack("Ack", Some("Reply")));
        assert!(is_commit("commit", None));
        assert!(is_commit("commit", Some("ShardLog")));
        assert!(is_commit("try_submit", None));
        assert!(!is_commit("enqueue", None));
    }

    #[test]
    fn blocking_lookups() {
        assert!(blocking_what("commit", None, false).is_some());
        assert!(blocking_what("write_all_at", None, false).is_some());
        assert!(blocking_what("set_len", None, false).is_some());
        assert!(blocking_what("sleep", Some("thread"), false).is_some());
        assert!(blocking_what("sleep", Some("time"), false).is_none(), "tokio sleep is async");
        assert!(blocking_what("recv", None, true).is_some());
        assert!(blocking_what("join", None, true).is_some());
        assert!(blocking_what("join", None, false).is_none(), "slice join takes a separator");
    }
}
