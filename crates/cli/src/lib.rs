//! `simba-cli` — the operator tool for SIMBA deployments.
//!
//! Subcommands (see [`run`] and `simba-cli help`):
//!
//! * `validate addresses|mode|registry <file>` — check the §4.1 XML
//!   documents before installing them;
//! * `explain` — dry-run a delivery mode against an address book and print
//!   the block cascade under chosen failure assumptions;
//! * `wal inspect <dir>` — print a shard log's unprocessed records per
//!   user (tolerating a torn tail, as a restarting host would);
//! * `gateway serve|send|probe` — run the framed-TCP ingestion gateway
//!   in front of a live host fleet, submit alerts to one, or check its
//!   health counters;
//! * `store put|get|watch` — publish, read, or poll soft-state facts
//!   (presence, channel health) through a serving gateway's state
//!   frames; facts published this way steer the host's delivery routing;
//! * `telemetry demo|tail` — run an instrumented pipeline and print its
//!   structured event stream and metrics snapshot, or pretty-print a
//!   JSON-lines event file captured elsewhere;
//! * `ledger ls|dlq|retry` — inspect a durable delivery ledger's
//!   pending/leased/retrying records, list its dead-lettered sends with
//!   their last errors, or requeue the dead letters for fresh attempts;
//! * `rules ls|add|rm|test` — manage a user's alert rules in a rules log
//!   (list, add/replace, delete) and dry-run an alert against them to see
//!   which rule would fire and what the engine would decide.
//!
//! All command logic lives here (testable); `main.rs` is a thin shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;

use std::fmt::Write as _;

/// A command outcome: what to print and the process exit code.
#[derive(Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Text for stdout.
    pub output: String,
    /// Process exit code (0 = success, 1 = user error, 2 = usage error).
    pub code: i32,
}

impl Outcome {
    fn ok(output: impl Into<String>) -> Self {
        Outcome { output: output.into(), code: 0 }
    }

    fn error(output: impl Into<String>) -> Self {
        Outcome { output: output.into(), code: 1 }
    }

    fn usage(extra: &str) -> Self {
        let mut output = String::new();
        if !extra.is_empty() {
            let _ = writeln!(output, "error: {extra}\n");
        }
        output.push_str(USAGE);
        Outcome { output, code: 2 }
    }
}

/// The help text.
pub const USAGE: &str = "\
simba-cli — operate a SIMBA alert-delivery deployment

USAGE:
  simba-cli validate addresses <file.xml>
  simba-cli validate mode <file.xml>
  simba-cli validate registry <file.xml>
  simba-cli explain --addresses <file.xml> --mode <file.xml>
            [--disable <name>]... [--fail <name>]... [--ack <name>]
  simba-cli wal inspect <shard-log-dir>
  simba-cli gateway serve [--addr <a>] [--users <n>] [--duration-ms <n>]
            [--workers <n>] [--queue <n>] [--rate <alerts/s>] [--source <s>]
  simba-cli gateway send --addr <a> [--user <u>] [--body <text>]
            [--count <n>] [--channel im|email] [--source <s>]
  simba-cli gateway probe --addr <a>
  simba-cli store put --addr <a> --key <k> --value <v> [--scope <s>]
            [--ttl-ms <n>] [--source <s>]
  simba-cli store get --addr <a> --key <k> [--scope <s>]
  simba-cli store watch --addr <a> --key <k> [--scope <s>]
            [--interval-ms <n>] [--duration-ms <n>]
  simba-cli telemetry demo [--seed <n>] [--alerts <n>] [--json]
  simba-cli telemetry tail <file.jsonl>
  simba-cli ledger ls --dir <dir>
  simba-cli ledger dlq --dir <dir>
  simba-cli ledger retry --dir <dir>
  simba-cli rules ls --dir <dir> --user <u>
  simba-cli rules add --dir <dir> --user <u> --name <n> --predicate <p>
            [--action deliver|suppress|digest] [--severity low|normal|critical]
            [--dedupe <template>] [--window-ms <n>] [--max-count <n>]
            [--exemplars <n>] [--key <template>] [--id <n>] [--disabled]
  simba-cli rules rm --dir <dir> --user <u> --id <n>
  simba-cli rules test --dir <dir> --user <u> --source <s> [--kind <k>]
            [--body <text>]
  simba-cli help

`explain` fires the delivery mode against the address book and reports the
block cascade: --disable turns an address off first, --fail makes a send
to that address fail synchronously, --ack names the address whose send the
user acknowledges (default: nothing is acknowledged, so every ack window
expires).
";

/// Dispatches a command line (without the program name).
pub fn run(args: &[String]) -> Outcome {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("help" | "--help" | "-h") => Outcome::ok(USAGE),
        Some("validate") => commands::validate(&args[1..]),
        Some("explain") => commands::explain(&args[1..]),
        Some("wal") => commands::wal(&args[1..]),
        Some("gateway") => commands::gateway(&args[1..]),
        Some("store") => commands::store(&args[1..]),
        Some("telemetry") => commands::telemetry(&args[1..]),
        Some("ledger") => commands::ledger(&args[1..]),
        Some("rules") => commands::rules(&args[1..]),
        Some(other) => Outcome::usage(&format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_paths() {
        assert_eq!(run(&[]).code, 0);
        assert_eq!(run(&args(&["help"])).code, 0);
        assert!(run(&args(&["--help"])).output.contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let out = run(&args(&["frobnicate"]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("unknown command"));
    }
}
