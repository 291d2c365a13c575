//! `ledger ls|dlq|retry --dir <dir>`: inspect a durable delivery ledger's
//! pending, leased and retrying records, list its dead letters with their
//! last errors, or requeue the dead letters for fresh attempts.

use crate::flags::{Flags, Kind};
use crate::{Done, Outcome};
use simba_ledger::{DeliveryLedger, LedgerConfig};
use simba_sim::SimTime;
use std::fmt::Write as _;

/// `ledger ls|dlq|retry --dir <dir>`.
pub(crate) fn ledger(args: &[String]) -> Done {
    let Some(action) = args.first() else {
        return Err(Outcome::usage("ledger takes an action (ls, dlq, or retry)"));
    };
    let flags = Flags::parse(&args[1..], &[("--dir", Kind::Value)])?;
    let dir = flags.required("--dir")?;
    let mut ledger = DeliveryLedger::open(LedgerConfig::on_disk(dir))
        .map_err(|e| Outcome::error(format!("cannot open ledger at {dir}: {e}\n")))?;
    match action.as_str() {
        "ls" => {
            let c = ledger.counts();
            let mut out = format!(
                "{dir}: {} pending, {} leased, {} retrying, {} dead-lettered\n",
                c.pending, c.leased, c.retrying, c.dead_lettered
            );
            for r in ledger.records() {
                let holder = match &r.lease {
                    Some(l) => format!(" held by {} until {}", l.worker, l.expires_at),
                    None if r.state == simba_ledger::RecordState::Retrying => {
                        format!(" not before {}", r.not_before)
                    }
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "  #{} {:<8} {} {} -> {} ({} attempt(s)){}",
                    r.id, r.state.label(), r.idempotency_key, r.channel, r.address,
                    r.attempts, holder
                );
            }
            Ok(Outcome::ok(out))
        }
        "dlq" => {
            let dead: Vec<_> = ledger.dead_letters().collect();
            let mut out = format!("{dir}: {} dead-lettered record(s)\n", dead.len());
            for r in dead {
                let _ = writeln!(
                    out,
                    "  #{} {} {} ({} attempt(s)) last error: {}",
                    r.id,
                    r.idempotency_key,
                    r.channel,
                    r.attempts,
                    r.last_error.as_deref().unwrap_or("none recorded")
                );
            }
            Ok(Outcome::ok(out))
        }
        "retry" => {
            let moved = ledger.requeue_dead_letters(SimTime::ZERO);
            ledger.commit().map_err(|e| {
                Outcome::error(format!("requeued {moved} but commit failed: {e}\n"))
            })?;
            Ok(Outcome::ok(format!("requeued {moved} dead-lettered record(s)\n")))
        }
        other => Err(Outcome::usage(&format!("unknown ledger action {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::strings;
    use simba_core::address::CommType;

    fn ledger(args: &[String]) -> Outcome {
        super::ledger(args).unwrap_or_else(|early| early)
    }

    #[test]
    fn ledger_ls_dlq_retry_round_trip() {
        use simba_core::subscription::UserId;
        use simba_ledger::{DeliveryLedger, LedgerConfig, WorkerId};

        let dir = std::env::temp_dir().join(format!(
            "simba-cli-ledger-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dir_s = dir.to_string_lossy().into_owned();

        // Seed a ledger: one pending record, one driven to the DLQ.
        {
            let mut config = LedgerConfig::on_disk(&dir);
            config.max_attempts = 1;
            let mut l = DeliveryLedger::open(config).unwrap();
            l.enqueue(
                &UserId::new("alice"),
                1,
                CommType::Im,
                "im:alice",
                "alert",
                SimTime::ZERO,
            );
            l.enqueue(
                &UserId::new("bob"),
                2,
                CommType::Email,
                "bob@example.com",
                "alert",
                SimTime::ZERO,
            );
            let work = l.lease(&WorkerId::new("w"), SimTime::ZERO, 1);
            assert_eq!(work.len(), 1);
            l.record_failed(&WorkerId::new("w"), work[0].id, "smtp down", SimTime::ZERO)
                .unwrap();
            l.commit().unwrap();
        }

        let out = ledger(&strings(&["ls", "--dir", &dir_s]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("1 pending"), "{}", out.output);
        assert!(out.output.contains("1 dead-lettered"), "{}", out.output);

        let out = ledger(&strings(&["dlq", "--dir", &dir_s]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("smtp down"), "{}", out.output);

        let out = ledger(&strings(&["retry", "--dir", &dir_s]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("requeued 1"), "{}", out.output);

        // The requeue is durable: reopening sees two live records.
        let out = ledger(&strings(&["ls", "--dir", &dir_s]));
        assert!(out.output.contains("2 pending"), "{}", out.output);
        assert!(out.output.contains("0 dead-lettered"), "{}", out.output);

        assert_eq!(ledger(&strings(&["ls"])).code, 2);
        assert_eq!(ledger(&strings(&["scrub", "--dir", &dir_s])).code, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ledger_cli_retry_feeds_workers_and_journal_survives_reopen() {
        use simba_core::subscription::UserId;
        use simba_ledger::{DeliveryLedger, LedgerConfig, WorkerId};

        let dir = std::env::temp_dir().join(format!(
            "simba-cli-ledger-retry-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dir_s = dir.to_string_lossy().into_owned();

        // Drive a record into the DLQ.
        {
            let mut config = LedgerConfig::on_disk(&dir);
            config.max_attempts = 1;
            let mut l = DeliveryLedger::open(config).unwrap();
            l.enqueue(&UserId::new("ada"), 7, CommType::Email, "ada@mail", "alert", SimTime::ZERO);
            let work = l.lease(&WorkerId::new("w"), SimTime::ZERO, 1);
            l.record_failed(&WorkerId::new("w"), work[0].id, "smtp down", SimTime::ZERO).unwrap();
            l.commit().unwrap();
        }
        let out = ledger(&strings(&["dlq", "--dir", &dir_s]));
        assert!(out.output.contains("1 dead-lettered"), "{}", out.output);

        // Requeue through the CLI code path.
        let out = ledger(&strings(&["retry", "--dir", &dir_s]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("requeued 1"), "{}", out.output);

        // A worker can now lease the requeued record and finish it; the
        // whole history journals through another reopen.
        {
            let mut l = DeliveryLedger::open(LedgerConfig::on_disk(&dir)).unwrap();
            let work = l.lease(&WorkerId::new("w2"), SimTime::from_secs(1), 4);
            assert_eq!(work.len(), 1, "requeued record must be leasable");
            assert_eq!(&*work[0].address, "ada@mail");
            l.record_sent(&WorkerId::new("w2"), work[0].id, SimTime::from_secs(1)).unwrap();
            l.commit().unwrap();
        }
        let out = ledger(&strings(&["ls", "--dir", &dir_s]));
        assert!(out.output.contains("0 pending"), "{}", out.output);
        assert!(out.output.contains("0 dead-lettered"), "{}", out.output);
        let out = ledger(&strings(&["dlq", "--dir", &dir_s]));
        assert!(out.output.contains("0 dead-lettered"), "{}", out.output);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
