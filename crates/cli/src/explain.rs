//! `explain`: dry-run a delivery mode against an address book and print
//! the block cascade under chosen failure assumptions.

use crate::flags::{Flags, Kind};
use crate::{read_file, Done, Outcome};
use simba_core::address::AddressBook;
use simba_core::alert::{Alert, AlertId, Urgency};
use simba_core::delivery::{
    AttemptOutcome, DeliveryCommand, DeliveryEvent, DeliveryProcess, SendFailure,
};
use simba_core::mode::DeliveryMode;
use simba_sim::SimTime;
use std::fmt::Write as _;

/// `explain --addresses f --mode f [--disable n]... [--fail n]... [--ack n]`.
pub(crate) fn explain(args: &[String]) -> Done {
    let flags = Flags::parse(
        args,
        &[
            ("--addresses", Kind::Value),
            ("--mode", Kind::Value),
            ("--disable", Kind::Value),
            ("--fail", Kind::Value),
            ("--ack", Kind::Value),
        ],
    )?;
    let (book_path, mode_path) = (flags.required("--addresses")?, flags.required("--mode")?);
    let (book_xml, mode_xml) = (read_file(book_path)?, read_file(mode_path)?);
    let mut book = AddressBook::from_xml(&book_xml)
        .map_err(|e| Outcome::error(format!("INVALID address book: {e}\n")))?;
    let mode = DeliveryMode::from_xml(&mode_xml)
        .map_err(|e| Outcome::error(format!("INVALID delivery mode: {e}\n")))?;
    for name in flags.all("--disable") {
        if !book.set_enabled(name, false) {
            return Err(Outcome::error(format!("--disable: no address named {name:?}\n")));
        }
    }
    Ok(Outcome::ok(explain_cascade(&mode, &book, &flags.all("--fail"), flags.value("--ack"))))
}

/// Dry-runs the mode and renders the cascade.
fn explain_cascade(
    mode: &DeliveryMode,
    book: &AddressBook,
    failing: &[&str],
    acked: Option<&str>,
) -> String {
    let alert = Alert {
        id: AlertId(0),
        source: "dry-run".into(),
        category: "dry-run".into(),
        text: "dry-run alert".into(),
        origin_timestamp: SimTime::ZERO,
        received_at: SimTime::ZERO,
        urgency: Urgency::Normal,
    };
    let mut out = String::new();
    let _ = writeln!(out, "delivery mode {:?} against {} address(es):", mode.name, book.len());

    let (mut process, mut commands) = DeliveryProcess::start(alert, mode.clone(), book, SimTime::ZERO);
    let mut now = SimTime::ZERO;
    let mut guard = 0;
    while !commands.is_empty() {
        guard += 1;
        if guard > 50 {
            let _ = writeln!(out, "  ... (cascade truncated)");
            break;
        }
        let mut next = Vec::new();
        for command in commands {
            match command {
                DeliveryCommand::Send { attempt, comm_type, address_name, .. } => {
                    if failing.contains(&&*address_name) {
                        let _ = writeln!(out, "  [{now}] send {comm_type} via {address_name:?} → FAILS");
                        next.extend(process.handle(
                            DeliveryEvent::SendFailed { attempt, failure: SendFailure::RecipientUnreachable },
                            book,
                            now,
                        ));
                    } else {
                        let _ = writeln!(out, "  [{now}] send {comm_type} via {address_name:?} → accepted");
                        next.extend(process.handle(DeliveryEvent::SendAccepted { attempt }, book, now));
                        if acked == Some(&*address_name) {
                            let _ = writeln!(out, "  [{now}] user acknowledges via {address_name:?}");
                            next.extend(process.handle(DeliveryEvent::Acked { attempt }, book, now));
                        }
                    }
                }
                DeliveryCommand::StartTimer { timer, after } => {
                    // Fast-forward: if the process is still waiting when the
                    // window expires, the timer drives the fallback.
                    now += after;
                    let _ = writeln!(out, "  [{now}] ack window of {after} expires");
                    next.extend(process.handle(DeliveryEvent::TimerFired { timer }, book, now));
                }
            }
        }
        commands = next;
    }

    let _ = writeln!(out, "outcome: {:?}", process.status());
    let _ = writeln!(out, "attempts:");
    for a in process.attempts() {
        let verdict = match a.outcome {
            AttemptOutcome::Pending => "pending".to_string(),
            AttemptOutcome::Accepted => "accepted".to_string(),
            AttemptOutcome::Failed(f) => format!("failed: {f}"),
            AttemptOutcome::Acked(at) => format!("acknowledged at {at}"),
        };
        let _ = writeln!(
            out,
            "  block {} {:>5} via {:<12} {}",
            a.block + 1,
            a.comm_type.to_string(),
            format!("{:?}", a.address_name),
            verdict
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::strings;
    use simba_core::address::{Address, CommType};
    use simba_core::mode::Block;
    use simba_sim::SimDuration;

    fn explain(args: &[String]) -> Outcome {
        super::explain(args).unwrap_or_else(|early| early)
    }

    #[test]
    fn explain_happy_and_fallback_paths() {
        let book = {
            let mut b = AddressBook::new();
            b.add(Address::new("IM", CommType::Im, "im:a")).unwrap();
            b.add(Address::new("EM", CommType::Email, "a@b")).unwrap();
            b
        };
        let mode = DeliveryMode::new(
            "Urgent",
            vec![
                Block::acked(vec!["IM".into()], SimDuration::from_secs(60)),
                Block::fire_and_forget(vec!["EM".into()]),
            ],
        )
        .unwrap();

        // Acked on the first block.
        let text = explain_cascade(&mode, &book, &[], Some("IM"));
        assert!(text.contains("user acknowledges"), "{text}");
        assert!(text.contains("Acked"), "{text}");

        // No ack: window expires, email fires.
        let text = explain_cascade(&mode, &book, &[], None);
        assert!(text.contains("ack window of 1.0min"), "{text}");
        assert!(text.contains("via \"EM\""), "{text}");
        assert!(text.contains("Unconfirmed"), "{text}");

        // IM fails synchronously.
        let text = explain_cascade(&mode, &book, &["IM"], None);
        assert!(text.contains("FAILS"), "{text}");
    }

    #[test]
    fn explain_cli_flag_errors() {
        assert_eq!(explain(&strings(&["--mode"])).code, 2);
        assert_eq!(explain(&strings(&["--bogus", "x"])).code, 2);
        assert_eq!(explain(&strings(&[])).code, 2); // missing required flags
    }
}
