//! `store put|get|watch`: publish, read or poll soft-state facts
//! (presence, channel health) through a serving gateway's `StateUpdate` /
//! `StateQuery` frames; facts published this way steer the host's
//! delivery routing.

use crate::flags::{Flags, Kind};
use crate::gateway::connect;
use crate::{Done, Outcome};
use simba_gateway::SubmitResult;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The flags every `store` action accepts.
const FLAGS: &[(&str, Kind)] = &[
    ("--addr", Kind::Value),
    ("--scope", Kind::Value),
    ("--key", Kind::Value),
    ("--value", Kind::Value),
    ("--ttl-ms", Kind::Number),
    ("--source", Kind::Value),
    ("--interval-ms", Kind::Number),
    ("--duration-ms", Kind::Number),
];

/// `store put|get|watch --addr A --key K [--scope S] ...`.
pub(crate) fn store(args: &[String]) -> Done {
    let action = match args.first().map(String::as_str) {
        Some(action @ ("put" | "get" | "watch")) => action,
        _ => return Err(Outcome::usage("store takes put, get, or watch")),
    };
    let flags = Flags::parse(&args[1..], FLAGS)?;
    let addr = flags.required("--addr")?;
    let key = flags.required("--key")?;
    let scope = flags.value("--scope").unwrap_or("presence");
    match action {
        "put" => {
            let value = flags.required("--value")?;
            let ttl_ms = flags.number("--ttl-ms")?.unwrap_or(30_000);
            let source = flags.value("--source").unwrap_or("cli");
            match connect(addr)?.state_put(scope, key, value, ttl_ms, source) {
                Ok(SubmitResult::Accepted) => Ok(Outcome::ok(format!(
                    "published {scope}/{key} = {value:?} (ttl {ttl_ms} ms)\n"
                ))),
                Ok(SubmitResult::Rejected { reason, .. }) => {
                    Err(Outcome::error(format!("rejected: {reason}\n")))
                }
                Err(e) => Err(Outcome::error(format!("state put failed: {e}\n"))),
            }
        }
        "get" => match connect(addr)?.state_get(scope, key) {
            Ok(Some(fact)) => Ok(Outcome::ok(format!(
                "{scope}/{key} = {:?} (generation {}, expires in {} ms)\n",
                fact.value, fact.generation, fact.ttl_remaining_ms
            ))),
            Ok(None) => Ok(Outcome::ok(format!("{scope}/{key}: no live fact\n"))),
            Err(e) => Err(Outcome::error(format!("state get failed: {e}\n"))),
        },
        _ => {
            let interval_ms = flags.number("--interval-ms")?.unwrap_or(250);
            if interval_ms == 0 {
                return Err(Outcome::usage("--interval-ms needs a positive number"));
            }
            let duration_ms = flags.number("--duration-ms")?.unwrap_or(5_000);
            watch(addr, scope, key, interval_ms, duration_ms)
        }
    }
}

/// `store watch` polls the fact and reports each transition (published,
/// refreshed, expired). The wire protocol is one request in flight, so
/// watching is polling; the store's own subscription API is in-process
/// only.
fn watch(addr: &str, scope: &str, key: &str, interval_ms: u64, duration_ms: u64) -> Done {
    let mut client = connect(addr)?;
    let started = Instant::now();
    let deadline = started + Duration::from_millis(duration_ms);
    let mut out = String::new();
    let mut last: Option<u64> = None; // last seen generation
    let mut changes = 0u64;
    loop {
        let seen = client
            .state_get(scope, key)
            .map_err(|e| Outcome::error(format!("{out}state get failed: {e}\n")))?;
        let at = started.elapsed().as_millis();
        match (&last, &seen) {
            (None, Some(fact)) => {
                changes += 1;
                let _ = writeln!(
                    out,
                    "[{at:>6} ms] published {scope}/{key} = {:?} (generation {})",
                    fact.value, fact.generation
                );
            }
            (Some(gen), Some(fact)) if *gen != fact.generation => {
                changes += 1;
                let _ = writeln!(
                    out,
                    "[{at:>6} ms] refreshed {scope}/{key} = {:?} (generation {})",
                    fact.value, fact.generation
                );
            }
            (Some(_), None) => {
                changes += 1;
                let _ = writeln!(out, "[{at:>6} ms] expired {scope}/{key}");
            }
            _ => {}
        }
        last = seen.map(|f| f.generation);
        if Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
    let _ = writeln!(out, "watched {scope}/{key} for {duration_ms} ms: {changes} change(s)");
    Ok(Outcome::ok(out))
}

#[cfg(test)]
mod tests {
    use crate::tests::strings;
    use crate::Outcome;

    fn store(args: &[String]) -> Outcome {
        super::store(args).unwrap_or_else(|early| early)
    }

    fn gateway(args: &[String]) -> Outcome {
        crate::gateway::gateway(args).unwrap_or_else(|early| early)
    }

    #[test]
    fn store_cli_flag_errors() {
        assert_eq!(store(&strings(&[])).code, 2);
        assert_eq!(store(&strings(&["frobnicate"])).code, 2);
        assert_eq!(store(&strings(&["put", "--key", "k", "--value", "v"])).code, 2, "needs --addr");
        assert_eq!(
            store(&strings(&["put", "--addr", "127.0.0.1:1", "--key", "k"])).code,
            2,
            "put needs --value"
        );
        assert_eq!(store(&strings(&["get", "--addr", "127.0.0.1:1"])).code, 2, "needs --key");
        assert_eq!(store(&strings(&["watch", "--interval-ms", "0"])).code, 2);
        // A dead address is a user error (1), not a usage error (2).
        let out = store(&strings(&["get", "--addr", "127.0.0.1:1", "--key", "k"]));
        assert_eq!(out.code, 1, "{}", out.output);
        assert!(out.output.contains("cannot reach gateway"), "{}", out.output);
    }

    #[test]
    fn store_commands_round_trip_through_a_serving_gateway() {
        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let serve_addr = addr.clone();
        let serving = std::thread::spawn(move || {
            gateway(&strings(&[
                "serve",
                "--addr",
                &serve_addr,
                "--users",
                "2",
                "--duration-ms",
                "2500",
            ]))
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            if std::net::TcpStream::connect(&addr).is_ok() {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "gateway never came up");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }

        // Publish a short-lived presence fact, read it back, then watch
        // it decay: the watch window outlives the TTL, so the poll sees
        // the live fact first and its expiry afterwards.
        let put = store(&strings(&[
            "put", "--addr", &addr, "--key", "user000", "--value", "away", "--ttl-ms", "400",
        ]));
        assert_eq!(put.code, 0, "{}", put.output);
        assert!(put.output.contains("published presence/user000"), "{}", put.output);

        let got = store(&strings(&["get", "--addr", &addr, "--key", "user000"]));
        assert_eq!(got.code, 0, "{}", got.output);
        assert!(got.output.contains("presence/user000 = \"away\""), "{}", got.output);

        let watched = store(&strings(&[
            "watch", "--addr", &addr, "--key", "user000",
            "--interval-ms", "50", "--duration-ms", "800",
        ]));
        assert_eq!(watched.code, 0, "{}", watched.output);
        assert!(watched.output.contains("published presence/user000"), "{}", watched.output);
        assert!(watched.output.contains("expired presence/user000"), "{}", watched.output);

        let gone = store(&strings(&["get", "--addr", &addr, "--key", "user000"]));
        assert!(gone.output.contains("no live fact"), "{}", gone.output);

        let served = serving.join().unwrap();
        assert_eq!(served.code, 0, "{}", served.output);
        // The serve summary shows the store counters our puts/gets drove.
        assert!(served.output.contains("store.puts"), "{}", served.output);
    }
}
