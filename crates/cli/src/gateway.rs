//! `gateway serve|send|probe`: run the framed-TCP ingestion gateway in
//! front of a live host, submit alerts to one, or check its health
//! counters.

use crate::flags::{Flags, Kind};
use crate::{Done, Outcome};
use simba_core::address::{Address, AddressBook, CommType};
use simba_core::classify::{Classifier, KeywordField};
use simba_core::mode::DeliveryMode;
use simba_core::rejuvenate::RejuvenationPolicy;
use simba_core::subscription::{SubscriptionRegistry, UserId};
use simba_core::MabConfig;
use simba_gateway::proto::WireChannel;
use simba_gateway::{
    intake, pump_into_sharded_host, GatewayClient, GatewayConfig, GatewayServer, RateLimit,
    SubmitResult,
};
use simba_runtime::{ConfigFactory, LoopbackChannels, SharedChannels, ShardedHost, ShardedHostConfig};
use simba_sim::SimDuration;
use simba_telemetry::{RingBufferSink, Telemetry};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// `gateway serve|send|probe` — run the TCP front door, or talk to one.
pub(crate) fn gateway(args: &[String]) -> Done {
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("send") => send(&args[1..]),
        Some("probe") => probe(&args[1..]),
        _ => Err(Outcome::usage("gateway takes serve, send, or probe")),
    }
}

/// Dials a gateway; an unreachable one is a user error.
pub(crate) fn connect(addr: &str) -> Result<GatewayClient, Outcome> {
    GatewayClient::connect(addr)
        .map_err(|e| Outcome::error(format!("cannot reach gateway at {addr}: {e}\n")))
}

/// One hosted user: accepts `source` and routes its `Sensor` alerts by IM
/// with a 60 s ack window, falling back to email — the paper's canonical
/// urgent-alert mode.
pub(crate) fn user_config(name: &str, source: &str) -> MabConfig {
    let mut classifier = Classifier::new();
    classifier.accept_source(source, KeywordField::Body, "cfg");
    classifier.map_keyword("Sensor", "Home");
    let mut registry = SubscriptionRegistry::new();
    let user = UserId::new(name);
    let profile = registry.register_user(user.clone());
    let mut book = AddressBook::new();
    book.add(Address::new("IM", CommType::Im, format!("im:{name}"))).expect("a fresh book");
    book.add(Address::new("EM", CommType::Email, format!("{name}@mail"))).expect("a second name");
    profile.address_book = book;
    profile.define_mode(DeliveryMode::im_then_email(
        "Urgent",
        "IM",
        "EM",
        SimDuration::from_secs(60),
    ));
    registry.subscribe("Home", user, "Urgent").expect("the user and mode defined above");
    MabConfig { classifier, registry, rejuvenation: RejuvenationPolicy::default() }
}

/// `gateway serve [--addr A] [--users N] [--duration-ms D] [--workers W]
/// [--queue Q] [--rate R] [--source S]` — host N users behind a live TCP
/// gateway for D milliseconds, then drain and report.
fn serve(args: &[String]) -> Done {
    let flags = Flags::parse(
        args,
        &[
            ("--addr", Kind::Value),
            ("--users", Kind::Number),
            ("--duration-ms", Kind::Number),
            ("--workers", Kind::Number),
            ("--queue", Kind::Number),
            ("--rate", Kind::Number),
            ("--source", Kind::Value),
        ],
    )?;
    let users: usize = flags.number("--users")?.unwrap_or(10);
    if users == 0 {
        return Err(Outcome::usage("--users must be at least 1"));
    }
    let duration_ms = flags.number("--duration-ms")?.unwrap_or(2_000);
    let rate: Option<u32> = flags.number("--rate")?;
    let source = flags.value("--source").unwrap_or("cli-src").to_string();

    let telemetry = Telemetry::with_sink(Arc::new(RingBufferSink::new(8_192)));
    let (intake_tx, intake_rx) = intake(flags.number("--queue")?.unwrap_or(1_024));
    let names: Vec<String> = (0..users).map(|i| format!("user{i:03}")).collect();
    let config = GatewayConfig {
        addr: flags.value("--addr").unwrap_or("127.0.0.1:0").to_string(),
        workers: flags.number("--workers")?.unwrap_or(4),
        rate_limit: rate.map(|per_sec| RateLimit { burst: per_sec.max(1) * 2, per_sec }),
        known_users: Some(names.iter().cloned().collect()),
        ..GatewayConfig::default()
    };
    // The soft-state store is shared between the gateway (which serves
    // `simba-cli store put/get/watch`) and the host (whose buddies read
    // presence facts at delivery start).
    let store = simba_store::SoftStateStore::new(Default::default(), telemetry.clone());
    let server =
        GatewayServer::bind_with_store(config, intake_tx, telemetry.clone(), Some(store.clone()))
            .map_err(|e| Outcome::error(format!("cannot bind gateway: {e}\n")))?;
    // Printed immediately (not via the Outcome) so clients can connect
    // while the serve window is still open.
    println!(
        "gateway listening on {} — {} users (user000..), source {:?}, serving {} ms",
        server.local_addr(),
        users,
        source,
        duration_ms
    );

    let supervisor = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(duration_ms));
        server.shutdown();
    });

    let pump_telemetry = telemetry.clone();
    let report = tokio::runtime::block_on(async move {
        let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(5)));
        let config = ShardedHostConfig { store: Some(store), ..ShardedHostConfig::default() };
        let factory: ConfigFactory =
            Arc::new(move |user: &UserId| user_config(&user.0, &source));
        let (host, _notices) = ShardedHost::new(shared, config, factory, pump_telemetry.clone())
            .expect("in-memory shard logs");
        host.register_many(names.into_iter().map(UserId::new).collect()).await;
        let report = pump_into_sharded_host(&host, intake_rx, &pump_telemetry).await;
        host.shutdown().await;
        report
    });
    let _ = supervisor.join();

    let snap = telemetry.metrics().snapshot();
    let mut out = String::new();
    let _ = writeln!(out, "gateway serve finished after {duration_ms} ms:");
    for counter in [
        "gateway.conn_opened",
        "gateway.accepted",
        "gateway.shed",
        "gateway.decode_err",
        "gateway.unknown_user",
        "gateway.idle_closed",
        "store.puts",
        "store.hits",
        "store.expired",
        "mab.mode_overridden",
    ] {
        let _ = writeln!(out, "  {:<22} {}", counter, snap.counter(counter));
    }
    let _ = writeln!(
        out,
        "host routing: {} routed (host.routed), {} unrouted (host.unrouted)",
        snap.counter("host.routed"),
        snap.counter("host.unrouted")
    );
    let _ = writeln!(out, "pump: {} routed, {} unrouted", report.routed, report.unrouted);
    Ok(Outcome::ok(out))
}

/// `gateway send --addr A [--user U] [--body B] [--count N]
/// [--channel im|email] [--source S]`.
fn send(args: &[String]) -> Done {
    let flags = Flags::parse(
        args,
        &[
            ("--addr", Kind::Value),
            ("--user", Kind::Value),
            ("--body", Kind::Value),
            ("--count", Kind::Number),
            ("--channel", Kind::Choice(&["im", "email"])),
            ("--source", Kind::Value),
        ],
    )?;
    let addr = flags.required("--addr")?;
    let user = flags.value("--user").unwrap_or("user000");
    let body = flags.value("--body").unwrap_or("Sensor demo ON");
    let count: u64 = flags.number("--count")?.unwrap_or(1);
    let channel = match flags.value("--channel") {
        Some("email") => WireChannel::Email,
        _ => WireChannel::Im,
    };
    let source = flags.value("--source").unwrap_or("cli-src");

    let mut client = connect(addr)?;
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut out = String::new();
    for i in 0..count {
        match client.submit(channel, user, source, body) {
            Ok(SubmitResult::Accepted) => accepted += 1,
            Ok(SubmitResult::Rejected { reason, retry_after_ms }) => {
                rejected += 1;
                let _ = writeln!(
                    out,
                    "submission {}: rejected ({reason}, retry after {retry_after_ms} ms)",
                    i + 1
                );
            }
            Err(e) => return Err(Outcome::error(format!("{out}submission {}: {e}\n", i + 1))),
        }
    }
    let _ = writeln!(
        out,
        "{accepted}/{count} accepted, {rejected} rejected ({} reconnect(s))",
        client.reconnects
    );
    Ok(Outcome::ok(out))
}

/// `gateway probe --addr A` — one health probe, counters printed.
fn probe(args: &[String]) -> Done {
    let flags = Flags::parse(args, &[("--addr", Kind::Value)])?;
    let addr = flags.required("--addr")?;
    match connect(addr)?.probe() {
        Ok(stats) => Ok(Outcome::ok(format!(
            "gateway {addr}: accepted {}, shed {}, decode_err {}, queue depth {}/{}\n",
            stats.accepted, stats.shed, stats.decode_err, stats.queue_depth, stats.queue_capacity
        ))),
        Err(e) => Err(Outcome::error(format!("probe failed: {e}\n"))),
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::strings;
    use crate::Outcome;

    fn gateway(args: &[String]) -> Outcome {
        super::gateway(args).unwrap_or_else(|early| early)
    }

    #[test]
    fn gateway_cli_flag_errors() {
        assert_eq!(gateway(&strings(&[])).code, 2);
        assert_eq!(gateway(&strings(&["frobnicate"])).code, 2);
        assert_eq!(gateway(&strings(&["send"])).code, 2, "send needs --addr");
        assert_eq!(gateway(&strings(&["probe"])).code, 2, "probe needs --addr");
        assert_eq!(gateway(&strings(&["serve", "--users", "0"])).code, 2);
        assert_eq!(gateway(&strings(&["serve", "--rate"])).code, 2);
        // A dead address is a user error (1), not a usage error (2).
        let out = gateway(&strings(&["probe", "--addr", "127.0.0.1:1"]));
        assert_eq!(out.code, 1, "{}", out.output);
        assert!(out.output.contains("cannot reach gateway"), "{}", out.output);
    }

    #[test]
    fn gateway_serve_and_send_round_trip() {
        // Grab a free port, then serve on it from a helper thread while
        // this thread drives the client commands against it.
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
                "1500",
            ]))
        });
        // Wait for the listener to come up.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            if std::net::TcpStream::connect(&addr).is_ok() {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "gateway never came up");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }

        let sent = gateway(&strings(&[
            "send", "--addr", &addr, "--user", "user001", "--count", "5",
        ]));
        assert_eq!(sent.code, 0, "{}", sent.output);
        assert!(sent.output.contains("5/5 accepted"), "{}", sent.output);

        let unknown = gateway(&strings(&[
            "send", "--addr", &addr, "--user", "mallory", "--count", "1",
        ]));
        assert_eq!(unknown.code, 0, "{}", unknown.output);
        assert!(unknown.output.contains("unknown-user"), "{}", unknown.output);

        let probe = gateway(&strings(&["probe", "--addr", &addr]));
        assert_eq!(probe.code, 0, "{}", probe.output);
        assert!(probe.output.contains("accepted 5"), "{}", probe.output);

        let served = serving.join().unwrap();
        assert_eq!(served.code, 0, "{}", served.output);
        assert!(served.output.contains("host routing: 5 routed"), "{}", served.output);
    }
}
