//! The subcommand implementations.

use crate::Outcome;
use simba_core::address::AddressBook;
use simba_core::alert::{Alert, AlertId, IncomingAlert, Urgency};
use simba_core::delivery::{
    AttemptOutcome, DeliveryCommand, DeliveryEvent, DeliveryProcess, SendFailure,
};
use simba_core::mode::DeliveryMode;
use simba_core::shardlog::{ShardLog, ShardLogConfig};
use simba_sim::SimTime;
use std::fmt::Write as _;

fn read_file(path: &str) -> Result<String, Outcome> {
    std::fs::read_to_string(path)
        .map_err(|e| Outcome::error(format!("cannot read {path}: {e}\n")))
}

/// `validate addresses|mode|registry <file>`.
pub fn validate(args: &[String]) -> Outcome {
    let [kind, path] = args else {
        return Outcome::usage("validate takes a document kind and a file");
    };
    let content = match read_file(path) {
        Ok(c) => c,
        Err(o) => return o,
    };
    match kind.as_str() {
        "addresses" => match AddressBook::from_xml(&content) {
            Ok(book) => {
                let enabled = book.enabled().count();
                Outcome::ok(format!(
                    "OK: {} addresses ({} enabled)\n",
                    book.len(),
                    enabled
                ))
            }
            Err(e) => Outcome::error(format!("INVALID address book: {e}\n")),
        },
        "mode" => match DeliveryMode::from_xml(&content) {
            Ok(mode) => Outcome::ok(format!(
                "OK: delivery mode {:?} with {} block(s)\n",
                mode.name,
                mode.len()
            )),
            Err(e) => Outcome::error(format!("INVALID delivery mode: {e}\n")),
        },
        "registry" => match simba_core::registry_from_xml(&content) {
            Ok(reg) => Outcome::ok(format!(
                "OK: {} user(s), {} categor(ies)\n",
                reg.users().count(),
                reg.categories().count()
            )),
            Err(e) => Outcome::error(format!("INVALID registry: {e}\n")),
        },
        other => Outcome::usage(&format!("unknown document kind {other:?}")),
    }
}

/// `explain --addresses f --mode f [--disable n]... [--fail n]... [--ack n]`.
pub fn explain(args: &[String]) -> Outcome {
    let mut addresses_path = None;
    let mut mode_path = None;
    let mut disabled = Vec::new();
    let mut failing = Vec::new();
    let mut acked = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| Outcome::usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--addresses" => addresses_path = Some(value()),
            "--mode" => mode_path = Some(value()),
            "--disable" => disabled.push(value()),
            "--fail" => failing.push(value()),
            "--ack" => acked = Some(value()),
            other => return Outcome::usage(&format!("unknown flag {other:?}")),
        }
    }
    let unwrap2 = |v: Option<Result<String, Outcome>>, name: &str| match v {
        Some(Ok(s)) => Ok(s),
        Some(Err(o)) => Err(o),
        None => Err(Outcome::usage(&format!("--{name} is required"))),
    };
    let addresses_path = match unwrap2(addresses_path, "addresses") {
        Ok(p) => p,
        Err(o) => return o,
    };
    let mode_path = match unwrap2(mode_path, "mode") {
        Ok(p) => p,
        Err(o) => return o,
    };
    let disabled: Vec<String> = match disabled.into_iter().collect() {
        Ok(v) => v,
        Err(o) => return o,
    };
    let failing: Vec<String> = match failing.into_iter().collect() {
        Ok(v) => v,
        Err(o) => return o,
    };
    let acked: Option<String> = match acked.transpose() {
        Ok(v) => v,
        Err(o) => return o,
    };

    let book_xml = match read_file(&addresses_path) {
        Ok(c) => c,
        Err(o) => return o,
    };
    let mode_xml = match read_file(&mode_path) {
        Ok(c) => c,
        Err(o) => return o,
    };
    let mut book = match AddressBook::from_xml(&book_xml) {
        Ok(b) => b,
        Err(e) => return Outcome::error(format!("INVALID address book: {e}\n")),
    };
    let mode = match DeliveryMode::from_xml(&mode_xml) {
        Ok(m) => m,
        Err(e) => return Outcome::error(format!("INVALID delivery mode: {e}\n")),
    };
    for name in &disabled {
        if !book.set_enabled(name, false) {
            return Outcome::error(format!("--disable: no address named {name:?}\n"));
        }
    }

    Outcome::ok(explain_cascade(&mode, &book, &failing, acked.as_deref()))
}

/// Dry-runs the mode and renders the cascade.
pub fn explain_cascade(
    mode: &DeliveryMode,
    book: &AddressBook,
    failing: &[String],
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
                    if failing.iter().any(|name| **name == *address_name) {
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

/// `wal inspect <dir>`: the unprocessed records of one shard log.
pub fn wal(args: &[String]) -> Outcome {
    let [action, dir] = args else {
        return Outcome::usage("wal takes an action and a shard-log directory");
    };
    if action != "inspect" {
        return Outcome::usage(&format!("unknown wal action {action:?}"));
    }
    // Opening would create the directory; inspecting must not.
    if !std::path::Path::new(dir).is_dir() {
        return Outcome::error(format!("cannot open log: {dir} is not a directory\n"));
    }
    match ShardLog::open(ShardLogConfig::on_disk(dir)) {
        Ok(log) => {
            let mut users = log.users_with_unprocessed();
            users.sort();
            let mut out = format!(
                "{dir}: {} unprocessed record(s) for {} user(s)\n",
                log.unprocessed_len(),
                users.len()
            );
            for user in users {
                let _ = writeln!(out, "  {user}:");
                for r in log.unprocessed_for(&user) {
                    let _ = writeln!(
                        out,
                        "    #{} received {} from {:?}: {}",
                        r.id,
                        r.received_at,
                        r.alert.source,
                        summary_line(&r.alert.body)
                    );
                }
            }
            Outcome::ok(out)
        }
        Err(e) => Outcome::error(format!("cannot open log: {e}\n")),
    }
}

fn summary_line(body: &str) -> String {
    let one_line: String = body.chars().map(|c| if c == '\n' { ' ' } else { c }).collect();
    if one_line.chars().count() > 60 {
        let prefix: String = one_line.chars().take(57).collect();
        format!("{prefix}...")
    } else {
        one_line
    }
}

/// `demo pipeline|faultlog [...]`.
pub fn demo(args: &[String]) -> Outcome {
    let Some(which) = args.first() else {
        return Outcome::usage("demo takes a scenario name");
    };
    let mut seed = 42u64;
    let mut alerts = 50u64;
    let mut fixes = false;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return Outcome::usage("--seed needs a number"),
            },
            "--alerts" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => alerts = v,
                None => return Outcome::usage("--alerts needs a number"),
            },
            "--fixes" => fixes = true,
            other => return Outcome::usage(&format!("unknown flag {other:?}")),
        }
    }
    match which.as_str() {
        "pipeline" => Outcome::ok(demo_pipeline(seed, alerts)),
        "faultlog" => Outcome::ok(demo_faultlog(seed, fixes)),
        other => Outcome::usage(&format!("unknown demo {other:?}")),
    }
}

fn demo_pipeline(seed: u64, alerts: u64) -> String {
    use simba_bench::harness::{build, handle, Ev, PipelineOptions};
    use simba_core::alert::IncomingAlert;

    let horizon = SimTime::from_secs(120 + alerts * 60);
    let mut engine = build(PipelineOptions::new(seed, horizon));
    for i in 0..alerts {
        let at = SimTime::from_secs(30 + i * 60);
        let alert = IncomingAlert::from_im("aladdin-gw", format!("Sensor demo {i} ON"), at);
        engine.schedule_at(at, Ev::Emit { tag: i, alert });
    }
    engine.run_until(horizon, handle);
    let world = engine.world();
    let seen = world
        .tracks
        .values()
        .filter(|t| t.emitted_at.is_some() && t.seen_at.is_some())
        .count();
    let mut out = format!("pipeline demo: {alerts} alerts, seed {seed}\n");
    let _ = writeln!(out, "  seen by the user: {seen}/{alerts}");
    for name in ["im.one_way", "source.ack_rtt", "user.seen_latency"] {
        if let Some(s) = world.metrics.summary(name) {
            let _ = writeln!(out, "  {name}: {s}");
        }
    }
    out
}

/// `telemetry demo|tail [...]` — inspect the telemetry spine.
pub fn telemetry(args: &[String]) -> Outcome {
    let Some(which) = args.first() else {
        return Outcome::usage("telemetry takes an action (demo or tail)");
    };
    match which.as_str() {
        "demo" => {
            let mut seed = 42u64;
            let mut alerts = 10u64;
            let mut json = false;
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                        Some(v) => seed = v,
                        None => return Outcome::usage("--seed needs a number"),
                    },
                    "--alerts" => match it.next().and_then(|v| v.parse().ok()) {
                        Some(v) => alerts = v,
                        None => return Outcome::usage("--alerts needs a number"),
                    },
                    "--json" => json = true,
                    other => return Outcome::usage(&format!("unknown flag {other:?}")),
                }
            }
            Outcome::ok(telemetry_demo(seed, alerts, json))
        }
        "tail" => {
            let [_, path] = args else {
                return Outcome::usage("telemetry tail takes a .jsonl file");
            };
            telemetry_tail(path)
        }
        other => Outcome::usage(&format!("unknown telemetry action {other:?}")),
    }
}

fn telemetry_demo(seed: u64, alerts: u64, json: bool) -> String {
    use simba_core::delivery::{DeliveryEvent, SendFailure};
    use simba_core::mab::{MabEvent, MyAlertBuddy};
    use simba_core::{
        Address, AddressBook, Classifier, CommType, DeliveryCommand, DeliveryMode,
        IncomingAlert, KeywordField, MabCommand, MabConfig, RejuvenationPolicy,
        SubscriptionRegistry, Telemetry, UserId, UserShardWal,
    };
    use simba_sim::{SimDuration, SimRng};
    use simba_telemetry::RingBufferSink;
    use std::sync::Arc;

    // One subscriber, IM with a 60 s ack window falling back to email —
    // the paper's canonical urgent-alert mode.
    let mut classifier = Classifier::new();
    classifier.accept_source("aladdin-gw", KeywordField::Body, "demo");
    classifier.map_keyword("Sensor", "Home.Security");
    let mut registry = SubscriptionRegistry::new();
    let alice = UserId::new("alice");
    let profile = registry.register_user(alice.clone());
    let mut book = AddressBook::new();
    book.add(Address::new("IM", CommType::Im, "im:alice")).unwrap();
    book.add(Address::new("EM", CommType::Email, "alice@work")).unwrap();
    profile.address_book = book;
    profile.define_mode(DeliveryMode::im_then_email(
        "Urgent",
        "IM",
        "EM",
        SimDuration::from_secs(60),
    ));
    registry.subscribe("Home.Security", alice.clone(), "Urgent").unwrap();
    let config = MabConfig {
        classifier,
        registry,
        rejuvenation: RejuvenationPolicy::default(),
    };

    let sink = Arc::new(RingBufferSink::new(4_096));
    let telemetry = Telemetry::with_sink(sink.clone());

    // The soft-state store feeds presence-aware routing: alice is "away"
    // for the first alert's delivery, so its IM block is skipped; by the
    // second alert the fact has expired (a lazy read drops it, counting
    // `store.expired`) and routing reverts to the static profile.
    let store = simba_store::SoftStateStore::new(Default::default(), telemetry.clone());
    store.put(
        simba_store::PRESENCE_SCOPE,
        "alice",
        "away",
        SimDuration::from_secs(45),
        "wish",
        SimTime::ZERO,
    );

    let mut mab = MyAlertBuddy::new(config, UserShardWal::in_memory(alice))
        .with_telemetry(telemetry.clone())
        .with_mode_selector(Box::new(simba_runtime::StoreModeSelector::new(store)));
    let mut rng = SimRng::new(seed);

    let first_send = |cmds: &[MabCommand]| {
        cmds.iter().find_map(|c| match c {
            MabCommand::Channel {
                delivery,
                command: DeliveryCommand::Send { attempt, .. },
                ..
            } => Some((*delivery, *attempt)),
            _ => None,
        })
    };

    for i in 0..alerts {
        let at = SimTime::from_secs(30 + i * 60);
        let alert =
            IncomingAlert::from_im("aladdin-gw", format!("Basement Sensor demo {i} ON"), at);
        let cmds = mab.handle(MabEvent::AlertByIm(alert), at);
        let Some((id, attempt)) = first_send(&cmds) else {
            continue;
        };
        if i % 5 == 4 {
            // Every fifth alert the IM send fails synchronously, driving
            // the fallback ladder into the email block.
            let failed_at = at + SimDuration::from_secs(1);
            let cmds = mab.handle(
                MabEvent::Delivery {
                    id,
                    event: DeliveryEvent::SendFailed {
                        attempt,
                        failure: SendFailure::ChannelDown,
                    },
                },
                failed_at,
            );
            if let Some((id2, attempt2)) = first_send(&cmds) {
                mab.handle(
                    MabEvent::Delivery {
                        id: id2,
                        event: DeliveryEvent::SendAccepted { attempt: attempt2 },
                    },
                    failed_at + SimDuration::from_secs(2),
                );
            }
        } else {
            let accepted_at = at + SimDuration::from_secs(1);
            mab.handle(
                MabEvent::Delivery { id, event: DeliveryEvent::SendAccepted { attempt } },
                accepted_at,
            );
            let ack_lag = SimDuration::from_secs(rng.range(2, 45));
            mab.handle(
                MabEvent::Delivery { id, event: DeliveryEvent::Acked { attempt } },
                accepted_at + ack_lag,
            );
        }
    }

    let events = sink.events();
    let snapshot = telemetry.metrics().snapshot();
    let mut out = String::new();
    if json {
        for e in &events {
            let _ = writeln!(out, "{}", e.to_json_line());
        }
        out.push_str(&snapshot.to_json());
        out.push('\n');
    } else {
        let _ = writeln!(
            out,
            "telemetry demo: {alerts} alerts, seed {seed}, {} events",
            events.len()
        );
        for e in &events {
            let _ = writeln!(out, "{}", e);
        }
        out.push('\n');
        out.push_str(&snapshot.render_text());
    }
    out
}

fn telemetry_tail(path: &str) -> Outcome {
    use simba_telemetry::Event;
    let content = match read_file(path) {
        Ok(c) => c,
        Err(o) => return o,
    };
    let mut out = String::new();
    let mut parsed = 0u64;
    let mut bad = 0u64;
    for (lineno, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Event::from_json_line(line) {
            Ok(e) => {
                parsed += 1;
                let _ = writeln!(out, "{}", e);
            }
            Err(e) => {
                bad += 1;
                let _ = writeln!(out, "line {}: unparseable event: {e}", lineno + 1);
            }
        }
    }
    let _ = writeln!(out, "{parsed} event(s), {bad} unparseable line(s)");
    Outcome::ok(out)
}

/// `gateway serve|send|probe` — run the TCP front door, or talk to one.
pub fn gateway(args: &[String]) -> Outcome {
    match args.first().map(String::as_str) {
        Some("serve") => gateway_serve(&args[1..]),
        Some("send") => gateway_send(&args[1..]),
        Some("probe") => gateway_probe(&args[1..]),
        _ => Outcome::usage("gateway takes serve, send, or probe"),
    }
}

/// One hosted user for `gateway serve`: accepts the given source and
/// routes `Sensor` alerts IM-then-email.
fn gateway_user_config(name: &str, source: &str) -> simba_core::MabConfig {
    use simba_core::address::{Address, CommType};
    use simba_core::classify::{Classifier, KeywordField};
    use simba_core::rejuvenate::RejuvenationPolicy;
    use simba_core::subscription::{SubscriptionRegistry, UserId};
    use simba_sim::SimDuration;

    let mut classifier = Classifier::new();
    classifier.accept_source(source, KeywordField::Body, "cfg");
    classifier.map_keyword("Sensor", "Home");
    let mut registry = SubscriptionRegistry::new();
    let user = UserId::new(name);
    let profile = registry.register_user(user.clone());
    let mut book = simba_core::address::AddressBook::new();
    book.add(Address::new("IM", CommType::Im, format!("im:{name}"))).unwrap();
    book.add(Address::new("EM", CommType::Email, format!("{name}@mail"))).unwrap();
    profile.address_book = book;
    profile.define_mode(DeliveryMode::im_then_email(
        "Urgent",
        "IM",
        "EM",
        SimDuration::from_secs(60),
    ));
    registry.subscribe("Home", user, "Urgent").unwrap();
    simba_core::MabConfig { classifier, registry, rejuvenation: RejuvenationPolicy::default() }
}

/// `gateway serve [--addr A] [--users N] [--duration-ms D] [--workers W]
/// [--queue Q] [--rate R] [--source S]` — host N users behind a live TCP
/// gateway for D milliseconds, then drain and report.
fn gateway_serve(args: &[String]) -> Outcome {
    use simba_gateway::{intake, pump_into_sharded_host, GatewayConfig, GatewayServer, RateLimit};
    use simba_runtime::{
        ConfigFactory, LoopbackChannels, SharedChannels, ShardedHost, ShardedHostConfig,
    };
    use simba_telemetry::{RingBufferSink, Telemetry};
    use std::sync::Arc;
    use std::time::Duration;

    let mut addr = "127.0.0.1:0".to_string();
    let mut users = 10usize;
    let mut duration_ms = 2_000u64;
    let mut workers = 4usize;
    let mut queue = 1_024usize;
    let mut rate: Option<u32> = None;
    let mut source = "cli-src".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => return Outcome::usage("--addr needs an address"),
            },
            "--users" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => users = v,
                None => return Outcome::usage("--users needs a number"),
            },
            "--duration-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => duration_ms = v,
                None => return Outcome::usage("--duration-ms needs a number"),
            },
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => workers = v,
                None => return Outcome::usage("--workers needs a number"),
            },
            "--queue" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => queue = v,
                None => return Outcome::usage("--queue needs a number"),
            },
            "--rate" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => rate = Some(v),
                None => return Outcome::usage("--rate needs alerts/s"),
            },
            "--source" => match it.next() {
                Some(v) => source = v.clone(),
                None => return Outcome::usage("--source needs a name"),
            },
            other => return Outcome::usage(&format!("unknown flag {other:?}")),
        }
    }
    if users == 0 {
        return Outcome::usage("--users must be at least 1");
    }

    let telemetry = Telemetry::with_sink(Arc::new(RingBufferSink::new(8_192)));
    let (intake_tx, intake_rx) = intake(queue);
    let names: Vec<String> = (0..users).map(|i| format!("user{i:03}")).collect();
    let config = GatewayConfig {
        addr,
        workers,
        rate_limit: rate.map(|per_sec| RateLimit { burst: per_sec.max(1) * 2, per_sec }),
        known_users: Some(names.iter().cloned().collect()),
        ..GatewayConfig::default()
    };
    // The soft-state store is shared between the gateway (which serves
    // `simba-cli store put/get/watch`) and the host (whose buddies read
    // presence facts at delivery start).
    let store = simba_store::SoftStateStore::new(Default::default(), telemetry.clone());
    let server = match GatewayServer::bind_with_store(
        config,
        intake_tx,
        telemetry.clone(),
        Some(store.clone()),
    ) {
        Ok(server) => server,
        Err(e) => return Outcome::error(format!("cannot bind gateway: {e}\n")),
    };
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
    let source_for_host = source.clone();
    let report = tokio::runtime::block_on(async move {
        use simba_core::subscription::UserId;
        let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(5)));
        let config = ShardedHostConfig { store: Some(store), ..ShardedHostConfig::default() };
        let factory: ConfigFactory =
            Arc::new(move |user: &UserId| gateway_user_config(&user.0, &source_for_host));
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
    Outcome::ok(out)
}

/// `gateway send --addr A [--user U] [--body B] [--count N]
/// [--channel im|email] [--source S]`.
fn gateway_send(args: &[String]) -> Outcome {
    use simba_gateway::proto::WireChannel;
    use simba_gateway::{ClientConfig, GatewayClient, SubmitResult};

    let mut addr = None;
    let mut user = "user000".to_string();
    let mut body = "Sensor demo ON".to_string();
    let mut count = 1u64;
    let mut channel = WireChannel::Im;
    let mut source = "cli-src".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = it.next().cloned(),
            "--user" => match it.next() {
                Some(v) => user = v.clone(),
                None => return Outcome::usage("--user needs a name"),
            },
            "--body" => match it.next() {
                Some(v) => body = v.clone(),
                None => return Outcome::usage("--body needs text"),
            },
            "--count" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => count = v,
                None => return Outcome::usage("--count needs a number"),
            },
            "--channel" => match it.next().map(String::as_str) {
                Some("im") => channel = WireChannel::Im,
                Some("email") => channel = WireChannel::Email,
                _ => return Outcome::usage("--channel is im or email"),
            },
            "--source" => match it.next() {
                Some(v) => source = v.clone(),
                None => return Outcome::usage("--source needs a name"),
            },
            other => return Outcome::usage(&format!("unknown flag {other:?}")),
        }
    }
    let Some(addr) = addr else {
        return Outcome::usage("gateway send needs --addr");
    };

    let mut client = match GatewayClient::connect(addr.clone(), ClientConfig::default()) {
        Ok(client) => client,
        Err(e) => return Outcome::error(format!("cannot reach gateway at {addr}: {e}\n")),
    };
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut out = String::new();
    for i in 0..count {
        match client.submit(channel, &user, &source, &body) {
            Ok(SubmitResult::Accepted) => accepted += 1,
            Ok(SubmitResult::Rejected { reason, retry_after_ms }) => {
                rejected += 1;
                let _ = writeln!(
                    out,
                    "submission {}: rejected ({reason}, retry after {retry_after_ms} ms)",
                    i + 1
                );
            }
            Err(e) => return Outcome::error(format!("{out}submission {}: {e}\n", i + 1)),
        }
    }
    let _ = writeln!(
        out,
        "{accepted}/{count} accepted, {rejected} rejected ({} reconnect(s))",
        client.reconnects
    );
    Outcome::ok(out)
}

/// `gateway probe --addr A` — one health probe, counters printed.
fn gateway_probe(args: &[String]) -> Outcome {
    use simba_gateway::{ClientConfig, GatewayClient};

    let mut addr = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = it.next().cloned(),
            other => return Outcome::usage(&format!("unknown flag {other:?}")),
        }
    }
    let Some(addr) = addr else {
        return Outcome::usage("gateway probe needs --addr");
    };
    let mut client = match GatewayClient::connect(addr.clone(), ClientConfig::default()) {
        Ok(client) => client,
        Err(e) => return Outcome::error(format!("cannot reach gateway at {addr}: {e}\n")),
    };
    match client.probe() {
        Ok(stats) => Outcome::ok(format!(
            "gateway {addr}: accepted {}, shed {}, decode_err {}, queue depth {}/{}\n",
            stats.accepted, stats.shed, stats.decode_err, stats.queue_depth, stats.queue_capacity
        )),
        Err(e) => Outcome::error(format!("probe failed: {e}\n")),
    }
}

/// `store put|get|watch` — soft-state facts through a gateway's
/// `StateUpdate` / `StateQuery` frames.
pub fn store(args: &[String]) -> Outcome {
    match args.first().map(String::as_str) {
        Some("put") => store_put(&args[1..]),
        Some("get") => store_get(&args[1..]),
        Some("watch") => store_watch(&args[1..]),
        _ => Outcome::usage("store takes put, get, or watch"),
    }
}

/// Shared flag parsing for the store commands.
struct StoreFlags {
    addr: Option<String>,
    scope: String,
    key: Option<String>,
    value: Option<String>,
    ttl_ms: u32,
    source: String,
    interval_ms: u64,
    duration_ms: u64,
}

impl StoreFlags {
    fn parse(args: &[String]) -> Result<StoreFlags, Outcome> {
        let mut flags = StoreFlags {
            addr: None,
            scope: "presence".to_string(),
            key: None,
            value: None,
            ttl_ms: 30_000,
            source: "cli".to_string(),
            interval_ms: 250,
            duration_ms: 5_000,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--addr" => flags.addr = it.next().cloned(),
                "--scope" => match it.next() {
                    Some(v) => flags.scope = v.clone(),
                    None => return Err(Outcome::usage("--scope needs a name")),
                },
                "--key" => flags.key = it.next().cloned(),
                "--value" => flags.value = it.next().cloned(),
                "--ttl-ms" => match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) => flags.ttl_ms = v,
                    None => return Err(Outcome::usage("--ttl-ms needs a number")),
                },
                "--source" => match it.next() {
                    Some(v) => flags.source = v.clone(),
                    None => return Err(Outcome::usage("--source needs a name")),
                },
                "--interval-ms" => match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) if v > 0 => flags.interval_ms = v,
                    _ => return Err(Outcome::usage("--interval-ms needs a positive number")),
                },
                "--duration-ms" => match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) => flags.duration_ms = v,
                    None => return Err(Outcome::usage("--duration-ms needs a number")),
                },
                other => return Err(Outcome::usage(&format!("unknown flag {other:?}"))),
            }
        }
        Ok(flags)
    }

    fn connect(&self) -> Result<simba_gateway::GatewayClient, Outcome> {
        use simba_gateway::{ClientConfig, GatewayClient};
        let Some(addr) = &self.addr else {
            return Err(Outcome::usage("store commands need --addr"));
        };
        GatewayClient::connect(addr.clone(), ClientConfig::default())
            .map_err(|e| Outcome::error(format!("cannot reach gateway at {addr}: {e}\n")))
    }

    fn key(&self) -> Result<&str, Outcome> {
        self.key
            .as_deref()
            .ok_or_else(|| Outcome::usage("store commands need --key"))
    }
}

/// `store put --addr A --key K --value V [--scope S] [--ttl-ms N] [--source S]`.
fn store_put(args: &[String]) -> Outcome {
    use simba_gateway::SubmitResult;
    let flags = match StoreFlags::parse(args) {
        Ok(f) => f,
        Err(o) => return o,
    };
    let (key, value) = match (flags.key(), &flags.value) {
        (Ok(k), Some(v)) => (k, v.as_str()),
        (Err(o), _) => return o,
        (_, None) => return Outcome::usage("store put needs --value"),
    };
    let mut client = match flags.connect() {
        Ok(c) => c,
        Err(o) => return o,
    };
    match client.state_put(&flags.scope, key, value, flags.ttl_ms, &flags.source) {
        Ok(SubmitResult::Accepted) => Outcome::ok(format!(
            "published {}/{} = {:?} (ttl {} ms)\n",
            flags.scope, key, value, flags.ttl_ms
        )),
        Ok(SubmitResult::Rejected { reason, .. }) => {
            Outcome::error(format!("rejected: {reason}\n"))
        }
        Err(e) => Outcome::error(format!("state put failed: {e}\n")),
    }
}

/// `store get --addr A --key K [--scope S]`.
fn store_get(args: &[String]) -> Outcome {
    let flags = match StoreFlags::parse(args) {
        Ok(f) => f,
        Err(o) => return o,
    };
    let key = match flags.key() {
        Ok(k) => k,
        Err(o) => return o,
    };
    let mut client = match flags.connect() {
        Ok(c) => c,
        Err(o) => return o,
    };
    match client.state_get(&flags.scope, key) {
        Ok(Some(fact)) => Outcome::ok(format!(
            "{}/{} = {:?} (generation {}, expires in {} ms)\n",
            flags.scope, key, fact.value, fact.generation, fact.ttl_remaining_ms
        )),
        Ok(None) => Outcome::ok(format!("{}/{}: no live fact\n", flags.scope, key)),
        Err(e) => Outcome::error(format!("state get failed: {e}\n")),
    }
}

/// `store watch --addr A --key K [--scope S] [--interval-ms N]
/// [--duration-ms N]` — polls the fact and reports each transition
/// (published, refreshed, expired). The wire protocol is one request in
/// flight, so watching is polling; the store's own subscription API is
/// in-process only.
fn store_watch(args: &[String]) -> Outcome {
    let flags = match StoreFlags::parse(args) {
        Ok(f) => f,
        Err(o) => return o,
    };
    let key = match flags.key() {
        Ok(k) => k,
        Err(o) => return o,
    };
    let mut client = match flags.connect() {
        Ok(c) => c,
        Err(o) => return o,
    };
    let started = std::time::Instant::now();
    let deadline = started + std::time::Duration::from_millis(flags.duration_ms);
    let mut out = String::new();
    let mut last: Option<u64> = None; // last seen generation
    let mut changes = 0u64;
    loop {
        let seen = match client.state_get(&flags.scope, key) {
            Ok(fact) => fact,
            Err(e) => return Outcome::error(format!("{out}state get failed: {e}\n")),
        };
        let at = started.elapsed().as_millis();
        match (&last, &seen) {
            (None, Some(fact)) => {
                changes += 1;
                let _ = writeln!(
                    out,
                    "[{at:>6} ms] published {}/{} = {:?} (generation {})",
                    flags.scope, key, fact.value, fact.generation
                );
            }
            (Some(gen), Some(fact)) if *gen != fact.generation => {
                changes += 1;
                let _ = writeln!(
                    out,
                    "[{at:>6} ms] refreshed {}/{} = {:?} (generation {})",
                    flags.scope, key, fact.value, fact.generation
                );
            }
            (Some(_), None) => {
                changes += 1;
                let _ = writeln!(out, "[{at:>6} ms] expired {}/{}", flags.scope, key);
            }
            _ => {}
        }
        last = seen.map(|f| f.generation);
        if std::time::Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(flags.interval_ms));
    }
    let _ = writeln!(
        out,
        "watched {}/{} for {} ms: {} change(s)",
        flags.scope, key, flags.duration_ms, changes
    );
    Outcome::ok(out)
}

fn demo_faultlog(seed: u64, fixes: bool) -> String {
    use simba_bench::faultlog::{run_campaign, CampaignOptions};
    let result = run_campaign(&CampaignOptions {
        seed,
        with_fixes: fixes,
        ..CampaignOptions::default()
    });
    let mut out = format!(
        "fault-log demo: 30 simulated days, seed {seed}, fixes {}\n",
        if fixes { "applied" } else { "not applied" }
    );
    let _ = writeln!(out, "  IM downtimes:        {}", result.im_downtimes);
    let _ = writeln!(out, "  re-logons:           {}", result.relogons);
    let _ = writeln!(out, "  client restarts:     {}", result.client_restarts);
    let _ = writeln!(out, "  MDC restarts:        {}", result.mdc_restarts);
    let _ = writeln!(out, "  unrecovered:         {}", result.unrecovered);
    let _ = writeln!(
        out,
        "  delivery rate:       {:.1} %",
        result.delivery_rate() * 100.0
    );
    out
}

/// `ledger ls|dlq|retry --dir <dir>`.
pub fn ledger(args: &[String]) -> Outcome {
    use simba_ledger::{DeliveryLedger, LedgerConfig};

    let Some(action) = args.first() else {
        return Outcome::usage("ledger takes an action (ls, dlq, or retry)");
    };
    let mut dir = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--dir" => match it.next() {
                Some(v) => dir = Some(v.clone()),
                None => return Outcome::usage("--dir needs a path"),
            },
            other => return Outcome::usage(&format!("unknown flag {other:?}")),
        }
    }
    let Some(dir) = dir else {
        return Outcome::usage("--dir is required");
    };
    let mut ledger = match DeliveryLedger::open(LedgerConfig::on_disk(&dir)) {
        Ok(l) => l,
        Err(e) => return Outcome::error(format!("cannot open ledger at {dir}: {e}\n")),
    };
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
            Outcome::ok(out)
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
            Outcome::ok(out)
        }
        "retry" => {
            let moved = ledger.requeue_dead_letters(SimTime::ZERO);
            if let Err(e) = ledger.commit() {
                return Outcome::error(format!("requeued {moved} but commit failed: {e}\n"));
            }
            Outcome::ok(format!("requeued {moved} dead-lettered record(s)\n"))
        }
        other => Outcome::usage(&format!("unknown ledger action {other:?}")),
    }
}

/// `rules ls|add|rm|test --dir <dir> --user <u> ...` — manage and dry-run
/// a user's alert rules against a rules log on disk.
pub fn rules(args: &[String]) -> Outcome {
    use simba_rules::{
        severity_from_name, severity_name, DigestConfig, RuleAction, RuleEngine, RuleSpec,
        RulesConfig,
    };

    let Some(action) = args.first() else {
        return Outcome::usage("rules takes an action (ls, add, rm, or test)");
    };
    // Flags shared across the actions; unknown ones are usage errors.
    let mut dir = None;
    let mut user = None;
    let mut name = None;
    let mut predicate = None;
    let mut rule_action = "deliver".to_string();
    let mut severity = None;
    let mut dedupe = None;
    let mut window_ms = 60_000u64;
    let mut max_count = 0u32;
    let mut exemplars = 3u8;
    let mut key = None;
    let mut id = None;
    let mut disabled = false;
    let mut source = None;
    let mut kind = String::new();
    let mut body = String::new();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| match it.next() {
            Some(v) => Ok(v.clone()),
            None => Err(Outcome::usage(&format!("{what} needs a value"))),
        };
        match flag.as_str() {
            "--dir" => dir = Some(match value("--dir") { Ok(v) => v, Err(e) => return e }),
            "--user" => user = Some(match value("--user") { Ok(v) => v, Err(e) => return e }),
            "--name" => name = Some(match value("--name") { Ok(v) => v, Err(e) => return e }),
            "--predicate" => {
                predicate = Some(match value("--predicate") { Ok(v) => v, Err(e) => return e });
            }
            "--action" => {
                rule_action = match value("--action") { Ok(v) => v, Err(e) => return e };
            }
            "--severity" => {
                let v = match value("--severity") { Ok(v) => v, Err(e) => return e };
                match severity_from_name(&v) {
                    Some(s) => severity = Some(s),
                    None => {
                        return Outcome::usage(&format!(
                            "--severity must be low, normal, or critical, not {v:?}"
                        ))
                    }
                }
            }
            "--dedupe" => dedupe = Some(match value("--dedupe") { Ok(v) => v, Err(e) => return e }),
            "--window-ms" => {
                let v = match value("--window-ms") { Ok(v) => v, Err(e) => return e };
                match v.parse() {
                    Ok(n) => window_ms = n,
                    Err(_) => return Outcome::usage("--window-ms must be a number"),
                }
            }
            "--max-count" => {
                let v = match value("--max-count") { Ok(v) => v, Err(e) => return e };
                match v.parse() {
                    Ok(n) => max_count = n,
                    Err(_) => return Outcome::usage("--max-count must be a number"),
                }
            }
            "--exemplars" => {
                let v = match value("--exemplars") { Ok(v) => v, Err(e) => return e };
                match v.parse() {
                    Ok(n) => exemplars = n,
                    Err(_) => return Outcome::usage("--exemplars must be a small number"),
                }
            }
            "--key" => key = Some(match value("--key") { Ok(v) => v, Err(e) => return e }),
            "--id" => {
                let v = match value("--id") { Ok(v) => v, Err(e) => return e };
                match v.parse() {
                    Ok(n) => id = Some(n),
                    Err(_) => return Outcome::usage("--id must be a number"),
                }
            }
            "--disabled" => disabled = true,
            "--source" => source = Some(match value("--source") { Ok(v) => v, Err(e) => return e }),
            "--kind" => kind = match value("--kind") { Ok(v) => v, Err(e) => return e },
            "--body" => body = match value("--body") { Ok(v) => v, Err(e) => return e },
            other => return Outcome::usage(&format!("unknown flag {other:?}")),
        }
    }
    let Some(dir) = dir else {
        return Outcome::usage("--dir is required");
    };
    let Some(user) = user else {
        return Outcome::usage("--user is required");
    };
    let engine = match RuleEngine::open(RulesConfig::on_disk(&dir)) {
        Ok(e) => e,
        Err(e) => return Outcome::error(format!("cannot open rules log at {dir}: {e}\n")),
    };

    // Renders one stored rule the way `ls` and `add` report it.
    let render = |rule: &simba_rules::AlertRule| {
        let mut line = format!(
            "  #{} [{}] {:<10} {:?} when {}",
            rule.id,
            if rule.spec.enabled { "on " } else { "off" },
            rule.spec.action.label(),
            rule.spec.name,
            rule.spec.predicate_src,
        );
        if let Some(sev) = rule.spec.severity {
            let _ = write!(line, " severity={}", severity_name(sev));
        }
        if let Some(d) = &rule.spec.dedupe {
            let _ = write!(line, " dedupe={d:?}");
        }
        if let RuleAction::Digest(config) = &rule.spec.action {
            let _ = write!(line, " window={}ms", config.window_ms);
            if config.max_count > 0 {
                let _ = write!(line, " cap={}", config.max_count);
            }
            if let Some(k) = &config.key {
                let _ = write!(line, " key={k:?}");
            }
        }
        line
    };

    match action.as_str() {
        "ls" => {
            let rules = engine.list(&user);
            let mut out = format!("{user}: {} rule(s)\n", rules.len());
            for rule in &rules {
                let _ = writeln!(out, "{}", render(rule));
            }
            Outcome::ok(out)
        }
        "add" => {
            let Some(name) = name else {
                return Outcome::usage("rules add needs --name");
            };
            let Some(predicate) = predicate else {
                return Outcome::usage("rules add needs --predicate");
            };
            let action = match rule_action.as_str() {
                "deliver" => RuleAction::Deliver,
                "suppress" => RuleAction::Suppress,
                "digest" => RuleAction::Digest(DigestConfig {
                    window_ms,
                    max_count,
                    max_exemplars: exemplars,
                    key,
                }),
                other => {
                    return Outcome::usage(&format!(
                        "--action must be deliver, suppress, or digest, not {other:?}"
                    ))
                }
            };
            let spec = RuleSpec {
                name,
                enabled: !disabled,
                severity,
                dedupe,
                predicate_src: predicate,
                action,
            };
            match engine.upsert(&user, id, spec) {
                Ok(rule) => Outcome::ok(format!("stored\n{}\n", render(&rule))),
                Err(e) => Outcome::error(format!("rejected: {e}\n")),
            }
        }
        "rm" => {
            let Some(id) = id else {
                return Outcome::usage("rules rm needs --id");
            };
            match engine.delete(&user, id) {
                Ok(true) => Outcome::ok(format!("deleted rule #{id} for {user}\n")),
                Ok(false) => Outcome::ok(format!("no rule #{id} for {user} (nothing to do)\n")),
                Err(e) => Outcome::error(format!("delete failed: {e}\n")),
            }
        }
        "test" => {
            let Some(source) = source else {
                return Outcome::usage("rules test needs --source");
            };
            let alert = if kind.is_empty() {
                IncomingAlert::from_im(source, body, SimTime::ZERO)
            } else {
                IncomingAlert::from_email(source, "cli", kind, body, SimTime::ZERO)
            };
            let decision = engine.evaluate(&user, &alert, 0);
            let out = match decision {
                simba_rules::Decision::Deliver { rule: None, .. } => {
                    "deliver (no rule matched — the default path)\n".to_string()
                }
                simba_rules::Decision::Deliver { rule: Some(id), severity } => {
                    let mut line = format!("deliver (rule #{id}");
                    if let Some(sev) = severity {
                        let _ = write!(line, ", severity override {}", severity_name(sev));
                    }
                    line.push_str(")\n");
                    line
                }
                simba_rules::Decision::Suppress { rule, reason } => {
                    format!("suppress (rule #{rule}, {reason:?})\n")
                }
                simba_rules::Decision::Digest { rule, key, deadline_ms, .. } => format!(
                    "digest (rule #{rule}): absorbed into window {key:?}, flushes at t+{deadline_ms}ms\n"
                ),
            };
            Outcome::ok(out)
        }
        other => Outcome::usage(&format!("unknown rules action {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_core::address::{Address, CommType};
    use simba_core::mode::Block;
    use simba_sim::SimDuration;

    fn tmp(name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join(format!("simba-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn strings(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn validate_good_and_bad_documents() {
        let good = tmp(
            "good-book.xml",
            r#"<Addresses><Address name="IM" type="IM" value="im:a"/></Addresses>"#,
        );
        let out = validate(&strings(&["addresses", &good]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("OK: 1 addresses"));

        let bad = tmp("bad-book.xml", "<Addresses><Address/></Addresses>");
        let out = validate(&strings(&["addresses", &bad]));
        assert_eq!(out.code, 1);
        assert!(out.output.contains("INVALID"));

        let mode = tmp(
            "mode.xml",
            r#"<DeliveryMode name="M"><Block><Action address="IM"/></Block></DeliveryMode>"#,
        );
        assert_eq!(validate(&strings(&["mode", &mode])).code, 0);
        assert_eq!(validate(&strings(&["registry", &mode])).code, 1);
        assert_eq!(validate(&strings(&["nonsense", &mode])).code, 2);
        assert_eq!(validate(&strings(&["addresses", "/no/such/file"])).code, 1);
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
        let text = explain_cascade(&mode, &book, &["IM".to_string()], None);
        assert!(text.contains("FAILS"), "{text}");
    }

    #[test]
    fn explain_cli_flag_errors() {
        assert_eq!(explain(&strings(&["--mode"])).code, 2);
        assert_eq!(explain(&strings(&["--bogus", "x"])).code, 2);
        assert_eq!(explain(&strings(&[])).code, 2); // missing required flags
    }

    #[test]
    fn wal_inspect_round_trip() {
        use simba_core::alert::IncomingAlert;
        use simba_core::subscription::UserId;
        let dir = std::env::temp_dir().join(format!("simba-cli-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let inspect = || wal(&strings(&["inspect", dir.to_string_lossy().as_ref()]));
        let missing = inspect();
        assert_eq!(missing.code, 1, "{}", missing.output);
        assert!(!dir.exists(), "inspect must not create what it was asked to read");

        let (ada, bob) = (UserId::new("ada"), UserId::new("bob"));
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        let on = IncomingAlert::from_im("aladdin-gw", "Sensor ON", SimTime::from_secs(9));
        let id = log.append(&ada, &on, SimTime::from_secs(10)).unwrap();
        let off = IncomingAlert::from_im("aladdin-gw", "Sensor OFF", SimTime::from_secs(19));
        log.append(&ada, &off, SimTime::from_secs(20)).unwrap();
        let door = IncomingAlert::from_im("aladdin-gw", "Door open", SimTime::from_secs(29));
        log.append(&bob, &door, SimTime::from_secs(30)).unwrap();
        log.mark_processed(&ada, id).unwrap();
        log.commit().unwrap();
        drop(log);

        let out = inspect();
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("2 unprocessed record(s) for 2 user(s)"), "{}", out.output);
        let (ada_at, bob_at) = (out.output.find("  ada:\n").unwrap(), out.output.find("  bob:\n").unwrap());
        assert!(ada_at < out.output.find("Sensor OFF").unwrap());
        assert!(bob_at < out.output.find("Door open").unwrap());
        assert!(!out.output.contains("Sensor ON\n")); // processed: not listed
        std::fs::remove_dir_all(&dir).unwrap();

        assert_eq!(wal(&strings(&["inspect"])).code, 2);
        assert_eq!(wal(&strings(&["scrub", "x"])).code, 2);
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
    fn rules_ls_add_rm_test_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "simba-cli-rules-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dir_s = dir.to_string_lossy().into_owned();

        // Empty listing first.
        let out = rules(&strings(&["ls", "--dir", &dir_s, "--user", "ada"]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("ada: 0 rule(s)"), "{}", out.output);

        // Add a digest rule and a suppress rule.
        let out = rules(&strings(&[
            "add", "--dir", &dir_s, "--user", "ada", "--name", "storm",
            "--predicate", "source == flappy", "--action", "digest",
            "--window-ms", "5000", "--max-count", "100", "--severity", "low",
        ]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("#1"), "{}", out.output);
        assert!(out.output.contains("window=5000ms"), "{}", out.output);
        let out = rules(&strings(&[
            "add", "--dir", &dir_s, "--user", "ada", "--name", "mute",
            "--predicate", "body contains noise", "--action", "suppress",
        ]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("#2"), "{}", out.output);

        // The log is durable: a fresh engine (new CLI call) sees both, with
        // the predicate canonicalized.
        let out = rules(&strings(&["ls", "--dir", &dir_s, "--user", "ada"]));
        assert!(out.output.contains("ada: 2 rule(s)"), "{}", out.output);
        assert!(out.output.contains("source == \"flappy\""), "{}", out.output);
        assert!(out.output.contains("severity=low"), "{}", out.output);

        // Dry-run: a flappy alert is absorbed; ordinary traffic delivers.
        let out = rules(&strings(&[
            "test", "--dir", &dir_s, "--user", "ada", "--source", "flappy",
        ]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("digest (rule #1)"), "{}", out.output);
        let out = rules(&strings(&[
            "test", "--dir", &dir_s, "--user", "ada", "--source", "calm",
        ]));
        assert!(out.output.contains("no rule matched"), "{}", out.output);

        // Remove the digest rule; the removal is durable and idempotent.
        let out = rules(&strings(&["rm", "--dir", &dir_s, "--user", "ada", "--id", "1"]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("deleted rule #1"), "{}", out.output);
        let out = rules(&strings(&["rm", "--dir", &dir_s, "--user", "ada", "--id", "1"]));
        assert!(out.output.contains("nothing to do"), "{}", out.output);
        let out = rules(&strings(&["ls", "--dir", &dir_s, "--user", "ada"]));
        assert!(out.output.contains("ada: 1 rule(s)"), "{}", out.output);

        // A bad predicate is a user error (1); bad flags are usage (2).
        let out = rules(&strings(&[
            "add", "--dir", &dir_s, "--user", "ada", "--name", "x",
            "--predicate", "source ==",
        ]));
        assert_eq!(out.code, 1, "{}", out.output);
        assert_eq!(rules(&strings(&["ls"])).code, 2);
        assert_eq!(rules(&strings(&["ls", "--dir", &dir_s])).code, 2);
        assert_eq!(rules(&strings(&["scrub", "--dir", &dir_s, "--user", "a"])).code, 2);
        assert_eq!(
            rules(&strings(&["add", "--dir", &dir_s, "--user", "a", "--severity", "loud"])).code,
            2
        );
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

    #[test]
    fn demo_pipeline_prints_summary() {
        let out = demo(&strings(&["pipeline", "--seed", "7", "--alerts", "5"]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("seen by the user: 5/5"), "{}", out.output);
        assert_eq!(demo(&strings(&["pipeline", "--seed", "NaN"])).code, 2);
        assert_eq!(demo(&strings(&["nonsense"])).code, 2);
        assert_eq!(demo(&strings(&[])).code, 2);
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

    #[test]
    fn telemetry_demo_prints_events_and_metrics() {
        let out = telemetry(&strings(&["demo", "--seed", "7", "--alerts", "6"]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("mab.received"), "{}", out.output);
        assert!(out.output.contains("wal.append"), "{}", out.output);
        assert!(out.output.contains("delivery.acked"), "{}", out.output);
        // Alert 4 (i % 5 == 4) drives the fallback ladder.
        assert!(out.output.contains("delivery.send_failed"), "{}", out.output);
        // The soft-state store steered alert 0 (presence "away" skipped
        // its IM block) and decayed before alert 1; both facts show in
        // the metrics snapshot.
        assert!(out.output.contains("mab.mode_overridden"), "{}", out.output);
        assert!(out.output.contains("store.puts"), "{}", out.output);
        assert!(out.output.contains("store.expired"), "{}", out.output);

        // Same seed ⇒ byte-identical output (the determinism invariant).
        let again = telemetry(&strings(&["demo", "--seed", "7", "--alerts", "6"]));
        assert_eq!(out.output, again.output);

        assert_eq!(telemetry(&strings(&["demo", "--seed", "NaN"])).code, 2);
        assert_eq!(telemetry(&strings(&["nonsense"])).code, 2);
        assert_eq!(telemetry(&strings(&[])).code, 2);
    }

    #[test]
    fn telemetry_demo_json_round_trips_through_tail() {
        let out = telemetry(&strings(&["demo", "--seed", "3", "--alerts", "4", "--json"]));
        assert_eq!(out.code, 0, "{}", out.output);
        // Every line up to the final metrics object is a parseable event.
        let lines: Vec<&str> = out.output.lines().collect();
        let (events, metrics) = lines.split_at(lines.len() - 1);
        assert!(!events.is_empty());
        for line in events {
            simba_telemetry::Event::from_json_line(line).unwrap();
        }
        assert!(metrics[0].starts_with('{'), "{}", metrics[0]);

        let path = tmp("events.jsonl", &events.join("\n"));
        let tailed = telemetry(&strings(&["tail", &path]));
        assert_eq!(tailed.code, 0, "{}", tailed.output);
        assert!(
            tailed.output.contains(&format!("{} event(s), 0 unparseable", events.len())),
            "{}",
            tailed.output
        );
        assert!(tailed.output.contains("mab.routed"), "{}", tailed.output);

        let bad = tmp("bad.jsonl", "not json\n");
        let tailed = telemetry(&strings(&["tail", &bad]));
        assert!(tailed.output.contains("1 unparseable"), "{}", tailed.output);
        assert_eq!(telemetry(&strings(&["tail"])).code, 2);
    }

    #[test]
    fn summary_line_truncates() {
        assert_eq!(summary_line("short"), "short");
        assert_eq!(summary_line("a\nb"), "a b");
        let long = "x".repeat(100);
        let s = summary_line(&long);
        assert_eq!(s.chars().count(), 60);
        assert!(s.ends_with("..."));
    }
}
