//! E6 — alert ingestion gateway under multi-connection TCP load.
//!
//! The paper's dependability argument starts at the front door: an alert
//! that the service *accepted* must never be silently lost, and overload
//! must be refused explicitly rather than by stalling (§3, §4.2). This
//! harness drives the `simba-gateway` TCP server with a multi-connection
//! loadgen — injected connection drops, an optional slow-loris client —
//! into a live 50-user [`ShardedHost`], and checks the ledger balances:
//!
//! * **zero accepted-then-lost**: every client-side `Ack` shows up as a
//!   pump-routed submission and a started delivery;
//! * **no silent drops**: `sent == accepted + rejected`, and every
//!   rejection is accounted under `gateway.shed` / `gateway.unknown_user`
//!   / `gateway.decode_err`;
//! * accepted alerts per second over localhost TCP are printed, not
//!   gated (E11's `benchmark compare` gates the whole path);
//! * a rate-limit sweep shows the shed curve: tighter buckets shed more,
//!   and the accounting still balances at every point.

use crate::experiments::ExperimentOutput;
use crate::report::Table;
use simba_core::address::{Address, AddressBook, CommType};
use simba_core::classify::{Classifier, KeywordField};
use simba_core::mode::DeliveryMode;
use simba_core::rejuvenate::RejuvenationPolicy;
use simba_core::subscription::{SubscriptionRegistry, UserId};
use simba_core::MabConfig;
use simba_gateway::proto::WireChannel;
use simba_gateway::{
    intake, pump_into_sharded_host, ClientConfig, GatewayClient, GatewayConfig, GatewayServer,
    RateLimit, SubmitResult,
};
use simba_runtime::{
    ConfigFactory, LoopbackChannels, SharedChannels, ShardedHost, ShardedHostConfig,
};
use simba_sim::SimDuration;
use simba_telemetry::{RingBufferSink, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load shape for one gateway run.
#[derive(Debug, Clone, Copy)]
pub struct GatewayBenchOptions {
    /// Hosted users (alerts round-robin across them).
    pub users: usize,
    /// Concurrent loadgen connections.
    pub connections: usize,
    /// Alerts submitted per connection.
    pub alerts_per_conn: usize,
    /// Sever and transparently re-dial every Nth submission (client
    /// crash injection); `None` keeps connections up.
    pub drop_every: Option<usize>,
    /// Add a connection that sends half a frame header and stalls.
    pub slow_loris: bool,
    /// Per-source token bucket handed to the gateway.
    pub rate_limit: Option<RateLimit>,
    /// Intake queue capacity between the workers and the host pump.
    pub queue: usize,
}

impl GatewayBenchOptions {
    /// Full-scale defaults: 50 users, 8 connections × 2 500 alerts, a
    /// drop every 500 submissions, one slow loris, no rate limit.
    pub fn full() -> Self {
        GatewayBenchOptions {
            users: 50,
            connections: 8,
            alerts_per_conn: 2_500,
            drop_every: Some(500),
            slow_loris: true,
            rate_limit: None,
            queue: 4_096,
        }
    }

    /// CI smoke: 1 000 alerts over 2 connections, drops injected.
    pub fn smoke() -> Self {
        GatewayBenchOptions {
            users: 10,
            connections: 2,
            alerts_per_conn: 500,
            drop_every: Some(100),
            slow_loris: true,
            rate_limit: None,
            queue: 1_024,
        }
    }
}

/// The balanced ledger from one run, exposed for regression tests.
#[derive(Debug, Clone, Copy)]
pub struct GatewayNumbers {
    /// Submissions the clients sent (acked or nacked).
    pub sent: u64,
    /// ... acked by the gateway.
    pub accepted: u64,
    /// ... nacked with a shed reason (queue-full / rate-limited / busy).
    pub rejected_shed: u64,
    /// ... nacked as unknown users.
    pub rejected_unknown: u64,
    /// Client reconnections performed (injected drops).
    pub reconnects: u64,
    /// Submissions the pump handed to the owning shard worker.
    pub routed: u64,
    /// Deliveries the host fleet actually started.
    pub deliveries_started: u64,
    /// `gateway.shed` as the server counted it.
    pub counter_shed: u64,
    /// `gateway.decode_err` as the server counted it.
    pub counter_decode_err: u64,
    /// `gateway.idle_closed` (the slow loris shows up here).
    pub counter_idle_closed: u64,
    /// Wall-clock seconds of the submission phase.
    pub wall_secs: f64,
    /// Accepted alerts per wall-clock second.
    pub throughput: f64,
}

fn user_config(name: &str) -> MabConfig {
    let mut classifier = Classifier::new();
    classifier.accept_source("bench-gw", KeywordField::Body, "cfg");
    classifier.map_keyword("Sensor", "Home");
    let mut registry = SubscriptionRegistry::new();
    let user = UserId::new(name);
    let profile = registry.register_user(user.clone());
    let mut book = AddressBook::new();
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
    MabConfig { classifier, registry, rejuvenation: RejuvenationPolicy::default() }
}

/// What one loadgen connection observed.
#[derive(Debug, Default, Clone, Copy)]
struct ConnLedger {
    sent: u64,
    accepted: u64,
    rejected_shed: u64,
    rejected_unknown: u64,
    reconnects: u64,
}

/// Runs one full gateway → host pipeline and returns the ledger.
pub fn measure(opts: GatewayBenchOptions) -> GatewayNumbers {
    let telemetry = Telemetry::with_sink(Arc::new(RingBufferSink::new(1_024)));
    let (intake_tx, intake_rx) = intake(opts.queue);
    let names: Vec<String> = (0..opts.users).map(|i| format!("user{i:03}")).collect();
    let config = GatewayConfig {
        // One worker per loadgen connection plus slack for the loris and
        // reconnect transients: contention stays on the intake queue,
        // where the admission story lives, not on worker starvation.
        workers: opts.connections + 2,
        idle_timeout: Duration::from_millis(500),
        rate_limit: opts.rate_limit,
        known_users: Some(names.iter().cloned().collect()),
        ..GatewayConfig::default()
    };
    let server = GatewayServer::bind(config, intake_tx, telemetry.clone())
        .expect("bind gateway on an ephemeral port");
    let addr = server.local_addr();

    let started = Instant::now();
    let loadgens: Vec<_> = (0..opts.connections)
        .map(|conn| {
            let users = opts.users;
            let alerts = opts.alerts_per_conn;
            let drop_every = opts.drop_every;
            std::thread::spawn(move || {
                let mut client = GatewayClient::connect(addr.to_string(), ClientConfig::default())
                    .expect("loadgen connects");
                let mut ledger = ConnLedger::default();
                for i in 0..alerts {
                    if let Some(n) = drop_every {
                        if i > 0 && i % n == 0 {
                            client.drop_connection();
                        }
                    }
                    let user = format!("user{:03}", (conn + i * 7) % users);
                    let body = format!("Sensor wave {i} ON");
                    match client
                        .submit(WireChannel::Im, &user, "bench-gw", &body)
                        .expect("submit survives reconnects")
                    {
                        SubmitResult::Accepted => ledger.accepted += 1,
                        SubmitResult::Rejected { reason, .. } if reason.is_shed() => {
                            ledger.rejected_shed += 1
                        }
                        SubmitResult::Rejected { .. } => ledger.rejected_unknown += 1,
                    }
                    ledger.sent += 1;
                }
                ledger.reconnects = client.reconnects;
                ledger
            })
        })
        .collect();

    let loris = opts.slow_loris.then(|| {
        std::thread::spawn(move || {
            use std::io::Write as _;
            let mut stream = std::net::TcpStream::connect(addr).expect("loris connects");
            let partial =
                simba_gateway::proto::encode_to_vec(&simba_gateway::Frame::Probe { nonce: 1 });
            stream.write_all(&partial[..simba_gateway::proto::HEADER_LEN / 2]).unwrap();
            // Stall well past the gateway's idle_timeout, then go away.
            std::thread::sleep(Duration::from_millis(1_500));
        })
    });

    // The supervisor joins the load, then shuts the server down — that
    // drops the worker-held intake senders, which is what ends the pump.
    let supervisor = std::thread::spawn(move || {
        let ledgers: Vec<ConnLedger> = loadgens.into_iter().map(|t| t.join().unwrap()).collect();
        let wall_secs = started.elapsed().as_secs_f64();
        if let Some(loris) = loris {
            let _ = loris.join();
        }
        server.shutdown();
        (ledgers, wall_secs)
    });

    let pump_telemetry = telemetry.clone();
    let (report, host) = tokio::runtime::block_on(async move {
        let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(5)));
        let factory: ConfigFactory = Arc::new(|user: &UserId| user_config(&user.0));
        let (host, _notices) = ShardedHost::new(
            shared,
            ShardedHostConfig::default(),
            factory,
            pump_telemetry.clone(),
        )
        .expect("in-memory shard logs");
        host.register_many(names.into_iter().map(UserId::new).collect()).await;
        let report = pump_into_sharded_host(&host, intake_rx, &pump_telemetry).await;
        (report, host.shutdown().await)
    });
    let (ledgers, wall_secs) = supervisor.join().unwrap();

    let mut totals = ConnLedger::default();
    for l in &ledgers {
        totals.sent += l.sent;
        totals.accepted += l.accepted;
        totals.rejected_shed += l.rejected_shed;
        totals.rejected_unknown += l.rejected_unknown;
        totals.reconnects += l.reconnects;
    }
    let deliveries_started = host.stats.deliveries_started;
    let snap = telemetry.metrics().snapshot();

    let numbers = GatewayNumbers {
        sent: totals.sent,
        accepted: totals.accepted,
        rejected_shed: totals.rejected_shed,
        rejected_unknown: totals.rejected_unknown,
        reconnects: totals.reconnects,
        routed: report.routed,
        deliveries_started,
        counter_shed: snap.counter("gateway.shed"),
        counter_decode_err: snap.counter("gateway.decode_err"),
        counter_idle_closed: snap.counter("gateway.idle_closed"),
        wall_secs,
        throughput: if wall_secs > 0.0 { totals.accepted as f64 / wall_secs } else { 0.0 },
    };

    // The dependability ledger. These hold at every scale — a violation
    // is a bug, not a tuning problem.
    assert_eq!(
        numbers.sent,
        numbers.accepted + numbers.rejected_shed + numbers.rejected_unknown,
        "every submission resolved to exactly one ack or nack"
    );
    assert_eq!(
        numbers.accepted, numbers.routed,
        "zero accepted-then-lost: every ack was routed into the host"
    );
    assert_eq!(report.unrouted, 0, "every shard worker outlived the pump");
    assert_eq!(host.unrouted, 0, "the known-user gate admits only hosted users");
    assert_eq!(
        numbers.routed, numbers.deliveries_started,
        "every routed alert started a delivery"
    );
    assert_eq!(
        numbers.accepted,
        snap.counter("gateway.accepted"),
        "client-side ack count matches the server's counter"
    );
    assert_eq!(
        numbers.rejected_shed, numbers.counter_shed,
        "every shed nack is accounted under gateway.shed"
    );
    assert_eq!(
        numbers.rejected_unknown,
        snap.counter("gateway.unknown_user"),
        "every unknown-user nack is accounted"
    );
    if opts.slow_loris {
        assert!(numbers.counter_idle_closed >= 1, "the slow loris must be reaped");
    }
    if let Some(n) = opts.drop_every {
        let expected: u64 =
            ledgers.iter().map(|_| ((opts.alerts_per_conn - 1) / n) as u64).sum();
        assert_eq!(numbers.reconnects, expected, "every injected drop forced a reconnect");
    }
    numbers
}

/// Runs the headline load plus a rate-limit shed sweep and renders the
/// tables.
fn run_with(opts: GatewayBenchOptions) -> ExperimentOutput {
    let n = measure(opts);

    let mut config = Table::new(
        "E6: gateway load shape",
        &["users", "connections", "alerts/conn", "drop every", "slow loris"],
    );
    config.row(&[
        opts.users.to_string(),
        opts.connections.to_string(),
        opts.alerts_per_conn.to_string(),
        opts.drop_every.map_or("—".into(), |n| n.to_string()),
        opts.slow_loris.to_string(),
    ]);

    let mut ledger = Table::new(
        "E6: the dependability ledger balances",
        &["sent", "accepted", "shed", "unknown", "routed", "deliveries", "reconnects"],
    );
    ledger.row(&[
        n.sent.to_string(),
        n.accepted.to_string(),
        n.rejected_shed.to_string(),
        n.rejected_unknown.to_string(),
        n.routed.to_string(),
        n.deliveries_started.to_string(),
        n.reconnects.to_string(),
    ]);

    let mut perf = Table::new(
        "E6: localhost TCP throughput into a live host fleet",
        &["accepted", "wall seconds", "accepted/s", "idle closed", "decode errors"],
    );
    perf.row(&[
        n.accepted.to_string(),
        format!("{:.2}", n.wall_secs),
        format!("{:.0}", n.throughput),
        n.counter_idle_closed.to_string(),
        n.counter_decode_err.to_string(),
    ]);

    // Shed curve: tighten the per-source bucket and watch explicit
    // refusals grow while the ledger still balances (asserted inside
    // measure). Sources submit flat out, so the bucket binds hard.
    let mut shed = Table::new(
        "E6: rate-limit shed curve (2 connections, 1000 alerts, one source)",
        &["bucket (alerts/s)", "sent", "accepted", "shed", "shed %"],
    );
    for per_sec in [500u32, 2_000, 10_000] {
        let sweep = measure(GatewayBenchOptions {
            users: 10,
            connections: 2,
            alerts_per_conn: 500,
            drop_every: None,
            slow_loris: false,
            rate_limit: Some(RateLimit { burst: per_sec / 2, per_sec }),
            queue: 1_024,
        });
        shed.row(&[
            per_sec.to_string(),
            sweep.sent.to_string(),
            sweep.accepted.to_string(),
            sweep.rejected_shed.to_string(),
            format!("{:.0} %", 100.0 * sweep.rejected_shed as f64 / sweep.sent.max(1) as f64),
        ]);
    }

    ExperimentOutput {
        id: "E6",
        title: "alert ingestion gateway: framed TCP, admission control, load shedding",
        paper_claim: "§3/§4.2: the service interposes on all alert sources; accepted alerts are delivered dependably, overload is refused explicitly",
        tables: vec![config, ledger, perf, shed],
        notes: vec![
            format!(
                "{} accepted alerts, {} injected connection drops, zero accepted-then-lost \
                 (acked == routed == deliveries started, asserted)",
                n.accepted, n.reconnects
            ),
            format!(
                "{:.0} accepted alerts/s over localhost TCP into a {}-user host",
                n.throughput, opts.users
            ),
            "every rejection is a counted, explicit nack: sent == accepted + gateway.shed \
             + gateway.unknown_user at every sweep point"
                .to_string(),
        ],
    }
}

/// Full-scale E6 (the seed only labels the run; the load is deterministic).
pub fn run(_seed: u64) -> ExperimentOutput {
    run_with(GatewayBenchOptions::full())
}

/// The CI smoke shape.
pub fn run_smoke(_seed: u64) -> ExperimentOutput {
    run_with(GatewayBenchOptions::smoke())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_smoke_ledger_balances_with_zero_lost() {
        // 1 000 alerts over real TCP with injected drops and a loris; the
        // zero-accepted-then-lost and full-accounting assertions run
        // inside measure().
        let n = measure(GatewayBenchOptions::smoke());
        assert_eq!(n.sent, 1_000);
        assert_eq!(n.accepted, n.routed);
        assert!(n.reconnects > 0, "drops must actually be injected");
        assert!(n.counter_idle_closed >= 1);
    }

    #[test]
    fn e6_rate_limit_sheds_explicitly() {
        let n = measure(GatewayBenchOptions {
            users: 5,
            connections: 2,
            alerts_per_conn: 250,
            drop_every: None,
            slow_loris: false,
            rate_limit: Some(RateLimit { burst: 50, per_sec: 500 }),
            queue: 256,
        });
        assert!(n.rejected_shed > 0, "a tight bucket must shed");
        assert_eq!(n.rejected_shed, n.counter_shed);
        assert_eq!(n.sent, n.accepted + n.rejected_shed + n.rejected_unknown);
    }
}
