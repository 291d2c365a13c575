//! What handing alerts from a gateway thread to the runtime thread costs
//! that runtime thread in wake-ups, pinned: voluntary context switches of
//! the thread that runs `pump_into_sharded_host`, per alert, read from
//! `/proc/thread-self/status` around the pump. The path is real TCP into
//! `GatewayServer`, one `Submit` frame per `write`, spin-paced at
//! 20 000/s → intake queue → pump → a two-shard `ShardedHost` with a
//! rules engine (200 users, one deliver rule each).
//!
//! The shim's executor parks whenever it runs out of work, and on a rules
//! host every park has a deadline at most one pump tick (1 ms) away. When
//! each send from a gateway thread cut such a park short, this test read
//! 0.95–0.98 switches per alert in release and 0.32 in debug (2-vCPU VM).
//! A park that ends within 1 ms is now left to end, and the pump drains
//! what arrived meanwhile in one go: ≈ 0.04 in release, ≈ 0.03 in debug.
//! The budget is [`BUDGET`].

mod common;

use common::factory;
use simba_core::subscription::UserId;
use simba_core::Telemetry;
use simba_gateway::proto::{self, Frame, WireChannel};
use simba_gateway::{intake, pump_into_sharded_host, GatewayConfig, GatewayServer};
use simba_rules::{RuleEngine, RuleSpec, RulesConfig, SharedRuleEngine};
use simba_runtime::{LoopbackChannels, SharedChannels, ShardedHost, ShardedHostConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USERS: usize = 200;
const FRAMES: u64 = 10_000;
const RATE_PER_S: u32 = 20_000;
/// Voluntary switches per alert the runtime thread may spend.
const BUDGET: f64 = 0.25;

fn user(i: u64) -> String {
    format!("u{i:03}")
}

/// This thread's voluntary context switches so far.
fn voluntary_switches() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a voluntary_ctxt_switches line")
}

/// Writes [`FRAMES`] submissions over one connection, one frame per
/// `write`, each at its due time on a fixed grid; returns how many the
/// gateway acked.
fn send_open_loop(addr: SocketAddr) -> u64 {
    let mut stream = TcpStream::connect(addr).expect("connect to the gateway");
    stream.set_nodelay(true).expect("disable Nagle");
    let mut replies = stream.try_clone().expect("clone the socket");
    let acks = std::thread::spawn(move || count_acks(&mut replies));
    let interval = Duration::from_secs(1) / RATE_PER_S;
    let started = Instant::now();
    for seq in 0..FRAMES {
        let frame = proto::encode_to_vec(&Frame::Submit {
            seq,
            channel: WireChannel::Im,
            user: user(seq % USERS as u64),
            source: "gw-src".into(),
            body: format!("Sensor {seq} ON"),
        });
        let due = started + interval * seq as u32;
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        stream.write_all(&frame).expect("the gateway reads");
    }
    acks.join().expect("the reply reader")
}

/// Reads replies until [`FRAMES`] acks have arrived; any other reply
/// fails the test.
fn count_acks(stream: &mut TcpStream) -> u64 {
    let mut pending = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut acked = 0;
    while acked < FRAMES {
        let n = stream.read(&mut chunk).expect("the gateway replies");
        assert!(n > 0, "the gateway closed the connection after {acked} acks");
        pending.extend_from_slice(&chunk[..n]);
        let mut used = 0;
        while let Ok((frame, len)) = proto::decode_frame(&pending[used..]) {
            assert!(matches!(frame, Frame::Ack { .. }), "refused: {frame:?}");
            acked += 1;
            used += len;
        }
        pending.drain(..used);
    }
    acked
}

#[test]
fn the_runtime_thread_wakes_at_most_once_per_four_alerts() {
    let engine: SharedRuleEngine = Arc::new(RuleEngine::open(RulesConfig::in_memory()).unwrap());
    for i in 0..USERS as u64 {
        engine.upsert(&user(i), None, RuleSpec::deliver("all", "source == \"gw-src\"")).unwrap();
    }
    let (intake_tx, intake_rx) = intake(2 * FRAMES as usize);
    let config = GatewayConfig { per_conn_inflight: FRAMES as usize, ..GatewayConfig::default() };
    let server = GatewayServer::bind(config, intake_tx, Telemetry::disabled()).unwrap();
    let addr = server.local_addr();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
    let client = std::thread::spawn(move || {
        ready_rx.recv().unwrap();
        let acked = send_open_loop(addr);
        server.shutdown();
        acked
    });

    let channels = SharedChannels::new(LoopbackChannels::accept_all());
    let (routed, started, switches) = tokio::runtime::block_on(async move {
        let config = ShardedHostConfig {
            shards: 2,
            rules: Some(engine),
            ..ShardedHostConfig::default()
        };
        let (host, _notices) =
            ShardedHost::new(channels, config, factory(), Telemetry::disabled()).unwrap();
        host.register_many((0..USERS as u64).map(|i| UserId::new(user(i))).collect()).await;
        ready_tx.send(()).unwrap();
        let before = voluntary_switches();
        let report = pump_into_sharded_host(&host, intake_rx, &Telemetry::disabled()).await;
        let switches = voluntary_switches() - before;
        let snap = host.shutdown().await;
        (report.routed, snap.stats.deliveries_started, switches)
    });

    assert_eq!(client.join().unwrap(), FRAMES, "every frame acked");
    assert_eq!((routed, started), (FRAMES, FRAMES), "every frame routed and delivered");
    let per_alert = switches as f64 / FRAMES as f64;
    println!(
        "runtime thread: {switches} voluntary switches for {FRAMES} alerts at {RATE_PER_S}/s \
         = {per_alert:.3} per alert (budget {BUDGET})"
    );
    assert!(per_alert <= BUDGET, "{per_alert:.3} wakes per alert, over the budget of {BUDGET}");
}
