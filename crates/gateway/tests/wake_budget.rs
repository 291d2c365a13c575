//! What handing alerts from a gateway thread to the runtime thread costs
//! both threads in wake-ups, pinned: voluntary context switches per alert
//! of the thread that runs `pump_into_sharded_host`, read from
//! `/proc/thread-self/status` around the pump, and of the `gw-worker-*`
//! threads (found by `/proc/self/task/*/comm`) around the client's run.
//! The path is real TCP into `GatewayServer`, one `Submit` frame per
//! `write`, spin-paced at 20 000/s → intake queue → pump → a two-shard
//! `ShardedHost` with a rules engine (200 users, one deliver rule each).
//!
//! The shim's executor parks whenever it runs out of work, and while
//! submissions flow every park has a deadline at most one pump tick
//! (1 ms) away. When
//! each send from a gateway thread cut such a park short, the runtime
//! thread read 0.95–0.98 switches per alert in release and 0.32 in debug
//! (2-vCPU VM). A park that ends within 1 ms is now left to end, and the
//! pump drains what arrived meanwhile in one go: ≈ 0.04 in release,
//! ≈ 0.03 in debug.
//!
//! A gateway worker that read each frame as it arrived blocked in `recv`
//! once per frame: 0.70 switches per alert. Once a read holds two or more
//! frames the worker serves that connection once per 1 ms tick, ≈ 20
//! frames a turn at this rate: ≈ 0.05. Both figures have the budget
//! [`BUDGET`].
//!
//! The pump arms its tick only while submissions arrive, so an idle
//! rules host sleeps. The second case lets a two-shard rules host with a
//! running pump sit idle for 500 ms and counts the runtime thread's
//! voluntary switches: 467 when the pump ticked whenever rules were
//! attached, ≈ 1 now; the budget is [`IDLE_BUDGET`].
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
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USERS: usize = 200;
const FRAMES: u64 = 10_000;
const RATE_PER_S: u32 = 20_000;
/// Voluntary switches per alert the runtime thread, and the gateway
/// workers together, may each spend.
const BUDGET: f64 = 0.25;
/// Voluntary switches the runtime thread of an idle rules host may spend
/// in [`IDLE`].
const IDLE_BUDGET: u64 = 25;
const IDLE: Duration = Duration::from_millis(500);

fn user(i: u64) -> String {
    format!("u{i:03}")
}

/// The voluntary context switches so far of the thread whose `status`
/// file this is.
fn voluntary_switches(status: &Path) -> u64 {
    let status = std::fs::read_to_string(status).expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a voluntary_ctxt_switches line")
}

/// Voluntary context switches so far, summed over this process's gateway
/// worker threads.
fn gateway_worker_switches() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs is mounted");
    tasks
        .map(|task| task.expect("a task entry").path())
        .filter(|task| {
            std::fs::read_to_string(task.join("comm"))
                .is_ok_and(|comm| comm.starts_with("gw-worker-"))
        })
        .map(|task| voluntary_switches(&task.join("status")))
        .sum()
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

/// Reads replies until [`FRAMES`] acks have arrived; any other reply,
/// or one that does not decode, fails the test.
fn count_acks(stream: &mut TcpStream) -> u64 {
    let max_payload = proto::DEFAULT_MAX_PAYLOAD;
    let mut pending = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut acked = 0;
    while acked < FRAMES {
        let n = stream.read(&mut chunk).expect("the gateway replies");
        assert!(n > 0, "the gateway closed the connection after {acked} acks");
        pending.extend_from_slice(&chunk[..n]);
        let mut used = 0;
        while let Some((header, payload)) =
            proto::split_frame(&pending[used..], max_payload).expect("a reply header")
        {
            let frame = proto::decode_payload(&header, payload).expect("a reply");
            assert!(matches!(frame, Frame::Ack { .. }), "refused: {frame:?}");
            acked += 1;
            used += proto::HEADER_LEN + payload.len();
        }
        pending.drain(..used);
    }
    acked
}

/// A two-shard host whose [`USERS`] registered users each own one deliver
/// rule.
async fn rules_host(channels: SharedChannels<LoopbackChannels>) -> ShardedHost {
    let engine: SharedRuleEngine = Arc::new(RuleEngine::open(RulesConfig::in_memory()).unwrap());
    for i in 0..USERS as u64 {
        engine.upsert(&user(i), None, RuleSpec::deliver("all", "source == \"gw-src\"")).unwrap();
    }
    let config = ShardedHostConfig { shards: 2, rules: Some(engine), ..ShardedHostConfig::default() };
    let (host, _notices) =
        ShardedHost::new(channels, config, factory(), Telemetry::disabled()).unwrap();
    host.register_many((0..USERS as u64).map(|i| UserId::new(user(i))).collect()).await;
    host
}

#[test]
fn the_runtime_thread_and_the_gateway_workers_wake_at_most_once_per_four_alerts() {
    let (intake_tx, intake_rx) = intake(2 * FRAMES as usize);
    let config = GatewayConfig { per_conn_inflight: FRAMES as usize, ..GatewayConfig::default() };
    let server = GatewayServer::bind(config, intake_tx, Telemetry::disabled()).unwrap();
    let addr = server.local_addr();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
    let client = std::thread::spawn(move || {
        ready_rx.recv().unwrap();
        let before = gateway_worker_switches();
        let acked = send_open_loop(addr);
        // Read before shutdown: the workers' task entries go with them.
        let switches = gateway_worker_switches() - before;
        server.shutdown();
        (acked, switches)
    });

    let channels = SharedChannels::new(LoopbackChannels::accept_all());
    let (routed, started, switches) = tokio::runtime::block_on(async move {
        let host = rules_host(channels).await;
        ready_tx.send(()).unwrap();
        let runtime_thread = Path::new("/proc/thread-self/status");
        let before = voluntary_switches(runtime_thread);
        let report = pump_into_sharded_host(&host, intake_rx, &Telemetry::disabled()).await;
        let switches = voluntary_switches(runtime_thread) - before;
        let snap = host.shutdown().await;
        (report.routed, snap.stats.deliveries_started, switches)
    });

    let (acked, gateway_switches) = client.join().unwrap();
    assert_eq!(acked, FRAMES, "every frame acked");
    assert_eq!((routed, started), (FRAMES, FRAMES), "every frame routed and delivered");
    let measured = [("runtime thread", switches), ("gateway workers", gateway_switches)];
    for (threads, switches) in measured {
        let per_alert = switches as f64 / FRAMES as f64;
        println!(
            "{threads}: {switches} voluntary switches for {FRAMES} alerts at {RATE_PER_S}/s \
             = {per_alert:.3} per alert (budget {BUDGET})"
        );
        assert!(per_alert <= BUDGET, "{threads}: {per_alert:.3} wakes per alert, over {BUDGET}");
    }
}

#[test]
fn an_idle_rules_host_with_a_running_pump_sleeps() {
    let (intake_tx, intake_rx) = intake(16);
    let channels = SharedChannels::new(LoopbackChannels::accept_all());
    let switches = tokio::runtime::block_on(async move {
        let host = Rc::new(rules_host(channels).await);
        let pump = tokio::spawn({
            let host = Rc::clone(&host);
            async move { pump_into_sharded_host(&host, intake_rx, &Telemetry::disabled()).await }
        });
        let runtime_thread = Path::new("/proc/thread-self/status");
        let before = voluntary_switches(runtime_thread);
        tokio::time::sleep(IDLE).await;
        let switches = voluntary_switches(runtime_thread) - before;
        drop(intake_tx);
        assert_eq!(pump.await.unwrap().routed, 0);
        Rc::try_unwrap(host).expect("the pump has exited").shutdown().await;
        switches
    });
    println!(
        "idle rules host: {switches} voluntary switches of the runtime thread in {IDLE:?} \
         (budget {IDLE_BUDGET})"
    );
    assert!(switches <= IDLE_BUDGET, "an idle rules host woke {switches} times in {IDLE:?}");
}
