//! End-to-end gateway tests over real localhost TCP.
//!
//! The server runs on std threads; where the host is involved the main
//! test thread drives the tokio-shim runtime (unpaused, real time) with
//! [`simba_gateway::pump_into_sharded_host`], exactly the shape the CLI,
//! the E6 bench and the E11 benchmark use.

mod common;

use common::factory;
use simba_core::subscription::UserId;
use simba_core::Telemetry;
use simba_gateway::proto::{self, Frame, NackReason, WireChannel, WireRule};
use simba_gateway::{
    intake, pump_into_sharded_host, ClientError, GatewayClient, GatewayConfig,
    GatewayServer, RateLimit, Submission, SubmitResult,
};
use simba_rules::{RuleEngine, RulesConfig, SharedRuleEngine};
use simba_runtime::{LoopbackChannels, SharedChannels, ShardedHost, ShardedHostConfig};
use simba_telemetry::RingBufferSink;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn telemetry() -> Telemetry {
    Telemetry::with_sink(Arc::new(RingBufferSink::new(4096)))
}

/// Three client threads submit through the gateway into a live host:
/// every accepted submission reaches the owning shard worker and starts
/// a delivery.
#[test]
fn submissions_flow_through_tcp_into_the_host() {
    let telemetry = telemetry();
    let (intake_tx, intake_rx) = intake(256);
    let server =
        GatewayServer::bind(GatewayConfig::default(), intake_tx, telemetry.clone()).unwrap();
    let addr = server.local_addr();

    let clients: Vec<_> = ["alice", "bob", "carol"]
        .into_iter()
        .map(|name| {
            std::thread::spawn(move || {
                let mut client =
                    GatewayClient::connect(addr.to_string()).unwrap();
                let mut accepted = 0u64;
                for i in 0..40 {
                    let result = client
                        .submit(WireChannel::Im, name, "gw-src", &format!("Sensor {i} ON"))
                        .unwrap();
                    assert_eq!(result, SubmitResult::Accepted);
                    accepted += 1;
                }
                accepted
            })
        })
        .collect();

    let supervisor = std::thread::spawn(move || {
        let total: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
        server.shutdown();
        total
    });

    let host_telemetry = telemetry.clone();
    let (report, snap) = tokio::runtime::block_on(async move {
        let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(5)));
        let config = ShardedHostConfig {
            shards: 2,
            hibernate_after: simba_sim::SimDuration::ZERO,
            ..ShardedHostConfig::default()
        };
        let (host, _notices) =
            ShardedHost::new(shared, config, factory(), host_telemetry.clone()).unwrap();
        host.register_many(
            ["alice", "bob", "carol"].into_iter().map(UserId::new).collect(),
        )
        .await;
        let report = pump_into_sharded_host(&host, intake_rx, &host_telemetry).await;
        let snap = host.shutdown().await;
        (report, snap)
    });

    let sent = supervisor.join().unwrap();
    assert_eq!(sent, 120);
    assert_eq!(report.routed, 120, "every accepted submission reached a shard");
    assert_eq!(report.unrouted, 0);
    assert_eq!(snap.unrouted, 0, "all three users were registered");
    assert_eq!(snap.stats.received_im, 120);
    assert_eq!(snap.stats.deliveries_started, 120);
    let metrics = telemetry.metrics().snapshot();
    assert_eq!(metrics.counter("gateway.accepted"), 120);
    assert_eq!(metrics.counter("host.routed"), 120);
}

fn submission(user: &str, source: &str, body: &str) -> Submission {
    Submission {
        seq: 0,
        channel: WireChannel::Im,
        user: UserId::new(user),
        source: source.into(),
        body: body.into(),
        slot: Arc::new(std::sync::atomic::AtomicUsize::new(1)),
    }
}

/// Drives `scenario` on its own thread and fails (rather than hangs) if
/// it has not finished within ten seconds — the failure mode of a pump
/// that sleeps through a wake-up is a hang.
fn finishes_in_time<T: Send + 'static>(scenario: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || done_tx.send(scenario()));
    done_rx.recv_timeout(Duration::from_secs(10)).expect("the pump slept through a wake-up")
}

/// The pump needs no heartbeat to notice a submission. The runtime below
/// hosts nothing but the pump — shard workers run on their own threads —
/// so once the pump awaits the empty intake queue the executor has no
/// task to run and no timer to wait for: it parks. That holds with a
/// rules engine attached too, since digest windows are the workers'
/// business. A submission from a plain std thread must wake it and be
/// routed.
fn a_submission_from_a_std_thread_wakes_an_idle_pump(rules: bool) {
    let sent = finishes_in_time(move || {
        let (intake_tx, intake_rx) = intake(16);
        let (parked_tx, parked_rx) = std::sync::mpsc::channel::<()>();
        let submitter = std::thread::spawn(move || {
            // Wait until the runtime has finished its set-up, then give
            // it time to run out of work and park.
            parked_rx.recv().unwrap();
            std::thread::sleep(Duration::from_millis(100));
            intake_tx.try_submit(submission("alice", "gw-src", "Sensor ON")).unwrap();
            // Dropping the sender ends the pump — the second wake-up.
        });
        let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(5)));
        let sent = shared.clone();
        let report = tokio::runtime::block_on(async move {
            let config = ShardedHostConfig {
                shards: 1,
                threads: true,
                rules: rules.then(|| Arc::new(RuleEngine::open(RulesConfig::in_memory()).unwrap())),
                ..ShardedHostConfig::default()
            };
            let (host, _notices) =
                ShardedHost::new(shared, config, factory(), Telemetry::disabled()).unwrap();
            host.register(UserId::new("alice")).await;
            parked_tx.send(()).unwrap();
            let report = pump_into_sharded_host(&host, intake_rx, &Telemetry::disabled()).await;
            assert_eq!(host.shutdown().await.stats.deliveries_started, 1);
            report
        });
        submitter.join().unwrap();
        assert_eq!((report.routed, report.unrouted), (1, 0));
        sent.with(|c| c.sent().len())
    });
    assert_eq!(sent, 1, "the lone submission was delivered");
}

#[test]
fn a_submission_from_a_std_thread_wakes_an_idle_pump_with_no_timer_armed() {
    a_submission_from_a_std_thread_wakes_an_idle_pump(false);
}

#[test]
fn a_submission_from_a_std_thread_wakes_an_idle_rules_pump_with_no_timer_armed() {
    a_submission_from_a_std_thread_wakes_an_idle_pump(true);
}

/// What the shim's wake rule costs a submission, end to end. The pump of
/// an idle rules host has gone back to waiting untimed, so the executor
/// parks with no deadline a tick away, and a send from another thread
/// wakes it at once. A lone submission is routed well within 20 ms.
#[test]
fn a_submission_into_an_idle_rules_host_is_routed_promptly() {
    let routed_after = finishes_in_time(|| {
        let engine: SharedRuleEngine =
            Arc::new(RuleEngine::open(RulesConfig::in_memory()).unwrap());
        let telemetry = telemetry();
        let (intake_tx, intake_rx) = intake(16);
        let (parked_tx, parked_rx) = std::sync::mpsc::channel::<()>();
        let metrics = telemetry.metrics().clone();
        let submitter = std::thread::spawn(move || {
            parked_rx.recv().unwrap();
            std::thread::sleep(Duration::from_millis(100));
            let started = Instant::now();
            intake_tx.try_submit(submission("alice", "gw-src", "Sensor ON")).unwrap();
            while metrics.snapshot().counter("host.routed") == 0 {
                std::thread::sleep(Duration::from_micros(100));
            }
            started.elapsed()
        });
        let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(5)));
        tokio::runtime::block_on(async move {
            let config = ShardedHostConfig {
                shards: 1,
                rules: Some(engine),
                ..ShardedHostConfig::default()
            };
            let (host, _notices) =
                ShardedHost::new(shared, config, factory(), telemetry.clone()).unwrap();
            host.register(UserId::new("alice")).await;
            parked_tx.send(()).unwrap();
            let report = pump_into_sharded_host(&host, intake_rx, &telemetry).await;
            assert_eq!((report.routed, report.unrouted), (1, 0));
            host.shutdown().await;
        });
        submitter.join().unwrap()
    });
    assert!(routed_after < Duration::from_millis(20), "routed after {routed_after:?}");
}

/// Regression: a client that sends a partial frame and stalls must not
/// block other connections, and its worker must be reclaimed after
/// `idle_timeout` — `shutdown()` joining proves nothing leaked.
#[test]
fn slow_loris_does_not_starve_other_connections() {
    let telemetry = telemetry();
    let (intake_tx, _intake_rx) = intake(256);
    let config = GatewayConfig {
        workers: 2,
        idle_timeout: Duration::from_millis(200),
        ..GatewayConfig::default()
    };
    let server = GatewayServer::bind(config, intake_tx, telemetry.clone()).unwrap();
    let addr = server.local_addr();

    // The attacker: half a header, then silence (socket stays open).
    let mut loris = TcpStream::connect(addr).unwrap();
    let partial = &proto::encode_to_vec(&Frame::Probe { nonce: 7 })[..proto::HEADER_LEN / 2];
    loris.write_all(partial).unwrap();

    // A healthy client keeps getting served the whole time.
    let mut client = GatewayClient::connect(addr.to_string()).unwrap();
    for i in 0..20 {
        let result =
            client.submit(WireChannel::Im, "alice", "gw-src", &format!("Sensor {i} ON")).unwrap();
        assert_eq!(result, SubmitResult::Accepted, "healthy client starved at submission {i}");
    }

    // The stalled connection is closed once idle_timeout passes; its
    // worker then serves a brand-new connection.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if telemetry.metrics().snapshot().counter("gateway.idle_closed") >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "idle connection was never reaped");
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut second = GatewayClient::connect(addr.to_string()).unwrap();
    let stats = second.probe().unwrap();
    assert_eq!(stats.accepted, 20);

    // The loris socket is dead server-side: reads see EOF.
    let _ = loris.set_read_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 1];
    assert_eq!(loris.read(&mut buf).unwrap_or(0), 0, "server kept the stalled socket open");

    server.shutdown(); // joins acceptor + both workers: no leaked thread
    let snap = telemetry.metrics().snapshot();
    // At least the loris was reaped (the healthy client may idle out
    // too while the test waits — reconnect covers that in production).
    assert!(snap.counter("gateway.idle_closed") >= 1);
    assert_eq!(snap.counter("gateway.accepted"), 20);
}

/// A full intake queue sheds with `QueueFull` + retry-after instead of
/// stalling the connection, and the drop is counted.
#[test]
fn full_intake_queue_sheds_with_retry_after() {
    let telemetry = telemetry();
    let (intake_tx, _intake_rx) = intake(1); // held open, never drained
    let server =
        GatewayServer::bind(GatewayConfig::default(), intake_tx, telemetry.clone()).unwrap();
    let mut client =
        GatewayClient::connect(server.local_addr().to_string()).unwrap();

    assert_eq!(
        client.submit(WireChannel::Im, "alice", "gw-src", "Sensor ON").unwrap(),
        SubmitResult::Accepted
    );
    match client.submit(WireChannel::Im, "alice", "gw-src", "Sensor ON").unwrap() {
        SubmitResult::Rejected { reason: NackReason::QueueFull, retry_after_ms } => {
            assert!(retry_after_ms > 0, "shed nack must carry a back-off hint");
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    let stats = client.probe().unwrap();
    assert_eq!((stats.accepted, stats.shed), (1, 1));
    server.shutdown();
    assert_eq!(telemetry.metrics().snapshot().counter("gateway.shed"), 1);
}

/// The known-user gate and the per-source token bucket both nack with
/// their own reasons, all counted.
#[test]
fn unknown_users_and_rate_limits_are_nacked() {
    let telemetry = telemetry();
    let (intake_tx, _intake_rx) = intake(256);
    let config = GatewayConfig {
        known_users: Some(["alice".to_string()].into_iter().collect()),
        rate_limit: Some(RateLimit { burst: 2, per_sec: 1 }),
        ..GatewayConfig::default()
    };
    let server = GatewayServer::bind(config, intake_tx, telemetry.clone()).unwrap();
    let mut client =
        GatewayClient::connect(server.local_addr().to_string()).unwrap();

    match client.submit(WireChannel::Im, "mallory", "gw-src", "Sensor ON").unwrap() {
        SubmitResult::Rejected { reason: NackReason::UnknownUser, .. } => {}
        other => panic!("expected UnknownUser, got {other:?}"),
    }
    for _ in 0..2 {
        assert_eq!(
            client.submit(WireChannel::Email, "alice", "gw-src", "Sensor ON").unwrap(),
            SubmitResult::Accepted
        );
    }
    match client.submit(WireChannel::Email, "alice", "gw-src", "Sensor ON").unwrap() {
        SubmitResult::Rejected { reason: NackReason::RateLimited, retry_after_ms } => {
            assert!(retry_after_ms > 0);
        }
        other => panic!("expected RateLimited, got {other:?}"),
    }
    server.shutdown();
    let snap = telemetry.metrics().snapshot();
    assert_eq!(snap.counter("gateway.unknown_user"), 1);
    assert_eq!(snap.counter("gateway.shed"), 1);
    assert_eq!(snap.counter("gateway.accepted"), 2);
}

/// Garbage on the wire gets a `Malformed` nack, a closed connection, and
/// a `gateway.decode_err` count — never a hang.
#[test]
fn garbage_bytes_are_nacked_and_counted() {
    let telemetry = telemetry();
    let (intake_tx, _intake_rx) = intake(16);
    let server =
        GatewayServer::bind(GatewayConfig::default(), intake_tx, telemetry.clone()).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Exactly one header's worth of garbage: the server nacks and closes
    // with nothing left unread (an unread residue would turn the close
    // into a TCP reset and race the nack).
    stream.write_all(b"GET / HTTP/1.1").unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).unwrap(); // server closes after the nack
    let (frame, _) = proto::decode_frame(&reply).unwrap();
    assert!(matches!(frame, Frame::Nack { reason: NackReason::Malformed, .. }));

    server.shutdown();
    assert!(telemetry.metrics().snapshot().counter("gateway.decode_err") >= 1);
}

fn submit_frame(seq: u64) -> Vec<u8> {
    proto::encode_to_vec(&Frame::Submit {
        seq,
        channel: WireChannel::Im,
        user: "alice".into(),
        source: "gw-src".into(),
        body: format!("Basement water sensor {seq:04} ON"),
    })
}

/// Reads replies until the gateway closes the connection.
fn replies_until_close(stream: &mut TcpStream) -> Vec<Frame> {
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).unwrap();
    let mut frames = Vec::new();
    let mut used = 0;
    while used < bytes.len() {
        let (frame, len) = proto::decode_frame(&bytes[used..]).expect("whole replies");
        frames.push(frame);
        used += len;
    }
    frames
}

/// A stop-and-wait client never has a second frame in flight, so the
/// gateway never paces it: 500 sequential submissions into a small host
/// take ≈ 5 ms. A gateway that slept out its 1 ms tick after every read
/// would take ≥ 500 ms.
#[test]
fn a_stop_and_wait_client_is_never_paced() {
    let (intake_tx, intake_rx) = intake(256);
    let server =
        GatewayServer::bind(GatewayConfig::default(), intake_tx, Telemetry::disabled()).unwrap();
    let addr = server.local_addr();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
    let client = std::thread::spawn(move || {
        ready_rx.recv().unwrap();
        let mut client = GatewayClient::connect(addr.to_string()).unwrap();
        let started = Instant::now();
        for i in 0..500 {
            let result =
                client.submit(WireChannel::Im, "alice", "gw-src", &format!("Sensor {i} ON"));
            assert_eq!(result.unwrap(), SubmitResult::Accepted);
        }
        let took = started.elapsed();
        server.shutdown();
        took
    });
    let routed = tokio::runtime::block_on(async move {
        let shared = SharedChannels::new(LoopbackChannels::accept_all());
        let config = ShardedHostConfig { shards: 1, ..ShardedHostConfig::default() };
        let (host, _notices) =
            ShardedHost::new(shared, config, factory(), Telemetry::disabled()).unwrap();
        host.register(UserId::new("alice")).await;
        ready_tx.send(()).unwrap();
        let report = pump_into_sharded_host(&host, intake_rx, &Telemetry::disabled()).await;
        host.shutdown().await;
        report.routed
    });
    let took = client.join().unwrap();
    assert_eq!(routed, 500);
    assert!(took < Duration::from_millis(250), "500 stop-and-wait submissions took {took:?}");
}

/// One write of 1 000 pipelined submissions — more than one read's worth,
/// so some frame straddles two reads — gets 1 000 acks, in order.
#[test]
fn a_pipelined_burst_larger_than_a_read_gets_every_ack_in_order() {
    let telemetry = telemetry();
    let (intake_tx, _intake_rx) = intake(1024); // held open, never drained
    let config = GatewayConfig { per_conn_inflight: 1024, ..GatewayConfig::default() };
    let server = GatewayServer::bind(config, intake_tx, telemetry.clone()).unwrap();
    let burst: Vec<u8> = (0..1000).flat_map(submit_frame).collect();
    let frame_len = submit_frame(0).len();
    assert!(burst.len() > 64 * 1024 && (64 * 1024) % frame_len != 0);

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&burst).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let replies = replies_until_close(&mut stream);
    let acks: Vec<Frame> = (0..1000).map(|seq| Frame::Ack { seq }).collect();
    assert_eq!(replies, acks);

    server.shutdown();
    let snap = telemetry.metrics().snapshot();
    assert_eq!((snap.counter("gateway.accepted"), snap.counter("gateway.decode_err")), (1000, 0));
}

/// A frame that arrives a byte at a time is answered once, when whole.
#[test]
fn a_frame_trickled_a_byte_per_write_gets_one_ack() {
    let telemetry = telemetry();
    let (intake_tx, _intake_rx) = intake(16);
    let server =
        GatewayServer::bind(GatewayConfig::default(), intake_tx, telemetry.clone()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    for byte in submit_frame(7) {
        stream.write_all(&[byte]).unwrap();
        std::thread::sleep(Duration::from_micros(200));
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    assert_eq!(replies_until_close(&mut stream), vec![Frame::Ack { seq: 7 }]);
    server.shutdown();
    assert_eq!(telemetry.metrics().snapshot().counter("gateway.accepted"), 1);
}

/// Valid frames ahead of a corrupt one in the same write are all answered
/// first; then comes the `Malformed` nack, and the connection closes.
#[test]
fn frames_ahead_of_a_corrupt_one_are_acked_before_the_nack() {
    let telemetry = telemetry();
    let (intake_tx, _intake_rx) = intake(16);
    let server =
        GatewayServer::bind(GatewayConfig::default(), intake_tx, telemetry.clone()).unwrap();
    let mut bytes: Vec<u8> = (0..5).flat_map(submit_frame).collect();
    let mut torn = submit_frame(5);
    let last = torn.len() - 1;
    torn[last] ^= 0x01; // the CRC no longer matches
    bytes.extend_from_slice(&torn);

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&bytes).unwrap();
    let mut expected: Vec<Frame> = (0..5).map(|seq| Frame::Ack { seq }).collect();
    expected.push(Frame::Nack { seq: 0, reason: NackReason::Malformed, retry_after_ms: 0 });
    assert_eq!(replies_until_close(&mut stream), expected);

    server.shutdown();
    let snap = telemetry.metrics().snapshot();
    assert_eq!((snap.counter("gateway.accepted"), snap.counter("gateway.decode_err")), (5, 1));
}

/// A header announcing more than `DEFAULT_MAX_PAYLOAD` is refused on sight: the
/// nack comes back with none of the payload sent, long before the idle
/// timeout that a gateway waiting for that payload would hit.
#[test]
fn an_oversized_header_is_refused_before_its_payload_arrives() {
    let telemetry = telemetry();
    let (intake_tx, _intake_rx) = intake(16);
    let config = GatewayConfig { idle_timeout: Duration::from_secs(30), ..GatewayConfig::default() };
    let server = GatewayServer::bind(config, intake_tx, telemetry.clone()).unwrap();
    let mut header = submit_frame(1)[..proto::HEADER_LEN].to_vec();
    header[6..10].copy_from_slice(&(proto::DEFAULT_MAX_PAYLOAD + 1).to_le_bytes());

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let started = Instant::now();
    stream.write_all(&header).unwrap();
    let nack = Frame::Nack { seq: 0, reason: NackReason::Malformed, retry_after_ms: 0 };
    assert_eq!(replies_until_close(&mut stream), vec![nack]);
    assert!(started.elapsed() < Duration::from_secs(5));

    server.shutdown();
    assert_eq!(telemetry.metrics().snapshot().counter("gateway.decode_err"), 1);
}

/// The client survives a dropped connection by reconnecting and
/// resending (at-least-once).
#[test]
fn client_reconnects_after_a_dropped_connection() {
    let telemetry = telemetry();
    let (intake_tx, _intake_rx) = intake(256);
    let server =
        GatewayServer::bind(GatewayConfig::default(), intake_tx, telemetry.clone()).unwrap();
    let mut client =
        GatewayClient::connect(server.local_addr().to_string()).unwrap();

    assert_eq!(
        client.submit(WireChannel::Im, "alice", "gw-src", "Sensor ON").unwrap(),
        SubmitResult::Accepted
    );
    client.drop_connection();
    assert!(!client.is_connected());
    assert_eq!(
        client.submit(WireChannel::Im, "alice", "gw-src", "Sensor ON").unwrap(),
        SubmitResult::Accepted
    );
    assert_eq!(client.reconnects, 1);
    server.shutdown();
}

/// State frames round-trip over real TCP: a put through the gateway is
/// readable back (value, generation, decaying TTL), absence and expiry
/// read as `None`, and the probe reports the intake queue's capacity
/// alongside its depth.
#[test]
fn state_facts_round_trip_over_tcp() {
    let telemetry = telemetry();
    let store = simba_store::SoftStateStore::new(Default::default(), telemetry.clone());
    let (intake_tx, _intake_rx) = intake(256);
    let server = GatewayServer::bind_with_store(
        GatewayConfig::default(),
        intake_tx,
        telemetry.clone(),
        Some(store.clone()),
    )
    .unwrap();
    let mut client =
        GatewayClient::connect(server.local_addr().to_string()).unwrap();

    assert_eq!(
        client.state_put("presence", "alice", "away", 60_000, "wish").unwrap(),
        SubmitResult::Accepted
    );
    let fact = client.state_get("presence", "alice").unwrap().expect("fact present");
    assert_eq!(fact.value, "away");
    assert!(fact.generation >= 1);
    assert!(fact.ttl_remaining_ms > 0 && fact.ttl_remaining_ms <= 60_000);

    // Absent key: a normal `None`, not an error.
    assert_eq!(client.state_get("presence", "nobody").unwrap(), None);

    // A short-TTL fact decays on its own.
    assert_eq!(
        client.state_put("presence", "bob", "mobile", 50, "wish").unwrap(),
        SubmitResult::Accepted
    );
    std::thread::sleep(Duration::from_millis(120));
    assert_eq!(client.state_get("presence", "bob").unwrap(), None);

    // Satellite 2: probe carries capacity so clients can judge fullness.
    let stats = client.probe().unwrap();
    assert_eq!(stats.queue_capacity, 256);
    assert!(stats.queue_depth <= stats.queue_capacity);

    server.shutdown();
    let snap = telemetry.metrics().snapshot();
    assert!(snap.counter("store.puts") >= 2);
    assert!(snap.counter("store.hits") >= 1);
    assert!(snap.counter("store.expired") >= 1);
}

/// Bugfix regression: a gateway running without a store or a rules
/// engine answers state and rule frames with an `Unsupported` nack, and
/// the client classifies that as a *permanent* typed error — it must
/// not resend the request, reconnect, or burn its retry budget the way
/// it would for a load-shed nack.
#[test]
fn unsupported_nack_is_permanent_and_never_retried() {
    let telemetry = telemetry();
    let (intake_tx, _intake_rx) = intake(256);
    let server =
        GatewayServer::bind(GatewayConfig::default(), intake_tx, telemetry.clone()).unwrap();
    let mut client = GatewayClient::connect(server.local_addr().to_string()).unwrap();

    let started = Instant::now();
    for _ in 0..2 {
        // Store-less: both state paths fail with the typed error.
        let put = client.state_put("presence", "alice", "away", 1_000, "wish");
        assert!(
            matches!(put, Err(ClientError::Unsupported(_))),
            "state_put on a store-less gateway: {put:?}"
        );
        let get = client.state_get("presence", "alice");
        assert!(matches!(get, Err(ClientError::Unsupported(_))), "state_get: {get:?}");
        // Rules-less: every rule operation likewise.
        let upsert = client.rule_upsert("alice", &WireRule::default());
        assert!(matches!(upsert, Err(ClientError::Unsupported(_))), "rule_upsert: {upsert:?}");
        let delete = client.rule_delete("alice", 1);
        assert!(matches!(delete, Err(ClientError::Unsupported(_))), "rule_delete: {delete:?}");
        let list = client.rule_list("alice");
        assert!(matches!(list, Err(ClientError::Unsupported(_))), "rule_list: {list:?}");
        assert!(list.unwrap_err().is_permanent());
    }
    // Ten requests that each went through the client's three 25 ms
    // retry backoffs would take 750 ms; a permanent nack fails at once.
    assert!(
        started.elapsed() < Duration::from_millis(250),
        "a permanent nack must fail fast, not loop through the retry backoff"
    );
    assert_eq!(client.reconnects, 0, "permanent nacks must not trigger reconnects");
    server.shutdown();
}

/// Rules flow end to end over TCP: upsert assigns an id and persists,
/// bad predicates are rejected permanently, listing round-trips the
/// stored shape, and deletion is idempotent.
#[test]
fn rule_frames_manage_the_engine_over_tcp() {
    let telemetry = telemetry();
    let (intake_tx, _intake_rx) = intake(256);
    let engine: SharedRuleEngine = Arc::new(RuleEngine::open(RulesConfig::in_memory()).unwrap());
    let server = GatewayServer::bind_with_rules(
        GatewayConfig::default(),
        intake_tx,
        telemetry.clone(),
        None,
        Some(Arc::clone(&engine)),
    )
    .unwrap();
    let mut client =
        GatewayClient::connect(server.local_addr().to_string()).unwrap();

    // Create: id 0 asks the engine to assign one.
    let rule = WireRule {
        id: 0,
        name: "storm".into(),
        enabled: true,
        severity: 0,
        dedupe: None,
        predicate: "source == flappy".into(),
        action: 2,
        window_ms: 60_000,
        max_count: 0,
        max_exemplars: 3,
        key: None,
    };
    let stored = client.rule_upsert("ada", &rule).unwrap();
    assert_eq!(stored.id, 1);
    // The engine canonicalizes predicate text before storing.
    assert_eq!(stored.predicate, "source == \"flappy\"");
    assert_eq!(engine.rule_count(), 1);

    // Replace in place: same id, new name.
    let renamed = WireRule { name: "quieter".into(), ..stored.clone() };
    let stored = client.rule_upsert("ada", &renamed).unwrap();
    assert_eq!(stored.id, 1);
    assert_eq!(stored.name, "quieter");

    // A bad predicate is a permanent rejection, not a retry loop.
    let bad = WireRule { predicate: "source ==".into(), ..rule.clone() };
    let err = client.rule_upsert("ada", &bad);
    assert!(matches!(err, Err(ClientError::Rejected(_))), "bad predicate: {err:?}");
    assert!(err.unwrap_err().is_permanent());

    // Listing returns the stored shape, ordered by id.
    let listed = client.rule_list("ada").unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0], stored);
    assert_eq!(client.rule_list("bob").unwrap(), vec![]);

    // Deletion is idempotent: both calls ack.
    client.rule_delete("ada", 1).unwrap();
    client.rule_delete("ada", 1).unwrap();
    assert_eq!(client.rule_list("ada").unwrap(), vec![]);
    assert_eq!(engine.rule_count(), 0);
    server.shutdown();
}
