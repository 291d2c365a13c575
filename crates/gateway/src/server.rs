//! The TCP front door: acceptor thread + worker pool, with admission
//! control and explicit load shedding.
//!
//! Threading model (the tokio shim has no `net`, so this layer is plain
//! `std::net` + threads):
//!
//! * one **acceptor** thread blocks in `accept()` and pushes sockets
//!   onto a bounded hand-off queue — when the queue is full the
//!   connection itself is shed with a best-effort `Nack(QueueFull)`;
//! * a small **worker pool** pops sockets and speaks the frame protocol
//!   for one connection at a time: read what the socket holds, answer
//!   every whole frame in it in order, write the replies at once. After a
//!   read that held two or more frames (the peer pipelines) the worker
//!   sleeps out the rest of `CONN_TICK`, 1 ms from that read, so such a
//!   connection costs one read, write and wake per tick, not per frame; a
//!   stop-and-wait peer is never made to wait. Reads poll with a short
//!   timeout so a worker notices shutdown promptly, and a connection that
//!   goes quiet mid-frame (slow loris) is closed once `idle_timeout`
//!   passes without a byte — the worker is reclaimed, other connections
//!   never wait;
//! * admitted submissions go to the runtime through the bounded
//!   [`IntakeSender`](crate::IntakeSender); the ack is written only
//!   *after* the enqueue succeeds, so an acked alert can no longer be
//!   shed — only process death loses it.
//!
//! Every rejection is counted, never silent: `gateway.shed` (+ reason
//! events), `gateway.decode_err`, `gateway.unknown_user`,
//! `gateway.idle_closed`.

use crate::admission::{RateLimit, TokenBuckets};
use crate::bridge::{IntakeSender, Submission};
use crate::proto::{
    self, Frame, FrameError, Header, NackReason, ProbeStats, SubmitRef, WireRule, HEADER_LEN,
};
use crate::rulewire;
use simba_core::subscription::UserId;
use simba_core::Telemetry;
use simba_rules::SharedRuleEngine;
use simba_sim::{SimDuration, SimTime};
use simba_store::SoftStateStore;
use simba_telemetry::{CounterHandle, Event};
use std::collections::BTreeSet;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// After a read that held two or more frames, a worker reads that
/// connection again only this long after the read returned.
const CONN_TICK: Duration = Duration::from_millis(1);
/// A connection's read buffer; it grows only for a frame longer than this.
const READ_BUF: usize = 64 * 1024;
/// Accepted-socket hand-off queue length; beyond it, connections are
/// shed at accept time.
const ACCEPT_BACKLOG: usize = 64;
/// Retry hint (ms) sent with `QueueFull` / `ConnBusy` / `Shutdown` nacks.
const SHED_RETRY_AFTER_MS: u32 = 100;

/// Gateway tuning knobs. The defaults suit tests and the CLI; the bench
/// raises the queue sizes.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` for an ephemeral port.
    pub addr: String,
    /// Worker threads (= concurrently served connections).
    pub workers: usize,
    /// Per-connection cap on submissions admitted but not yet routed.
    pub per_conn_inflight: usize,
    /// Optional per-source token bucket.
    pub rate_limit: Option<RateLimit>,
    /// Close a connection after this long without receiving a byte
    /// (the slow-loris guard; also reaps idle-but-healthy connections,
    /// which clients transparently survive by reconnecting).
    pub idle_timeout: Duration,
    /// How often a blocked read wakes to check idleness and shutdown.
    pub read_poll: Duration,
    /// Largest accepted frame payload.
    pub max_payload: u32,
    /// When set, submissions for users outside this set are nacked
    /// `UnknownUser` at the gate instead of bouncing off the host.
    pub known_users: Option<BTreeSet<String>>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            per_conn_inflight: 256,
            rate_limit: None,
            idle_timeout: Duration::from_secs(5),
            read_poll: Duration::from_millis(25),
            max_payload: proto::DEFAULT_MAX_PAYLOAD,
            known_users: None,
        }
    }
}

/// Cached telemetry handles shared by every worker.
#[derive(Clone)]
struct Counters {
    accepted: CounterHandle,
    buckets_evicted: CounterHandle,
    shed: CounterHandle,
    decode_err: CounterHandle,
    unknown_user: CounterHandle,
    idle_closed: CounterHandle,
    conn_opened: CounterHandle,
    conn_shed: CounterHandle,
}

impl Counters {
    fn new(telemetry: &Telemetry) -> Self {
        let m = telemetry.metrics();
        Counters {
            accepted: m.counter("gateway.accepted"),
            buckets_evicted: m.counter("gateway.buckets_evicted"),
            shed: m.counter("gateway.shed"),
            decode_err: m.counter("gateway.decode_err"),
            unknown_user: m.counter("gateway.unknown_user"),
            idle_closed: m.counter("gateway.idle_closed"),
            conn_opened: m.counter("gateway.conn_opened"),
            conn_shed: m.counter("gateway.conn_shed"),
        }
    }
}

/// Everything a worker needs, bundled for cheap cloning.
struct Shared {
    config: GatewayConfig,
    intake: IntakeSender,
    telemetry: Telemetry,
    counters: Counters,
    buckets: TokenBuckets,
    stop: AtomicBool,
    epoch: Instant,
    /// Soft-state store for `StateUpdate` / `StateQuery` frames; absent
    /// gateways nack those frames `Unsupported`.
    store: Option<SoftStateStore>,
    /// Rules engine for `RuleUpsert` / `RuleDelete` / `RuleList` frames;
    /// absent gateways nack those frames `Unsupported`.
    rules: Option<SharedRuleEngine>,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Gateway time as a [`SimTime`] for store operations. Anchored at
    /// bind, like the host clock is anchored at runtime start — within a
    /// process the two timelines drift only by the bind delta, which is
    /// negligible against fact TTLs (seconds).
    fn sim_now(&self) -> SimTime {
        SimTime::from_millis(self.now_ms())
    }

    fn stats(&self) -> ProbeStats {
        ProbeStats {
            accepted: self.counters.accepted.get(),
            shed: self.counters.shed.get(),
            decode_err: self.counters.decode_err.get(),
            queue_depth: self.intake.depth() as u32,
            queue_capacity: self.intake.capacity() as u32,
        }
    }
}

/// The running gateway: acceptor + workers. Dropping it without calling
/// [`GatewayServer::shutdown`] leaves the threads running for the
/// process lifetime; shut it down explicitly.
pub struct GatewayServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for GatewayServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayServer")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl GatewayServer {
    /// Binds the listener and spawns the acceptor and worker threads.
    /// Admitted submissions flow out through `intake`; keep its receiver
    /// draining via [`crate::pump_into_sharded_host`] or the queue will
    /// fill and the gateway will shed.
    pub fn bind(
        config: GatewayConfig,
        intake: IntakeSender,
        telemetry: Telemetry,
    ) -> std::io::Result<GatewayServer> {
        GatewayServer::bind_with_store(config, intake, telemetry, None)
    }

    /// [`GatewayServer::bind`] plus a soft-state store: `StateUpdate`
    /// frames publish facts into it and `StateQuery` frames read them
    /// back. Hand a clone of the store to the host
    /// ([`simba_runtime::ShardedHostConfig::store`]) so gateway-published
    /// presence facts steer delivery routing.
    pub fn bind_with_store(
        config: GatewayConfig,
        intake: IntakeSender,
        telemetry: Telemetry,
        store: Option<SoftStateStore>,
    ) -> std::io::Result<GatewayServer> {
        GatewayServer::bind_with_rules(config, intake, telemetry, store, None)
    }

    /// The full bind: optional soft-state store *and* optional rules
    /// engine. `Rule*` frames mutate and read the engine (which commits
    /// rules to its own log before replying); share the same engine with
    /// the host so submissions are evaluated against the rules clients
    /// manage here.
    pub fn bind_with_rules(
        config: GatewayConfig,
        intake: IntakeSender,
        telemetry: Telemetry,
        store: Option<SoftStateStore>,
        rules: Option<SharedRuleEngine>,
    ) -> std::io::Result<GatewayServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            buckets: TokenBuckets::new(config.rate_limit),
            counters: Counters::new(&telemetry),
            config,
            intake,
            telemetry,
            stop: AtomicBool::new(false),
            epoch: Instant::now(),
            store,
            rules,
        });

        let (socket_tx, socket_rx) = std::sync::mpsc::sync_channel::<TcpStream>(ACCEPT_BACKLOG);
        let socket_rx = Arc::new(Mutex::new(socket_rx));
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&socket_rx);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("gw-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))?,
            );
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gw-acceptor".to_string())
                .spawn(move || acceptor_loop(&shared, &listener, &socket_tx))?
        };

        Ok(GatewayServer {
            local_addr,
            shared,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The bound address (with the real port when `addr` asked for `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Health counters, as a probe frame would report them.
    pub fn stats(&self) -> ProbeStats {
        self.shared.stats()
    }

    /// Stops accepting, lets workers finish their current frame (or hit
    /// the read poll), and joins every thread. Worker-held
    /// [`IntakeSender`](crate::IntakeSender) clones drop here, which is
    /// what lets [`crate::pump_into_sharded_host`] finish its drain.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn acceptor_loop(shared: &Shared, listener: &TcpListener, socket_tx: &SyncSender<TcpStream>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) if shared.stop.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        if shared.stop.load(Ordering::SeqCst) {
            break; // the wake-up connection (or a late client) — drop it
        }
        match socket_tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(stream)) => shed_connection(shared, stream),
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping socket_tx (by returning) ends the worker loops once the
    // queued sockets are served.
}

/// Best-effort "busy, go away" for a connection there is no worker for.
fn shed_connection(shared: &Shared, mut stream: TcpStream) {
    shared.counters.conn_shed.incr();
    if shared.telemetry.enabled() {
        shared
            .telemetry
            .emit(Event::new("gateway.conn_shed", shared.now_ms()));
    }
    let nack =
        Frame::Nack { seq: 0, reason: NackReason::QueueFull, retry_after_ms: SHED_RETRY_AFTER_MS };
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(&proto::encode_to_vec(&nack));
}

fn worker_loop(shared: &Shared, socket_rx: &Arc<Mutex<Receiver<TcpStream>>>) {
    loop {
        // Hold the lock only for the dequeue, not while serving. A worker
        // that panicked mid-dequeue must not poison the others idle.
        let stream = {
            socket_rx
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                // simba-analyze: allow(concurrency.blocking-under-guard): std's Receiver is !Sync — the mutex IS the handoff, and idle workers are meant to block here
                .recv()
        };
        match stream {
            Ok(stream) => serve_connection(shared, stream),
            Err(_) => break, // acceptor gone and queue drained
        }
    }
}

fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    shared.counters.conn_opened.incr();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_poll));
    // A peer that stops *reading* must not pin the worker either.
    let _ = stream.set_write_timeout(Some(shared.config.idle_timeout));

    let slot = Arc::new(AtomicUsize::new(0));
    let max_frame = HEADER_LEN + shared.config.max_payload as usize;
    // `inbuf[..filled]` is read but not yet answered: at most the start of
    // one frame between turns. Zeroed only when it grows.
    let mut inbuf = vec![0u8; READ_BUF];
    let mut filled = 0;
    // The replies of one turn, written at once.
    let mut reply_buf: Vec<u8> = Vec::new();
    let mut last_read = Instant::now();

    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return nack_shutdown(&mut stream);
        }
        if filled == inbuf.len() {
            // The frame at the front is longer than the buffer; its header
            // passed `max_payload`, so `max_frame` holds it.
            inbuf.resize((2 * filled).min(max_frame), 0);
        }
        match stream.read(&mut inbuf[filled..]) {
            Ok(0) if filled == 0 => return, // clean close
            Ok(0) => {
                let cut =
                    if filled < HEADER_LEN { "eof inside header" } else { "eof inside payload" };
                return note_decode_err(shared, &FrameError::Malformed(cut));
            }
            Ok(n) => {
                filled += n;
                last_read = Instant::now();
            }
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {
                if last_read.elapsed() >= shared.config.idle_timeout {
                    return close_idle(shared, filled > 0);
                }
                continue;
            }
            Err(_) => return,
        }
        let (used, served) = match answer_all(shared, &slot, &inbuf[..filled], &mut reply_buf) {
            Ok(done) => done,
            Err(e) => {
                note_decode_err(shared, &e);
                // The byte stream is desynchronised: the replies so far,
                // then a nack, then drop it.
                proto::encode(&malformed_nack(), &mut reply_buf);
                let _ = stream.write_all(&reply_buf);
                return;
            }
        };
        if !reply_buf.is_empty() && stream.write_all(&reply_buf).is_err() {
            return;
        }
        reply_buf.clear();
        inbuf.copy_within(used..filled, 0);
        filled -= used;
        if served >= 2 {
            std::thread::sleep(CONN_TICK.saturating_sub(last_read.elapsed()));
        }
    }
}

/// Answers every whole frame at the front of `buf`, in order, encoding
/// each reply onto `replies`; returns how many bytes and frames that was.
///
/// # Errors
///
/// The first frame that fails to decode, or that no client may send;
/// the replies before it stay in `replies`.
fn answer_all(
    shared: &Shared,
    slot: &Arc<AtomicUsize>,
    buf: &[u8],
    replies: &mut Vec<u8>,
) -> Result<(usize, usize), FrameError> {
    let (mut used, mut frames) = (0, 0);
    let max_payload = shared.config.max_payload;
    while let Some((header, payload)) = proto::split_frame(&buf[used..], max_payload)? {
        proto::encode(&answer(shared, slot, &header, payload)?, replies);
        used += HEADER_LEN + payload.len();
        frames += 1;
    }
    Ok((used, frames))
}

/// The reply to one client frame. A submission is read where it lies;
/// any other frame is decoded whole.
///
/// # Errors
///
/// A frame that fails to decode, or a server-to-client frame arriving at
/// the server — a protocol violation, handled like a decode failure.
fn answer(
    shared: &Shared,
    slot: &Arc<AtomicUsize>,
    header: &Header,
    payload: &[u8],
) -> Result<Frame, FrameError> {
    if let Some(submit) = proto::decode_submit(header, payload) {
        return Ok(admit(shared, slot, submit?));
    }
    Ok(match proto::decode_payload(header, payload)? {
        Frame::Probe { nonce } => Frame::ProbeReply { nonce, stats: shared.stats() },
        Frame::StateUpdate { seq, scope, key, value, ttl_ms, source } => {
            state_update(shared, seq, &scope, &key, value, ttl_ms, source)
        }
        Frame::StateQuery { seq, scope, key } => state_query(shared, seq, &scope, &key),
        Frame::RuleUpsert { seq, user, rule } => rule_upsert(shared, seq, &user, &rule),
        Frame::RuleDelete { seq, user, rule_id } => rule_delete(shared, seq, &user, rule_id),
        Frame::RuleList { seq, user } => rule_list(shared, seq, &user),
        // `decode_submit` claimed every submission above.
        Frame::Submit { .. } => return Err(FrameError::Malformed("submit decoded whole")),
        Frame::Ack { .. } | Frame::Nack { .. } | Frame::ProbeReply { .. }
        | Frame::StateReply { .. } | Frame::RuleListReply { .. } => {
            return Err(FrameError::Malformed("client sent a server frame"));
        }
    })
}

/// The admission pipeline for one submission: user gate → per-connection
/// in-flight gate → per-source token bucket → bounded intake queue.
fn admit(shared: &Shared, slot: &Arc<AtomicUsize>, submit: SubmitRef<'_>) -> Frame {
    let SubmitRef { seq, channel, user, source, body } = submit;
    if let Some(known) = &shared.config.known_users {
        if !known.contains(user) {
            shared.counters.unknown_user.incr();
            if shared.telemetry.enabled() {
                shared.telemetry.emit(
                    Event::new("gateway.unknown_user", shared.now_ms()).with("user", user),
                );
            }
            return Frame::Nack { seq, reason: NackReason::UnknownUser, retry_after_ms: 0 };
        }
    }
    if slot.load(Ordering::Relaxed) >= shared.config.per_conn_inflight {
        return shed(shared, seq, NackReason::ConnBusy, SHED_RETRY_AFTER_MS, source);
    }
    let admitted = shared.buckets.try_take(source);
    // Surface any buckets the amortized idle sweep just dropped, on
    // whichever worker's take triggered it.
    let evicted = shared.buckets.take_evicted();
    if evicted > 0 {
        shared.counters.buckets_evicted.add(evicted);
    }
    if let Err(wait_ms) = admitted {
        return shed(shared, seq, NackReason::RateLimited, wait_ms, source);
    }
    // The one copy of the submission's strings, into the form every
    // later layer shares.
    let submission = Submission {
        seq,
        channel,
        user: UserId::new(user),
        source: source.into(),
        body: body.into(),
        slot: Arc::clone(slot),
    };
    // Reserve the slot before enqueueing: the pump may route (and
    // release) the submission before try_submit even returns.
    slot.fetch_add(1, Ordering::Relaxed);
    match shared.intake.try_submit(submission) {
        Ok(()) => {
            shared.counters.accepted.incr();
            Frame::Ack { seq }
        }
        Err(submission) => {
            slot.fetch_sub(1, Ordering::Relaxed);
            shed(shared, seq, NackReason::QueueFull, SHED_RETRY_AFTER_MS, &submission.source)
        }
    }
}

/// Publishes a fact into the gateway's store (nacking `Unsupported`
/// when the gateway runs without one). Publication is unconditional —
/// soft state is overwrite-on-refresh, so there is no admission pipeline
/// beyond the store's own per-scope capacity shedding.
fn state_update(
    shared: &Shared,
    seq: u64,
    scope: &str,
    key: &str,
    value: String,
    ttl_ms: u32,
    source: String,
) -> Frame {
    let Some(store) = &shared.store else {
        return Frame::Nack { seq, reason: NackReason::Unsupported, retry_after_ms: 0 };
    };
    store.put(
        scope,
        key,
        value,
        SimDuration::from_millis(u64::from(ttl_ms)),
        source,
        shared.sim_now(),
    );
    // simba-analyze: allow(durability.ack-before-commit): soft state (§4.2.2) — facts expire and are republished by their source; there is nothing durable to commit
    Frame::Ack { seq }
}

/// Reads a fact back. A missing or expired fact is `found: false`, not
/// an error — absence is a normal answer for soft state.
fn state_query(shared: &Shared, seq: u64, scope: &str, key: &str) -> Frame {
    let Some(store) = &shared.store else {
        return Frame::Nack { seq, reason: NackReason::Unsupported, retry_after_ms: 0 };
    };
    let now = shared.sim_now();
    match store.get(scope, key, now) {
        Some(fact) => Frame::StateReply {
            seq,
            found: true,
            generation: fact.generation,
            ttl_remaining_ms: fact.ttl_remaining(now).as_millis().min(u64::from(u32::MAX)) as u32,
            value: fact.value,
        },
        None => Frame::StateReply {
            seq,
            found: false,
            value: String::new(),
            generation: 0,
            ttl_remaining_ms: 0,
        },
    }
}

/// Creates or replaces a user rule (nacking `Unsupported` when the
/// gateway runs without a rules engine). The engine commits the rule to
/// its log before returning, so the reply — which carries the stored
/// rule and its assigned id — only describes durable state. Engine
/// refusals (bad predicate, unknown id, per-user bound) nack `Rejected`,
/// which clients treat as permanent.
fn rule_upsert(shared: &Shared, seq: u64, user: &str, rule: &WireRule) -> Frame {
    let Some(engine) = &shared.rules else {
        return Frame::Nack { seq, reason: NackReason::Unsupported, retry_after_ms: 0 };
    };
    let id = (rule.id != 0).then_some(rule.id);
    match engine.upsert(user, id, rulewire::spec_of_wire(rule)) {
        Ok(stored) => {
            Frame::RuleListReply { seq, rules: vec![rulewire::wire_of_rule(&stored)] }
        }
        Err(_) => Frame::Nack { seq, reason: NackReason::Rejected, retry_after_ms: 0 },
    }
}

/// Deletes a user rule. Idempotent: deleting an id that does not exist
/// still acks, so a client retrying across a reconnect cannot fail on
/// its own earlier success.
fn rule_delete(shared: &Shared, seq: u64, user: &str, rule_id: u64) -> Frame {
    let Some(engine) = &shared.rules else {
        return Frame::Nack { seq, reason: NackReason::Unsupported, retry_after_ms: 0 };
    };
    match engine.delete(user, rule_id) {
        // simba-analyze: allow(durability.ack-before-commit): the engine group-commits the deletion to the rules log before delete() returns
        Ok(_) => Frame::Ack { seq },
        Err(_) => Frame::Nack { seq, reason: NackReason::Rejected, retry_after_ms: 0 },
    }
}

/// Lists a user's rules, ordered by id. An empty list is a normal
/// answer, not an error.
fn rule_list(shared: &Shared, seq: u64, user: &str) -> Frame {
    let Some(engine) = &shared.rules else {
        return Frame::Nack { seq, reason: NackReason::Unsupported, retry_after_ms: 0 };
    };
    let rules = engine.list(user).iter().map(rulewire::wire_of_rule).collect();
    Frame::RuleListReply { seq, rules }
}

fn shed(shared: &Shared, seq: u64, reason: NackReason, retry_after_ms: u32, source: &str) -> Frame {
    shared.counters.shed.incr();
    if shared.telemetry.enabled() {
        shared.telemetry.emit(
            Event::new("gateway.shed", shared.now_ms())
                .with("reason", reason.to_string())
                .with("source", source.to_string()),
        );
    }
    Frame::Nack { seq, reason, retry_after_ms }
}

fn note_decode_err(shared: &Shared, error: &FrameError) {
    shared.counters.decode_err.incr();
    if shared.telemetry.enabled() {
        shared.telemetry.emit(
            Event::new("gateway.decode_err", shared.now_ms()).with("error", error.to_string()),
        );
    }
}

fn close_idle(shared: &Shared, mid_frame: bool) {
    shared.counters.idle_closed.incr();
    if shared.telemetry.enabled() {
        shared.telemetry.emit(
            Event::new("gateway.idle_closed", shared.now_ms()).with("mid_frame", mid_frame),
        );
    }
}

fn nack_shutdown(stream: &mut TcpStream) {
    let nack =
        Frame::Nack { seq: 0, reason: NackReason::Shutdown, retry_after_ms: SHED_RETRY_AFTER_MS };
    let _ = stream.write_all(&proto::encode_to_vec(&nack));
}

fn malformed_nack() -> Frame {
    Frame::Nack { seq: 0, reason: NackReason::Malformed, retry_after_ms: 0 }
}
