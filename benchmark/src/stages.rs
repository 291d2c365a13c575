//! The stage replay of a traced run: the workload's generated alert
//! stream pushed, single-threaded, through each layer's public functions
//! in isolation, with one in-memory span per call.
//!
//! It answers what the end-to-end numbers cannot: which layer the time
//! goes to. Stages chain like the pipeline does — alerts a rule folds or
//! suppresses never reach the later stages — and every cost is divided
//! by the *stream* length, so the rows add up to a cost per offered alert.
//! Spans come from the benchmark's side of each call; spans inside the
//! program are a later change.

use crate::pipeline::{
    host_config, open_ledger, open_rules, registered_users, user_config, Pipeline,
};
use crate::sink::Sink;
use crate::workload::{user_name, AlertSpec, Generator, Workload, CONNS};
use simba_core::address::CommType;
use simba_core::alert::IncomingAlert;
use simba_core::shardlog::{ShardLog, ShardLogConfig};
use simba_core::subscription::UserId;
use simba_gateway::proto;
use simba_ledger::{LedgerChannels, WorkerId};
use simba_rules::Decision;
use simba_runtime::{Channels, LedgerChannelBridge, SendOutcome, ShardedHost};
use simba_sim::SimTime;
use simba_telemetry::Telemetry;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

/// Alerts in the replayed stream. Small enough that a file-backed
/// ledger stage (one fsync per alert on a real disk) stays in seconds.
pub const STREAM: usize = 8_000;
/// Frames per write/read round trip in the admit stage, and records per
/// commit in the shard-log stage — the shard worker's `batch_max`.
const BATCH: usize = 256;
/// Leases per cycle in the lease stage: `WorkerPoolConfig::default().batch`.
const LEASE_BATCH: usize = 64;

/// One timed call. `parent` is the id of the stage's root span; ids are
/// positions in the span list, from 1.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The alert the call handled (the first one, for batched calls).
    pub alert: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct StageRow {
    /// The per-layer metric the row is reported as.
    pub metric: &'static str,
    pub us_per_alert: f64,
}

#[derive(Debug)]
pub struct Replay {
    pub rows: Vec<StageRow>,
    pub spans: Vec<Span>,
}

impl Replay {
    pub fn sum_us(&self) -> f64 {
        self.rows.iter().map(|r| r.us_per_alert).sum()
    }

    /// The largest row: where an offered alert spends most.
    pub fn bottleneck(&self) -> StageRow {
        *self
            .rows
            .iter()
            .max_by(|a, b| a.us_per_alert.total_cmp(&b.us_per_alert))
            .expect("the replay has stages")
    }

    /// One JSON object per line: `id`, `parent`, `name`, `start_ns`,
    /// `end_ns`, `alert`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"alert\": {}}}",
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                s.alert
            )?;
        }
        out.flush()
    }
}

/// Span recorder for one replay.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    rows: Vec<StageRow>,
    /// Root span of the stage being recorded.
    root: usize,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: 0,
            start_ns: now,
            end_ns: now,
            alert: 0,
        });
        self.root = self.spans.len();
    }

    /// Times one call into the program.
    fn call<R>(&mut self, name: &'static str, alert: u64, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let result = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.root,
            start_ns,
            end_ns,
            alert,
        });
        result
    }

    /// Closes the stage: its row is the root span's length over the
    /// stream length.
    fn end(&mut self, metric: &'static str) {
        self.end_at(metric, self.now_ns());
    }

    fn end_at(&mut self, metric: &'static str, end_ns: u64) {
        let root = &mut self.spans[self.root - 1];
        root.end_ns = end_ns;
        let us_per_alert = (root.end_ns - root.start_ns) as f64 / 1e3 / STREAM as f64;
        self.rows.push(StageRow {
            metric,
            us_per_alert,
        });
    }
}

/// An alert that survived the rules stage, as the host would route it.
struct Routed {
    id: u64,
    user: UserId,
    alert: IncomingAlert,
    /// Flushed digests enter by the email door, like `pump_digests` does.
    digest: bool,
}

/// A channel that only counts: the stages time the program, not a sink.
#[derive(Clone, Default)]
struct CountingChannel(Arc<AtomicU64>);

impl Channels for CountingChannel {
    fn send(&mut self, _comm_type: CommType, _address: &str, _text: &str) -> SendOutcome {
        self.0.fetch_add(1, Ordering::Relaxed);
        SendOutcome::Accepted
    }
}

fn stage_codec(rec: &mut Recorder, stream: &[AlertSpec]) {
    rec.begin("stage.gateway.codec");
    let mut buf = Vec::new();
    for alert in stream {
        buf.clear();
        rec.call("proto.encode+decode_frame", alert.id, || {
            alert.encode(&mut buf);
            std::hint::black_box(proto::decode_frame(&buf).expect("own frames decode"));
        });
    }
    rec.end("gateway.codec_us_per_frame");
}

/// TCP → admit → ack, against a deployment with no registered users:
/// the host refuses every alert as unrouted, so only the front door and
/// the pump do work.
fn stage_admit(rec: &mut Recorder, workload: &Workload, stream: &[AlertSpec], data_dir: &Path) {
    let front_door = Workload {
        registered_users: 0,
        file_backed: false,
        ..*workload
    };
    let sink = Sink::new(rec.epoch, 1, 0, 0);
    let pipeline = Pipeline::start(&front_door, data_dir, &Telemetry::disabled(), &sink, false);
    let mut stream_io = TcpStream::connect(pipeline.addr).expect("connect to the gateway");
    stream_io.set_nodelay(true).expect("set TCP_NODELAY");
    // Every reply to a submit is header + u64, or header + u64 + u8 + u32.
    let ack_len = proto::encode_to_vec(&proto::Frame::Ack { seq: 0 }).len();
    // Encoded up front: the codec stage has already charged for it.
    let chunks: Vec<(u64, usize, Vec<u8>)> = stream
        .chunks(BATCH)
        .map(|chunk| {
            let mut out = Vec::new();
            chunk.iter().for_each(|alert| alert.encode(&mut out));
            (chunk[0].id, chunk.len(), out)
        })
        .collect();
    let mut replies = vec![0u8; BATCH * ack_len];
    rec.begin("stage.gateway.admit");
    for (first_id, frames, out) in &chunks {
        let replies = &mut replies[..frames * ack_len];
        rec.call("tcp.submit+ack", *first_id, || {
            stream_io.write_all(out).expect("write to the gateway");
            stream_io.read_exact(replies).expect("one ack per frame");
        });
        let (first, _) = proto::decode_frame(replies).expect("replies decode");
        assert!(
            matches!(first, proto::Frame::Ack { .. }),
            "the front door admits: {first:?}"
        );
    }
    rec.end("gateway.admit_us_per_alert");
    drop(stream_io);
    let stopped = pipeline.stop();
    assert_eq!(stopped.gateway.accepted, stream.len() as u64);
}

fn stage_rules(rec: &mut Recorder, workload: &Workload, stream: &[AlertSpec]) -> Vec<Routed> {
    // Rules for the users in the stream only (set-up is quadratic in the
    // rule count), and in memory: evaluation never touches the rules log.
    let users: BTreeSet<usize> = stream.iter().map(|spec| spec.user).collect();
    let (engine, _) = open_rules(workload, users.into_iter(), None, &Telemetry::disabled());
    let mut routed = Vec::new();
    let digest = |d: simba_core::DigestAlert, id: u64| Routed {
        id,
        user: UserId::new(d.user.clone()),
        alert: d.to_incoming(),
        digest: true,
    };
    rec.begin("stage.rules.evaluate");
    for (i, spec) in stream.iter().enumerate() {
        // Virtual time paced at the workload's open-loop rate (over one
        // connection's share), so digest windows fill as they do live.
        let now_ms = i as u64 * 1_000 * CONNS as u64 / workload.open_rate_per_s;
        let user = user_name(spec.user);
        let mut alert = IncomingAlert::from_im(
            spec.source(),
            spec.body.clone(),
            SimTime::from_millis(now_ms),
        );
        match rec.call("RuleEngine::evaluate", spec.id, || {
            engine.evaluate(&user, &alert, now_ms)
        }) {
            Decision::Deliver { severity, .. } => {
                if let Some(severity) = severity {
                    alert.urgency = severity;
                }
                routed.push(Routed {
                    id: spec.id,
                    user: UserId::new(user),
                    alert,
                    digest: false,
                });
            }
            Decision::Suppress { .. } => {}
            Decision::Digest { flushed, .. } => {
                routed.extend(flushed.map(|d| digest(*d, spec.id)));
            }
        }
    }
    let last = stream.last().map_or(0, |s| s.id);
    let flushed = rec.call("RuleEngine::flush_due", last, || engine.flush_due(u64::MAX));
    routed.extend(flushed.into_iter().map(|d| digest(d, last)));
    rec.end("rules.evaluate_us_per_alert");
    routed
}

/// `ShardedHost::submit_*` with no gateway and no ledger, shard logs in
/// memory: roster, activation, classification and delivery only. The
/// stage ends when the channel has seen every routed alert.
fn stage_runtime(rec: &mut Recorder, workload: &Workload, routed: &[Routed]) {
    let channel = CountingChannel::default();
    let sent = Arc::clone(&channel.0);
    let config = host_config(workload, None);
    let users = registered_users(workload);
    // The executor wants a 'static future: it gets owned copies and
    // hands its stamps back, to be recorded once it has finished.
    let work: Vec<(u64, UserId, IncomingAlert, bool)> = routed
        .iter()
        .map(|r| (r.id, r.user.clone(), r.alert.clone(), r.digest))
        .collect();
    let epoch = rec.epoch;
    let now_ns = move || epoch.elapsed().as_nanos() as u64;
    let (start_ns, end_ns, calls) = tokio::runtime::block_on(async move {
        let (host, _notices) = ShardedHost::new(
            channel,
            config,
            Arc::new(user_config),
            Telemetry::disabled(),
        )
        .expect("in-memory shard logs open");
        let registered = users.len();
        host.register_many(users).await;
        assert_eq!(host.snapshot().await.users, registered);
        let start_ns = now_ns();
        let expected = work.len() as u64;
        let mut calls = Vec::with_capacity(work.len());
        for (id, user, alert, digest) in work {
            // Only the hand-off is inside the call's span: the shard
            // worker does the rest as its own task, under the stage's
            // root span.
            let call_start = now_ns();
            let accepted = if digest {
                host.submit_email(&user, alert).await
            } else {
                host.submit_im(&user, alert).await
            };
            calls.push((call_start, now_ns(), id));
            assert!(accepted, "the shard workers are running");
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while sent.load(Ordering::Relaxed) < expected {
            assert!(
                Instant::now() < deadline,
                "the host delivered too few of {expected} alerts"
            );
            tokio::time::sleep(Duration::from_micros(200)).await;
        }
        let end_ns = now_ns();
        host.shutdown().await;
        (start_ns, end_ns, calls)
    });
    rec.begin("stage.runtime.submit");
    rec.spans[rec.root - 1].start_ns = start_ns;
    for (start_ns, end_ns, alert) in calls {
        rec.spans.push(Span {
            name: "ShardedHost::submit",
            parent: rec.root,
            start_ns,
            end_ns,
            alert,
        });
    }
    rec.end_at("runtime.submit_us_per_alert", end_ns);
}

fn stage_shardlog(rec: &mut Recorder, routed: &[Routed], dir: Option<&Path>) {
    let config = match dir {
        Some(dir) => ShardLogConfig::on_disk(dir.join("stage-shardlog")),
        None => ShardLogConfig::in_memory(),
    };
    if let Some(dir) = &config.dir {
        std::fs::create_dir_all(dir).expect("create the stage's log dir");
    }
    let mut log = ShardLog::open(config).expect("open the stage's shard log");
    rec.begin("stage.core.shardlog");
    for batch in routed.chunks(BATCH) {
        rec.call("ShardLog::append+mark+commit", batch[0].id, || {
            let ids: Vec<u64> = batch
                .iter()
                .map(|r| {
                    log.append(&r.user, &r.alert, SimTime::ZERO)
                        .expect("buffered append")
                })
                .collect();
            for (r, id) in batch.iter().zip(ids) {
                log.mark_processed(&r.user, id).expect("own record");
            }
            log.commit().expect("commit the batch");
        });
    }
    rec.end("core.shardlog_us_per_alert");
}

/// The three ledger calls as the pipeline makes them: the shard worker's
/// enqueue + commit per alert, then a pool worker's lease → commit →
/// send through the bridge and its idempotency filter → record → commit.
fn stage_ledger(rec: &mut Recorder, routed: &[Routed], dir: Option<&Path>) {
    let ledger = open_ledger(
        dir.map(|d| d.join("stage")).as_deref(),
        &Telemetry::disabled(),
    );
    let mut ledger = ledger.lock().unwrap_or_else(PoisonError::into_inner);
    rec.begin("stage.ledger.enqueue_commit");
    for (delivery, r) in routed.iter().enumerate() {
        rec.call("DeliveryLedger::enqueue+commit", r.id, || {
            let address = format!("im:{}", r.user.0);
            ledger.enqueue(
                &r.user,
                delivery as u64,
                CommType::Im,
                &address,
                &r.alert.body,
                SimTime::ZERO,
            );
            ledger.commit().expect("commit the enqueue");
        });
    }
    rec.end("ledger.enqueue_commit_us_per_alert");

    let mut bridge = LedgerChannelBridge::new(CountingChannel::default());
    let worker = WorkerId::new("stage-worker");
    rec.begin("stage.ledger.lease_send_record");
    while !ledger.is_drained() {
        rec.call("DeliveryLedger::lease+send+record", 0, || {
            let work = ledger.lease(&worker, SimTime::ZERO, LEASE_BATCH);
            assert!(!work.is_empty(), "an undrained ledger has work to lease");
            ledger.commit().expect("commit the leases");
            for item in &work {
                assert_eq!(bridge.send(item), simba_ledger::ChannelResult::Sent);
                ledger
                    .record_sent(&worker, item.id, SimTime::ZERO)
                    .expect("own lease");
            }
            ledger.commit().expect("commit the outcomes");
        });
    }
    rec.end("ledger.lease_send_record_us_per_alert");
}

/// Replays `workload`'s stream through every stage. File-backed stages
/// write under a fresh sub-directory of `data_dir`, removed afterwards.
pub fn replay(workload: &Workload, seed: u64, data_dir: &Path) -> Replay {
    let mut generator = Generator::new(*workload, seed, 0);
    let stream: Vec<AlertSpec> = (0..STREAM).map(|_| generator.next_alert()).collect();
    let dir = workload.file_backed.then(|| {
        let dir = data_dir.join(format!("stages-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the stage data dir");
        dir
    });
    let mut rec = Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        rows: Vec::new(),
        root: 0,
    };
    stage_codec(&mut rec, &stream);
    stage_admit(&mut rec, workload, &stream, data_dir);
    let routed = stage_rules(&mut rec, workload, &stream);
    stage_runtime(&mut rec, workload, &routed);
    stage_shardlog(&mut rec, &routed, dir.as_deref());
    stage_ledger(&mut rec, &routed, dir.as_deref());
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Replay {
        rows: rec.rows,
        spans: rec.spans,
    }
}
