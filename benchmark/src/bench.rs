//! What one invocation does with a workload: a measured run (end-to-end
//! metrics, telemetry off) or a traced run (per-layer metrics), and how
//! the result is printed and stored.

use crate::json::Json;
use crate::loadgen::Phases;
use crate::metrics::{END_TO_END, PER_LAYER, UNGATED};
use crate::pipeline::Pipeline;
use crate::procfs::{command_output, fs_type};
use crate::run::{measure, Measured};
use crate::sink::Sink;
use crate::stages::{replay, Replay, STREAM};
use crate::stats::{median, Windowed};
use crate::workload::Workload;
use simba_telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Above this share of failed operations the other numbers stop meaning
/// anything and the run aborts instead of reporting them.
const ABORT_FAILED_FRAC: f64 = 0.02;
/// How many times a measured run sets the deployment up; `setup_s` is
/// the median.
const SETUP_REPEATS: usize = 3;
/// Violations listed by id per kind before the list is cut short.
const LISTED_IDS: usize = 8;

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Closed and open loop together; 40 % closed, 60 % open.
    pub seconds: f64,
    pub trace: bool,
    /// 2 s phases, one set-up: every check runs, no number is comparable.
    pub quick: bool,
    pub data_dir: PathBuf,
    /// Where `trace-<workload>.jsonl` goes.
    pub out_dir: PathBuf,
}

impl Options {
    fn phases(&self) -> Phases {
        Phases {
            warm: Duration::from_secs_f64(if self.quick { 0.5 } else { 2.0 }),
            closed: Duration::from_secs_f64(self.seconds * 0.4),
            open: Duration::from_secs_f64(self.seconds * 0.6),
        }
    }
}

/// One reported number; `windows` holds the per-window values of a
/// metric that is summarised over windows.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub windows: Option<Windowed>,
}

/// The outcome of one run of one workload.
#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub noisy: bool,
    pub steal_frac: f64,
    pub lag_p99_ms: f64,
    pub fs_type: String,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Measured runs: throughput and latency, reported but not gated.
    pub ungated: Vec<Metric>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn driver_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The run as stored in a result file, with its validity stamps.
    pub fn to_json(&self) -> Json {
        let stored = |m: &Metric| {
            let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
            fields.extend(m.windows.as_ref().map(|w| {
                (
                    "windows",
                    Json::Arr(w.values.iter().map(|&v| Json::Num(v)).collect()),
                )
            }));
            (m.name, Json::obj(fields))
        };
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Bool(self.trace)),
            ("quick", Json::Bool(self.quick)),
            ("noisy", Json::Bool(self.noisy)),
            ("steal_frac", Json::Num(self.steal_frac)),
            ("loadgen_lag_p99_ms", Json::Num(self.lag_p99_ms)),
            ("data_dir_fs", Json::str(self.fs_type.clone())),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(self.metrics.iter().map(stored))),
            ("ungated", Json::obj(self.ungated.iter().map(stored))),
        ])
    }
}

/// A result file: the environment and the runs measured in it.
fn result_file(runs: Vec<Json>) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let env = Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("kernel", Json::str(kernel.trim())),
        ("rustc", Json::str(command_output("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(command_output("git", &["rev-parse", "HEAD"])),
        ),
    ]);
    Json::obj([("env", env), ("runs", Json::Arr(runs))])
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let spread = m.windows.as_ref().map_or(String::new(), |w| {
            format!("  (windows spread {:.0} %)", w.spread() * 100.0)
        });
        println!("  {:<40} {:>16.4} {}{spread}", m.name, m.value, m.unit);
    }
}

fn print_violations(m: &Measured) {
    let v = &m.analysis.violations;
    let listed = |ids: &[u64]| {
        let shown: Vec<String> = ids
            .iter()
            .take(LISTED_IDS)
            .map(|id| format!("{id:#x}"))
            .collect();
        let more = if ids.len() > LISTED_IDS { ", ..." } else { "" };
        format!("{} [{}{more}]", ids.len(), shown.join(", "))
    };
    println!(
        "correctness: {} violations in {} frames",
        v.total(),
        m.analysis.attempted
    );
    println!("  refused or unanswered   {}", listed(&v.refused));
    println!("  accepted then lost      {}", listed(&v.lost));
    println!("  double-visible sends    {}", listed(&v.doubled));
    println!("  leaked past a suppress  {}", listed(&v.leaked));
    println!("  digest count mismatch   {}", v.digest_mismatch);
    if m.injected_failures > 0 {
        println!(
            "  injected first-attempt failures {}, ledger retried {}, absorbed as duplicates {}",
            m.injected_failures, m.stopped.ledger.retried, m.stopped.ledger.deduped
        );
    }
}

/// Faults of the benchmark itself (not of the program): the numbers
/// cannot be trusted, so none are reported.
fn internal_fault(m: &Measured) -> Option<String> {
    if m.analysis.foreign_sends > 0 {
        return Some(format!(
            "{} sends the sink could not attribute",
            m.analysis.foreign_sends
        ));
    }
    if m.stopped.runtime.pool.is_none() {
        return Some("the ledger worker pool did not drain".to_string());
    }
    let failed_frac = m.analysis.failed() as f64 / m.analysis.attempted.max(1) as f64;
    (failed_frac > ABORT_FAILED_FRAC).then(|| {
        format!(
            "{:.1} % of operations failed: the timings describe a broken run",
            failed_frac * 100.0
        )
    })
}

/// Shard-log group commits plus ledger commits per admitted alert, over
/// the whole run. A count: each is one fsync when the logs are on files.
fn commits_per_alert(m: &Measured) -> f64 {
    let commits = m.stopped.runtime.host.log.group_commits + m.stopped.ledger.commit_batches;
    commits as f64 / m.analysis.admitted.max(1) as f64
}

type Value = (&'static str, f64, Option<Windowed>);

fn ungated_values(a: &crate::analysis::Analysis) -> [Value; 6] {
    [
        windowed("goodput_per_s", &a.goodput_per_s),
        windowed("capacity_per_s", &a.capacity_per_s),
        windowed("deliver_p50_ms", &a.deliver_p50_ms),
        windowed("deliver_p90_ms", &a.deliver_p90_ms),
        windowed("ack_p50_ms", &a.ack_p50_ms),
        windowed("ack_p90_ms", &a.ack_p90_ms),
    ]
}

fn windowed(name: &'static str, w: &Windowed) -> Value {
    (name, w.median(), Some(w.clone()))
}

/// Builds the metric list in table order, failing loudly if
/// a value was not supplied: the tables are a contract with the driver.
fn in_table_order(table: &[(&'static str, &'static str)], values: &[Value]) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| {
            let (_, value, windows) = values
                .iter()
                .find(|(n, ..)| *n == name)
                .unwrap_or_else(|| panic!("no value computed for metric {name}"));
            Metric {
                name,
                unit,
                value: *value,
                windows: windows.clone(),
            }
        })
        .collect()
}

fn base_result(
    workload: &Workload,
    opts: &Options,
    m: &Measured,
    metrics: Vec<Metric>,
    ungated: Vec<Metric>,
) -> RunResult {
    RunResult {
        workload: workload.name,
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        quick: opts.quick,
        noisy: m.analysis.noisy(),
        steal_frac: m.analysis.steal_frac,
        lag_p99_ms: m.analysis.lag_p99_ms,
        fs_type: fs_type(&opts.data_dir),
        attempted: m.analysis.attempted,
        failed: m.analysis.failed(),
        metrics,
        ungated,
    }
}

fn print_validity(opts: &Options, result: &RunResult) {
    println!(
        "validity: steal {:.2} %, loadgen lag p99 {:.3} ms, data dir on {}{}{}",
        result.steal_frac * 100.0,
        result.lag_p99_ms,
        result.fs_type,
        if result.noisy {
            "  ** NOISY: the box moved these numbers **"
        } else {
            ""
        },
        if opts.quick {
            "  ** QUICK: not comparable with any other run **"
        } else {
            ""
        },
    );
}

/// Telemetry off, set-up repeated: the end-to-end metrics.
fn measured_run(workload: &Workload, opts: &Options) -> Result<RunResult, String> {
    let repeats = if opts.quick { 1 } else { SETUP_REPEATS };
    let mut setups: Vec<f64> = (1..repeats)
        .map(|_| {
            let sink = Sink::new(Instant::now(), 1, 0, 0);
            let spare = Pipeline::start(
                workload,
                &opts.data_dir,
                &Telemetry::disabled(),
                &sink,
                false,
            );
            let setup_s = spare.setup_s;
            spare.stop();
            setup_s
        })
        .collect();
    let m = measure(workload, opts.seed, opts.phases(), &opts.data_dir, false);
    setups.push(m.setup_s);
    let a = &m.analysis;
    let values = [
        ("setup_s", median(&setups), None),
        windowed("cpu_us_per_alert", &a.cpu_us_per_alert),
        ("commits_per_alert", commits_per_alert(&m), None),
        (
            "peak_rss_mb",
            m.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            None,
        ),
    ];
    let result = base_result(
        workload,
        opts,
        &m,
        in_table_order(&END_TO_END, &values),
        in_table_order(&UNGATED, &ungated_values(a)),
    );
    println!(
        "== {} (seed {}): {}",
        workload.name, opts.seed, workload.why
    );
    print_metrics("end to end, telemetry off", &result.metrics);
    print_metrics(
        "throughput and latency, ungated (they follow the box's timer-wake latency)",
        &result.ungated,
    );
    print_violations(&m);
    print_validity(opts, &result);
    match internal_fault(&m) {
        Some(fault) => Err(fault),
        None => Ok(result),
    }
}

fn print_stage_table(replay: &Replay, goodput_per_s: f64) {
    let sum = replay.sum_us();
    println!("stage replay ({STREAM} alerts of the stream through each layer alone)");
    for row in &replay.rows {
        println!(
            "  {:<40} {:>10.3} us/alert {:>6.1} %",
            row.metric,
            row.us_per_alert,
            row.us_per_alert / sum * 100.0
        );
    }
    println!(
        "  {:<40} {:>10.3} us/alert  against {:.3} us per alert at the traced goodput",
        "sum",
        sum,
        1e6 / goodput_per_s
    );
    println!("  bottleneck stage: {}", replay.bottleneck().metric);
}

/// Telemetry on in every layer, plus the stage replay: the per-layer
/// metrics. Half the time measures the untraced closed loop first, so
/// the cost of visibility is a difference between two runs of one process.
fn traced_run(workload: &Workload, opts: &Options) -> Result<RunResult, String> {
    let phases = opts.phases();
    let closed = Duration::from_secs_f64(opts.seconds * 0.25);
    let untraced = measure(
        workload,
        opts.seed,
        Phases {
            closed,
            open: Duration::ZERO,
            ..phases
        },
        &opts.data_dir,
        false,
    );
    let open = Duration::from_secs_f64(opts.seconds * 0.5);
    let m = measure(
        workload,
        opts.seed,
        Phases {
            closed,
            open,
            ..phases
        },
        &opts.data_dir,
        true,
    );
    let replay = replay(workload, opts.seed, &opts.data_dir);
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("create the out dir: {e}"))?;
    let trace_path = opts.out_dir.join(format!("trace-{}.jsonl", workload.name));
    replay
        .write_jsonl(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let a = &m.analysis;
    let (gateway, host, ledger) = (
        &m.stopped.gateway,
        &m.stopped.runtime.host,
        &m.stopped.ledger,
    );
    let pool = m.stopped.runtime.pool.unwrap_or_default();
    let traced = m.traced.as_ref().expect("a traced run keeps its telemetry");
    let counter = |name: &str| traced.metrics.counter(name) as f64;
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let (traced_goodput, untraced_goodput) = (
        a.goodput_per_s.median(),
        untraced.analysis.goodput_per_s.median(),
    );
    let count = |name: &'static str, n: u64| (name, n as f64, None);
    let mut values = vec![
        ("loadgen.lag_p99_ms", a.lag_p99_ms, None),
        ("loadgen.offered_per_s", a.offered_per_s, None),
        count("gateway.accepted", gateway.accepted),
        count("gateway.shed", gateway.shed),
        count("gateway.decode_err", gateway.decode_err),
        count("gateway.queue_depth_max", u64::from(m.queue_depth_max)),
        count("gateway.pump_routed", m.stopped.runtime.pump.routed),
        count("gateway.pump_unrouted", m.stopped.runtime.pump.unrouted),
        ("rules.evaluated", counter("rules.evaluated"), None),
        ("rules.matched", counter("rules.matched"), None),
        ("rules.absorbed", counter("rules.digest_absorbed"), None),
        ("rules.suppressed", counter("rules.suppressed"), None),
        (
            "rules.digests_flushed",
            counter("rules.digest_flushed"),
            None,
        ),
        (
            "rules.critical_bypass",
            counter("rules.critical_bypass"),
            None,
        ),
        ("rules.alerts_per_digest", a.alerts_per_digest, None),
        ("rules.upsert_us_per_rule", m.upsert_us_per_rule, None),
        count("runtime.deliveries_started", host.stats.deliveries_started),
        count("runtime.hibernations", host.hibernations),
        count("runtime.rehydrations", host.rehydrations),
        count("runtime.peak_active", m.stopped.peak_active as u64),
        count("runtime.crashes", host.crashes),
        count("runtime.unrouted", host.unrouted),
        count("core.log_appends", host.log.appends),
        count("core.log_marks", host.log.marks),
        count("core.group_commits", host.log.group_commits),
        (
            "core.writes_per_commit",
            ratio(
                (host.log.appends + host.log.marks) as f64,
                host.log.group_commits as f64,
            ),
            None,
        ),
        count("core.segments_rotated", host.log.segments_rotated),
        count("ledger.enqueued", ledger.enqueued),
        count("ledger.leased", ledger.leased),
        count("ledger.sent", ledger.sent),
        count("ledger.retried", ledger.retried),
        count("ledger.lease_expired", ledger.lease_expired),
        count("ledger.dead_lettered", ledger.dead_lettered),
        count("ledger.commit_batches", ledger.commit_batches),
        (
            "ledger.records_per_commit",
            ratio(
                (ledger.enqueued + ledger.leased + ledger.sent) as f64,
                ledger.commit_batches as f64,
            ),
            None,
        ),
        count("ledger.segments_rotated", ledger.segments_rotated),
        count("ledger.lease_batches", pool.lease_batches),
        count("ledger.stale_reports", pool.stale_reports),
        count("ledger.io_errors", pool.io_errors),
        count("ledger.pending_max", m.ledger_pending_max as u64),
        count("net.idempotent_dups", ledger.deduped),
        count("sink.sends", a.sink_sends),
        count("sink.digest_sends", a.digest_sends),
        count("sink.duplicates", a.violations.doubled.len() as u64),
        count("sink.injected_failures", m.injected_failures),
        ("pipeline.goodput_per_s", traced_goodput, None),
        ("pipeline.untraced_goodput_per_s", untraced_goodput, None),
        ("pipeline.deliver_p50_ms", a.deliver_p50_ms.median(), None),
        ("pipeline.deliver_p90_ms", a.deliver_p90_ms.median(), None),
        ("pipeline.ack_p50_ms", a.ack_p50_ms.median(), None),
        ("pipeline.ack_p90_ms", a.ack_p90_ms.median(), None),
        windowed("pipeline.post_ack_p50_ms", &a.post_ack_p50_ms),
        ("pipeline.deliver_p99_ms", a.deliver_p99_ms, None),
        ("pipeline.deliver_p999_ms", a.deliver_p999_ms, None),
        ("pipeline.deliver_max_ms", a.deliver_max_ms, None),
        ("pipeline.late_frac_250ms", a.late_frac, None),
        count("pipeline.tail_samples", a.open_owed),
        count("pipeline.backlog_end", m.backlog_end),
        ("pipeline.drain_s", m.drain_s, None),
        count("pipeline.closed_failures", a.closed_failures),
        ("pipeline.commits_per_alert", commits_per_alert(&m), None),
        (
            "pipeline.failed_frac",
            ratio(a.failed() as f64, a.attempted as f64),
            None,
        ),
        ("pipeline.stage_sum_us", replay.sum_us(), None),
        (
            "telemetry.overhead_frac",
            1.0 - traced_goodput / untraced_goodput,
            None,
        ),
        count("telemetry.events_emitted", traced.events_emitted),
        count("telemetry.events_dropped", traced.events_dropped),
        ("process.steal_frac", a.steal_frac, None),
    ];
    values.extend(
        replay
            .rows
            .iter()
            .map(|row| (row.metric, row.us_per_alert, None)),
    );
    let metrics = in_table_order(&PER_LAYER, &values);
    let result = base_result(workload, opts, &m, metrics, Vec::new());
    println!(
        "== {} (seed {}): {}",
        workload.name, opts.seed, workload.why
    );
    print_metrics("per layer, telemetry on", &result.metrics);
    print_stage_table(&replay, traced_goodput);
    println!(
        "spans: {} written to {}",
        replay.spans.len(),
        trace_path.display()
    );
    print_violations(&m);
    print_validity(opts, &result);
    match internal_fault(&m).or_else(|| internal_fault(&untraced)) {
        Some(fault) => Err(fault),
        None => Ok(result),
    }
}

pub fn run(workload: &Workload, opts: &Options) -> Result<RunResult, String> {
    if opts.trace {
        traced_run(workload, opts)
    } else {
        measured_run(workload, opts)
    }
}

pub fn write_result_file(path: &Path, runs: Vec<Json>) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, result_file(runs).render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}
