//! One measured run: start the pipeline, drive the three phases from the
//! loadgen threads while the coordinator samples `/proc` at the window
//! boundaries, drain, stop, and hand every raw stamp to the analysis.

use crate::analysis::{analyze, Analysis, PhaseSamples, Sample, WINDOWS};
use crate::loadgen::{run_connection, PhaseSync, Phases, Plan, Sent, SENT_BYTES};
use crate::pipeline::{Pipeline, Stopped};
use crate::procfs::{pipeline_thread_cpu_ns, steal_and_total, vm_hwm_bytes, LOADGEN_PREFIX};
use crate::sink::Sink;
use crate::workload::{Kind, Traffic, Workload, CONNS, STORM_GROUP};
use simba_telemetry::{MetricsSnapshot, RingBufferSink, Telemetry};
use std::path::Path;
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

/// The drain gives up after this long without a single new send: what
/// is still missing then is lost, not late.
const DRAIN_STALL: Duration = Duration::from_secs(3);
/// How often a traced run samples queue depths between window boundaries.
const DEPTH_TICK: Duration = Duration::from_millis(50);
/// Events a traced run keeps; older ones are counted as dropped.
const TRACE_RING: usize = 65_536;

/// What the telemetry spine recorded during a traced run.
#[derive(Debug)]
pub struct Traced {
    pub metrics: MetricsSnapshot,
    pub events_emitted: u64,
    pub events_dropped: u64,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Measured {
    pub analysis: Analysis,
    pub stopped: Stopped,
    pub setup_s: f64,
    pub upsert_us_per_rule: f64,
    /// Last open-loop due time → everything admitted accounted for.
    pub drain_s: f64,
    /// Admitted alerts still unaccounted for when the drain gave up.
    pub backlog_end: u64,
    /// `VmHWM` when the pipeline stopped, net of the benchmark's own
    /// per-alert records (which grow with goodput, not with the program).
    pub peak_rss_bytes: u64,
    pub injected_failures: u64,
    /// Traced runs only: sampled maxima and the telemetry snapshot.
    pub queue_depth_max: u32,
    pub ledger_pending_max: usize,
    pub traced: Option<Traced>,
}

fn sample(epoch: Instant) -> Sample {
    let (steal, jiffies) = steal_and_total();
    Sample {
        at_ns: epoch.elapsed().as_nanos() as u64,
        threads: pipeline_thread_cpu_ns(),
        steal,
        jiffies,
    }
}

/// Sleeps to each window boundary of a phase and samples there. Between
/// boundaries `tick` runs every [`DEPTH_TICK`].
fn sample_phase(
    epoch: Instant,
    start_ns: u64,
    length: Duration,
    mut tick: impl FnMut(),
) -> PhaseSamples {
    (0..=WINDOWS as u32)
        .map(|k| {
            let boundary = Duration::from_nanos(start_ns) + length * k / WINDOWS as u32;
            loop {
                let left = boundary.saturating_sub(epoch.elapsed());
                if left.is_zero() {
                    break;
                }
                std::thread::sleep(left.min(DEPTH_TICK));
                tick();
            }
            sample(epoch)
        })
        .collect()
}

/// Alerts the sink must account for: every acked frame except the ones a
/// rule suppresses.
fn owed(sent: &[Vec<Sent>]) -> u64 {
    sent.iter()
        .flatten()
        .filter(|f| f.acked() && f.kind != Kind::Chatty)
        .count() as u64
}

/// Runs `workload` once. `traced` hands a live telemetry spine to every
/// layer and samples queue depths; measured runs pass `false`.
pub fn measure(
    workload: &Workload,
    seed: u64,
    phases: Phases,
    data_dir: &Path,
    traced: bool,
) -> Measured {
    let ring = Arc::new(RingBufferSink::new(TRACE_RING));
    let telemetry = if traced {
        Telemetry::with_sink(ring.clone())
    } else {
        Telemetry::disabled()
    };
    let epoch = Instant::now();
    let group = if workload.traffic == Traffic::StormGroups {
        STORM_GROUP
    } else {
        1
    };
    let sink = Sink::new(epoch, group, workload.fail_one_in, seed);
    let pipeline = Pipeline::start(workload, data_dir, &telemetry, &sink, traced);
    let (setup_s, upsert_us_per_rule) = (pipeline.setup_s, pipeline.upsert_us_per_rule);

    let sync = PhaseSync::new();
    let (mut queue_depth_max, mut ledger_pending_max) = (0u32, 0usize);
    let (sent, closed, open) = std::thread::scope(|scope| {
        let plan = Plan {
            addr: pipeline.addr,
            workload: *workload,
            seed,
            phases,
            epoch,
        };
        let handles: Vec<_> = (0..CONNS)
            .map(|conn| {
                let (sink, sync) = (&sink, &sync);
                std::thread::Builder::new()
                    .name(format!("{LOADGEN_PREFIX}-{conn}"))
                    .spawn_scoped(scope, move || run_connection(conn, plan, sink, sync))
                    .expect("spawn a loadgen writer")
            })
            .collect();
        let mut depth_tick = || {
            if traced {
                queue_depth_max = queue_depth_max.max(pipeline.queue_depth());
                let ledger = pipeline
                    .ledger
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                ledger_pending_max = ledger_pending_max.max(ledger.counts().pending);
            }
        };
        sync.release(epoch); // warm-up: caches fill, every cycled user is touched
        let start_ns = sync.release(epoch);
        let closed = sample_phase(epoch, start_ns, phases.closed, &mut depth_tick);
        let start_ns = sync.release(epoch);
        sink.set_inject(true);
        let open = sample_phase(epoch, start_ns, phases.open, &mut depth_tick);
        sync.join();
        sink.set_inject(false);
        let sent: Vec<Vec<Sent>> = handles
            .into_iter()
            .map(|h| h.join().expect("a loadgen thread does not panic"))
            .collect();
        (sent, closed, open)
    });

    // Drain: wait until the sink has accounted for everything admitted,
    // or has stopped making progress.
    let owed = owed(&sent);
    let (mut seen, mut last_progress) = (sink.accounted(), Instant::now());
    while seen < owed && last_progress.elapsed() < DRAIN_STALL {
        std::thread::sleep(Duration::from_millis(2));
        let now = sink.accounted();
        if now != seen {
            (seen, last_progress) = (now, Instant::now());
        }
    }
    let drained_ns = epoch.elapsed().as_nanos() as u64;
    // Digest windows still open hold alerts the sink has not seen yet;
    // `owed` covers them, so `seen == owed` means they have flushed.
    let stopped = pipeline.stop();
    let log = sink.take_log();
    let records = sent.iter().map(Vec::len).sum::<usize>() * SENT_BYTES
        + log.sends.len() * std::mem::size_of::<(u64, u64)>();
    let peak_rss_bytes = vm_hwm_bytes().saturating_sub(records as u64);

    let analysis = analyze(workload, &sent, &log, &closed, &open);
    Measured {
        analysis,
        stopped,
        setup_s,
        upsert_us_per_rule,
        drain_s: drained_ns.saturating_sub(open[WINDOWS].at_ns) as f64 / 1e9,
        backlog_end: owed.saturating_sub(seen),
        peak_rss_bytes,
        injected_failures: log.injected_failures,
        queue_depth_max,
        ledger_pending_max,
        traced: traced.then(|| Traced {
            metrics: telemetry.metrics().snapshot(),
            events_emitted: ring.len() as u64 + ring.dropped(),
            events_dropped: ring.dropped(),
        }),
    }
}
