//! Turns one run's raw stamps into the reported numbers.
//!
//! Both timed phases are cut into [`WINDOWS`] equal windows; every timing
//! metric is the median of its per-window values, with the windows'
//! `(max − min) / median` spread beside it.

use crate::check::{check, Fate, Reply, Violations};
use crate::loadgen::{Phase, Sent};
use crate::sink::SinkLog;
use crate::stats::{percentile, sort, Windowed};
use crate::workload::{conn_of, Kind, Traffic, Workload, CONNS, STORM_GROUP};

pub const WINDOWS: usize = 10;
/// The delivery deadline `pipeline.late_frac_250ms` is counted against.
const DEADLINE_MS: f64 = 250.0;

/// A `/proc` reading at a window boundary.
#[derive(Debug, Clone)]
pub struct Sample {
    pub at_ns: u64,
    /// `(thread id, CPU ns so far)` of every pipeline thread.
    pub threads: Vec<(u32, u64)>,
    pub steal: u64,
    pub jiffies: u64,
}

/// CPU ns the pipeline's threads used between two samples: all of them
/// together, and the busiest single thread.
fn cpu_between(from: &Sample, to: &Sample) -> (u64, u64) {
    let used = to.threads.iter().map(|&(tid, ns)| {
        let before = from.threads.iter().find(|t| t.0 == tid).map_or(0, |t| t.1);
        ns.saturating_sub(before)
    });
    used.fold((0, 0), |(total, busiest), ns| (total + ns, busiest.max(ns)))
}

/// `WINDOWS + 1` boundary samples of one phase.
pub type PhaseSamples = Vec<Sample>;

#[derive(Debug)]
pub struct Analysis {
    /// Closed loop: alerts resolved per CPU-second of the busiest
    /// pipeline thread — the rate the bottleneck sustains while it runs.
    pub capacity_per_s: Windowed,
    pub goodput_per_s: Windowed,
    pub deliver_p50_ms: Windowed,
    pub deliver_p90_ms: Windowed,
    pub ack_p50_ms: Windowed,
    pub ack_p90_ms: Windowed,
    pub cpu_us_per_alert: Windowed,
    pub post_ack_p50_ms: Windowed,
    /// Tail of the open loop's delivery latency over delivered alerts;
    /// undelivered ones are carried by `late_frac` instead.
    pub deliver_p99_ms: f64,
    pub deliver_p999_ms: f64,
    pub deliver_max_ms: f64,
    pub late_frac: f64,
    /// Open-loop alerts owed an individual delivery (the tail's sample count).
    pub open_owed: u64,
    pub lag_p99_ms: f64,
    pub offered_per_s: f64,
    /// Larger of the two timed phases' steal share.
    pub steal_frac: f64,
    /// Frames acked in any phase.
    pub admitted: u64,
    pub attempted: u64,
    pub violations: Violations,
    pub closed_failures: u64,
    pub digest_sends: u64,
    pub alerts_per_digest: f64,
    /// Individual (non-digest) sends the sink saw, duplicates included.
    pub sink_sends: u64,
    /// Sends naming an id no connection wrote, or unparsable text.
    pub foreign_sends: u64,
}

impl Analysis {
    pub fn failed(&self) -> u64 {
        self.violations.total()
    }

    /// Steal above 2 % or a loadgen that ran more than 5 ms late: the
    /// box, not the program, moved the numbers.
    pub fn noisy(&self) -> bool {
        self.steal_frac > 0.02 || self.lag_p99_ms > 5.0
    }
}

fn steal_frac(samples: &PhaseSamples) -> f64 {
    let (first, last) = (&samples[0], &samples[samples.len() - 1]);
    let jiffies = last.jiffies.saturating_sub(first.jiffies);
    if jiffies == 0 {
        0.0
    } else {
        last.steal.saturating_sub(first.steal) as f64 / jiffies as f64
    }
}

fn window_of(samples: &PhaseSamples, at_ns: u64) -> Option<usize> {
    let (start, end) = (samples[0].at_ns, samples[WINDOWS].at_ns);
    (start..end)
        .contains(&at_ns)
        .then(|| (((at_ns - start) as u128 * WINDOWS as u128) / (end - start) as u128) as usize)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One percentile per window.
fn windowed_percentile(per_window: &mut [Vec<f64>], p: f64) -> Windowed {
    let values = per_window
        .iter_mut()
        .map(|w| {
            sort(w);
            percentile(w, p)
        })
        .collect();
    Windowed { values }
}

pub fn analyze(
    workload: &Workload,
    sent: &[Vec<Sent>],
    sink: &SinkLog,
    closed: &PhaseSamples,
    open: &PhaseSamples,
) -> Analysis {
    // First send time and send count per alert, by connection and sequence.
    let mut delivered: Vec<Vec<(u64, u32)>> = sent.iter().map(|s| vec![(0, 0); s.len()]).collect();
    let mut foreign_sends = sink.unparsed;
    let mut goodput = [0u64; WINDOWS];
    let storm = workload.traffic == Traffic::StormGroups;
    for &(id, at_ns) in &sink.sends {
        let (conn, seq) = (conn_of(id), (id / CONNS as u64) as usize);
        let Some(slot) = delivered[conn].get_mut(seq) else {
            foreign_sends += 1;
            continue;
        };
        if slot.1 == 0 {
            slot.0 = at_ns;
        }
        slot.1 += 1;
        // Closed-loop goodput: alerts resolved per window. A storm group
        // resolves, all ten at once, when its normal alert arrives.
        let resolves = match (storm, sent[conn][seq].kind) {
            (false, _) => 1,
            (true, Kind::Normal) => STORM_GROUP as u64,
            (true, _) => 0,
        };
        if let Some(w) = window_of(closed, at_ns) {
            goodput[w] += resolves;
        }
    }
    let closed_window_s = (closed[WINDOWS].at_ns - closed[0].at_ns) as f64 / 1e9 / WINDOWS as f64;
    let capacity: Vec<f64> = (0..WINDOWS)
        .map(|w| {
            let (_, busiest) = cpu_between(&closed[w], &closed[w + 1]);
            goodput[w] as f64 / (busiest.max(1) as f64 / 1e9)
        })
        .collect();
    let goodput: Vec<f64> = goodput
        .iter()
        .map(|&n| n as f64 / closed_window_s)
        .collect();

    let mut deliver: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    let mut ack: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    let mut post_ack: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    let mut admitted_open = [0u64; WINDOWS];
    let mut tail = Vec::new();
    let mut lags = Vec::new();
    let (mut open_owed, mut late, mut open_frames) = (0u64, 0u64, 0u64);
    let mut admitted = 0u64;
    for (conn, log) in sent.iter().enumerate() {
        for (seq, frame) in log.iter().enumerate() {
            let (first_ns, sends) = delivered[conn][seq];
            admitted += u64::from(frame.acked());
            match frame.phase {
                Phase::Warm | Phase::Closed => {}
                Phase::Open => {
                    open_frames += 1;
                    lags.push(f64::from(frame.lag_us) / 1e3);
                    // Windows are cut by due time, so a stall's victims
                    // stay in the window that owed them.
                    let w = window_of(open, frame.ref_ns).unwrap_or(WINDOWS - 1);
                    let acked = frame.acked();
                    admitted_open[w] += u64::from(acked);
                    ack[w].push(if acked {
                        ms(frame.reply_ns.saturating_sub(frame.ref_ns))
                    } else {
                        f64::INFINITY
                    });
                    if frame.kind.delivered_individually() {
                        open_owed += 1;
                        if acked && sends > 0 {
                            let latency = ms(first_ns.saturating_sub(frame.ref_ns));
                            deliver[w].push(latency);
                            post_ack[w].push(ms(first_ns.saturating_sub(frame.reply_ns)));
                            tail.push(latency);
                            late += u64::from(latency > DEADLINE_MS);
                        } else {
                            // Refused or lost: later than any deadline.
                            deliver[w].push(f64::INFINITY);
                            late += 1;
                        }
                    }
                }
            }
        }
    }

    let cpu: Vec<f64> = (0..WINDOWS)
        .map(|w| {
            let (total, _) = cpu_between(&open[w], &open[w + 1]);
            total as f64 / 1e3 / admitted_open[w].max(1) as f64
        })
        .collect();
    sort(&mut tail);
    sort(&mut lags);
    let open_s = (open[WINDOWS].at_ns - open[0].at_ns) as f64 / 1e9;
    let digest_counts: Vec<u64> = sink.digests.iter().map(|d| d.0).collect();
    // Every frame's fate, streamed: a run writes millions of them.
    let fates = |only: Option<Phase>| {
        let delivered = &delivered;
        sent.iter().enumerate().flat_map(move |(conn, log)| {
            let frames = log
                .iter()
                .enumerate()
                .filter(move |(_, f)| only.is_none_or(|p| f.phase == p));
            frames.map(move |(seq, frame)| Fate {
                id: (seq * CONNS + conn) as u64,
                kind: frame.kind,
                reply: match (frame.reply_ns, frame.nacked) {
                    (0, _) => Reply::None,
                    (_, true) => Reply::Nack,
                    (_, false) => Reply::Ack,
                },
                sends: delivered[conn][seq].1,
            })
        })
    };
    let closed_failures = check(fates(Some(Phase::Closed)), &[]);
    Analysis {
        capacity_per_s: Windowed { values: capacity },
        goodput_per_s: Windowed { values: goodput },
        deliver_p50_ms: windowed_percentile(&mut deliver, 0.50),
        deliver_p90_ms: windowed_percentile(&mut deliver, 0.90),
        ack_p50_ms: windowed_percentile(&mut ack, 0.50),
        ack_p90_ms: windowed_percentile(&mut ack, 0.90),
        cpu_us_per_alert: Windowed { values: cpu },
        post_ack_p50_ms: windowed_percentile(&mut post_ack, 0.50),
        deliver_p99_ms: percentile(&tail, 0.99),
        deliver_p999_ms: percentile(&tail, 0.999),
        deliver_max_ms: tail.last().copied().unwrap_or(f64::NAN),
        late_frac: late as f64 / open_owed.max(1) as f64,
        open_owed,
        lag_p99_ms: percentile(&lags, 0.99),
        offered_per_s: open_frames as f64 / open_s,
        steal_frac: steal_frac(closed).max(steal_frac(open)),
        admitted,
        attempted: sent.iter().map(Vec::len).sum::<usize>() as u64,
        violations: check(fates(None), &digest_counts),
        // Digest conservation is a whole-run property; per phase only the
        // individually owed alerts can be judged.
        closed_failures: (closed_failures.refused.len()
            + closed_failures.lost.len()
            + closed_failures.doubled.len()) as u64,
        digest_sends: digest_counts.len() as u64,
        alerts_per_digest: if digest_counts.is_empty() {
            0.0
        } else {
            digest_counts.iter().sum::<u64>() as f64 / digest_counts.len() as f64
        },
        sink_sends: sink.sends.len() as u64,
        foreign_sends,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(start_ns: u64, window_ns: u64) -> PhaseSamples {
        (0..=WINDOWS as u64)
            .map(|k| Sample {
                at_ns: start_ns + k * window_ns,
                threads: vec![(7, 900_000_000 * k), (8, 100_000_000 * k)],
                steal: k,
                jiffies: 200 * k,
            })
            .collect()
    }

    #[test]
    fn alerts_land_in_the_window_they_were_due_in() {
        let s = samples(1_000, 100);
        let end = 1_000 + 100 * WINDOWS as u64;
        assert_eq!(window_of(&s, 999), None);
        assert_eq!(window_of(&s, 1_000), Some(0));
        assert_eq!(window_of(&s, 1_099), Some(0));
        assert_eq!(window_of(&s, 1_100), Some(1));
        assert_eq!(window_of(&s, end - 1), Some(WINDOWS - 1));
        assert_eq!(window_of(&s, end), None);
        assert!((steal_frac(&s) - 0.005).abs() < 1e-12);
    }

    #[test]
    fn a_small_run_is_summarised_per_window() {
        let workload = crate::workload::WORKLOADS[0];
        let open = samples(100_000_000_000, 1_000_000_000);
        let closed = samples(1_000_000_000, 1_000_000_000);
        let frame = |phase, ref_ns: u64| Sent {
            ref_ns,
            reply_ns: ref_ns + 1_000_000,
            lag_us: 7,
            kind: Kind::Normal,
            phase,
            nacked: false,
        };
        // Connection 0: one open-loop frame per window, delivered 2 ms
        // after its due time and acked 1 ms after it — except the last,
        // which is lost. Connection 1: three closed-loop frames, resolved
        // in the first closed window.
        let open_frames: Vec<Sent> = (0..WINDOWS as u64)
            .map(|w| frame(Phase::Open, open[0].at_ns + w * 1_000_000_000 + 5))
            .collect();
        let closed_frames = vec![frame(Phase::Closed, closed[0].at_ns + 10); 3];
        let mut sends: Vec<(u64, u64)> = (0..WINDOWS as u64 - 1)
            .map(|w| {
                (
                    w * CONNS as u64,
                    open[0].at_ns + w * 1_000_000_000 + 2_000_005,
                )
            })
            .collect();
        sends.extend((0..3).map(|seq| (seq * CONNS as u64 + 1, closed[0].at_ns + 500)));
        let sink = SinkLog {
            sends,
            ..SinkLog::default()
        };
        let a = analyze(
            &workload,
            &[open_frames, closed_frames],
            &sink,
            &closed,
            &open,
        );
        assert_eq!(a.deliver_p50_ms.median(), 2.0);
        assert_eq!(a.ack_p50_ms.median(), 1.0);
        assert_eq!(a.post_ack_p50_ms.median(), 1.0);
        // A CPU-second over all threads per window, one alert admitted in it.
        assert_eq!(a.cpu_us_per_alert.median(), 1e6);
        // Three alerts resolved while the busiest thread ran 0.9 s.
        assert_eq!(a.goodput_per_s.values[0], 3.0);
        assert_eq!(a.capacity_per_s.values[0], 3.0 / 0.9);
        assert_eq!(a.violations.lost, [(WINDOWS as u64 - 1) * CONNS as u64]);
        let n = WINDOWS as u64;
        assert_eq!((a.attempted, a.admitted, a.open_owed), (n + 3, n + 3, n));
        assert_eq!(a.late_frac, 1.0 / n as f64);
        assert_eq!(
            (a.deliver_max_ms, a.lag_p99_ms, a.closed_failures),
            (2.0, 0.007, 0)
        );
    }
}
