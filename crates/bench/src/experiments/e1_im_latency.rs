//! E1 — IM delivery latency and acknowledgement RTT.
//!
//! Paper (§5): "The one-way IM delivery time from any of the alert sources
//! to MyAlertBuddy is typically less than one second. With pessimistic
//! logging, the alert source receives an acknowledgement in about 1.5
//! seconds."

use crate::harness::{build, handle, Ev, PipelineOptions, World};
use crate::report::{dist, secs, Table};
use crate::experiments::ExperimentOutput;
use simba_core::alert::IncomingAlert;
use simba_sim::SimTime;

/// Number of alerts measured.
pub const ALERTS: u64 = 2_000;

/// Measured headline numbers, exposed for regression tests.
#[derive(Debug, Clone, Copy)]
pub struct E1Numbers {
    /// Mean one-way IM latency, seconds.
    pub one_way_mean: f64,
    /// Fraction of one-way deliveries under one second.
    pub one_way_sub_second: f64,
    /// Mean ack RTT with pessimistic logging, seconds.
    pub ack_rtt_mean: f64,
    /// Mean ack RTT without pessimistic logging, seconds.
    pub ack_rtt_no_log_mean: f64,
}

/// The measured run: [`ALERTS`] alerts a minute apart to a user at the
/// desk, with pessimistic logging on or off.
pub(crate) fn simulate(seed: u64, logging: bool) -> World {
    let horizon = SimTime::from_secs(60 * ALERTS + 3_600);
    let mut options = PipelineOptions::new(seed, horizon);
    options.pessimistic_logging = logging;
    let mut engine = build(options);
    for i in 0..ALERTS {
        let at = SimTime::from_secs(30 + i * 60);
        let alert = IncomingAlert::from_im("aladdin-gw", format!("Sensor ping {i} ON"), at);
        engine.schedule_at(at, Ev::Emit { tag: i, alert });
    }
    engine.run_until(horizon, handle);
    engine.into_parts().0
}

/// Runs the measurement and returns the headline numbers plus tables.
pub fn measure(seed: u64) -> (E1Numbers, Vec<Table>) {
    let mut tables = Vec::new();
    let mut by_logging = Vec::new();

    for logging in [true, false] {
        let world = simulate(seed, logging);
        let one_way = world.metrics.summary("im.one_way").cloned().unwrap_or_default();
        let rtt = world.metrics.summary("source.ack_rtt").cloned().unwrap_or_default();
        by_logging.push((logging, one_way, rtt));
    }

    let (_, one_way, rtt) = &by_logging[0];
    let (_, _, rtt_no_log) = &by_logging[1];

    let sub_second = one_way.fraction_below(1.0);

    let mut t = Table::new(
        "E1: IM one-way latency and ack RTT (source → MyAlertBuddy)",
        &["metric", "measured mean/p50/p95", "paper"],
    );
    t.row(&[
        "one-way IM".to_string(),
        dist(one_way),
        "typically < 1 s".to_string(),
    ]);
    t.row(&[
        "ack RTT (pessimistic logging)".to_string(),
        dist(rtt),
        "about 1.5 s".to_string(),
    ]);
    t.row(&[
        "ack RTT (logging disabled)".to_string(),
        dist(rtt_no_log),
        "n/a (ablation)".to_string(),
    ]);
    t.row(&[
        "one-way deliveries under 1 s".to_string(),
        format!("{:.0} %", sub_second * 100.0),
        "\"typically\"".to_string(),
    ]);
    tables.push(t);

    (
        E1Numbers {
            one_way_mean: one_way.mean(),
            one_way_sub_second: sub_second,
            ack_rtt_mean: rtt.mean(),
            ack_rtt_no_log_mean: rtt_no_log.mean(),
        },
        tables,
    )
}

/// Runs E1 and packages the result.
pub fn run(seed: u64) -> ExperimentOutput {
    let (numbers, tables) = measure(seed);
    ExperimentOutput {
        id: "E1",
        title: "IM delivery latency and acknowledgement RTT",
        paper_claim: "one-way IM typically < 1 s; ack with pessimistic logging ≈ 1.5 s",
        tables,
        notes: vec![format!(
            "pessimistic logging adds {} to the ack path (the pre-ack fsync)",
            secs(numbers.ack_rtt_mean - numbers.ack_rtt_no_log_mean)
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_matches_paper_envelope() {
        let (n, _) = measure(42);
        assert!(n.one_way_mean < 1.0, "one-way mean {}", n.one_way_mean);
        assert!(n.one_way_sub_second >= 0.90, "sub-second {}", n.one_way_sub_second);
        assert!(
            (1.0..2.2).contains(&n.ack_rtt_mean),
            "ack rtt {}",
            n.ack_rtt_mean
        );
        // Logging must cost something, but well under a second.
        let overhead = n.ack_rtt_mean - n.ack_rtt_no_log_mean;
        assert!((0.05..0.8).contains(&overhead), "overhead {overhead}");
    }
}
