//! The names and units of everything the benchmark reports.
//! `BENCHMARK.json` states the same tables for the driver, with each
//! metric's direction and bound; a self-test keeps the two from drifting.

/// How long one run measures, closed and open loop together.
pub const RUN_SECONDS: u64 = 20;

/// `(name, unit)` of the gated end-to-end metrics, in the order reported:
/// what serving one alert costs, in quantities that hold still on a
/// shared box. Direction and bound live in `BENCHMARK.json`.
/// `failed_frac` is not here: a run's `failed` / `attempted` carry it.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cpu_us_per_alert", "us"),
    ("commits_per_alert", "count"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of what a source and a user would time with a clock. A
/// measured run reports them beside the end-to-end metrics, ungated: on
/// the shared 2-core reference box they follow the hypervisor's
/// timer-wake latency, not the program (README, "Why throughput and
/// latency are reported but not gated").
pub const UNGATED: [(&str, &str); 6] = [
    ("goodput_per_s", "alerts/s"),
    ("capacity_per_s", "alerts/s"),
    ("deliver_p50_ms", "ms"),
    ("deliver_p90_ms", "ms"),
    ("ack_p50_ms", "ms"),
    ("ack_p90_ms", "ms"),
];

/// `(name, unit)` of the single-layer metrics of a traced run; the name's
/// prefix is the layer (= crate) it belongs to.
pub const PER_LAYER: [(&str, &str); 74] = [
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.offered_per_s", "alerts/s"),
    ("gateway.accepted", "count"),
    ("gateway.shed", "count"),
    ("gateway.decode_err", "count"),
    ("gateway.queue_depth_max", "count"),
    ("gateway.pump_routed", "count"),
    ("gateway.pump_unrouted", "count"),
    ("gateway.codec_us_per_frame", "us"),
    ("gateway.admit_us_per_alert", "us"),
    ("rules.evaluated", "count"),
    ("rules.matched", "count"),
    ("rules.absorbed", "count"),
    ("rules.suppressed", "count"),
    ("rules.digests_flushed", "count"),
    ("rules.critical_bypass", "count"),
    ("rules.alerts_per_digest", "count"),
    ("rules.evaluate_us_per_alert", "us"),
    ("rules.upsert_us_per_rule", "us"),
    ("runtime.submit_us_per_alert", "us"),
    ("runtime.deliveries_started", "count"),
    ("runtime.hibernations", "count"),
    ("runtime.rehydrations", "count"),
    ("runtime.peak_active", "count"),
    ("runtime.crashes", "count"),
    ("runtime.unrouted", "count"),
    ("core.log_appends", "count"),
    ("core.log_marks", "count"),
    ("core.group_commits", "count"),
    ("core.writes_per_commit", "count"),
    ("core.segments_rotated", "count"),
    ("core.shardlog_us_per_alert", "us"),
    ("ledger.enqueued", "count"),
    ("ledger.leased", "count"),
    ("ledger.sent", "count"),
    ("ledger.retried", "count"),
    ("ledger.lease_expired", "count"),
    ("ledger.dead_lettered", "count"),
    ("ledger.commit_batches", "count"),
    ("ledger.records_per_commit", "count"),
    ("ledger.segments_rotated", "count"),
    ("ledger.lease_batches", "count"),
    ("ledger.stale_reports", "count"),
    ("ledger.io_errors", "count"),
    ("ledger.pending_max", "count"),
    ("ledger.enqueue_commit_us_per_alert", "us"),
    ("ledger.lease_send_record_us_per_alert", "us"),
    ("net.idempotent_dups", "count"),
    ("sink.sends", "count"),
    ("sink.digest_sends", "count"),
    ("sink.duplicates", "count"),
    ("sink.injected_failures", "count"),
    ("pipeline.goodput_per_s", "alerts/s"),
    ("pipeline.untraced_goodput_per_s", "alerts/s"),
    ("pipeline.deliver_p50_ms", "ms"),
    ("pipeline.deliver_p90_ms", "ms"),
    ("pipeline.ack_p50_ms", "ms"),
    ("pipeline.ack_p90_ms", "ms"),
    ("pipeline.post_ack_p50_ms", "ms"),
    ("pipeline.deliver_p99_ms", "ms"),
    ("pipeline.deliver_p999_ms", "ms"),
    ("pipeline.deliver_max_ms", "ms"),
    ("pipeline.late_frac_250ms", "ratio"),
    ("pipeline.tail_samples", "count"),
    ("pipeline.backlog_end", "count"),
    ("pipeline.drain_s", "s"),
    ("pipeline.closed_failures", "count"),
    ("pipeline.commits_per_alert", "count"),
    ("pipeline.failed_frac", "ratio"),
    ("pipeline.stage_sum_us", "us"),
    ("telemetry.overhead_frac", "ratio"),
    ("telemetry.events_emitted", "count"),
    ("telemetry.events_dropped", "count"),
    ("process.steal_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::workload::WORKLOADS;

    /// `BENCHMARK.json` is written by hand; the tables here are what the
    /// binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_states_these_tables() {
        let manifest = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        assert_eq!(
            manifest.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let field = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };

        let workloads = manifest.get("workloads").expect("workloads").as_array();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (stated, ours) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(stated, "name"), ours.name);
            assert_eq!(field(stated, "why"), ours.why);
            assert!(ours.why.len() <= 200 && !ours.why.contains('\n'));
        }

        let end_to_end = manifest.get("end_to_end").expect("end_to_end").as_array();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (stated, (name, unit)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(
                (field(stated, "name"), field(stated, "unit")),
                (name.into(), unit.into())
            );
            assert!(["lower", "higher"].contains(&field(stated, "better").as_str()));
            let bound = stated.get("bound").and_then(Json::as_f64).expect("a bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }

        let per_layer = manifest.get("per_layer").expect("per_layer").as_array();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (stated, (name, unit)) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(
                (field(stated, "name"), field(stated, "unit")),
                (name.into(), unit.into())
            );
            assert!(["lower", "higher"].contains(&field(stated, "better").as_str()));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_driver_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&UNGATED)
            .chain(&PER_LAYER)
            .map(|m| m.0)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
