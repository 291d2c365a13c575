//! `telemetry demo|tail`: run an instrumented host and print its
//! structured event stream and metrics snapshot, or pretty-print a
//! JSON-lines event file captured elsewhere.

use crate::flags::{Flags, Kind};
use crate::gateway::user_config;
use crate::{read_file, Done, Outcome};
use simba_core::address::CommType;
use simba_core::alert::IncomingAlert;
use simba_core::delivery::SendFailure;
use simba_core::subscription::UserId;
use simba_runtime::{
    Channels, ConfigFactory, SendOutcome, SharedChannels, ShardedHost, ShardedHostConfig,
};
use simba_sim::{SimDuration, SimRng};
use simba_store::{SoftStateStore, PRESENCE_SCOPE};
use simba_telemetry::{Event, RingBufferSink, Telemetry};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// `telemetry demo|tail [...]` — inspect the telemetry spine.
pub(crate) fn telemetry(args: &[String]) -> Done {
    let Some(which) = args.first() else {
        return Err(Outcome::usage("telemetry takes an action (demo or tail)"));
    };
    match which.as_str() {
        "demo" => {
            let flags = Flags::parse(
                &args[1..],
                &[("--seed", Kind::Number), ("--alerts", Kind::Number), ("--json", Kind::Switch)],
            )?;
            let seed = flags.number("--seed")?.unwrap_or(42);
            let alerts = flags.number("--alerts")?.unwrap_or(10);
            Ok(Outcome::ok(demo(seed, alerts, flags.has("--json"))))
        }
        "tail" => {
            let [_, path] = args else {
                return Err(Outcome::usage("telemetry tail takes a .jsonl file"));
            };
            tail(path)
        }
        other => Err(Outcome::usage(&format!("unknown telemetry action {other:?}"))),
    }
}

/// The demo's channels: every fifth IM send fails, driving the fallback
/// ladder into the email block; every other IM send is acknowledged 2–45 s
/// later, at a lag drawn from the seed; email is accepted.
struct DemoChannels {
    rng: SimRng,
    im_sends: u64,
}

impl Channels for DemoChannels {
    fn send(&mut self, comm_type: CommType, _address: &str, _text: &str) -> SendOutcome {
        if comm_type != CommType::Im {
            return SendOutcome::Accepted;
        }
        self.im_sends += 1;
        if self.im_sends.is_multiple_of(5) {
            SendOutcome::Failed(SendFailure::ChannelDown)
        } else {
            SendOutcome::AcceptedWithAck(Duration::from_secs(self.rng.range(2, 45)))
        }
    }
}

/// Runs alice's alerts through a one-shard host on the paused clock, one
/// every minute from 30 s, and renders what the telemetry saw.
fn demo(seed: u64, alerts: u64, json: bool) -> String {
    let sink = Arc::new(RingBufferSink::new(4_096));
    let telemetry = Telemetry::with_sink(sink.clone());
    let host_telemetry = telemetry.clone();
    tokio::runtime::block_on(async move {
        tokio::time::pause();
        // The soft-state store feeds presence-aware routing: alice is
        // "away" for the first alert's delivery, so its IM block is
        // skipped; by the second alert the fact has expired (counted under
        // `store.expired`) and routing reverts to the static profile.
        let store = SoftStateStore::new(Default::default(), host_telemetry.clone());
        let config =
            ShardedHostConfig { shards: 1, store: Some(store.clone()), ..ShardedHostConfig::default() };
        let channels = SharedChannels::new(DemoChannels { rng: SimRng::new(seed), im_sends: 0 });
        let factory: ConfigFactory = Arc::new(|user: &UserId| user_config(&user.0, "aladdin-gw"));
        let (host, _notices) = ShardedHost::new(channels, config, factory, host_telemetry)
            .expect("in-memory shard log");
        let away = SimDuration::from_secs(45);
        store.put(PRESENCE_SCOPE, "alice", "away", away, "wish", host.clock().now());
        let alice = UserId::new("alice");
        host.register(alice.clone()).await;
        tokio::time::sleep(Duration::from_secs(30)).await;
        for i in 0..alerts {
            let body = format!("Basement Sensor demo {i} ON");
            let alert = IncomingAlert::from_im("aladdin-gw", body, host.clock().now());
            host.submit_im(&alice, alert).await;
            tokio::time::sleep(Duration::from_secs(60)).await;
        }
        host.shutdown().await;
    });

    let events = sink.events();
    let snapshot = telemetry.metrics().snapshot();
    let mut out = String::new();
    if json {
        for e in &events {
            let _ = writeln!(out, "{}", e.to_json_line());
        }
        out.push_str(&snapshot.to_json());
        out.push('\n');
    } else {
        let _ = writeln!(
            out,
            "telemetry demo: {alerts} alerts, seed {seed}, {} events",
            events.len()
        );
        for e in &events {
            let _ = writeln!(out, "{}", e);
        }
        out.push('\n');
        out.push_str(&snapshot.render_text());
    }
    out
}

fn tail(path: &str) -> Done {
    let content = read_file(path)?;
    let mut out = String::new();
    let mut parsed = 0u64;
    let mut bad = 0u64;
    for (lineno, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Event::from_json_line(line) {
            Ok(e) => {
                parsed += 1;
                let _ = writeln!(out, "{}", e);
            }
            Err(e) => {
                bad += 1;
                let _ = writeln!(out, "line {}: unparseable event: {e}", lineno + 1);
            }
        }
    }
    let _ = writeln!(out, "{parsed} event(s), {bad} unparseable line(s)");
    Ok(Outcome::ok(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{strings, tmp};

    fn telemetry(args: &[String]) -> Outcome {
        super::telemetry(args).unwrap_or_else(|early| early)
    }

    #[test]
    fn telemetry_demo_prints_events_and_metrics() {
        let out = telemetry(&strings(&["demo", "--seed", "7", "--alerts", "6"]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("mab.received"), "{}", out.output);
        assert!(out.output.contains("wal.append"), "{}", out.output);
        assert!(out.output.contains("delivery.acked"), "{}", out.output);
        // The fifth IM send (alert 5: presence skipped alert 0's IM block)
        // fails and drives the fallback ladder.
        assert!(out.output.contains("delivery.send_failed"), "{}", out.output);
        // The soft-state store steered alert 0 (presence "away" skipped
        // its IM block) and decayed before alert 1; both facts show in
        // the metrics snapshot.
        assert!(out.output.contains("mab.mode_overridden"), "{}", out.output);
        assert!(out.output.contains("store.puts"), "{}", out.output);
        assert!(out.output.contains("store.expired"), "{}", out.output);

        // Same seed ⇒ byte-identical output (the determinism invariant).
        let again = telemetry(&strings(&["demo", "--seed", "7", "--alerts", "6"]));
        assert_eq!(out.output, again.output);

        assert_eq!(telemetry(&strings(&["demo", "--seed", "NaN"])).code, 2);
        assert_eq!(telemetry(&strings(&["nonsense"])).code, 2);
        assert_eq!(telemetry(&strings(&[])).code, 2);
    }

    #[test]
    fn telemetry_demo_json_round_trips_through_tail() {
        let out = telemetry(&strings(&["demo", "--seed", "3", "--alerts", "4", "--json"]));
        assert_eq!(out.code, 0, "{}", out.output);
        // Every line up to the final metrics object is a parseable event.
        let lines: Vec<&str> = out.output.lines().collect();
        let (events, metrics) = lines.split_at(lines.len() - 1);
        assert!(!events.is_empty());
        for line in events {
            simba_telemetry::Event::from_json_line(line).unwrap();
        }
        assert!(metrics[0].starts_with('{'), "{}", metrics[0]);

        let path = tmp("events.jsonl", &events.join("\n"));
        let tailed = telemetry(&strings(&["tail", &path]));
        assert_eq!(tailed.code, 0, "{}", tailed.output);
        assert!(
            tailed.output.contains(&format!("{} event(s), 0 unparseable", events.len())),
            "{}",
            tailed.output
        );
        assert!(tailed.output.contains("mab.routed"), "{}", tailed.output);

        let bad = tmp("bad.jsonl", "not json\n");
        let tailed = telemetry(&strings(&["tail", &bad]));
        assert!(tailed.output.contains("1 unparseable"), "{}", tailed.output);
        assert_eq!(telemetry(&strings(&["tail"])).code, 2);
    }
}
