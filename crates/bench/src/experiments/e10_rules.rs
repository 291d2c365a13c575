//! E10 — rules hot path throughput + storm correlation into digests.
//!
//! Two claims, one harness. First, the rule engine's `evaluate` call is
//! cheap enough to sit on the ingestion hot path: a single thread pushes
//! a mixed workload (no match / deliver-override / suppress / digest
//! absorb) through per-user indexed rule sets; the decision counts are
//! exact, evals/s is printed. Second, the storm scenario from the paper's
//! motivation (§1: one flapping source must not cost the user thousands
//! of interruptions): a flapping source fires 10 000 alarms at one user
//! through a digest rule and the user receives exactly **one** digest
//! delivery; a critical alert inside the storm cuts through immediately;
//! and interleaved non-storm traffic is delivered exactly once — nothing
//! lost, nothing doubled.
//!
//! The storm half runs on the deterministic tokio shim (virtual time),
//! so the window flush and the exactly-once counts are reproducible; the
//! throughput half times real single-thread wall-clock work.

use crate::experiments::ExperimentOutput;
use crate::report::Table;
use simba_core::address::{Address, AddressBook, CommType};
use simba_core::alert::{IncomingAlert, Urgency};
use simba_core::classify::{Classifier, KeywordField};
use simba_core::mode::DeliveryMode;
use simba_core::rejuvenate::RejuvenationPolicy;
use simba_core::subscription::{SubscriptionRegistry, UserId};
use simba_core::MabConfig;
use simba_rules::{Decision, DigestConfig, RuleEngine, RuleSpec, RulesConfig};
use simba_runtime::{
    ConfigFactory, HostNotice, LoopbackChannels, RuntimeNotice, SharedChannels, ShardedHost,
    ShardedHostConfig,
};
use simba_sim::{SimDuration, SimTime};
use simba_telemetry::{RingBufferSink, Telemetry};
use std::time::Duration;

/// Workload shape. [`E10Options::full`] is the recorded configuration;
/// [`E10Options::smoke`] is the CI shape.
#[derive(Debug, Clone, Copy)]
pub struct E10Options {
    /// Users in the throughput half (each owns three rules).
    pub users: usize,
    /// Single-thread evaluations timed (multiple of 4: the workload
    /// cycles through four alert shapes).
    pub evals: usize,
    /// Flapping alarms fired into the digest window.
    pub storm_alarms: usize,
    /// Interleaved non-storm alerts that must survive the storm.
    pub normals: usize,
}

impl E10Options {
    /// Full scale: 512 rule-owning users, 400 k timed evaluations,
    /// the paper-shaped 10 k-alarm storm.
    pub fn full() -> Self {
        E10Options { users: 512, evals: 400_000, storm_alarms: 10_000, normals: 100 }
    }

    /// CI smoke: smaller timed half, same 10 k storm (absorption is
    /// cheap — the storm never reaches the delivery pipeline).
    pub fn smoke() -> Self {
        E10Options { users: 64, evals: 80_000, storm_alarms: 10_000, normals: 50 }
    }

    fn validate(&self) {
        assert!(self.users > 0 && self.evals > 0, "empty workload");
        assert!(self.evals.is_multiple_of(4), "evals must be a multiple of 4");
        assert!(self.storm_alarms >= 2 && self.normals >= 1, "storm too small to mean anything");
    }
}

/// Measured headline numbers, exposed for regression tests.
#[derive(Debug, Clone, Copy)]
pub struct E10Numbers {
    /// Rule-owning users in the throughput half.
    pub users: usize,
    /// Timed evaluations.
    pub evals: usize,
    /// Wall seconds for the timed loop.
    pub wall_secs: f64,
    /// Evaluations per second (single thread).
    pub evals_per_sec: f64,
    /// Storm alarms fired.
    pub storm_alarms: u64,
    /// Alarms absorbed into the digest window (storm minus the critical
    /// cut-through).
    pub absorbed: u64,
    /// Digest deliveries the storm user received (must be exactly 1).
    pub digest_deliveries: u64,
    /// Critical alerts that bypassed the window (must be exactly 1).
    pub critical_bypass: u64,
    /// Non-storm alerts submitted alongside the storm.
    pub normals: u64,
    /// Non-storm alerts delivered (must equal `normals`, each once).
    pub normals_delivered: u64,
    /// Total channel sends the storm user saw (critical + digest = 2).
    pub storm_user_sends: u64,
}

/// Throughput half: one engine, `users` × 3 rules, a four-shape alert
/// cycle timed over `evals` single-thread evaluations.
fn eval_throughput(opts: E10Options) -> (f64, f64) {
    let engine = RuleEngine::open(RulesConfig::in_memory()).expect("in-memory engine");
    for i in 0..opts.users {
        let user = format!("user{i:04}");
        engine
            .upsert(&user, None, RuleSpec::suppress("mute-heartbeats", "body contains \"heartbeat\""))
            .expect("suppress rule");
        let mut deploy = RuleSpec::deliver("deploys-are-low", "source == \"deploy-bot\"");
        deploy.severity = Some(Urgency::Low);
        engine.upsert(&user, None, deploy).expect("deliver rule");
        engine
            .upsert(
                &user,
                None,
                RuleSpec::digest("collapse-flaps", "source == \"flappy\"", DigestConfig::default()),
            )
            .expect("digest rule");
    }

    // Four shapes: pass-through, severity override, digest absorb,
    // suppress. Exactly a quarter of the workload each.
    let shapes = [
        IncomingAlert::from_im("calm-gw", "Sensor nominal", SimTime::ZERO),
        IncomingAlert::from_im("deploy-bot", "Sensor deploy ok", SimTime::ZERO),
        IncomingAlert::from_im("flappy", "Sensor flapping", SimTime::ZERO),
        IncomingAlert::from_im("calm-gw", "heartbeat tick", SimTime::ZERO),
    ];
    let users: Vec<String> = (0..opts.users).map(|i| format!("user{i:04}")).collect();

    let (mut passed, mut overridden, mut absorbed, mut suppressed) = (0u64, 0u64, 0u64, 0u64);
    let wall = std::time::Instant::now();
    for i in 0..opts.evals {
        let user = &users[i % opts.users];
        match engine.evaluate(user, &shapes[i % 4], 0) {
            Decision::Deliver { rule: None, .. } => passed += 1,
            Decision::Deliver { rule: Some(_), .. } => overridden += 1,
            Decision::Digest { .. } => absorbed += 1,
            Decision::Suppress { .. } => suppressed += 1,
        }
    }
    let wall_secs = wall.elapsed().as_secs_f64();

    let quarter = (opts.evals / 4) as u64;
    assert_eq!(passed, quarter, "pass-through shape miscounted");
    assert_eq!(overridden, quarter, "override shape miscounted");
    assert_eq!(absorbed, quarter, "digest shape miscounted");
    assert_eq!(suppressed, quarter, "suppress shape miscounted");
    assert!(
        engine.pending_digests() <= opts.users,
        "digest state unbounded: one key per user must stay one window per user"
    );

    let rate = if wall_secs > 0.0 { opts.evals as f64 / wall_secs } else { f64::INFINITY };
    (wall_secs, rate)
}

/// One storm-half user: accepts the flapping and steady sources, IM
/// first with a 5 s (virtual) ack window, email fallback.
fn storm_user_config(name: &str) -> MabConfig {
    let mut classifier = Classifier::new();
    classifier.accept_source("flappy", KeywordField::Body, "cfg");
    classifier.accept_source("steady-gw", KeywordField::Body, "cfg");
    classifier.map_keyword("Sensor", "Home");
    let mut registry = SubscriptionRegistry::new();
    let user = UserId::new(name);
    let profile = registry.register_user(user.clone());
    let mut book = AddressBook::new();
    book.add(Address::new("IM", CommType::Im, format!("im:{name}"))).unwrap();
    book.add(Address::new("EM", CommType::Email, format!("{name}@mail"))).unwrap();
    profile.address_book = book;
    profile.define_mode(DeliveryMode::im_then_email(
        "Urgent",
        "IM",
        "EM",
        SimDuration::from_secs(5),
    ));
    registry.subscribe("Home", user, "Urgent").unwrap();
    MabConfig { classifier, registry, rejuvenation: RejuvenationPolicy::default() }
}

struct StormRaw {
    absorbed: u64,
    digest_deliveries: u64,
    critical_bypass: u64,
    normals_delivered: u64,
    storm_user_sends: u64,
}

/// Storm half: 1 flapping source × `storm_alarms` alarms against a
/// digest rule, a critical alert mid-storm, `normals` interleaved
/// non-storm alerts to a second user. Runs on virtual time.
async fn storm(opts: E10Options) -> StormRaw {
    let telemetry = Telemetry::with_sink(std::sync::Arc::new(RingBufferSink::new(256)));
    let engine = std::sync::Arc::new(
        RuleEngine::open_with_telemetry(RulesConfig::in_memory(), telemetry.clone())
            .expect("in-memory engine"),
    );
    engine
        .upsert(
            "storm",
            None,
            RuleSpec::digest(
                "collapse-flaps",
                "source == \"flappy\"",
                DigestConfig { window_ms: 60_000, max_count: 0, max_exemplars: 3, key: None },
            ),
        )
        .expect("digest rule");

    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(10)));
    let host_config = ShardedHostConfig {
        rules: Some(engine.clone()),
        notice_capacity: (opts.normals + 8).max(simba_runtime::DEFAULT_NOTICE_CAPACITY),
        ..ShardedHostConfig::default()
    };
    let factory: ConfigFactory = std::sync::Arc::new(|user: &UserId| storm_user_config(&user.0));
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), host_config, factory, Telemetry::disabled())
            .expect("in-memory shard logs");
    let storm_user = UserId::new("storm");
    let steady_user = UserId::new("steady");
    host.register_many(vec![storm_user.clone(), steady_user.clone()]).await;

    // Interleave: every (storm_alarms / normals)-th alarm is followed by
    // one non-storm alert; the lone critical alarm lands mid-storm.
    let stride = (opts.storm_alarms / opts.normals).max(1);
    let mut normals_sent = 0u64;
    for i in 0..opts.storm_alarms {
        let mut alarm =
            IncomingAlert::from_im("flappy", format!("Sensor flap {i}"), SimTime::ZERO);
        if i == opts.storm_alarms / 2 {
            alarm.urgency = Urgency::Critical;
            alarm.body = "Sensor CRIT meltdown".into();
        }
        assert!(host.submit_im(&storm_user, alarm).await, "the storm user's shard is up");
        if i.is_multiple_of(stride) && normals_sent < opts.normals as u64 {
            let steady =
                IncomingAlert::from_im("steady-gw", format!("Sensor steady {i}"), SimTime::ZERO);
            assert!(host.submit_im(&steady_user, steady).await, "the steady user's shard is up");
            normals_sent += 1;
        }
    }
    assert_eq!(normals_sent, opts.normals as u64, "stride failed to place every normal alert");

    // Everything except the digest finishes now: the normals plus the
    // critical cut-through. The flap storm is parked in one window.
    let before_flush = normals_sent + 1;
    let mut finished = 0u64;
    while finished < before_flush {
        match notices.recv().await {
            Some(HostNotice { notice: RuntimeNotice::DeliveryFinished { .. }, .. }) => {
                finished += 1;
            }
            Some(_) => {}
            None => panic!("notice stream closed before the pre-flush traffic drained"),
        }
    }
    let before = host.snapshot().await;
    assert_eq!(before.open_windows, 1, "the storm must collapse into one pending window");
    assert_eq!(before.stats.deliveries_started, before_flush, "nothing flushes before the deadline");

    // Past the deadline the shard worker delivers exactly one digest.
    tokio::time::sleep(Duration::from_secs(70)).await;
    let after = host.snapshot().await;
    let digest_deliveries = after.stats.deliveries_started - before.stats.deliveries_started;
    assert_eq!(digest_deliveries, 1, "the storm must flush as exactly one digest");
    assert_eq!(after.open_windows, 0, "flush left the window behind");
    let mut digest_finished = 0u64;
    while digest_finished < digest_deliveries {
        match notices.recv().await {
            Some(HostNotice { notice: RuntimeNotice::DeliveryFinished { .. }, .. }) => {
                digest_finished += 1;
            }
            Some(_) => {}
            None => panic!("notice stream closed before the digest delivery drained"),
        }
    }
    let host = host.shutdown().await;
    assert_eq!(host.unrouted, 0, "both users were registered");

    // Exactly-once accounting straight off the channel transcript: the
    // storm user hears twice (critical + digest), the steady user once
    // per alert, and the digest send names the full storm count.
    let sent = shared.with(|c| c.sent().to_vec());
    let storm_sends: Vec<&String> =
        sent.iter().filter(|(_, addr, _)| addr.contains("storm")).map(|(_, _, text)| text).collect();
    let steady_sends = sent.iter().filter(|(_, addr, _)| addr.contains("steady")).count() as u64;
    let digest_text = format!("{} alerts from flappy", opts.storm_alarms as u64 - 1);
    assert!(
        storm_sends.iter().any(|text| text.contains(&digest_text)),
        "digest send must carry the full absorbed count ({digest_text:?}); got {storm_sends:?}"
    );
    assert!(
        storm_sends.iter().any(|text| text.contains("CRIT meltdown")),
        "critical alarm must cut through the window"
    );

    let metrics = telemetry.metrics().snapshot();
    assert_eq!(
        metrics.counter("rules.digest_absorbed"),
        opts.storm_alarms as u64 - 1,
        "every non-critical alarm is absorbed"
    );
    assert_eq!(metrics.counter("rules.critical_bypass"), 1, "one alarm bypassed the window");
    assert_eq!(host.stats.deliveries_started, normals_sent + 2, "normals + critical + digest");
    assert_eq!(steady_sends, normals_sent, "no non-storm alert lost or double-delivered");
    assert_eq!(storm_sends.len(), 2, "storm user hears exactly twice");

    StormRaw {
        absorbed: metrics.counter("rules.digest_absorbed"),
        digest_deliveries,
        critical_bypass: metrics.counter("rules.critical_bypass"),
        normals_delivered: steady_sends,
        storm_user_sends: storm_sends.len() as u64,
    }
}

/// Runs both halves and returns the headline numbers plus tables. The
/// exactly-once and collapse assertions run inside; a violated invariant
/// panics rather than reporting a degraded number.
pub fn measure(opts: E10Options) -> (E10Numbers, Vec<Table>) {
    opts.validate();
    let (wall_secs, evals_per_sec) = eval_throughput(opts);
    let raw = tokio::runtime::block_on_test(true, async move { storm(opts).await });

    let numbers = E10Numbers {
        users: opts.users,
        evals: opts.evals,
        wall_secs,
        evals_per_sec,
        storm_alarms: opts.storm_alarms as u64,
        absorbed: raw.absorbed,
        digest_deliveries: raw.digest_deliveries,
        critical_bypass: raw.critical_bypass,
        normals: opts.normals as u64,
        normals_delivered: raw.normals_delivered,
        storm_user_sends: raw.storm_user_sends,
    };

    let mut hot = Table::new(
        "E10: rule-evaluation hot path (single thread)",
        &["users", "rules", "evaluations", "wall (s)", "evals/s"],
    );
    hot.row(&[
        numbers.users.to_string(),
        (numbers.users * 3).to_string(),
        numbers.evals.to_string(),
        format!("{:.3}", numbers.wall_secs),
        format!("{:.0}", numbers.evals_per_sec),
    ]);

    let mut storm_table = Table::new(
        "E10: storm correlation (virtual time)",
        &["alarms", "absorbed", "digest deliveries", "critical bypass", "normals", "delivered"],
    );
    storm_table.row(&[
        numbers.storm_alarms.to_string(),
        numbers.absorbed.to_string(),
        numbers.digest_deliveries.to_string(),
        numbers.critical_bypass.to_string(),
        numbers.normals.to_string(),
        numbers.normals_delivered.to_string(),
    ]);

    (numbers, vec![hot, storm_table])
}

/// Runs E10 with `opts` and packages the result.
fn run_with(opts: E10Options) -> ExperimentOutput {
    let (numbers, tables) = measure(opts);

    ExperimentOutput {
        id: "E10",
        title: "rule-evaluation hot path and storm correlation into digests",
        paper_claim: "§1 motivation: a flapping source must interrupt the user once, not \
                      thousands of times — without costing the ingestion path its throughput",
        tables,
        notes: vec![
            format!(
                "{} single-thread evaluations over {} users × 3 rules at {:.0} evals/s",
                numbers.evals, numbers.users, numbers.evals_per_sec
            ),
            format!(
                "storm: {} alarms collapsed into {} digest delivery ({} absorbed), {} critical \
                 cut-through; {} / {} interleaved non-storm alerts delivered exactly once",
                numbers.storm_alarms,
                numbers.digest_deliveries,
                numbers.absorbed,
                numbers.critical_bypass,
                numbers.normals_delivered,
                numbers.normals,
            ),
        ],
    }
}

/// Runs E10 at full scale (the recorded shape).
pub fn run(_seed: u64) -> ExperimentOutput {
    run_with(E10Options::full())
}

/// The CI smoke shape.
pub fn run_smoke(_seed: u64) -> ExperimentOutput {
    run_with(E10Options::smoke())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_tiny_storm_collapses_and_loses_nothing() {
        // Deterministic shape at test scale: the exactly-once and
        // single-digest assertions run inside measure(); no throughput
        // floor here.
        let opts = E10Options { users: 8, evals: 4_000, storm_alarms: 500, normals: 10 };
        let (numbers, tables) = measure(opts);
        assert_eq!(numbers.digest_deliveries, 1);
        assert_eq!(numbers.critical_bypass, 1);
        assert_eq!(numbers.absorbed, 499);
        assert_eq!(numbers.normals_delivered, 10);
        assert_eq!(numbers.storm_user_sends, 2);
        assert_eq!(tables.len(), 2);
    }
}
