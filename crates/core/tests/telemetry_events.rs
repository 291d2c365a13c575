//! The telemetry spine through simba-core: every pipeline stage of
//! MyAlertBuddy, the delivery fallback ladder, and the stabilization
//! sweeps emit structured events and metrics when a `Telemetry` is
//! attached — and nothing observable when it is disabled.

use simba_core::delivery::{DeliveryEvent, SendFailure};
use simba_core::mab::{CrashPoint, MabEvent, MyAlertBuddy};
use simba_core::stabilize::{
    check_invariants_observed, HealthSnapshot, StabilizationConfig,
};
use simba_core::{
    Address, AddressBook, Classifier, CommType, DeliveryCommand, DeliveryMode, IncomingAlert,
    KeywordField, MabCommand, MabConfig, RejuvenationPolicy, SubscriptionRegistry, Telemetry,
    ShardLog, UserId,
};
use simba_sim::{SimDuration, SimTime};
use simba_telemetry::{RingBufferSink, Value};
use std::sync::Arc;

fn config() -> MabConfig {
    let mut classifier = Classifier::new();
    classifier.accept_source("aladdin-gw", KeywordField::Body, "config");
    classifier.map_keyword("Sensor", "Home.Security");

    let mut registry = SubscriptionRegistry::new();
    let alice = UserId::new("alice");
    let profile = registry.register_user(alice.clone());
    let mut book = AddressBook::new();
    book.add(Address::new("IM", CommType::Im, "im:alice")).unwrap();
    book.add(Address::new("EM", CommType::Email, "alice@work")).unwrap();
    profile.address_book = book;
    profile.define_mode(DeliveryMode::im_then_email(
        "Urgent",
        "IM",
        "EM",
        SimDuration::from_secs(60),
    ));
    registry.subscribe("Home.Security", alice, "Urgent").unwrap();

    MabConfig {
        classifier,
        registry,
        rejuvenation: RejuvenationPolicy::default(),
    }
}

fn alice() -> UserId {
    UserId::new("alice")
}

fn observed_mab() -> (MyAlertBuddy, Arc<RingBufferSink>, Telemetry) {
    let sink = Arc::new(RingBufferSink::new(256));
    let telemetry = Telemetry::with_sink(sink.clone());
    let mab = MyAlertBuddy::new(config(), alice()).with_telemetry(telemetry.clone());
    (mab, sink, telemetry)
}

fn sensor_alert(secs: u64) -> IncomingAlert {
    IncomingAlert::from_im("aladdin-gw", "Basement Water Sensor ON", SimTime::from_secs(secs))
}

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

fn names(sink: &RingBufferSink) -> Vec<String> {
    sink.events().into_iter().map(|e| e.name).collect()
}

#[test]
fn ingest_pipeline_emits_stage_events_in_order() {
    let (mut m, sink, telemetry) = observed_mab();
    let mut log = ShardLog::in_memory();
    m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(1)), t(1));

    let names = names(&sink);
    // The §4.2.1 ordering is visible in the event stream: log before ack,
    // ack before route.
    let pos = |n: &str| names.iter().position(|x| x == n).unwrap_or_else(|| panic!("no {n} in {names:?}"));
    assert!(pos("mab.received") < pos("wal.append"));
    assert!(pos("wal.append") < pos("mab.ack"));
    assert!(pos("mab.ack") < pos("delivery.block_entered"));
    assert!(names.contains(&"mab.routed".to_string()));

    let snap = telemetry.metrics().snapshot();
    assert_eq!(snap.counter("mab.received"), 1);
    assert_eq!(snap.counter("wal.appends"), 1);
    assert_eq!(snap.counter("mab.acked"), 1);
    assert_eq!(snap.counter("mab.routed"), 1);
    assert_eq!(snap.counter("mab.deliveries_started"), 1);
    assert_eq!(snap.counter("delivery.sends"), 1);
    assert_eq!(snap.histogram("mab.route_lag_ms").unwrap().count, 1);

    // All events carry the virtual timestamp, never a wall-clock read.
    assert!(sink.events().iter().all(|e| e.time_ms == 1_000));
}

#[test]
fn crash_point_emits_crashed_event_and_replay_is_observed() {
    let mut log = ShardLog::in_memory();
    let (mut m, sink, _) = observed_mab();
    m.inject_crash_at(CrashPoint::AfterAckBeforeRoute);
    m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(5)), t(5));
    let crash = sink
        .events()
        .into_iter()
        .find(|e| e.name == "mab.crashed")
        .expect("a mab.crashed event");
    assert_eq!(crash.field("point"), Some(&Value::Str("after_ack_before_route".into())));

    // Fresh incarnation over the same log: replay is one wal.replayed event.
    let sink2 = Arc::new(RingBufferSink::new(64));
    let mut m2 = MyAlertBuddy::new(config(), alice())
        .with_telemetry(Telemetry::with_sink(sink2.clone()));
    m2.recover(&mut log, t(10));
    let replayed = sink2
        .events()
        .into_iter()
        .find(|e| e.name == "wal.replayed")
        .expect("a wal.replayed event");
    assert_eq!(replayed.field("records"), Some(&Value::U64(1)));
}

#[test]
fn delivery_fallback_ladder_is_traced() {
    let (mut m, sink, telemetry) = observed_mab();
    let mut log = ShardLog::in_memory();
    let cmds = m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(1)), t(1));
    let (id, attempt) = cmds
        .iter()
        .find_map(|c| match c {
            MabCommand::Channel {
                delivery,
                command: DeliveryCommand::Send { attempt, .. },
                ..
            } => Some((*delivery, *attempt)),
            _ => None,
        })
        .unwrap();

    // IM fails synchronously → the email block is entered as a fallback.
    m.handle(
        &mut log,
        MabEvent::Delivery {
            id,
            event: DeliveryEvent::SendFailed { attempt, failure: SendFailure::ChannelDown },
        },
        t(2),
    );
    let events = sink.events();
    let failed = events.iter().find(|e| e.name == "delivery.send_failed").unwrap();
    assert_eq!(failed.field("failure"), Some(&Value::Str("channel down".into())));
    let fallback = events
        .iter()
        .filter(|e| e.name == "delivery.block_entered")
        .find(|e| e.field("fallback") == Some(&Value::Bool(true)))
        .expect("a fallback block entry");
    assert_eq!(fallback.field("block"), Some(&Value::U64(1)));
    assert_eq!(telemetry.metrics().snapshot().counter("delivery.send_failed"), 1);
}

#[test]
fn delivery_ack_records_latency_histogram() {
    let (mut m, sink, telemetry) = observed_mab();
    let mut log = ShardLog::in_memory();
    let cmds = m.handle(&mut log, MabEvent::AlertByIm(sensor_alert(1)), t(1));
    let (id, attempt) = cmds
        .iter()
        .find_map(|c| match c {
            MabCommand::Channel {
                delivery,
                command: DeliveryCommand::Send { attempt, .. },
                ..
            } => Some((*delivery, *attempt)),
            _ => None,
        })
        .unwrap();
    m.handle(&mut log, MabEvent::Delivery { id, event: DeliveryEvent::SendAccepted { attempt } }, t(2));
    m.handle(&mut log, MabEvent::Delivery { id, event: DeliveryEvent::Acked { attempt } }, t(4));

    let acked = sink
        .events()
        .into_iter()
        .find(|e| e.name == "delivery.acked")
        .expect("a delivery.acked event");
    assert_eq!(acked.field("latency_ms"), Some(&Value::U64(3_000)));
    assert_eq!(acked.field("late"), Some(&Value::Bool(false)));
    let snap = telemetry.metrics().snapshot();
    assert_eq!(snap.counter("delivery.acked"), 1);
    assert_eq!(snap.histogram("delivery.ack_latency_ms").unwrap().sum_ms, 3_000);
}

#[test]
fn stabilization_sweep_emits_violations() {
    let sink = Arc::new(RingBufferSink::new(64));
    let telemetry = Telemetry::with_sink(sink.clone());
    let cfg = StabilizationConfig::default();
    let snap = HealthSnapshot {
        memory_kb: 999_999,
        threads_alive: false,
        last_progress_at: t(50),
        ..HealthSnapshot::default()
    };
    let out = check_invariants_observed(&cfg, &snap, t(50), &telemetry);
    assert_eq!(out.len(), 2);

    let events = sink.events();
    assert_eq!(events.iter().filter(|e| e.name == "stabilize.violation").count(), 2);
    let kinds: Vec<_> = events
        .iter()
        .filter(|e| e.name == "stabilize.violation")
        .map(|e| e.field("kind").cloned())
        .collect();
    assert!(kinds.contains(&Some(Value::Str("memory_bloat".into()))));
    assert!(kinds.contains(&Some(Value::Str("dead_thread".into()))));
    assert_eq!(telemetry.metrics().snapshot().counter("stabilize.checks"), 1);
    assert_eq!(telemetry.metrics().snapshot().counter("stabilize.violations"), 2);
}

#[test]
fn disabled_telemetry_changes_nothing_observable() {
    // Two identical runs, one instrumented, one not: commands and stats
    // must be byte-for-byte identical (telemetry never alters behavior).
    let mut plain = MyAlertBuddy::new(config(), alice());
    let (mut observed, _, _) = observed_mab();
    let a = plain.handle(&mut ShardLog::in_memory(), MabEvent::AlertByIm(sensor_alert(1)), t(1));
    let b = observed.handle(&mut ShardLog::in_memory(), MabEvent::AlertByIm(sensor_alert(1)), t(1));
    assert_eq!(a, b);
    assert_eq!(plain.stats(), observed.stats());
}
