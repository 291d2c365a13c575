//! Telemetry determinism: the observability invariant from `DESIGN.md` §
//! "Telemetry and the paper's mechanisms". Telemetry records virtual time
//! only — it never reads a wall clock and never perturbs component
//! behavior — so the same seed must produce the byte-identical event
//! stream and metrics snapshot, and an uninstrumented run must behave
//! exactly like an instrumented one.

use proptest::prelude::*;
use simba::core::delivery::{DeliveryEvent, SendFailure};
use simba::core::mab::{MabEvent, MyAlertBuddy};
use simba::core::{
    Address, AddressBook, Classifier, CommType, DeliveryCommand, DeliveryMode, IncomingAlert,
    KeywordField, MabCommand, MabConfig, RejuvenationPolicy, SubscriptionRegistry, Telemetry,
    ShardLog, UserId,
};
use simba::net::im::{ImHandle, ImService};
use simba::net::{LatencyModel, LossModel};
use simba::sim::{SimDuration, SimRng, SimTime};
use simba::telemetry::RingBufferSink;
use std::sync::Arc;

fn config() -> MabConfig {
    let mut classifier = Classifier::new();
    classifier.accept_source("aladdin-gw", KeywordField::Body, "det");
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

/// Runs one seeded scenario spanning the core pipeline and the IM channel
/// model, all recording into a single shared sink. Returns the serialized
/// event stream plus the metrics snapshot.
fn run_scenario(seed: u64, alerts: u64) -> (Vec<String>, String) {
    let sink = Arc::new(RingBufferSink::new(8_192));
    let telemetry = Telemetry::with_sink(sink.clone());
    let mut rng = SimRng::new(seed);

    // Channel layer: a lossy IM service carrying chatter alongside.
    let mut im = ImService::new(rng.fork(1))
        .with_latency(LatencyModel::consumer_im())
        .with_loss(LossModel::Bernoulli(0.2))
        .with_telemetry(telemetry.clone());
    let mab_handle = ImHandle::new("mab");
    let alice = ImHandle::new("alice");
    im.register(mab_handle.clone());
    im.register(alice.clone());
    im.logon(&mab_handle, SimTime::ZERO).unwrap();
    im.logon(&alice, SimTime::ZERO).unwrap();

    // Core pipeline: log → ack → classify → route → deliver.
    let mut log = ShardLog::in_memory();
    let mut mab = MyAlertBuddy::new(config(), UserId::new("alice"))
        .with_telemetry(telemetry.clone());

    let first_send = |cmds: &[MabCommand]| {
        cmds.iter().find_map(|c| match c {
            MabCommand::Channel {
                delivery,
                command: DeliveryCommand::Send { attempt, .. },
                ..
            } => Some((*delivery, *attempt)),
            _ => None,
        })
    };

    for i in 0..alerts {
        let at = SimTime::from_secs(10 + i * 120);
        let body = format!("Basement Sensor {i} ON");
        if let Ok(transit) = im.send(&mab_handle, &alice, body.clone(), at) {
            if !transit.lost {
                im.deliver(transit.message, at + transit.delay);
            }
        }
        let cmds = mab.handle(
            &mut log,
            MabEvent::AlertByIm(IncomingAlert::from_im("aladdin-gw", body, at)),
            at,
        );
        let Some((id, attempt)) = first_send(&cmds) else {
            continue;
        };
        if rng.chance(0.3) {
            mab.handle(
                &mut log,
                MabEvent::Delivery {
                    id,
                    event: DeliveryEvent::SendFailed {
                        attempt,
                        failure: SendFailure::ChannelDown,
                    },
                },
                at + SimDuration::from_secs(1),
            );
        } else {
            let accepted_at = at + SimDuration::from_secs(1);
            mab.handle(
                &mut log,
                MabEvent::Delivery { id, event: DeliveryEvent::SendAccepted { attempt } },
                accepted_at,
            );
            mab.handle(
                &mut log,
                MabEvent::Delivery { id, event: DeliveryEvent::Acked { attempt } },
                accepted_at + SimDuration::from_secs(rng.range(2, 50)),
            );
        }
    }

    let events = sink.events().iter().map(|e| e.to_json_line()).collect();
    (events, telemetry.metrics().snapshot().to_json())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn same_seed_produces_identical_event_stream(seed in 0u64..1_000_000, alerts in 1u64..8) {
        let (events_a, metrics_a) = run_scenario(seed, alerts);
        let (events_b, metrics_b) = run_scenario(seed, alerts);
        prop_assert!(!events_a.is_empty());
        prop_assert_eq!(events_a, events_b);
        prop_assert_eq!(metrics_a, metrics_b);
    }

    #[test]
    fn events_are_ordered_by_virtual_time_per_alert(seed in 0u64..1_000_000) {
        // Within one run, mab.received for alert i always precedes any
        // event of alert i+1 — the stream is a faithful trace of virtual
        // time, not of host scheduling.
        let (events, _) = run_scenario(seed, 5);
        let received: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.contains("\"name\":\"mab.received\""))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(received.len(), 5);
        for pair in received.windows(2) {
            prop_assert!(pair[0] < pair[1]);
        }
    }
}

#[test]
fn instrumented_and_plain_runs_behave_identically() {
    let (mut plain_log, mut observed_log) = (ShardLog::in_memory(), ShardLog::in_memory());
    let mut plain = MyAlertBuddy::new(config(), UserId::new("alice"));
    let sink = Arc::new(RingBufferSink::new(256));
    let mut observed = MyAlertBuddy::new(config(), UserId::new("alice"))
        .with_telemetry(Telemetry::with_sink(sink));
    for i in 0..4u64 {
        let at = SimTime::from_secs(10 + i * 60);
        let alert = IncomingAlert::from_im("aladdin-gw", format!("Sensor {i} ON"), at);
        let a = plain.handle(&mut plain_log, MabEvent::AlertByIm(alert.clone()), at);
        let b = observed.handle(&mut observed_log, MabEvent::AlertByIm(alert), at);
        assert_eq!(a, b);
    }
    assert_eq!(plain.stats(), observed.stats());
}
