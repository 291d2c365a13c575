//! §4.2: "Although MyAlertBuddy provides primarily a personalized service,
//! it supports multiple subscribers per category to allow alert sharing."
//!
//! A household's MyAlertBuddy routes one home-security alert to both
//! parents — each with their *own* delivery mode and address book — and
//! each delivery proceeds independently.

use simba::core::address::{Address, AddressBook, CommType};
use simba::core::alert::IncomingAlert;
use simba::core::classify::{Classifier, KeywordField};
use simba::core::delivery::{DeliveryCommand, DeliveryEvent, DeliveryStatus, SendFailure};
use simba::core::mab::{DeliveryId, MabCommand, MabConfig, MabEvent, MyAlertBuddy};
use simba::core::mode::DeliveryMode;
use simba::core::shardlog::ShardLog;
use simba::core::subscription::{SubscriptionRegistry, UserId};
use simba::sim::{SimDuration, SimTime};

fn household() -> MyAlertBuddy {
    let mut classifier = Classifier::new();
    classifier.accept_source("aladdin-gw", KeywordField::Body, "cfg");
    classifier.map_keyword("Sensor", "Home.Security");

    let mut registry = SubscriptionRegistry::new();
    for (name, im, email) in [
        ("alice", "im:alice", "alice@work"),
        ("bob", "im:bob", "bob@office"),
    ] {
        let user = UserId::new(name);
        let profile = registry.register_user(user.clone());
        let mut book = AddressBook::new();
        book.add(Address::new("IM", CommType::Im, im)).expect("fresh");
        book.add(Address::new("EM", CommType::Email, email)).expect("fresh");
        profile.address_book = book;
        profile.define_mode(DeliveryMode::im_then_email(
            "Mine",
            "IM",
            "EM",
            SimDuration::from_secs(if name == "alice" { 30 } else { 90 }),
        ));
        registry.subscribe("Home.Security", user, "Mine").expect("valid");
    }

    MyAlertBuddy::new(
        MabConfig {
            classifier,
            registry,
            rejuvenation: simba::core::rejuvenate::RejuvenationPolicy::default(),
        },
        UserId::new("household"),
    )
}

/// Collects `(delivery, user, attempt, address_value)` from send commands.
fn sends(commands: &[MabCommand]) -> Vec<(DeliveryId, String, simba::core::delivery::AttemptId, String)> {
    commands
        .iter()
        .filter_map(|c| match c {
            MabCommand::Channel {
                delivery,
                user,
                command: DeliveryCommand::Send { attempt, address_value, .. },
            } => Some((*delivery, user.0.to_string(), *attempt, address_value.to_string())),
            _ => None,
        })
        .collect()
}

#[test]
fn one_alert_fans_out_to_every_subscriber() {
    let (mut mab, mut log) = (household(), ShardLog::in_memory());
    let alert = IncomingAlert::from_im("aladdin-gw", "Basement Water Sensor ON", SimTime::from_secs(5));
    let commands = mab.handle(&mut log, MabEvent::AlertByIm(alert), SimTime::from_secs(5));

    let out = sends(&commands);
    assert_eq!(out.len(), 2, "one IM per subscriber");
    let users: Vec<&str> = out.iter().map(|(_, u, _, _)| u.as_str()).collect();
    assert!(users.contains(&"alice") && users.contains(&"bob"));
    // Each delivery goes to the subscriber's own address.
    for (_, user, _, addr) in &out {
        assert_eq!(addr, &format!("im:{user}"));
    }
    assert_eq!(mab.stats().deliveries_started, 2);
    assert_eq!(mab.stats().routed, 1, "one alert, shared");
}

#[test]
fn sharers_deliveries_are_independent() {
    let (mut mab, mut log) = (household(), ShardLog::in_memory());
    let alert = IncomingAlert::from_im("aladdin-gw", "Garage Door Sensor ON", SimTime::from_secs(1));
    let commands = mab.handle(&mut log, MabEvent::AlertByIm(alert), SimTime::from_secs(1));
    let out = sends(&commands);

    let (alice_delivery, _, alice_attempt, _) =
        out.iter().find(|(_, u, _, _)| u == "alice").expect("alice routed").clone();
    let (bob_delivery, _, bob_attempt, _) =
        out.iter().find(|(_, u, _, _)| u == "bob").expect("bob routed").clone();

    // Alice acks her IM; bob's IM fails and falls back to email.
    mab.handle(
        &mut log,
        MabEvent::Delivery { id: alice_delivery, event: DeliveryEvent::SendAccepted { attempt: alice_attempt } },
        SimTime::from_secs(2),
    );
    mab.handle(
        &mut log,
        MabEvent::Delivery { id: alice_delivery, event: DeliveryEvent::Acked { attempt: alice_attempt } },
        SimTime::from_secs(3),
    );
    let fallback = mab.handle(
        &mut log,
        MabEvent::Delivery {
            id: bob_delivery,
            event: DeliveryEvent::SendFailed { attempt: bob_attempt, failure: SendFailure::RecipientUnreachable },
        },
        SimTime::from_secs(4),
    );

    assert!(matches!(
        mab.delivery_status(alice_delivery),
        Some(DeliveryStatus::Acked { block: 0, .. })
    ));
    assert!(matches!(
        mab.delivery_status(bob_delivery),
        Some(DeliveryStatus::InProgress)
    ));
    // Bob's fallback email targets bob's address, untouched by alice's ack.
    let fb = sends(&fallback);
    assert_eq!(fb.len(), 1);
    assert_eq!(fb[0].1, "bob");
    assert_eq!(fb[0].3, "bob@office");
}
