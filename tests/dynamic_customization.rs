//! The §3.3 story, end to end: "the ideal model from a user's perspective
//! would be to map each personal alert category to a delivery mechanism at
//! a central, personalized site."
//!
//! Alice aggregates stock alerts from Yahoo!, WSJ, and CBS MarketWatch
//! into one personal "Investment" category, then — with single MyAlertBuddy
//! updates, never touching the three services — switches its delivery
//! mode, disables her SMS address while abroad, and mutes the category
//! during the night.

use simba::core::address::{Address, AddressBook, CommType};
use simba::core::alert::IncomingAlert;
use simba::core::classify::{Classifier, KeywordField};
use simba::core::delivery::DeliveryCommand;
use simba::core::mab::{MabCommand, MabConfig, MabEvent, MyAlertBuddy};
use simba::core::mode::{Block, DeliveryMode};
use simba::core::shardlog::UserShardWal;
use simba::core::subscription::{SubscriptionRegistry, TimeWindow, UserId};
use simba::sim::{SimDuration, SimTime};

fn buddy() -> MyAlertBuddy {
    let mut classifier = Classifier::new();
    // Three independent services; Yahoo!/CBS put keywords in the sender
    // name, WSJ in the subject — per-source rules as in §4.2.
    classifier.accept_source("alerts@yahoo", KeywordField::SenderName, "alerts.yahoo.com");
    classifier.accept_source("alerts@wsj", KeywordField::Subject, "wsj.com/alerts");
    classifier.accept_source("alerts@cbs-mw", KeywordField::SenderName, "cbs.marketwatch.com");
    // Aggregation: three native vocabularies → one personal category.
    classifier.map_keyword("Stocks", "Investment");
    classifier.map_keyword("Financial news", "Investment");
    classifier.map_keyword("Earnings reports", "Investment");

    let mut registry = SubscriptionRegistry::new();
    let alice = UserId::new("alice");
    let profile = registry.register_user(alice.clone());
    let mut book = AddressBook::new();
    book.add(Address::new("IM", CommType::Im, "im:alice")).expect("fresh");
    book.add(Address::new("SMS", CommType::Sms, "+1-555-0100")).expect("fresh");
    book.add(Address::new("EM", CommType::Email, "alice@work")).expect("fresh");
    profile.address_book = book;
    profile.define_mode(
        DeliveryMode::new(
            "SmsFirst",
            vec![
                Block::acked(vec!["SMS".into()], SimDuration::from_secs(120)),
                Block::fire_and_forget(vec!["EM".into()]),
            ],
        )
        .expect("static"),
    );
    profile.define_mode(DeliveryMode::im_then_email("ImFirst", "IM", "EM", SimDuration::from_secs(60)));
    registry.subscribe("Investment", alice, "SmsFirst").expect("valid");

    MyAlertBuddy::new(
        MabConfig {
            classifier,
            registry,
            rejuvenation: simba::core::rejuvenate::RejuvenationPolicy::default(),
        },
        UserShardWal::in_memory(UserId::new("alice")),
    )
}

/// The three services emit their native alerts.
fn service_alerts(at: SimTime) -> [IncomingAlert; 3] {
    [
        IncomingAlert::from_email("alerts@yahoo", "Yahoo! Stocks", "MSFT 80", "b", at),
        IncomingAlert::from_email("alerts@wsj", "WSJ", "Financial news flash", "b", at),
        IncomingAlert::from_email("alerts@cbs-mw", "CBS Earnings reports", "Q4", "b", at),
    ]
}

fn first_send_channel(commands: &[MabCommand]) -> Option<CommType> {
    commands.iter().find_map(|c| match c {
        MabCommand::Channel { command: DeliveryCommand::Send { comm_type, .. }, .. } => Some(*comm_type),
        _ => None,
    })
}

#[test]
fn aggregation_joins_three_services_into_one_category() {
    let mut mab = buddy();
    for (i, alert) in service_alerts(SimTime::from_secs(10)).into_iter().enumerate() {
        let cmds = mab.handle(MabEvent::AlertByEmail(alert), SimTime::from_secs(10 + i as u64));
        // All three route via the Investment subscription: SMS first.
        assert_eq!(first_send_channel(&cmds), Some(CommType::Sms), "service {i}");
    }
    assert_eq!(mab.stats().routed, 3);
}

#[test]
fn one_mode_switch_redirects_all_three_services() {
    let mut mab = buddy();
    // "She would like to temporarily switch the delivery mechanism for all
    // 'Investment' alerts from SMS to IM" — one update, not three.
    mab.config_mut()
        .registry
        .set_mode("Investment", &UserId::new("alice"), "ImFirst")
        .expect("mode exists");
    for alert in service_alerts(SimTime::from_secs(100)) {
        let cmds = mab.handle(MabEvent::AlertByEmail(alert), SimTime::from_secs(100));
        assert_eq!(first_send_channel(&cmds), Some(CommType::Im));
    }
}

#[test]
fn disabling_the_sms_address_falls_back_automatically() {
    let mut mab = buddy();
    // "When the user travels to an area where her cell phone doesn't work
    // ... she only needs to ask MyAlertBuddy to temporarily disable her
    // SMS address. Any delivery block that contains an SMS action will
    // automatically fail and fall back to the next backup block."
    mab.config_mut()
        .registry
        .user_mut(&UserId::new("alice"))
        .expect("alice")
        .address_book
        .set_enabled("SMS", false);
    let [alert, ..] = service_alerts(SimTime::from_secs(200));
    let cmds = mab.handle(MabEvent::AlertByEmail(alert), SimTime::from_secs(200));
    // Block 1 (SMS) is skipped entirely; block 2 (email) fires at once.
    assert_eq!(first_send_channel(&cmds), Some(CommType::Email));
}

#[test]
fn quiet_hours_suppress_the_category() {
    let mut mab = buddy();
    // "She may need to disable these alerts during certain hours to avoid
    // distractions" — a 09:00–17:00 window.
    mab.config_mut().registry.set_window(
        "Investment",
        &UserId::new("alice"),
        Some(TimeWindow { start_min: 9 * 60, end_min: 17 * 60 }),
    );
    let night = SimTime::from_hours(23);
    let [alert, ..] = service_alerts(night);
    let cmds = mab.handle(MabEvent::AlertByEmail(alert), night);
    assert_eq!(first_send_channel(&cmds), None, "night alert must not route");
    assert_eq!(mab.stats().unsubscribed, 1);

    let noon = SimTime::from_days(1) + SimDuration::from_hours(12);
    let [alert, ..] = service_alerts(noon);
    let cmds = mab.handle(MabEvent::AlertByEmail(alert), noon);
    assert_eq!(first_send_channel(&cmds), Some(CommType::Sms));
}

#[test]
fn whole_configuration_survives_xml_round_trip() {
    let mab = buddy();
    let xml = simba::core::registry_to_xml(&mab.config().registry);
    let restored = simba::core::registry_from_xml(&xml).expect("own output parses");
    // The restored registry routes identically.
    let mut mab2 = MyAlertBuddy::new(
        MabConfig {
            classifier: mab.config().classifier.clone(),
            registry: restored,
            rejuvenation: simba::core::rejuvenate::RejuvenationPolicy::default(),
        },
        UserShardWal::in_memory(UserId::new("alice")),
    );
    let [alert, ..] = service_alerts(SimTime::from_secs(10));
    let cmds = mab2.handle(MabEvent::AlertByEmail(alert), SimTime::from_secs(10));
    assert_eq!(first_send_channel(&cmds), Some(CommType::Sms));
}
