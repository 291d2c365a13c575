//! Quickstart: configure a MyAlertBuddy from XML documents, push an alert
//! through it, and watch the delivery-mode fallback kick in when an
//! address is disabled.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use simba::core::address::AddressBook;
use simba::core::alert::IncomingAlert;
use simba::core::classify::{Classifier, KeywordField};
use simba::core::delivery::{DeliveryCommand, DeliveryEvent, SendFailure};
use simba::core::mab::{MabCommand, MabConfig, MabEvent, MyAlertBuddy};
use simba::core::mode::DeliveryMode;
use simba::core::shardlog::ShardLog;
use simba::core::subscription::{SubscriptionRegistry, UserId};
use simba::sim::SimTime;

fn main() {
    // 1. The user's addresses and delivery mode, as the §4.1 XML documents.
    let book = AddressBook::from_xml(
        r#"<Addresses>
             <Address name="MSN IM"     type="IM"  value="im:alice"/>
             <Address name="Cell SMS"   type="SMS" value="+1-555-0100"/>
             <Address name="Work email" type="EM"  value="alice@work"/>
           </Addresses>"#,
    )
    .expect("valid address book");
    let urgent = DeliveryMode::from_xml(
        r#"<DeliveryMode name="Urgent">
             <Block ackTimeoutSecs="60">
               <Action address="MSN IM"/>
             </Block>
             <Block>
               <Action address="Work email"/>
             </Block>
           </DeliveryMode>"#,
    )
    .expect("valid delivery mode");
    println!("parsed delivery mode:\n{}", urgent.to_xml());

    // 2. Classifier: accept the home gateway, map sensor alerts to a
    //    personal category.
    let mut classifier = Classifier::new();
    classifier.accept_source("aladdin-gw", KeywordField::Body, "home gateway config page");
    classifier.map_keyword("Sensor", "Home.Security");

    // 3. Subscription: alice gets Home.Security alerts via "Urgent".
    let mut registry = SubscriptionRegistry::new();
    let alice = UserId::new("alice");
    let profile = registry.register_user(alice.clone());
    profile.address_book = book;
    profile.define_mode(urgent);
    registry
        .subscribe("Home.Security", alice.clone(), "Urgent")
        .expect("alice and Urgent exist");

    // 4. Launch the buddy and push an alert through it, lending it a log
    //    (a host's shard worker owns one per shard and lends it the same way).
    let config = MabConfig {
        classifier,
        registry,
        rejuvenation: simba::core::rejuvenate::RejuvenationPolicy::default(),
    };
    let mut log = ShardLog::in_memory();
    let mut mab = MyAlertBuddy::new(config, alice);
    let alert = IncomingAlert::from_im("aladdin-gw", "Basement Water Sensor ON", SimTime::from_secs(5));
    let commands = mab.handle(&mut log, MabEvent::AlertByIm(alert), SimTime::from_secs(5));

    println!("pipeline commands for the incoming alert:");
    let mut first_attempt = None;
    let mut delivery = None;
    for c in &commands {
        match c {
            MabCommand::AckIm { to, .. } => println!("  → ack IM back to {to}"),
            MabCommand::Channel { command: DeliveryCommand::Send { comm_type, address_name, attempt, .. }, delivery: d, .. } => {
                println!("  → send over {comm_type} via {address_name:?}");
                first_attempt.get_or_insert(*attempt);
                delivery.get_or_insert(*d);
            }
            MabCommand::Channel { command: DeliveryCommand::StartTimer { after, .. }, .. } => {
                println!("  → start {after} ack timer");
            }
            MabCommand::Rejuvenate(t) => println!("  → rejuvenate ({t})"),
            MabCommand::Finished { status, .. } => println!("  → finished: {status:?}"),
        }
    }

    // 5. Simulate: the IM send fails (alice's IM is unreachable) — the
    //    delivery mode falls back to email automatically.
    let (id, attempt) = (delivery.expect("routed"), first_attempt.expect("sent"));
    let fallback = mab.handle(
        &mut log,
        MabEvent::Delivery {
            id,
            event: DeliveryEvent::SendFailed { attempt, failure: SendFailure::RecipientUnreachable },
        },
        SimTime::from_secs(6),
    );
    println!("after the IM failed synchronously:");
    for c in &fallback {
        if let MabCommand::Channel { command: DeliveryCommand::Send { comm_type, address_name, .. }, .. } = c {
            println!("  → fallback send over {comm_type} via {address_name:?}");
        }
    }
    println!("delivery status: {:?}", mab.delivery_status(id).expect("tracked"));
    println!("stats: {:?}", mab.stats());
}
