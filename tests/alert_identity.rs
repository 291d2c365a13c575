//! Property test of alert identity (DESIGN.md §6): **an alert's identity
//! is its log record id.** One MyAlertBuddy runs over a shard log that
//! outlives it, through random runs of alerts, crashes on a failed
//! processed-mark (a new incarnation recovers), remote rejuvenations and
//! drop-and-rebuild while idle (what the host's hibernation does), while
//! the clock crosses a subscriber's delivery window — also between a
//! crash and its replay. Over the whole run, no two distinct deliveries
//! ever share a `(delivery id, channel)` — the ledger's idempotency key,
//! less the user — and a replayed record reissues, to each subscriber,
//! the id of its first routing.

use proptest::prelude::*;
use simba::core::address::{Address, AddressBook, CommType};
use simba::core::alert::{AlertId, IncomingAlert};
use simba::core::classify::{Classifier, KeywordField};
use simba::core::delivery::{DeliveryCommand, DeliveryEvent};
use simba::core::mab::{DeliveryId, MabCommand, MabConfig, MabEvent, MyAlertBuddy};
use simba::core::mode::DeliveryMode;
use simba::core::rejuvenate::RejuvenationPolicy;
use simba::core::shardlog::{ShardLog, ShardLogConfig, SharedShardLog, UserShardWal};
use simba::core::subscription::{SubscriptionRegistry, TimeWindow, UserId};
use simba::ledger::{DeliveryLedger, LedgerConfig};
use simba::sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone, Copy)]
enum Step {
    /// An ordinary alert.
    Alert,
    /// An alert whose processed-mark fails: the buddy crashes after
    /// routing it, and a new incarnation recovers this many minutes
    /// later.
    MarkFailure(u64),
    /// A remote rejuvenation command; a new incarnation takes over.
    Rejuvenate,
    /// The buddy is idle, is dropped, and a new one is built.
    Rebuild,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => Just(Step::Alert),
        1 => (0u64..180).prop_map(Step::MarkFailure),
        1 => Just(Step::Rejuvenate),
        1 => Just(Step::Rebuild),
    ]
}

fn owner() -> UserId {
    UserId::new("alice")
}

/// Alice's buddy: "Sensor" alerts are `Home`, to which alice and bob
/// both subscribe (IM first, email after a minute). Alice subscribed
/// first, but only from 09:00 to 17:00, so outside those hours bob is an
/// alert's only subscriber.
fn config() -> MabConfig {
    let mut classifier = Classifier::new();
    classifier.accept_source("aladdin-gw", KeywordField::Body, "cfg");
    classifier.map_keyword("Sensor", "Home");
    let mut registry = SubscriptionRegistry::new();
    for name in ["alice", "bob"] {
        let user = UserId::new(name);
        let profile = registry.register_user(user.clone());
        let mut book = AddressBook::new();
        book.add(Address::new("IM", CommType::Im, format!("im:{name}")))
            .unwrap();
        book.add(Address::new("EM", CommType::Email, format!("{name}@mail")))
            .unwrap();
        profile.address_book = book;
        profile.define_mode(DeliveryMode::im_then_email(
            "Urgent",
            "IM",
            "EM",
            SimDuration::from_secs(60),
        ));
        registry.subscribe("Home", user, "Urgent").unwrap();
    }
    let office_hours = TimeWindow { start_min: 9 * 60, end_min: 17 * 60 };
    registry.set_window("Home", &owner(), Some(office_hours));
    MabConfig {
        classifier,
        registry,
        rejuvenation: RejuvenationPolicy::default(),
    }
}

fn incarnation(log: &SharedShardLog) -> MyAlertBuddy {
    MyAlertBuddy::new(config(), UserShardWal::new(Arc::clone(log), owner()))
}

/// One send: the delivery, its subscriber, the channel, the alert it
/// names and the address it goes to.
type Send = (DeliveryId, UserId, CommType, AlertId, String);

/// Every send in `cmds`.
fn sends(cmds: &[MabCommand]) -> Vec<Send> {
    cmds.iter()
        .filter_map(|c| match c {
            MabCommand::Channel {
                delivery,
                user,
                command:
                    DeliveryCommand::Send {
                        comm_type,
                        alert,
                        address_value,
                        ..
                    },
            } => Some((
                *delivery,
                user.clone(),
                *comm_type,
                *alert,
                address_value.to_string(),
            )),
            _ => None,
        })
        .collect()
}

/// The log record an alert's ack names.
fn acked_record(cmds: &[MabCommand]) -> Option<u64> {
    cmds.iter().find_map(|c| match c {
        MabCommand::AckIm { wal_id, .. } => Some(*wal_id),
        _ => None,
    })
}

/// Every `(delivery, channel)` ever sent with the record and subscriber
/// it delivered to, and every record's delivery id per subscriber.
#[derive(Default)]
struct Issued {
    by_key: HashMap<(DeliveryId, CommType), (u64, UserId)>,
    by_subscriber: HashMap<(u64, UserId), DeliveryId>,
}

impl Issued {
    /// Notes `cmds`' sends as deliveries of `record`; panics when a key
    /// was already another record's or another subscriber's, when a
    /// subscriber's delivery of `record` changed id, or when a send names
    /// another alert.
    fn note(&mut self, record: u64, cmds: &[MabCommand]) {
        for (delivery, user, channel, alert, _) in sends(cmds) {
            prop_assert_eq!(alert, AlertId(record), "a send names its record's alert");
            let first = self
                .by_key
                .entry((delivery, channel))
                .or_insert_with(|| (record, user.clone()));
            prop_assert_eq!(
                first,
                &(record, user.clone()),
                "{:?} on {:?} delivers twice",
                delivery,
                channel
            );
            let id = *self.by_subscriber.entry((record, user)).or_insert(delivery);
            prop_assert_eq!(id, delivery, "a replay reissues its first routing's id");
        }
    }
}

/// Acks every send in `cmds` and retires the finished deliveries, so the
/// buddy holds nothing in flight.
fn settle(buddy: &mut MyAlertBuddy, cmds: &[MabCommand], now: SimTime) {
    for cmd in cmds {
        if let MabCommand::Channel {
            delivery,
            command: DeliveryCommand::Send { attempt, .. },
            ..
        } = cmd
        {
            let event = DeliveryEvent::Acked { attempt: *attempt };
            buddy.handle(
                MabEvent::Delivery {
                    id: *delivery,
                    event,
                },
                now,
            );
        }
    }
    buddy.retire_terminal(now, &mut Vec::new());
}

fn check_identity(steps: &[(Step, u64)]) {
    let log: SharedShardLog = Arc::new(Mutex::new(
        ShardLog::open(ShardLogConfig::in_memory()).unwrap(),
    ));
    let mut now = SimTime::from_hours(8);
    let mut buddy = incarnation(&log);
    let mut issued = Issued::default();
    for (i, (step, gap_min)) in steps.iter().enumerate() {
        now += SimDuration::from_mins(*gap_min);
        let sensor = MabEvent::AlertByIm(IncomingAlert::from_im(
            "aladdin-gw",
            format!("Sensor {i} ON"),
            now,
        ));
        match step {
            Step::Alert => {
                let cmds = buddy.handle(sensor, now);
                let record = acked_record(&cmds).expect("an IM alert is acked");
                issued.note(record, &cmds);
                let subscribers = config().registry.active_subscriptions("Home", now).len();
                prop_assert_eq!(sends(&cmds).len(), subscribers, "one send per subscriber");
                settle(&mut buddy, &cmds, now);
            }
            Step::MarkFailure(replay_after_min) => {
                log.lock().unwrap().inject_mark_failure(&owner());
                let cmds = buddy.handle(sensor, now);
                prop_assert!(buddy.is_crashed());
                let record = acked_record(&cmds).expect("acked before the mark failed");
                issued.note(record, &cmds);
                now += SimDuration::from_mins(*replay_after_min);
                buddy = incarnation(&log);
                let replay = buddy.recover(now);
                issued.note(record, &replay);
                settle(&mut buddy, &replay, now);
            }
            Step::Rejuvenate => {
                let command = IncomingAlert::from_im("aladdin-gw", "SIMBA-REJUVENATE", now);
                let cmds = buddy.handle(MabEvent::AlertByIm(command), now);
                prop_assert!(cmds.iter().any(|c| matches!(c, MabCommand::Rejuvenate(_))));
                prop_assert!(sends(&cmds).is_empty());
                buddy = incarnation(&log);
                prop_assert!(
                    buddy.recover(now).is_empty(),
                    "the command was marked before the restart"
                );
            }
            Step::Rebuild => {
                prop_assert!(buddy.is_idle());
                buddy = incarnation(&log);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn distinct_deliveries_never_share_a_delivery_key(
        steps in proptest::collection::vec((arb_step(), 0u64..240), 1..40)
    ) {
        check_identity(&steps);
    }
}

/// Regression: a delivery's position was its index among the
/// subscriptions active at routing time. Alice's window opens between a
/// crash at 08:59 and its replay at 09:01: bob, alone at first routing,
/// was position 0, which the replay gave to alice — her delivery took
/// bob's idempotency key and the ledger merged it into his record, so she
/// was never sent the alert. Through a real ledger, each subscriber's
/// delivery is one record.
#[test]
fn a_replay_across_a_window_boundary_reaches_each_subscriber_once() {
    let log: SharedShardLog = Arc::new(Mutex::new(
        ShardLog::open(ShardLogConfig::in_memory()).unwrap(),
    ));
    let mut ledger = DeliveryLedger::open(LedgerConfig::in_memory()).unwrap();
    let mut hand_off = |cmds: &[MabCommand], now| {
        for (delivery, _, channel, _, address) in sends(cmds) {
            ledger.enqueue(&owner(), delivery.0, channel, &address, "Sensor ON", now);
        }
    };
    let before = SimTime::from_hours(8) + SimDuration::from_mins(59);
    let after = SimTime::from_hours(9) + SimDuration::from_mins(1);

    let mut buddy = incarnation(&log);
    log.lock().unwrap().inject_mark_failure(&owner());
    let alert = IncomingAlert::from_im("aladdin-gw", "Sensor ON", before);
    let cmds = buddy.handle(MabEvent::AlertByIm(alert), before);
    assert!(buddy.is_crashed());
    hand_off(&cmds, before);
    let replay = incarnation(&log).recover(after);
    hand_off(&replay, after);

    let mut addresses: Vec<String> = ledger.records().map(|r| r.address.to_string()).collect();
    addresses.sort();
    assert_eq!(addresses, ["im:alice", "im:bob"]);
}
