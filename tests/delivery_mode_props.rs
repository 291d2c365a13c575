//! Property tests of the delivery-layer semantics (DESIGN.md §6):
//!
//! * disabled addresses never fire;
//! * a block that acks stops the escalation — later blocks never fire;
//! * if every action of every block fails synchronously, the process
//!   exhausts after firing each enabled action exactly once;
//! * XML round-trips for arbitrary valid modes and address books.

use proptest::prelude::*;
use simba::core::address::{Address, AddressBook, CommType};
use simba::core::alert::{Alert, AlertId, Urgency};
use simba::core::delivery::{
    DeliveryCommand, DeliveryEvent, DeliveryProcess, DeliveryStatus, SendFailure,
};
use simba::core::mode::{Block, DeliveryMode};
use simba::sim::{SimDuration, SimTime};

const ADDRESS_POOL: [(&str, CommType); 5] = [
    ("IM-1", CommType::Im),
    ("IM-2", CommType::Im),
    ("SMS-1", CommType::Sms),
    ("EM-1", CommType::Email),
    ("EM-2", CommType::Email),
];

fn arb_book() -> impl Strategy<Value = AddressBook> {
    proptest::collection::vec(any::<bool>(), ADDRESS_POOL.len()).prop_map(|enabled_flags| {
        let mut book = AddressBook::new();
        for ((name, ty), enabled) in ADDRESS_POOL.iter().zip(enabled_flags) {
            let mut addr = Address::new(*name, *ty, format!("val:{name}"));
            addr.enabled = enabled;
            book.add(addr).expect("unique pool names");
        }
        book
    })
}

fn arb_mode() -> impl Strategy<Value = DeliveryMode> {
    let action = proptest::sample::select(
        ADDRESS_POOL.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>(),
    );
    let block = (
        proptest::collection::vec(action, 1..4),
        proptest::option::of(1u64..300),
    )
        .prop_map(|(actions, ack)| match ack {
            Some(secs) => Block::acked(actions, SimDuration::from_secs(secs)),
            None => Block::fire_and_forget(actions),
        });
    proptest::collection::vec(block, 1..4)
        .prop_map(|blocks| DeliveryMode::new("prop-mode", blocks).expect("non-empty blocks"))
}

fn alert() -> Alert {
    Alert {
        id: AlertId(1),
        source: "src".into(),
        category: "Cat".into(),
        text: "text".into(),
        origin_timestamp: SimTime::ZERO,
        received_at: SimTime::ZERO,
        urgency: Urgency::Normal,
    }
}

/// Drives a process to completion, failing every send. Returns the names
/// of all addresses that were actually fired.
fn fail_everything(mode: &DeliveryMode, book: &AddressBook) -> (Vec<String>, DeliveryStatus) {
    let (mut p, mut cmds) = DeliveryProcess::start(alert(), mode.clone(), book, SimTime::ZERO);
    let mut fired = Vec::new();
    let mut guard = 0;
    while !cmds.is_empty() {
        guard += 1;
        assert!(guard < 100, "runaway command loop");
        let mut next = Vec::new();
        for c in cmds {
            if let DeliveryCommand::Send { attempt, address_name, .. } = c {
                fired.push(address_name.to_string());
                next.extend(p.handle(
                    DeliveryEvent::SendFailed { attempt, failure: SendFailure::ChannelDown },
                    book,
                    SimTime::from_secs(1),
                ));
            }
        }
        cmds = next;
    }
    (fired, p.status())
}

proptest! {
    #[test]
    fn disabled_addresses_never_fire(mode in arb_mode(), book in arb_book()) {
        let (fired, _) = fail_everything(&mode, &book);
        for name in &fired {
            let addr = book.get(name).expect("pool address");
            prop_assert!(addr.enabled, "disabled address {name} fired");
        }
    }

    #[test]
    fn all_failures_exhaust_after_firing_each_enabled_action_once(
        mode in arb_mode(),
        book in arb_book(),
    ) {
        let (fired, status) = fail_everything(&mode, &book);
        prop_assert!(matches!(status, DeliveryStatus::Exhausted { .. }), "status {status:?}");
        // Expected: per block, each enabled action fires exactly once.
        let mut expected = Vec::new();
        for block in mode.blocks() {
            for action in &block.actions {
                if book.get(action).is_some_and(|a| a.enabled) {
                    expected.push(action.clone());
                }
            }
        }
        prop_assert_eq!(fired, expected);
    }

    #[test]
    fn ack_on_first_block_stops_escalation(mode in arb_mode(), book in arb_book()) {
        let (mut p, cmds) = DeliveryProcess::start(alert(), mode.clone(), &book, SimTime::ZERO);
        let Some(DeliveryCommand::Send { attempt, .. }) =
            cmds.iter().find(|c| matches!(c, DeliveryCommand::Send { .. }))
        else {
            return Ok(()); // everything disabled: nothing to ack
        };
        let before = p.attempts().len();
        p.handle(DeliveryEvent::SendAccepted { attempt: *attempt }, &book, SimTime::from_secs(1));
        let follow = p.handle(DeliveryEvent::Acked { attempt: *attempt }, &book, SimTime::from_secs(2));
        // An ack is terminal: no later blocks, no new attempts.
        let acked = matches!(p.status(), DeliveryStatus::Acked { .. });
        prop_assert!(acked);
        prop_assert!(follow.is_empty());
        prop_assert_eq!(p.attempts().len(), before, "no new attempts after ack");
    }

    #[test]
    fn mode_xml_roundtrip(mode in arb_mode()) {
        let xml = mode.to_xml();
        prop_assert_eq!(DeliveryMode::from_xml(&xml).expect("own output parses"), mode);
    }

    #[test]
    fn book_xml_roundtrip(book in arb_book()) {
        let xml = book.to_xml();
        prop_assert_eq!(AddressBook::from_xml(&xml).expect("own output parses"), book);
    }
}
