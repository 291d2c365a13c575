//! Property test of the §4.2.1 crash-safety invariant (DESIGN.md §6):
//! **an alert acknowledged by MyAlertBuddy is never lost**, for any crash
//! point and any interleaving of alerts and crashes. Duplicates are
//! possible but always timestamp-detectable.

use proptest::prelude::*;
use simba::core::alert::{Alert, AlertId, IncomingAlert, Urgency};
use simba::core::dedup::DuplicateDetector;
use simba::core::mab::{CrashPoint, MabCommand, MabEvent, MyAlertBuddy};
use simba::core::wal::{InMemoryWal, WriteAheadLog};
use simba::sim::SimTime;
use simba_bench::harness::standard_config;

fn arb_crash_point() -> impl Strategy<Value = Option<CrashPoint>> {
    prop_oneof![
        3 => Just(None),
        1 => Just(Some(CrashPoint::BeforeLog)),
        1 => Just(Some(CrashPoint::AfterLogBeforeAck)),
        1 => Just(Some(CrashPoint::AfterAckBeforeRoute)),
        1 => Just(Some(CrashPoint::AfterRouteBeforeMark)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn acked_alerts_are_never_lost(schedule in proptest::collection::vec(arb_crash_point(), 1..40)) {
        let config = standard_config();
        let mut mab = MyAlertBuddy::new(config.clone(), InMemoryWal::new(), SimTime::ZERO);
        let mut dedup = DuplicateDetector::daily();

        let mut acked: Vec<u64> = Vec::new();
        let mut delivered_fresh: Vec<u64> = Vec::new();

        for (i, crash) in schedule.iter().enumerate() {
            let i = i as u64;
            let now = SimTime::from_secs(100 + i * 60);
            if let Some(point) = crash {
                mab.inject_crash_at(*point);
            }
            let alert = IncomingAlert::from_im("aladdin-gw", format!("Sensor p{i} ON"), now);
            let commands = mab.handle(MabEvent::AlertByIm(alert), now);

            let mut routed = commands
                .iter()
                .filter(|c| matches!(c, MabCommand::Channel { .. }))
                .count() > 0;
            if commands.iter().any(|c| matches!(c, MabCommand::AckIm { .. })) {
                acked.push(i);
            }

            if mab.is_crashed() {
                // Restart over the same log; replay completes the pipeline.
                let wal = mab.into_wal();
                mab = MyAlertBuddy::new(config.clone(), wal, now);
                let recovery = mab.recover(now);
                routed |= recovery
                    .iter()
                    .any(|c| matches!(c, MabCommand::Channel { .. }));
            }

            if routed {
                // The user receives (possibly several copies of) the alert;
                // the dedup key is (source, category, origin timestamp).
                let user_view = Alert {
                    id: AlertId(i),
                    source: "aladdin-gw".into(),
                    category: "Home.Security".into(),
                    text: format!("Sensor p{i} ON").into(),
                    origin_timestamp: now,
                    received_at: now,
                    urgency: Urgency::Normal,
                };
                if dedup.observe(&user_view, now) {
                    delivered_fresh.push(i);
                }
            }
        }

        // THE invariant: every acked alert was delivered (exactly once,
        // post-dedup).
        for tag in &acked {
            prop_assert!(
                delivered_fresh.contains(tag),
                "alert {tag} was acked but never delivered (schedule: {schedule:?})"
            );
        }
        // And dedup means no alert is *seen* twice.
        let mut sorted = delivered_fresh.clone();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), delivered_fresh.len());
    }

    #[test]
    fn unacked_alerts_never_produce_surprise_deliveries_after_crash_before_log(
        n in 1u64..20
    ) {
        // Crash before the log on every alert: no acks, no log records, no
        // replays — the sender knows to fall back.
        let config = standard_config();
        let mut mab = MyAlertBuddy::new(config.clone(), InMemoryWal::new(), SimTime::ZERO);
        for i in 0..n {
            let now = SimTime::from_secs(100 + i * 60);
            mab.inject_crash_at(CrashPoint::BeforeLog);
            let commands = mab.handle(
                MabEvent::AlertByIm(IncomingAlert::from_im("aladdin-gw", "Sensor q ON", now)),
                now,
            );
            prop_assert!(commands.is_empty());
            let wal = mab.into_wal();
            prop_assert!(wal.unprocessed().is_empty());
            mab = MyAlertBuddy::new(config.clone(), wal, now);
            prop_assert!(mab.recover(now).is_empty());
        }
    }
}
