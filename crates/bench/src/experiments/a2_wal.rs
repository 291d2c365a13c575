//! A2 — pessimistic logging under crash injection.
//!
//! The §4.2.1 scenario: "after MyAlertBuddy receives and acknowledges an
//! IM alert and before it finishes processing the alert, MyAlertBuddy may
//! crash ... Since the sender has received the acknowledgement and will
//! not resend the alert, the alert would be lost." The log closes that
//! window; the residual cost is duplicates (crash after routing, before
//! the processed mark), which timestamp dedup discards at the user.
//!
//! This ablation drives MyAlertBuddy directly with crash points at every
//! pipeline stage and counts lost / duplicated / delivered alerts with the
//! log enabled vs disabled.

use crate::experiments::ExperimentOutput;
use crate::harness::standard_config;
use crate::report::Table;
use simba_core::alert::{Alert, AlertId, IncomingAlert, Urgency};
use simba_core::horizon::Horizon;
use simba_core::mab::{CrashPoint, MabCommand, MabEvent, MyAlertBuddy};
use simba_core::shardlog::ShardLog;
use simba_core::subscription::UserId;
use simba_sim::{SimDuration, SimRng, SimTime};

/// Alerts pushed through the buddy per arm.
pub const ALERTS: u64 = 5_000;

/// Probability an alert's processing is interrupted by a crash.
pub const CRASH_PROB: f64 = 0.08;

/// Result of one arm.
#[derive(Debug, Clone, Copy)]
pub struct A2Arm {
    /// Whether the log (and restart replay) was enabled.
    pub logging: bool,
    /// Alerts whose sender got an ack but the user never got the alert.
    pub acked_but_lost: u64,
    /// Duplicate deliveries discarded by the user's timestamp dedup.
    pub duplicates_discarded: u64,
    /// Alerts delivered to the user (post-dedup).
    pub delivered: u64,
    /// Crashes injected.
    pub crashes: u64,
}

fn routed_count(commands: &[MabCommand]) -> u64 {
    u64::from(commands.iter().any(|c| matches!(c, MabCommand::Channel { .. })))
}

fn run_arm(seed: u64, logging: bool) -> A2Arm {
    let mut rng = SimRng::new(seed ^ 0xA2);
    let config = standard_config();
    let alice = UserId::new("alice");
    let mut log = ShardLog::in_memory();
    let mut mab = MyAlertBuddy::new(config.clone(), alice.clone());
    let mut dedup = Horizon::new(SimDuration::from_hours(24), usize::MAX);

    let mut acked_without_delivery = 0u64;
    let mut delivered = 0u64;
    let mut crashes = 0u64;

    for i in 0..ALERTS {
        let now = SimTime::from_secs(10 + i * 30);
        let alert = IncomingAlert::from_im("aladdin-gw", format!("Sensor event {i} ON"), now);

        // Some alerts get a crash at a random pipeline stage.
        if rng.chance(CRASH_PROB) {
            let point = *rng
                .pick(&[
                    CrashPoint::BeforeLog,
                    CrashPoint::AfterLogBeforeAck,
                    CrashPoint::AfterAckBeforeRoute,
                    CrashPoint::AfterRouteBeforeMark,
                ])
                .expect("non-empty");
            mab.inject_crash_at(point);
        }

        let commands = mab.handle(&mut log, MabEvent::AlertByIm(alert.clone()), now);
        let acked = commands.iter().any(|c| matches!(c, MabCommand::AckIm { .. }));
        let mut routed = routed_count(&commands);

        if mab.is_crashed() {
            crashes += 1;
            // The MDC restarts the buddy. With logging, the new incarnation
            // replays unprocessed records; without, it starts blank.
            if !logging {
                log = ShardLog::in_memory();
            }
            mab = MyAlertBuddy::new(config.clone(), alice.clone());
            let recovery = mab.recover(&mut log, now);
            routed += routed_count(&recovery);
        }

        // User side: each routed copy is a delivery; dedup drops replays.
        let mut got_fresh = false;
        for _ in 0..routed {
            let delivered_alert = Alert {
                id: AlertId(i),
                source: "aladdin-gw".into(),
                category: "Home.Security".into(),
                text: alert.body.clone(),
                origin_timestamp: alert.origin_timestamp,
                received_at: now,
                urgency: Urgency::Critical,
            };
            if dedup.first_seen(delivered_alert.dedup_key(), now) {
                got_fresh = true;
            }
        }
        if got_fresh {
            delivered += 1;
        } else if acked {
            acked_without_delivery += 1;
        }
    }

    A2Arm {
        logging,
        acked_but_lost: acked_without_delivery,
        duplicates_discarded: dedup.hits(),
        delivered,
        crashes,
    }
}

/// Runs both arms.
pub fn measure(seed: u64) -> (A2Arm, A2Arm, Vec<Table>) {
    let with_log = run_arm(seed, true);
    let without = run_arm(seed, false);

    let mut t = Table::new(
        "A2: pessimistic logging under crash injection (8 % crash rate, all pipeline stages)",
        &["arm", "crashes", "acked-but-lost", "duplicates (dedup'd)", "delivered"],
    );
    for arm in [&with_log, &without] {
        t.row(&[
            if arm.logging { "WAL enabled (paper)" } else { "WAL disabled" }.to_string(),
            arm.crashes.to_string(),
            arm.acked_but_lost.to_string(),
            arm.duplicates_discarded.to_string(),
            format!("{} / {}", arm.delivered, ALERTS),
        ]);
    }

    (with_log, without, vec![t])
}

/// Runs A2 and packages the result.
pub fn run(seed: u64) -> ExperimentOutput {
    let (with_log, without, tables) = measure(seed);
    ExperimentOutput {
        id: "A2",
        title: "Pessimistic logging: lost vs duplicated alerts under crashes",
        paper_claim: "logging before the ack prevents acked-alert loss; duplicates are detected by timestamps",
        tables,
        notes: vec![format!(
            "WAL turns {} acked-but-lost alerts into {} user-invisible duplicates",
            without.acked_but_lost, with_log.duplicates_discarded
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a2_wal_eliminates_acked_loss() {
        let (with_log, without, _) = measure(42);
        // Same seed → same crash schedule in both arms.
        assert_eq!(with_log.crashes, without.crashes);
        assert!(with_log.crashes > 200, "crashes {}", with_log.crashes);

        // The paper's invariant: with the log, an acked alert is never lost.
        assert_eq!(with_log.acked_but_lost, 0);
        // Without it, the AfterAckBeforeRoute window loses alerts.
        assert!(without.acked_but_lost > 20, "lost {}", without.acked_but_lost);

        // The cost of safety is only duplicates, all discarded silently.
        assert!(with_log.duplicates_discarded > 0);
        assert!(with_log.delivered > without.delivered);
    }
}
