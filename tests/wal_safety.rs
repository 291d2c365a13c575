//! Property test of the §4.2.1 crash-safety invariant (DESIGN.md §6):
//! **an alert acknowledged by MyAlertBuddy is never lost**, for any crash
//! point and any interleaving of alerts and crashes. Duplicates are
//! possible but always timestamp-detectable.
//!
//! The buddy logs to a shard log, as every buddy does. The property runs
//! twice: over an in-memory log that outlives each incarnation, and over
//! an on-disk log that every restart reopens from its directory.

use proptest::prelude::*;
use simba::core::alert::{Alert, AlertId, IncomingAlert, Urgency};
use simba::core::horizon::Horizon;
use simba::core::mab::{CrashPoint, MabCommand, MabEvent, MyAlertBuddy};
use simba::core::shardlog::{SharedShardLog, ShardLog, ShardLogConfig, UserShardWal};
use simba::core::subscription::UserId;
use simba::sim::{SimDuration, SimTime};
use simba_bench::harness::standard_config;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

fn arb_crash_point() -> impl Strategy<Value = Option<CrashPoint>> {
    prop_oneof![
        3 => Just(None),
        1 => Just(Some(CrashPoint::BeforeLog)),
        1 => Just(Some(CrashPoint::AfterLogBeforeAck)),
        1 => Just(Some(CrashPoint::AfterAckBeforeRoute)),
        1 => Just(Some(CrashPoint::AfterRouteBeforeMark)),
    ]
}

fn alice() -> UserId {
    UserId::new("alice")
}

/// Where the buddy's log lives across restarts.
enum Backing {
    /// One in-memory log that outlives every incarnation.
    Memory(UserShardWal),
    /// A directory, reopened by every restart. Like the shard worker, the
    /// driver commits after each event, and only then are the event's
    /// ack and sends released.
    Disk { dir: PathBuf, log: SharedShardLog },
}

impl Backing {
    fn on_disk() -> Self {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("simba-wal-safety-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let log = Self::open(&dir);
        Backing::Disk { dir, log }
    }

    fn open(dir: &Path) -> SharedShardLog {
        Arc::new(Mutex::new(ShardLog::open(ShardLogConfig::on_disk(dir)).expect("open the log")))
    }

    fn wal(&self) -> UserShardWal {
        match self {
            Backing::Memory(wal) => wal.clone(),
            Backing::Disk { log, .. } => UserShardWal::new(Arc::clone(log), alice()),
        }
    }

    /// Makes the event's log writes durable; its effects count from here.
    fn commit(&self) {
        if let Backing::Disk { log, .. } = self {
            log.lock().unwrap().commit().expect("commit");
        }
    }

    /// What a restart sees of the log: the same one in memory, or
    /// whatever a fresh open finds in the directory.
    fn reopen(&mut self) {
        if let Backing::Disk { dir, log } = self {
            *log = Self::open(dir);
        }
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        if let Backing::Disk { dir, .. } = self {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Drives one alert per schedule entry, arming the entry's crash point
/// first and restarting the buddy over its log after every crash, then
/// checks that no acked alert is lost and none is seen twice.
fn check_schedule(schedule: &[Option<CrashPoint>], mut backing: Backing) {
    let config = standard_config();
    let mut mab = MyAlertBuddy::new(config.clone(), backing.wal());
    let mut dedup = Horizon::new(SimDuration::from_hours(24), usize::MAX);

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
        backing.commit();

        let mut routed = commands.iter().any(|c| matches!(c, MabCommand::Channel { .. }));
        if commands.iter().any(|c| matches!(c, MabCommand::AckIm { .. })) {
            acked.push(i);
        }

        if mab.is_crashed() {
            // Restart over the same log; replay completes the pipeline.
            drop(mab);
            backing.reopen();
            mab = MyAlertBuddy::new(config.clone(), backing.wal());
            let recovery = mab.recover(now);
            backing.commit();
            routed |= recovery.iter().any(|c| matches!(c, MabCommand::Channel { .. }));
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
            if dedup.first_seen(user_view.dedup_key(), now) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn acked_alerts_are_never_lost(schedule in proptest::collection::vec(arb_crash_point(), 1..40)) {
        check_schedule(&schedule, Backing::Memory(UserShardWal::in_memory(alice())));
    }

    #[test]
    fn unacked_alerts_never_produce_surprise_deliveries_after_crash_before_log(
        n in 1u64..20
    ) {
        // Crash before the log on every alert: no acks, no log records, no
        // replays — the sender knows to fall back.
        let config = standard_config();
        let wal = UserShardWal::in_memory(alice());
        let mut mab = MyAlertBuddy::new(config.clone(), wal.clone());
        for i in 0..n {
            let now = SimTime::from_secs(100 + i * 60);
            mab.inject_crash_at(CrashPoint::BeforeLog);
            let commands = mab.handle(
                MabEvent::AlertByIm(IncomingAlert::from_im("aladdin-gw", "Sensor q ON", now)),
                now,
            );
            prop_assert!(commands.is_empty());
            prop_assert!(wal.unprocessed().is_empty());
            mab = MyAlertBuddy::new(config.clone(), wal.clone());
            prop_assert!(mab.recover(now).is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn acked_alerts_are_never_lost_across_a_reopen_from_disk(
        schedule in proptest::collection::vec(arb_crash_point(), 1..40)
    ) {
        check_schedule(&schedule, Backing::on_disk());
    }
}
