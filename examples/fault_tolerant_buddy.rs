//! The fault-tolerance stack in action: crash MyAlertBuddy at the worst
//! possible moment (after the ack, before routing), watch pessimistic
//! logging save the alert; hang it and watch the MDC watchdog restart it;
//! pop an unknown dialog box and watch the monkey thread fail, learn the
//! rule, and recover.
//!
//! ```text
//! cargo run --example fault_tolerant_buddy
//! ```

use simba::client::dialogs::DialogBox;
use simba::client::ImManager;
use simba::core::alert::IncomingAlert;
use simba::core::mab::{CrashPoint, MabCommand, MabEvent, MyAlertBuddy};
use simba::core::mdc::{MasterDaemonController, MdcAction, MdcConfig};
use simba::core::shardlog::ShardLog;
use simba::core::subscription::UserId;
use simba::net::im::{ImHandle, ImService};
use simba::sim::{SimRng, SimTime};
use simba_bench::harness::standard_config;

fn main() {
    println!("— scenario 1: crash after ack, before routing —");
    let config = standard_config();
    let alice = UserId::new("alice");
    let mut log = ShardLog::in_memory();
    let mut mab = MyAlertBuddy::new(config.clone(), alice.clone());
    mab.inject_crash_at(CrashPoint::AfterAckBeforeRoute);

    let alert = IncomingAlert::from_im("aladdin-gw", "Basement Water Sensor ON", SimTime::from_secs(5));
    let commands = mab.handle(&mut log, MabEvent::AlertByIm(alert), SimTime::from_secs(5));
    println!("  commands before the crash: {} (the ack went out)", commands.len());
    assert!(commands.iter().any(|c| matches!(c, MabCommand::AckIm { .. })));
    println!("  MyAlertBuddy crashed: {}", mab.is_crashed());

    // The MDC restarts a fresh incarnation over the same log.
    println!("  unprocessed alerts in the log: {}", log.unprocessed_for(&alice).len());
    let mut mab = MyAlertBuddy::new(config.clone(), alice);
    let replayed = mab.recover(&mut log, SimTime::from_secs(20));
    let sends = replayed
        .iter()
        .filter(|c| matches!(c, MabCommand::Channel { .. }))
        .count();
    println!("  after restart: {} routing command(s) replayed — the acked alert was NOT lost\n", sends);

    println!("— scenario 2: hang, detected by the watchdog —");
    let mut mdc = MasterDaemonController::new(MdcConfig::default());
    mab.inject_hang();
    println!("  AreYouWorking() → {}", mab.are_you_working());
    let ping = mdc.on_ping_timer(SimTime::from_mins(3));
    let MdcAction::Ping { deadline } = ping else { unreachable!() };
    println!("  MDC pinged at {}, no reply by {}", SimTime::from_mins(3), deadline);
    match mdc.on_reply_deadline(deadline) {
        Some(MdcAction::RestartMab) => println!("  → MDC restarts MyAlertBuddy (restart #{})\n", mdc.restarts()),
        other => println!("  → unexpected: {other:?}\n"),
    }

    println!("— scenario 3: the unknown dialog box —");
    let mut rng = SimRng::new(1);
    let mut im = ImService::new(rng.fork(1));
    im.register(ImHandle::new("mab-im"));
    let mut manager = ImManager::new(ImHandle::new("mab-im"));
    manager.start(&mut im, SimTime::ZERO).expect("service up");
    manager
        .core_mut()
        .process_mut()
        .inject_dialog(DialogBox::blocking("Unexpected Script Error", "Continue", SimTime::from_secs(1)));

    let report = manager.sanity_check(&mut im, SimTime::from_secs(2));
    println!("  sanity check healthy: {} — {:?}", report.healthy(), report.anomalies);

    println!("  operator registers the caption-button pair (the §5 fix)...");
    manager.register_dialog_rule("Unexpected Script Error", "Continue");
    manager
        .core_mut()
        .process_mut()
        .inject_dialog(DialogBox::blocking("Unexpected Script Error", "Continue", SimTime::from_secs(90)));
    let report = manager.sanity_check(&mut im, SimTime::from_secs(100));
    println!("  next pass healthy: {} — repairs: {:?}", report.healthy(), report.repairs);
}
