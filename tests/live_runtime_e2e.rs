//! Integration: the tokio live runtime drives the same core as the
//! simulation — an alert flows source → shard worker → channel adapters →
//! ack, under paused (deterministic) tokio time. One shard with
//! hibernation off is the single-buddy shape of the host.

use simba::core::alert::IncomingAlert;
use simba::core::delivery::{DeliveryStatus, SendFailure};
use simba::core::subscription::UserId;
use simba::core::Telemetry;
use simba::runtime::{
    HostNotice, LoopbackChannels, RuntimeNotice, SendOutcome, SharedChannels, ShardedHost,
    ShardedHostConfig,
};
use simba::sim::{SimDuration, SimTime};
use simba_bench::harness::standard_config;
use std::sync::Arc;
use std::time::Duration;
use tokio::sync::mpsc;

/// Alice's buddy alone on a one-shard host.
async fn one_buddy(
    loopback: LoopbackChannels,
) -> (ShardedHost, UserId, mpsc::Receiver<HostNotice>) {
    let config = ShardedHostConfig {
        shards: 1,
        hibernate_after: SimDuration::ZERO,
        ..ShardedHostConfig::default()
    };
    let (host, notices) = ShardedHost::new(
        SharedChannels::new(loopback),
        config,
        Arc::new(|_: &UserId| standard_config()),
        Telemetry::disabled(),
    )
    .expect("in-memory shard log");
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;
    (host, alice, notices)
}

async fn wait_finished(notices: &mut mpsc::Receiver<HostNotice>) -> DeliveryStatus {
    loop {
        let HostNotice { notice, .. } = notices.recv().await.expect("host alive");
        if let RuntimeNotice::DeliveryFinished { status, .. } = notice {
            return status;
        }
    }
}

#[tokio::test(start_paused = true)]
async fn live_alert_is_acked_in_under_a_second() {
    let (host, alice, mut notices) =
        one_buddy(LoopbackChannels::always_ack(Duration::from_millis(350))).await;

    host.submit_im(&alice, IncomingAlert::from_im("aladdin-gw", "Sensor live ON", SimTime::ZERO))
        .await;
    let t0 = tokio::time::Instant::now();
    // First the buddy's own ack back to the source, then the user's.
    assert_eq!(
        notices.recv().await.expect("host alive").notice,
        RuntimeNotice::AckSent { source: "aladdin-gw".into(), record: 0 }
    );
    let status = wait_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { block: 0, .. }));
    assert!(t0.elapsed() < Duration::from_secs(1));
}

#[tokio::test(start_paused = true)]
async fn live_fallback_cascade_im_to_sms_to_email() {
    // The "Critical" mode escalates IM (60 s) → SMS (120 s) → email.
    let mut loopback = LoopbackChannels::accept_all();
    loopback.script(
        simba_bench::harness::USER_IM,
        SendOutcome::Failed(SendFailure::RecipientUnreachable),
    );
    let (host, alice, mut notices) = one_buddy(loopback).await;

    let t0 = tokio::time::Instant::now();
    host.submit_im(&alice, IncomingAlert::from_im("aladdin-gw", "Sensor cascade ON", SimTime::ZERO))
        .await;
    let status = wait_finished(&mut notices).await;
    // IM fails synchronously → SMS accepted but unacknowledgeable → its
    // 120 s window expires → email (fire-and-forget) completes block 2.
    assert!(matches!(status, DeliveryStatus::Unconfirmed { block: 2, .. }), "status {status:?}");
    assert!(t0.elapsed() >= Duration::from_secs(120), "elapsed {:?}", t0.elapsed());
}

#[tokio::test(start_paused = true)]
async fn live_email_alert_routes_without_ack() {
    let (host, alice, mut notices) =
        one_buddy(LoopbackChannels::always_ack(Duration::from_millis(300))).await;

    host.submit_email(
        &alice,
        IncomingAlert::from_email(
            "assistant@desktop",
            "SIMBA Desktop Assistant",
            "Email: server down!",
            "forwarded by the assistant",
            SimTime::ZERO,
        ),
    )
    .await;
    // "Email:" in the subject maps to Work → Critical mode (IM first) → acked.
    let status = wait_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { .. }));
    // Email arrivals are never acked back to the source (acks are an IM
    // concept). The snapshot is a round trip through the shard worker,
    // so it doubles as the liveness probe.
    let snap = host.snapshot().await;
    assert_eq!((snap.active, snap.stats.received_email, snap.stats.acked), (1, 1, 0));
}
