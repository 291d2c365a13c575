//! Integration: the tokio live runtime drives the same core as the
//! simulation — an alert flows source → MAB service → channel adapters →
//! ack, under paused (deterministic) tokio time.

use simba::core::alert::IncomingAlert;
use simba::core::delivery::{DeliveryStatus, SendFailure};
use simba::runtime::{Channels, LoopbackChannels, MabService, RuntimeNotice, SendOutcome};
use simba::sim::SimTime;
use simba_bench::harness::standard_config;
use std::time::Duration;

struct Scripted(LoopbackChannels);

impl Channels for Scripted {
    fn send(&mut self, ct: simba::core::address::CommType, addr: &str, text: &str) -> SendOutcome {
        self.0.send(ct, addr, text)
    }
}

async fn wait_finished(
    notices: &mut tokio::sync::mpsc::Receiver<RuntimeNotice>,
) -> DeliveryStatus {
    loop {
        if let RuntimeNotice::DeliveryFinished { status, .. } = notices.recv().await.expect("service alive") { return status }
    }
}

#[tokio::test(start_paused = true)]
async fn live_alert_is_acked_in_under_a_second() {
    let channels = Scripted(LoopbackChannels::always_ack(Duration::from_millis(350)));
    let (service, handle, mut notices) = MabService::new(standard_config(), channels);
    tokio::spawn(service.run());

    handle
        .submit_im_alert(IncomingAlert::from_im("aladdin-gw", "Sensor live ON", SimTime::ZERO))
        .await;
    let t0 = tokio::time::Instant::now();
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
    let (service, handle, mut notices) = MabService::new(standard_config(), Scripted(loopback));
    tokio::spawn(service.run());

    let t0 = tokio::time::Instant::now();
    handle
        .submit_im_alert(IncomingAlert::from_im("aladdin-gw", "Sensor cascade ON", SimTime::ZERO))
        .await;
    let status = wait_finished(&mut notices).await;
    // IM fails synchronously → SMS accepted but unacknowledgeable → its
    // 120 s window expires → email (fire-and-forget) completes block 2.
    assert!(matches!(status, DeliveryStatus::Unconfirmed { block: 2, .. }), "status {status:?}");
    assert!(t0.elapsed() >= Duration::from_secs(120), "elapsed {:?}", t0.elapsed());
}

#[tokio::test(start_paused = true)]
async fn live_email_alert_routes_without_ack() {
    let channels = Scripted(LoopbackChannels::always_ack(Duration::from_millis(300)));
    let (service, handle, mut notices) = MabService::new(standard_config(), channels);
    tokio::spawn(service.run());

    handle
        .submit_email_alert(IncomingAlert::from_email(
            "assistant@desktop",
            "SIMBA Desktop Assistant",
            "Email: server down!",
            "forwarded by the assistant",
            SimTime::ZERO,
        ))
        .await;
    // "Email:" in the subject maps to Work → Critical mode (IM first) → acked.
    let status = wait_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { .. }));
    // Email arrivals produce no AckSent notices (acks are an IM concept)
    // — already consumed by wait_finished if any existed; verify stats
    // through a watchdog probe instead: service is healthy.
    assert!(handle.are_you_working().await);
}
