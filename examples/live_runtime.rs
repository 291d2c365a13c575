//! The tokio live runtime: the same MyAlertBuddy state machine running
//! against wall-clock time on a one-shard host, with loopback channels
//! standing in for the IM/email services.
//!
//! ```text
//! cargo run --example live_runtime
//! ```

use simba::core::alert::IncomingAlert;
use simba::core::subscription::UserId;
use simba::core::Telemetry;
use simba::runtime::{
    LoopbackChannels, RuntimeNotice, SharedChannels, ShardedHost, ShardedHostConfig,
};
use simba::sim::{SimDuration, SimTime};
use simba_bench::harness::standard_config;
use std::sync::Arc;
use std::time::Duration;

#[tokio::main(flavor = "current_thread")]
async fn main() {
    // IM sends are acknowledged by the "user" 400 ms after delivery.
    let channels = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(400)));
    // One shard, hibernation off: a single always-resident buddy.
    let config = ShardedHostConfig {
        shards: 1,
        hibernate_after: SimDuration::ZERO,
        ..ShardedHostConfig::default()
    };
    let (host, mut notices) = ShardedHost::new(
        channels,
        config,
        Arc::new(|_: &UserId| standard_config()),
        Telemetry::disabled(),
    )
    .expect("in-memory shard log");
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;

    println!("submitting a critical alert over IM…");
    let started = std::time::Instant::now();
    host.submit_im(
        &alice,
        IncomingAlert::from_im("aladdin-gw", "Basement Water Sensor ON", SimTime::ZERO),
    )
    .await;

    // Watch the pipeline unfold in real time.
    while let Some(notice) = notices.recv().await {
        let at = started.elapsed();
        match notice.notice {
            RuntimeNotice::AckSent { source, record } => {
                println!("[{at:>8.1?}] buddy acked alert {record} back to {source}");
            }
            RuntimeNotice::DeliveryFinished { delivery, status } => {
                println!("[{at:>8.1?}] delivery {delivery:?} finished: {status:?}");
                break;
            }
            RuntimeNotice::Rejuvenating(trigger) => {
                println!("[{at:>8.1?}] rejuvenating ({trigger})");
                break;
            }
        }
    }

    // The snapshot is a round trip through the shard worker: an answer
    // means the worker is alive and processing.
    let asked = std::time::Instant::now();
    let snap = host.snapshot().await;
    println!(
        "shard worker alive: answered in {:.1?} — {} buddy resident, {} delivery acked",
        asked.elapsed(),
        snap.active,
        snap.acked
    );
    host.shutdown().await;
}
