//! The thread → runtime bridge: a bounded intake queue plus the pump
//! task that drains it into the [`ShardedHost`].
//!
//! The vendored tokio shim has no `net` module, so sockets are served by
//! std threads (see `DESIGN.md` §10). Those threads still have to hand
//! alerts to the host, whose workers run on the shim's executors. The
//! bridge is the seam: worker threads call [`IntakeSender::try_submit`]
//! (synchronous, lock-based, thread-safe — the shim's channel internals
//! are `Arc<Mutex<..>>`), and the async [`pump_into_sharded_host`] task
//! drains the queue from inside the runtime.
//!
//! A cross-thread send wakes a parked executor (the shim's ready queue
//! parks on a condvar), so an idle pump simply awaits the queue: no
//! heartbeat timer is needed to notice a submission, and an idle pump
//! arms none. The wake is immediate only when the executor's park has no
//! deadline, or one more than 1 ms away; one that ends sooner (a
//! [`PUMP_TICK`], a ledger pool's yield) is left to end, and the pump
//! then drains everything that arrived meanwhile in one go.
//!
//! That is the tick's job: pacing. Once a submission has arrived the
//! pump waits with [`PUMP_TICK`], so while traffic flows the runtime
//! thread wakes once per tick and drains a batch, not once per alert.
//! After a tick in which nothing arrived it goes back to waiting untimed.
//! A pump that never armed the tick cost E11's `storm` 30 % of its
//! closed-loop goodput (206–218 k → 143–152 k alerts/s) and doubled
//! `deliver_p90` (1.9 → 3.3 ms on `storm`, 1.8 → 3.6 ms on `steady`;
//! 2-vCPU VM). Digest windows are not the pump's business: each shard
//! worker flushes its own users' windows on their deadlines.
//!
//! An admitted submission is durable-in-process: once `try_submit`
//! succeeds (and the worker acks the client), only process death can
//! lose it — the pump drains the queue to `None` before the host shuts
//! down, even if the submitting connection is long gone.

use crate::proto::WireChannel;
use simba_core::alert::IncomingAlert;
use simba_core::subscription::UserId;
use simba_core::Telemetry;
use simba_runtime::ShardedHost;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tokio::sync::mpsc;

/// The pump's bounded wait while submissions are arriving (see the module
/// docs); never armed while the intake is idle.
const PUMP_TICK: Duration = Duration::from_millis(1);

/// One admitted alert submission on its way to the host.
#[derive(Debug)]
pub struct Submission {
    /// Client-assigned sequence number (for diagnostics).
    pub seq: u64,
    /// Which host front door to use.
    pub channel: WireChannel,
    /// The target user.
    pub user: UserId,
    /// The alerting source: the string the alert carries from here on.
    pub source: Arc<str>,
    /// The alert body: likewise.
    pub body: Arc<str>,
    /// The submitting connection's in-flight slot; the pump releases it
    /// after routing. Outlives the connection (an `Arc`), so a dropped
    /// client never strands the accounting.
    pub slot: Arc<AtomicUsize>,
}

/// Builds the bounded intake queue: worker threads hold the sender, the
/// runtime pump owns the receiver.
pub fn intake(capacity: usize) -> (IntakeSender, IntakeReceiver) {
    let capacity = capacity.max(1);
    let (tx, rx) = mpsc::channel(capacity);
    let depth = Arc::new(AtomicUsize::new(0));
    (
        IntakeSender { tx, depth: Arc::clone(&depth), capacity },
        IntakeReceiver { rx, depth },
    )
}

/// Thread-safe sending half of the intake queue.
#[derive(Debug, Clone)]
pub struct IntakeSender {
    tx: mpsc::Sender<Submission>,
    depth: Arc<AtomicUsize>,
    capacity: usize,
}

impl IntakeSender {
    /// Enqueues without blocking; hands the submission back when the
    /// queue is full (the caller sheds) or the pump is gone.
    ///
    /// The slot is counted in *before* the send and backed out on
    /// refusal: the pump counts out only what it has received, so
    /// `queued ≤ depth ≤ capacity` holds at every instant and the gauge
    /// can never be decremented below zero.
    pub fn try_submit(&self, submission: Submission) -> Result<(), Submission> {
        let reserved = self
            .depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
                (depth < self.capacity).then_some(depth + 1)
            });
        if reserved.is_err() {
            return Err(submission);
        }
        self.tx.try_send(submission).map_err(|mpsc::error::SendError(submission)| {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            submission
        })
    }

    /// Current queue depth (approximate under concurrency).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// The queue's fixed capacity — reported in probe replies so clients
    /// can judge fullness and back off before they are nacked.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Receiving half of the intake queue; owned by
/// [`pump_into_sharded_host`].
#[derive(Debug)]
pub struct IntakeReceiver {
    rx: mpsc::Receiver<Submission>,
    depth: Arc<AtomicUsize>,
}

/// What the pump routed by the time the intake queue closed.
///
/// The host resolves user → buddy *inside* the owning shard worker, so
/// the pump only learns whether the submission was accepted onto the
/// shard's queue; submissions for unregistered users surface in
/// [`ShardedHost::snapshot`] (and the `host.unrouted` point) instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    /// Submissions handed to the owning shard worker.
    pub routed: u64,
    /// Submissions refused because the shard worker was gone.
    pub unrouted: u64,
}

/// Drains the intake queue into `host` until every [`IntakeSender`] is
/// gone and the queue is empty. Run this inside the shim runtime,
/// concurrently with the gateway's worker threads; shut the
/// [`crate::GatewayServer`] down first so the senders drop.
pub async fn pump_into_sharded_host(
    host: &ShardedHost,
    mut intake: IntakeReceiver,
    telemetry: &Telemetry,
) -> PumpReport {
    let clock = host.clock();
    let depth_gauge = telemetry.metrics().gauge("gateway.queue_depth");
    let mut report = PumpReport::default();
    let mut flowing = false;
    loop {
        let next = if flowing {
            let Ok(next) = tokio::time::timeout(PUMP_TICK, intake.rx.recv()).await else {
                flowing = false; // a whole tick without a submission
                continue;
            };
            next
        } else {
            intake.rx.recv().await
        };
        let Some(submission) = next else {
            break; // every sender dropped and the queue drained
        };
        flowing = true;
        intake.depth.fetch_sub(1, Ordering::Relaxed);
        depth_gauge.set(intake.depth.load(Ordering::Relaxed) as u64);
        let now = clock.now();
        let accepted = match submission.channel {
            WireChannel::Im => {
                let alert = IncomingAlert::from_im(submission.source, submission.body, now);
                host.submit_im(&submission.user, alert).await
            }
            WireChannel::Email => {
                let alert = IncomingAlert::from_email(
                    submission.source,
                    "gateway",
                    "alert",
                    submission.body,
                    now,
                );
                host.submit_email(&submission.user, alert).await
            }
        };
        submission.slot.fetch_sub(1, Ordering::Relaxed);
        if accepted {
            report.routed += 1;
        } else {
            report.unrouted += 1;
        }
    }
    depth_gauge.set(0);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submission(seq: u64) -> Submission {
        Submission {
            seq,
            channel: WireChannel::Im,
            user: UserId::new("alice"),
            source: "src".into(),
            body: "Sensor ON".into(),
            slot: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Regression: the depth gauge was bumped *after* `try_send`, so a
    /// drain landing between the two steps decremented first and the
    /// counter wrapped to ~`usize::MAX`. A hot drainer thread races a hot
    /// submitter through a tiny queue; every sample on either side must
    /// stay within `0..=capacity`.
    #[test]
    fn depth_never_wraps_or_exceeds_capacity_under_a_racing_drain() {
        const PAIRS: u64 = 20_000;
        const CAPACITY: usize = 4;
        let (tx, mut rx) = intake(CAPACITY);
        let drainer = std::thread::spawn(move || {
            let mut drained = 0;
            while drained < PAIRS {
                if rx.rx.try_recv().is_ok() {
                    rx.depth.fetch_sub(1, Ordering::Relaxed);
                    drained += 1;
                }
                let depth = rx.depth.load(Ordering::Relaxed);
                assert!(depth <= CAPACITY, "drain side read depth {depth}");
            }
        });
        let mut seq = 0;
        // (A drainer whose assertion failed is gone: stop feeding it.)
        while seq < PAIRS && !drainer.is_finished() {
            if tx.try_submit(submission(seq)).is_ok() {
                seq += 1;
            }
            let depth = tx.depth();
            assert!(depth <= CAPACITY, "submit side read depth {depth}");
        }
        drainer.join().expect("drainer saw depth in range");
        assert_eq!(tx.depth(), 0);
    }

    #[test]
    fn a_vanished_pump_refuses_and_backs_the_count_out() {
        let (tx, rx) = intake(2);
        drop(rx);
        assert!(tx.try_submit(submission(0)).is_err());
        assert_eq!(tx.depth(), 0);
    }
}
