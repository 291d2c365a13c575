//! The recording channel sink: the far end of the alert path.
//!
//! Implements the runtime's [`Channels`] trait, stamps every send, and
//! releases closed-loop window slots. It is the only place the benchmark
//! learns that an alert was delivered.

use crate::workload::{conn_of, decode_text, fails_first_attempt, Seen, CONNS};
use simba_core::address::CommType;
use simba_core::delivery::SendFailure;
use simba_runtime::{Channels, SendOutcome};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Everything the sink recorded, taken once the pipeline has stopped.
#[derive(Debug, Default)]
pub struct SinkLog {
    /// `(alert id, ns since the run epoch)` per individual send, in order.
    pub sends: Vec<(u64, u64)>,
    /// `(count, ns)` per digest send.
    pub digests: Vec<(u64, u64)>,
    /// Sends whose text was neither (a benchmark-internal fault).
    pub unparsed: u64,
    /// First attempts the sink failed on purpose.
    pub injected_failures: u64,
}

/// What the sends mutate, under one lock.
#[derive(Debug, Default)]
struct State {
    log: SinkLog,
    /// Ids whose first attempt was failed on purpose already.
    failed_once: HashSet<u64>,
}

#[derive(Debug)]
struct Shared {
    epoch: Instant,
    state: Mutex<State>,
    /// Alerts each connection has sent and not yet seen resolved.
    outstanding: [AtomicI64; CONNS],
    /// Individually delivered alerts plus alerts folded into digests:
    /// the drain wait compares it with what was admitted.
    accounted: AtomicU64,
    /// How many window slots one `normal` send releases (the storm group
    /// size, or 1); other kinds release none when this is above 1.
    resolve_weight: i64,
    inject: AtomicBool,
    fail_one_in: u64,
    seed: u64,
}

/// Cloneable handle; every shard worker and ledger bridge holds one.
#[derive(Debug, Clone)]
pub struct Sink(Arc<Shared>);

impl Sink {
    pub fn new(epoch: Instant, resolve_weight: usize, fail_one_in: u64, seed: u64) -> Sink {
        Sink(Arc::new(Shared {
            epoch,
            state: Mutex::default(),
            outstanding: std::array::from_fn(|_| AtomicI64::new(0)),
            accounted: AtomicU64::new(0),
            resolve_weight: resolve_weight as i64,
            inject: AtomicBool::new(false),
            fail_one_in,
            seed,
        }))
    }

    /// The loadgen's side of the closed-loop window.
    pub fn add_outstanding(&self, conn: usize, n: i64) {
        self.0.outstanding[conn].fetch_add(n, Ordering::Relaxed);
    }

    pub fn outstanding(&self, conn: usize) -> i64 {
        self.0.outstanding[conn].load(Ordering::Relaxed)
    }

    pub fn reset_outstanding(&self, conn: usize) {
        self.0.outstanding[conn].store(0, Ordering::Relaxed);
    }

    pub fn accounted(&self) -> u64 {
        self.0.accounted.load(Ordering::Relaxed)
    }

    /// Failure injection is on only during the open loop: a lost alert
    /// would pin a closed-loop slot.
    pub fn set_inject(&self, on: bool) {
        self.0.inject.store(on, Ordering::Relaxed);
    }

    /// Takes the log; call after the pipeline has stopped sending.
    pub fn take_log(&self) -> SinkLog {
        std::mem::take(
            &mut self
                .0
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .log,
        )
    }
}

impl Channels for Sink {
    fn send(&mut self, _comm_type: CommType, _address: &str, text: &str) -> SendOutcome {
        let shared = &*self.0;
        let now = shared.epoch.elapsed().as_nanos() as u64;
        let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        match decode_text(text) {
            Some(Seen::Alert { id, normal }) => {
                if shared.inject.load(Ordering::Relaxed)
                    && fails_first_attempt(shared.seed, id, shared.fail_one_in)
                    && state.failed_once.insert(id)
                {
                    state.log.injected_failures += 1;
                    return SendOutcome::Failed(SendFailure::ChannelDown);
                }
                state.log.sends.push((id, now));
                shared.accounted.fetch_add(1, Ordering::Relaxed);
                let release = match (shared.resolve_weight, normal) {
                    (1, _) => 1,
                    (weight, true) => weight,
                    (_, false) => 0,
                };
                shared.outstanding[conn_of(id)].fetch_sub(release, Ordering::Relaxed);
            }
            Some(Seen::Digest { count }) => {
                state.log.digests.push((count, now));
                shared.accounted.fetch_add(count, Ordering::Relaxed);
            }
            None => state.log.unparsed += 1,
        }
        SendOutcome::Accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{encode_body, Kind};

    #[test]
    fn sends_are_stamped_counted_and_release_window_slots() {
        let mut sink = Sink::new(Instant::now(), 10, 0, 1);
        sink.add_outstanding(1, 20);
        sink.send(CommType::Im, "im:u", &encode_body(3, Kind::Flap, ""));
        assert_eq!(
            sink.outstanding(1),
            20,
            "a flap alert resolves nothing in a storm"
        );
        sink.send(CommType::Im, "im:u", &encode_body(5, Kind::Normal, ""));
        assert_eq!(
            sink.outstanding(1),
            10,
            "the normal alert resolves its whole group"
        );
        sink.send(
            CommType::Email,
            "u@mail",
            "digest: 7x : 7 alerts from flap/",
        );
        sink.send(CommType::Im, "im:u", "garbage");
        assert_eq!(sink.accounted(), 9);
        let log = sink.take_log();
        assert_eq!(log.sends.iter().map(|s| s.0).collect::<Vec<_>>(), [3, 5]);
        assert!(log.sends[0].1 <= log.sends[1].1);
        assert_eq!(log.digests.len(), 1);
        assert_eq!(log.unparsed, 1);
    }

    #[test]
    fn injection_fails_only_the_first_attempt_and_only_when_switched_on() {
        let mut sink = Sink::new(Instant::now(), 1, 1, 1);
        let text = encode_body(4, Kind::Normal, "");
        assert_eq!(sink.send(CommType::Im, "a", &text), SendOutcome::Accepted);
        sink.set_inject(true);
        let text = encode_body(6, Kind::Normal, "");
        assert_eq!(
            sink.send(CommType::Im, "a", &text),
            SendOutcome::Failed(SendFailure::ChannelDown)
        );
        assert_eq!(sink.send(CommType::Im, "a", &text), SendOutcome::Accepted);
        let log = sink.take_log();
        assert_eq!(log.injected_failures, 1);
        assert_eq!(log.sends.len(), 2);
    }
}
