//! Bridges ledger workers onto the runtime's channel adapters.
//!
//! The ledger worker pool speaks [`LedgerChannels`]; the runtime's
//! services speak [`Channels`]. The bridge adapts one to the other and
//! installs the exactly-once half of the ledger's contract: every
//! outbound send passes its stable idempotency key through a bounded
//! [`Horizon`] *before* reaching the channel, so the at-least-once
//! redeliveries that crashes and lease expiries produce never become
//! double-visible sends.
//!
//! The filter sits in front of the channel (not behind it) deliberately:
//! a redelivery exists precisely because the ledger does not know whether
//! the first send happened, and the only component that can know is the
//! adapter that performed it. The key is recorded *before* the send — a
//! sibling worker racing in on an expired lease must already see it — and
//! forgotten again if the channel refuses, so the ledger's retry of a
//! failed send is a fresh send, not a duplicate of one that never landed.
//! Record, send and forget run without a yield, and every worker of a
//! pool runs on one executor, so no sibling can act between them. That
//! holds only while one filter serves the bridges of one pool on one
//! thread; debug builds assert it on every send.
//!
//! A key is held only while its record is in flight: once the ledger
//! closes the record on a `Sent` or `Duplicate`, its worker calls
//! [`LedgerChannels::concluded`] and the key is forgotten, since no
//! worker leases that record again. The filter then holds about one
//! lease batch per worker, plus the sends of a killed worker until a
//! sibling closes their records as duplicates. A concluded record's key
//! is not remembered here: a restart never had that memory, and a
//! durable horizon of concluded keys belongs to the ledger.

use crate::channels::{Channels, SendOutcome};
use simba_core::Horizon;
use simba_ledger::{ChannelResult, LeasedWork, LedgerChannels};
use simba_sim::{SimDuration, SimTime};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::ThreadId;

/// Default hard bound on the keys a filter holds. A key leaves when its
/// record concludes, so a filter holds the pool's in-flight sends; the
/// bound only matters if records stop concluding.
pub const DEFAULT_DEDUPE_CAPACITY: usize = 64 * 1024;

/// A [`LedgerChannels`] adapter over any [`Channels`] implementation,
/// deduplicating on idempotency keys.
///
/// The filter is shared: build several bridges from one [`SharedFilter`]
/// so every worker in a pool consults the same seen-set — worker A's
/// send must suppress worker B's redelivery.
#[derive(Debug)]
pub struct LedgerChannelBridge<C> {
    channels: C,
    filter: SharedFilter,
}

/// The filter handle shared across a pool's bridges.
///
/// One filter serves the bridges of **one pool on one executor thread**.
/// A key is recorded before its send, forgotten if the send fails, and
/// forgotten once its record concludes. Between the record and a failed
/// send's forget, a bridge on another thread could find the key, answer
/// `Duplicate` and close a record whose only send then fails. Debug
/// builds assert that every send through one filter comes from the
/// thread of its first.
pub type SharedFilter = Arc<Mutex<BridgeFilter>>;

/// What a [`SharedFilter`] guards: a horizon bounded by count alone,
/// keyed by the records' own idempotency keys, and the thread that
/// first consulted it.
#[derive(Debug)]
pub struct BridgeFilter {
    horizon: Horizon<Arc<str>>,
    owner: Option<ThreadId>,
}

/// A fresh shared filter holding up to `capacity` in-flight keys.
pub fn shared_filter(capacity: usize) -> SharedFilter {
    let horizon = Horizon::new(SimDuration::MAX, capacity);
    Arc::new(Mutex::new(BridgeFilter { horizon, owner: None }))
}

impl<C: Channels> LedgerChannelBridge<C> {
    /// Bridges `channels` behind its own filter of
    /// [`DEFAULT_DEDUPE_CAPACITY`] keys.
    pub fn new(channels: C) -> Self {
        LedgerChannelBridge { channels, filter: shared_filter(DEFAULT_DEDUPE_CAPACITY) }
    }

    /// Bridges `channels` behind an existing shared filter — the pool
    /// shape, one filter across N workers' bridges.
    pub fn with_filter(channels: C, filter: SharedFilter) -> Self {
        LedgerChannelBridge { channels, filter }
    }
}

impl<C: Channels> LedgerChannels for LedgerChannelBridge<C> {
    fn send(&mut self, work: &LeasedWork) -> ChannelResult {
        let lock_filter = || self.filter.lock().unwrap_or_else(PoisonError::into_inner);
        {
            let mut filter = lock_filter();
            if cfg!(debug_assertions) {
                let caller = std::thread::current().id();
                let owner = *filter.owner.get_or_insert(caller);
                assert_eq!(owner, caller, "one SharedFilter serves one pool on one executor thread");
            }
            // The filter has no window, so the time it is told never matters.
            if !filter.horizon.first_seen(Arc::clone(&work.idempotency_key), SimTime::ZERO) {
                return ChannelResult::Duplicate;
            }
        }
        match self.channels.send(work.channel, &work.address, &work.text) {
            // The ledger owns no ack lifecycle; an accepted-with-ack send
            // is simply accepted from its point of view.
            SendOutcome::Accepted | SendOutcome::AcceptedWithAck(_) => ChannelResult::Sent,
            SendOutcome::Failed(failure) => {
                lock_filter().horizon.forget(&work.idempotency_key);
                ChannelResult::Failed(failure.to_string())
            }
        }
    }

    fn concluded(&mut self, work: &LeasedWork) {
        self.filter.lock().unwrap_or_else(PoisonError::into_inner).horizon.forget(&work.idempotency_key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::{LoopbackChannels, SharedChannels};
    use simba_core::address::CommType;
    use simba_core::delivery::SendFailure;
    use simba_core::subscription::UserId;
    use simba_ledger::{
        DeliveryLedger, LedgerClock, LedgerConfig, LedgerWorkerPool, SharedLedger,
        WorkerPoolConfig,
    };

    fn work(key: &str) -> LeasedWork {
        LeasedWork {
            id: 1,
            channel: CommType::Im,
            address: "im:alice".into(),
            text: "alert".into(),
            idempotency_key: key.into(),
            attempt: 1,
        }
    }

    #[test]
    fn duplicate_keys_never_reach_the_channel() {
        let filter = shared_filter(16);
        let mut a = LedgerChannelBridge::with_filter(LoopbackChannels::accept_all(), Arc::clone(&filter));
        let mut b = LedgerChannelBridge::with_filter(LoopbackChannels::accept_all(), filter);
        assert_eq!(a.send(&work("alice/1/IM")), ChannelResult::Sent);
        // The redelivery lands on a *different* worker's bridge and is
        // still suppressed: the filter is shared.
        assert_eq!(b.send(&work("alice/1/IM")), ChannelResult::Duplicate);
        assert_eq!(a.send(&work("alice/2/IM")), ChannelResult::Sent);
    }

    #[test]
    fn a_failed_send_is_forgotten_so_the_retry_goes_out() {
        let channels = SharedChannels::new(LoopbackChannels::accept_all());
        let mut bridge = LedgerChannelBridge::new(channels.clone());
        channels.with(|c| c.script("im:alice", SendOutcome::Failed(SendFailure::ChannelDown)));
        assert!(matches!(bridge.send(&work("alice/1/IM")), ChannelResult::Failed(_)));
        // The channel recovers; the ledger's retry carries the same key.
        channels.with(|c| c.script("im:alice", SendOutcome::Accepted));
        assert_eq!(bridge.send(&work("alice/1/IM")), ChannelResult::Sent);
        assert_eq!(bridge.send(&work("alice/1/IM")), ChannelResult::Duplicate);
        let attempts = channels.with(|c| c.sent().len());
        assert_eq!(attempts, 2, "the refused attempt plus exactly one visible send");
    }

    #[test]
    fn a_key_is_held_until_its_record_concludes() {
        let filter = shared_filter(16);
        let mut a = LedgerChannelBridge::with_filter(LoopbackChannels::accept_all(), Arc::clone(&filter));
        let mut b = LedgerChannelBridge::with_filter(LoopbackChannels::accept_all(), Arc::clone(&filter));
        let held = || filter.lock().unwrap_or_else(PoisonError::into_inner).horizon.len();
        assert_eq!(a.send(&work("alice/1/IM/im:alice")), ChannelResult::Sent);
        // A killed worker's redelivery, before anyone closed the record.
        assert_eq!(b.send(&work("alice/1/IM/im:alice")), ChannelResult::Duplicate);
        assert_eq!(held(), 1);
        b.concluded(&work("alice/1/IM/im:alice"));
        assert_eq!(held(), 0, "a closed record's key is let go");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_filter_shared_across_threads_is_refused() {
        let filter = shared_filter(16);
        let mut here =
            LedgerChannelBridge::with_filter(LoopbackChannels::accept_all(), Arc::clone(&filter));
        assert_eq!(here.send(&work("alice/1/IM")), ChannelResult::Sent);
        let elsewhere = std::thread::spawn(move || {
            let mut there = LedgerChannelBridge::with_filter(LoopbackChannels::accept_all(), filter);
            there.send(&work("alice/2/IM"))
        });
        assert!(elsewhere.join().is_err(), "a second thread's send must trip the assertion");
    }

    /// A channel whose first send lets every lease run out and then
    /// fails: the moment a sibling re-leasing the record would find its
    /// key recorded.
    struct ExpireThenFail {
        ledger: SharedLedger,
        failed: bool,
        sent: usize,
    }

    impl Channels for ExpireThenFail {
        fn send(&mut self, _: CommType, _: &str, _: &str) -> SendOutcome {
            if !self.failed {
                self.failed = true;
                self.ledger.lock().unwrap_or_else(PoisonError::into_inner).force_expire_leases();
                return SendOutcome::Failed(SendFailure::ChannelDown);
            }
            self.sent += 1;
            SendOutcome::Accepted
        }
    }

    #[tokio::test(start_paused = true)]
    async fn a_send_failing_after_its_lease_expired_is_retried_not_closed_as_a_duplicate() {
        let ledger: SharedLedger = Arc::new(Mutex::new(
            DeliveryLedger::open(LedgerConfig::in_memory()).expect("in-memory open cannot fail"),
        ));
        {
            let mut guard = ledger.lock().unwrap_or_else(PoisonError::into_inner);
            guard.enqueue(&UserId::new("ada"), 1, CommType::Im, "im:ada", "alert", SimTime::ZERO);
            guard.commit().expect("in-memory commit cannot fail");
        }
        let channels = SharedChannels::new(ExpireThenFail {
            ledger: Arc::clone(&ledger),
            failed: false,
            sent: 0,
        });
        let filter = shared_filter(16);
        let adapters: Vec<Box<dyn LedgerChannels>> = (0..2)
            .map(|_| {
                Box::new(LedgerChannelBridge::with_filter(channels.clone(), Arc::clone(&filter)))
                    as Box<dyn LedgerChannels>
            })
            .collect();
        let epoch = tokio::time::Instant::now();
        let clock: LedgerClock = Arc::new(move || {
            SimTime::from_millis(tokio::time::Instant::now().duration_since(epoch).as_millis() as u64)
        });
        let config = WorkerPoolConfig { workers: 2, ..WorkerPoolConfig::default() };
        let pool = LedgerWorkerPool::spawn(Arc::clone(&ledger), adapters, clock, config)
            .expect("spawning tasks cannot fail");
        let stats = pool.drain().await;
        assert!(ledger.lock().unwrap_or_else(PoisonError::into_inner).is_drained());
        assert_eq!(channels.with(|c| c.sent), 1, "the record ends sent, and exactly once");
        assert_eq!((stats.sent, stats.deduped), (1, 0), "no sibling closed it as a duplicate");
    }
}
