//! Bridges ledger workers onto the runtime's channel adapters.
//!
//! The ledger worker pool speaks [`LedgerChannels`]; the runtime's
//! services speak [`Channels`]. The bridge adapts one to the other and
//! installs the exactly-once half of the ledger's contract: every
//! outbound send passes its stable idempotency key through a bounded
//! [`IdempotencyFilter`] *before* reaching the channel, so the
//! at-least-once redeliveries that crashes and lease expiries produce
//! never become double-visible sends.
//!
//! The filter sits in front of the channel (not behind it) deliberately:
//! a redelivery exists precisely because the ledger does not know whether
//! the first send happened, and the only component that can know is the
//! adapter that performed it. The key is recorded *before* the send — a
//! sibling worker racing in on an expired lease must already see it — and
//! forgotten again if the channel refuses, so the ledger's retry of a
//! failed send is a fresh send, not a duplicate of one that never landed.

use crate::channels::{Channels, SendOutcome};
use simba_ledger::{ChannelResult, LeasedWork, LedgerChannels};
use simba_net::dedupe::IdempotencyFilter;
use std::sync::{Arc, Mutex, PoisonError};

/// Default idempotency window. Keys stop arriving once their record goes
/// terminal, so this bounds the *redelivery* window, not total volume.
pub const DEFAULT_DEDUPE_CAPACITY: usize = 64 * 1024;

/// A [`LedgerChannels`] adapter over any [`Channels`] implementation,
/// deduplicating on idempotency keys.
///
/// The filter is shared: clone the bridge (or build several from one
/// [`SharedFilter`]) so every worker in a pool consults the same seen-set
/// — worker A's send must suppress worker B's redelivery.
#[derive(Debug)]
pub struct LedgerChannelBridge<C> {
    channels: C,
    filter: SharedFilter,
}

/// The filter handle shared across a pool's bridges.
pub type SharedFilter = Arc<Mutex<IdempotencyFilter>>;

/// A fresh shared filter remembering up to `capacity` keys.
pub fn shared_filter(capacity: usize) -> SharedFilter {
    Arc::new(Mutex::new(IdempotencyFilter::new(capacity)))
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

    /// The shared filter (e.g. to hand to further bridges).
    pub fn filter(&self) -> SharedFilter {
        Arc::clone(&self.filter)
    }
}

impl<C: Channels> LedgerChannels for LedgerChannelBridge<C> {
    fn send(&mut self, work: &LeasedWork) -> ChannelResult {
        let lock_filter = || self.filter.lock().unwrap_or_else(PoisonError::into_inner);
        if !lock_filter().first_seen(Arc::clone(&work.idempotency_key)) {
            return ChannelResult::Duplicate;
        }
        match self.channels.send(work.channel, &work.address, &work.text) {
            // The ledger owns no ack lifecycle; an accepted-with-ack send
            // is simply accepted from its point of view.
            SendOutcome::Accepted | SendOutcome::AcceptedWithAck(_) => ChannelResult::Sent,
            SendOutcome::Failed(failure) => {
                lock_filter().forget(&work.idempotency_key);
                ChannelResult::Failed(failure.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::{LoopbackChannels, SharedChannels};
    use simba_core::address::CommType;
    use simba_core::delivery::SendFailure;

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
}
