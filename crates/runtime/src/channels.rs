//! Channel adapters for the live runtime.

use simba_core::address::CommType;
use simba_core::delivery::SendFailure;
use std::collections::HashMap;
use std::time::Duration;

/// What a channel did with a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Accepted; no acknowledgement will follow (SMS, email).
    Accepted,
    /// Accepted; an end-to-end acknowledgement will arrive after roughly
    /// this long (IM to a present user). The service turns this into a
    /// delayed `Acked` event.
    AcceptedWithAck(Duration),
    /// Rejected synchronously.
    Failed(SendFailure),
}

/// A pluggable set of outbound channels.
///
/// Implementations must be cheap and non-blocking: transit time is
/// expressed through [`SendOutcome::AcceptedWithAck`] or simply by the
/// receiving side, never by blocking the service loop.
pub trait Channels: Send + 'static {
    /// Submits `text` to `address` over `comm_type`.
    fn send(&mut self, comm_type: CommType, address: &str, text: &str) -> SendOutcome;
}

/// A cloneable wrapper sharing one [`Channels`] implementation between
/// several senders — the shape [`crate::ShardedHost`] needs, where every
/// shard worker (and every ledger worker's bridge) sends through the
/// same gateway adapters.
///
/// Sends are serialized by a mutex; that matches the [`Channels`]
/// contract (cheap, non-blocking submissions), so contention stays low
/// even with many senders.
#[derive(Debug)]
pub struct SharedChannels<C> {
    inner: std::sync::Arc<std::sync::Mutex<C>>,
}

impl<C> Clone for SharedChannels<C> {
    fn clone(&self) -> Self {
        SharedChannels { inner: std::sync::Arc::clone(&self.inner) }
    }
}

impl<C: Channels> SharedChannels<C> {
    /// Wraps `channels` for sharing.
    pub fn new(channels: C) -> Self {
        SharedChannels { inner: std::sync::Arc::new(std::sync::Mutex::new(channels)) }
    }

    /// Runs `f` with the wrapped adapter (e.g. to script outcomes or
    /// inspect a loopback's sent log mid-test).
    pub fn with<R>(&self, f: impl FnOnce(&mut C) -> R) -> R {
        // A panic mid-`send` on another worker must not take the whole
        // host down with it: recover the adapter and keep sending.
        f(&mut self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner))
    }
}

impl<C: Channels> Channels for SharedChannels<C> {
    fn send(&mut self, comm_type: CommType, address: &str, text: &str) -> SendOutcome {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .send(comm_type, address, text)
    }
}

/// An in-process adapter for demos and tests: per-address scripted
/// behaviour with a configurable default.
#[derive(Debug)]
pub struct LoopbackChannels {
    default: SendOutcome,
    per_address: HashMap<String, SendOutcome>,
    sent: Vec<(CommType, String, String)>,
}

impl LoopbackChannels {
    /// Every send is accepted; IM sends ack after `ack_after`.
    pub fn always_ack(ack_after: Duration) -> Self {
        LoopbackChannels {
            default: SendOutcome::AcceptedWithAck(ack_after),
            per_address: HashMap::new(),
            sent: Vec::new(),
        }
    }

    /// Every send is accepted with no acks (fire-and-forget world).
    pub fn accept_all() -> Self {
        LoopbackChannels {
            default: SendOutcome::Accepted,
            per_address: HashMap::new(),
            sent: Vec::new(),
        }
    }

    /// Scripts the outcome for a specific address.
    pub fn script(&mut self, address: impl Into<String>, outcome: SendOutcome) {
        self.per_address.insert(address.into(), outcome);
    }

    /// Everything sent so far, in order: `(channel, address, text)`.
    pub fn sent(&self) -> &[(CommType, String, String)] {
        &self.sent
    }
}

impl Channels for LoopbackChannels {
    fn send(&mut self, comm_type: CommType, address: &str, text: &str) -> SendOutcome {
        self.sent
            .push((comm_type, address.to_string(), text.to_string()));
        let outcome = self
            .per_address
            .get(address)
            .copied()
            .unwrap_or(self.default);
        match (comm_type, outcome) {
            // Only IM can carry acknowledgements (§3.1); a scripted ack on
            // an ack-less channel degrades to plain acceptance.
            (CommType::Im, o) => o,
            (_, SendOutcome::AcceptedWithAck(_)) => SendOutcome::Accepted,
            (_, o) => o,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_scripted_outcomes() {
        let mut c = LoopbackChannels::always_ack(Duration::from_millis(100));
        c.script("im:broken", SendOutcome::Failed(SendFailure::RecipientUnreachable));
        assert_eq!(
            c.send(CommType::Im, "im:alice", "hi"),
            SendOutcome::AcceptedWithAck(Duration::from_millis(100))
        );
        assert_eq!(
            c.send(CommType::Im, "im:broken", "hi"),
            SendOutcome::Failed(SendFailure::RecipientUnreachable)
        );
        assert_eq!(c.sent().len(), 2);
    }

    #[test]
    fn non_im_channels_never_ack() {
        let mut c = LoopbackChannels::always_ack(Duration::from_millis(100));
        assert_eq!(c.send(CommType::Email, "a@b", "hi"), SendOutcome::Accepted);
        assert_eq!(c.send(CommType::Sms, "+1", "hi"), SendOutcome::Accepted);
    }

    #[test]
    fn accept_all_has_no_acks() {
        let mut c = LoopbackChannels::accept_all();
        assert_eq!(c.send(CommType::Im, "im:x", "hi"), SendOutcome::Accepted);
    }

    #[test]
    fn shared_channels_fan_in_to_one_adapter() {
        let shared = SharedChannels::new(LoopbackChannels::accept_all());
        let mut a = shared.clone();
        let mut b = shared.clone();
        a.send(CommType::Im, "im:a", "hi");
        b.send(CommType::Email, "b@c", "yo");
        assert_eq!(shared.with(|c| c.sent().len()), 2);
    }
}
