//! The unit of soft state: a short-lived, generation-stamped fact.

use simba_sim::{SimDuration, SimTime};

/// One soft-state fact: a value published under `(scope, key)` that
/// expires on its own unless refreshed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fact {
    /// The published value (free-form; the conventions live with the
    /// publishers — e.g. `"away"` under `presence/<user>`).
    pub value: String,
    /// Who published it (a gateway source name, a channel name...).
    pub source: String,
    /// When it was published.
    pub published_at: SimTime,
    /// The instant it stops being true. A fact is expired once
    /// `now >= expires_at`.
    pub expires_at: SimTime,
    /// Store-wide monotone publication counter: a later put always has a
    /// larger generation, so a reader can order observations and expiry
    /// can never resurrect an older value.
    pub generation: u64,
}

impl Fact {
    /// Whether the fact is expired at `now`.
    pub fn is_expired(&self, now: SimTime) -> bool {
        now >= self.expires_at
    }

    /// Time-to-live remaining at `now` (zero when expired).
    pub fn ttl_remaining(&self, now: SimTime) -> SimDuration {
        self.expires_at.since(now)
    }
}
