//! Idempotent-send filtering for channel adapters.
//!
//! The delivery ledger (`simba-ledger`) is at-least-once internally: a
//! worker that dies between performing a send and recording it leaves a
//! lease that expires, and another worker re-sends. Every outbound send
//! carries the record's stable idempotency key (`user/delivery/channel`),
//! and the adapter in front of a channel service passes it through an
//! [`IdempotencyFilter`]: the first occurrence proceeds, every later one
//! is reported as a duplicate and suppressed — so the *visible* effect of
//! an alert on a channel is exactly-once.
//!
//! The filter's memory is bounded: it never holds more than `capacity`
//! keys (the oldest is retired FIFO before a fresh one goes in), and
//! each key's text is stored once, shared between the lookup set and the
//! FIFO. Size it above the worst-case redelivery window (keys stop
//! arriving once the ledger marks the record sent), not above the total
//! send volume.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Bounded first-seen filter over idempotency keys.
#[derive(Debug)]
pub struct IdempotencyFilter {
    capacity: usize,
    seen: HashSet<Arc<str>>,
    order: VecDeque<Arc<str>>,
    deduped: u64,
    evicted: u64,
}

impl IdempotencyFilter {
    /// A filter remembering at most `capacity` keys (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        IdempotencyFilter {
            capacity,
            seen: HashSet::new(),
            order: VecDeque::new(),
            deduped: 0,
            evicted: 0,
        }
    }

    /// Whether `key` is fresh. The first call for a key returns `true`
    /// (and remembers it); every later call returns `false` until the
    /// key ages out of the bounded window. Hand it a clone of the ledger
    /// record's own `Arc<str>` and remembering the key allocates nothing.
    pub fn first_seen(&mut self, key: impl AsRef<str> + Into<Arc<str>>) -> bool {
        if self.seen.contains(key.as_ref()) {
            self.deduped += 1;
            return false;
        }
        // Evict before inserting, so neither container ever holds (and
        // grows its allocation for) more than `capacity` keys.
        while self.order.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
                self.evicted += 1;
            }
        }
        let key: Arc<str> = key.into();
        self.seen.insert(Arc::clone(&key));
        self.order.push_back(key);
        true
    }

    /// Forgets `key`, so its next occurrence reads as fresh again. For a
    /// caller that recorded the key before a send whose outcome turned out
    /// to be a failure: the effect never happened, so the retry must not
    /// be suppressed as its duplicate.
    pub fn forget(&mut self, key: &str) {
        if self.seen.remove(key) {
            // Just recorded, so it sits at or near the back: search from
            // there rather than scanning the whole window.
            if let Some(at) = self.order.iter().rposition(|k| k.as_ref() == key) {
                self.order.remove(at);
            }
        }
    }

    /// Whether `key` has been seen, without recording anything.
    pub fn contains(&self, key: &str) -> bool {
        self.seen.contains(key)
    }

    /// Keys currently remembered.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether no keys are remembered.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Duplicates suppressed so far.
    pub fn deduped(&self) -> u64 {
        self.deduped
    }

    /// Keys retired by the capacity bound so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_occurrence_passes_later_ones_dedupe() {
        let mut filter = IdempotencyFilter::new(16);
        assert!(filter.first_seen("alice/1/IM"));
        assert!(!filter.first_seen("alice/1/IM"));
        assert!(!filter.first_seen("alice/1/IM"));
        assert!(filter.first_seen("alice/1/SMS"), "another channel is another key");
        assert_eq!(filter.deduped(), 2);
    }

    #[test]
    fn capacity_bound_retires_oldest_keys() {
        let mut filter = IdempotencyFilter::new(2);
        assert!(filter.first_seen("a"));
        assert!(filter.first_seen("b"));
        assert!(filter.first_seen("c"), "capacity 2: inserting c retires a");
        assert_eq!(filter.len(), 2);
        assert_eq!(filter.evicted(), 1);
        assert!(!filter.contains("a"));
        assert!(filter.first_seen("a"), "a aged out, so it reads as fresh again");
    }

    #[test]
    fn forgotten_key_reads_fresh_and_frees_its_slot() {
        let mut filter = IdempotencyFilter::new(2);
        assert!(filter.first_seen("a"));
        assert!(filter.first_seen("b"));
        filter.forget("a");
        assert_eq!(filter.len(), 1);
        assert!(filter.first_seen("a"), "a forgotten key is fresh again");
        assert_eq!(filter.len(), 2);
        assert_eq!(filter.evicted(), 0, "forgetting freed the slot; b was not pushed out");
        assert!(filter.contains("b"));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut filter = IdempotencyFilter::new(0);
        assert!(filter.first_seen("x"));
        assert!(!filter.first_seen("x"), "the most recent key is always remembered");
    }
}
