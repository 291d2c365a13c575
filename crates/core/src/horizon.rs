//! The duplicate horizon: a first-seen set bounded by time and by size
//! (§4.2.1).
//!
//! "Duplicated alert deliveries may occur if MyAlertBuddy fails after
//! sending an alert and before marking the corresponding received IM as
//! 'Processed'. We use timestamps to allow the user to detect and discard
//! duplicates." A [`Horizon`] is that idea once: it remembers the keys it
//! has seen for a while and says whether a key is new. Both of its bounds
//! are plain numbers, and a caller that needs only one passes the other's
//! maximum:
//!
//! * the ledger bridge's idempotency filter bounds only the count
//!   (`window = SimDuration::MAX`);
//! * the user's replay detector (A2) bounds only the age
//!   (`capacity = usize::MAX`);
//! * the rules correlator's dedupe template bounds both, per user.
//!
//! **Boundary.** A key first seen at `t` is a repeat through `t + window`
//! inclusive and is forgotten strictly after it, so `SimDuration::MAX`
//! never forgets. **Capacity.** The oldest key is evicted *before* a
//! fresh one goes in, so neither container ever holds (or grows its
//! allocation for) more than `capacity` keys.

use simba_sim::{SimDuration, SimTime};
use std::collections::{HashSet, VecDeque};
use std::hash::Hash;

/// A first-seen set bounded by a time window and a capacity.
#[derive(Debug)]
pub struct Horizon<K> {
    window: SimDuration,
    capacity: usize,
    /// `(seen_at, key)`, oldest first: expiry and eviction pop the front.
    order: VecDeque<(SimTime, K)>,
    seen: HashSet<K>,
    hits: u64,
}

impl<K: Hash + Eq + Clone> Horizon<K> {
    /// A horizon remembering each key for `window` and at most `capacity`
    /// keys (minimum 1).
    pub fn new(window: SimDuration, capacity: usize) -> Self {
        Horizon {
            window,
            capacity: capacity.max(1),
            order: VecDeque::new(),
            seen: HashSet::new(),
            hits: 0,
        }
    }

    /// Whether `key` is new at `now`. The first call for a key returns
    /// `true` and remembers it; every later call returns `false` until the
    /// key leaves the window or is evicted by the capacity. The set and
    /// the FIFO each hold a clone of the key, so an `Arc` key is stored
    /// once, not copied.
    pub fn first_seen(&mut self, key: K, now: SimTime) -> bool {
        while self.order.front().is_some_and(|(at, _)| now.since(*at) > self.window) {
            self.pop_oldest();
        }
        if self.seen.contains(&key) {
            self.hits += 1;
            return false;
        }
        while self.order.len() >= self.capacity {
            self.pop_oldest();
        }
        self.seen.insert(key.clone());
        self.order.push_back((now, key));
        true
    }

    fn pop_oldest(&mut self) {
        if let Some((_, key)) = self.order.pop_front() {
            self.seen.remove(&key);
        }
    }

    /// Forgets `key`, so its next occurrence reads as new again. For a
    /// caller that recorded the key before an effect that then failed —
    /// the effect never happened, so its retry is not a repeat — and for
    /// one whose key stops mattering once its effect is settled.
    pub fn forget(&mut self, key: &K) {
        if !self.seen.remove(key) {
            return;
        }
        // A settled key is usually the oldest, a failed one the newest:
        // look at the front, then search from the back.
        if self.order.front().is_some_and(|(_, k)| k == key) {
            self.order.pop_front();
        } else if let Some(at) = self.order.iter().rposition(|(_, k)| k == key) {
            self.order.remove(at);
        }
    }

    /// Keys currently remembered.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether no key is remembered.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Repeats answered `false` so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const NEVER: SimDuration = SimDuration::MAX;
    const UNBOUNDED: usize = usize::MAX;

    /// One step of a case: `Seen(key, at_ms, expected first_seen)`,
    /// `Forget(key)`, or `Len(expected len)`.
    enum Step {
        Seen(&'static str, u64, bool),
        Forget(&'static str),
        Len(usize),
    }
    use Step::{Forget, Len, Seen};

    const HOUR: u64 = 3_600_000;

    /// `(name, window, capacity, steps, expected hits)`.
    type Case = (&'static str, SimDuration, usize, &'static [Step], u64);

    const CASES: &[Case] = &[
        // The detector's cases: a replay after a WAL recovery carries a
        // new id but the same (source, category, origin) key.
        (
            "a replay with the same key is a repeat",
            SimDuration::from_hours(24),
            UNBOUNDED,
            &[Seen("aladdin/Home/100", 101_000, true), Seen("aladdin/Home/100", 160_000, false)],
            1,
        ),
        // (`alert.rs` checks that source, category and origin each make
        // up `Alert::dedup_key`; here each differs in the key.)
        (
            "a different origin, source or category is new",
            SimDuration::from_hours(24),
            UNBOUNDED,
            &[
                Seen("aladdin/Home/100", 101_000, true),
                Seen("aladdin/Home/200", 201_000, true),
                Seen("wish/Home/100", 202_000, true),
                Seen("wish/Location/100", 203_000, true),
            ],
            0,
        ),
        (
            "the window forgets old keys",
            SimDuration::from_secs(60),
            UNBOUNDED,
            &[
                Seen("k", 100_000, true),
                Seen("k", 130_000, false),
                // 100 s after first sight: beyond the window, new again.
                Seen("k", 201_000, true),
                Len(1),
            ],
            1,
        ),
        (
            "a repeat at exactly seen_at + 24 h is still a repeat",
            SimDuration::from_hours(24),
            UNBOUNDED,
            &[Seen("k", 5_000, true), Seen("k", 5_000 + 24 * HOUR, false), Seen("k", 5_001 + 24 * HOUR, true)],
            1,
        ),
        // The idempotency filter's cases: no window, a capacity.
        (
            "the first occurrence passes, later ones are repeats",
            NEVER,
            16,
            &[
                Seen("alice/1/IM", 0, true),
                Seen("alice/1/IM", 0, false),
                Seen("alice/1/IM", u64::MAX, false),
                Seen("alice/1/SMS", 0, true),
            ],
            2,
        ),
        (
            "the capacity retires the oldest key",
            NEVER,
            2,
            &[Seen("a", 0, true), Seen("b", 0, true), Seen("c", 0, true), Len(2), Seen("a", 0, true)],
            0,
        ),
        (
            "a forgotten key is new again and frees its slot",
            NEVER,
            2,
            &[
                Seen("a", 0, true),
                Seen("b", 0, true),
                Forget("a"),
                Len(1),
                Seen("a", 0, true),
                Len(2),
                // Forgetting freed the slot: b was not pushed out.
                Seen("b", 0, false),
            ],
            1,
        ),
        (
            "a zero capacity clamps to one",
            NEVER,
            0,
            &[Seen("x", 0, true), Seen("x", 0, false)],
            1,
        ),
        // Both bounds, as the correlator sets them.
        (
            "whichever bound is reached first forgets",
            SimDuration::from_millis(1_000),
            2,
            &[
                Seen("a", 0, true),
                Seen("b", 10, true),
                Seen("c", 20, true),
                Seen("a", 30, true),
                Seen("b", 1_010, true),
                // a was seen at 30: a repeat at exactly 1 030, new after.
                Seen("a", 1_030, false),
                Seen("a", 1_031, true),
                Len(2),
            ],
            1,
        ),
    ];

    #[test]
    fn horizon_cases() {
        for (name, window, capacity, steps, hits) in CASES {
            let mut horizon = Horizon::new(*window, *capacity);
            for (i, step) in steps.iter().enumerate() {
                match *step {
                    Seen(key, at, fresh) => assert_eq!(
                        horizon.first_seen(key, SimTime::from_millis(at)),
                        fresh,
                        "{name}: step {i} ({key} at {at} ms)"
                    ),
                    Forget(key) => horizon.forget(&key),
                    Len(len) => assert_eq!(horizon.len(), len, "{name}: step {i}"),
                }
            }
            assert_eq!(horizon.hits(), *hits, "{name}: hits");
        }
    }

    /// The naive reference: every remembered key in a `Vec`, oldest
    /// first, under the same boundary and eviction rules.
    struct Model {
        window: SimDuration,
        capacity: usize,
        keys: Vec<(SimTime, u8)>,
    }

    impl Model {
        fn first_seen(&mut self, key: u8, now: SimTime) -> bool {
            let window = self.window;
            self.keys.retain(|(at, _)| now.since(*at) <= window);
            if self.keys.iter().any(|(_, k)| *k == key) {
                return false;
            }
            while self.keys.len() >= self.capacity.max(1) {
                self.keys.remove(0);
            }
            self.keys.push((now, key));
            true
        }

        fn forget(&mut self, key: u8) {
            self.keys.retain(|(_, k)| *k != key);
        }
    }

    /// `(op, key, advance_ms)`: op 0–1 is `first_seen`, 2 is `forget`,
    /// 3 advances the clock only.
    fn ops() -> impl Strategy<Value = Vec<(u8, u8, u64)>> {
        proptest::collection::vec((0u8..4, 0u8..6, 0u64..40), 0..120)
    }

    /// Runs `ops` on a [`Horizon`] and on the [`Model`]: every answer and
    /// every `len()` must agree.
    fn agrees_with_model(window: SimDuration, capacity: usize, ops: &[(u8, u8, u64)]) {
        let mut horizon = Horizon::new(window, capacity);
        let mut model = Model { window, capacity, keys: Vec::new() };
        let mut now = SimTime::ZERO;
        for &(op, key, advance) in ops {
            now += SimDuration::from_millis(advance);
            match op {
                0 | 1 => prop_assert_eq!(horizon.first_seen(key, now), model.first_seen(key, now)),
                2 => {
                    horizon.forget(&key);
                    model.forget(key);
                }
                _ => {}
            }
            prop_assert_eq!(horizon.len(), model.keys.len());
        }
    }

    proptest! {
        #[test]
        fn the_window_alone_agrees_with_the_model(ops in ops(), window in 0u64..100) {
            agrees_with_model(SimDuration::from_millis(window), UNBOUNDED, &ops);
        }

        #[test]
        fn the_capacity_alone_agrees_with_the_model(ops in ops(), capacity in 0usize..6) {
            agrees_with_model(NEVER, capacity, &ops);
        }

        #[test]
        fn both_bounds_agree_with_the_model(ops in ops(), window in 0u64..100, capacity in 0usize..6) {
            agrees_with_model(SimDuration::from_millis(window), capacity, &ops);
        }
    }
}
