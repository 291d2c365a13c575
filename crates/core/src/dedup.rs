//! Timestamp-based duplicate suppression at the user (§4.2.1).
//!
//! "Duplicated alert deliveries may occur if MyAlertBuddy fails after
//! sending an alert and before marking the corresponding received IM as
//! 'Processed'. We use timestamps to allow the user to detect and discard
//! duplicates." The detector remembers `(source, category, origin
//! timestamp)` keys within a sliding window.

use crate::alert::Alert;
use simba_sim::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// What [`Alert::dedup_key`] returns: `(source, category, origin)`.
type DedupKey = (Arc<str>, Arc<str>, SimTime);

/// A sliding-window duplicate detector keyed by [`Alert::dedup_key`].
#[derive(Debug)]
pub struct DuplicateDetector {
    window: SimDuration,
    /// key → when first seen.
    seen: HashMap<DedupKey, SimTime>,
    /// FIFO of (seen_at, key) for expiry.
    order: VecDeque<(SimTime, DedupKey)>,
    duplicates: u64,
    accepted: u64,
}

impl DuplicateDetector {
    /// Creates a detector with the given memory window. Alerts older than
    /// the window are forgotten — a replay after that long is treated as
    /// new, which matches how a human reading alerts would behave.
    pub fn new(window: SimDuration) -> Self {
        DuplicateDetector {
            window,
            seen: HashMap::new(),
            order: VecDeque::new(),
            duplicates: 0,
            accepted: 0,
        }
    }

    /// A detector with the default 24-hour window.
    pub fn daily() -> Self {
        DuplicateDetector::new(SimDuration::from_hours(24))
    }

    /// Observes a delivered alert; returns `true` if it is fresh, `false`
    /// if it is a duplicate to discard.
    pub fn observe(&mut self, alert: &Alert, now: SimTime) -> bool {
        self.expire(now);
        let key = alert.dedup_key();
        if self.seen.contains_key(&key) {
            self.duplicates += 1;
            false
        } else {
            self.seen.insert(key.clone(), now);
            self.order.push_back((now, key));
            self.accepted += 1;
            true
        }
    }

    fn expire(&mut self, now: SimTime) {
        while self
            .order
            .front()
            .is_some_and(|(at, _)| now.since(*at) > self.window)
        {
            if let Some((_, key)) = self.order.pop_front() {
                self.seen.remove(&key);
            }
        }
    }

    /// Count of duplicates discarded so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Count of fresh alerts accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Number of keys currently remembered.
    pub fn remembered(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::{AlertId, Urgency};

    fn alert(id: u64, origin_secs: u64) -> Alert {
        Alert {
            id: AlertId(id),
            source: "aladdin".into(),
            category: "Home".into(),
            text: "x".into(),
            origin_timestamp: SimTime::from_secs(origin_secs),
            received_at: SimTime::from_secs(origin_secs),
            urgency: Urgency::Normal,
        }
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn replay_with_same_origin_is_duplicate() {
        let mut d = DuplicateDetector::daily();
        assert!(d.observe(&alert(1, 100), t(101)));
        // Replayed after a WAL recovery: new id, same origin timestamp.
        assert!(!d.observe(&alert(2, 100), t(160)));
        assert_eq!(d.duplicates(), 1);
        assert_eq!(d.accepted(), 1);
    }

    #[test]
    fn different_origin_is_fresh() {
        let mut d = DuplicateDetector::daily();
        assert!(d.observe(&alert(1, 100), t(101)));
        assert!(d.observe(&alert(2, 200), t(201)));
        assert_eq!(d.accepted(), 2);
    }

    #[test]
    fn different_source_or_category_is_fresh() {
        let mut d = DuplicateDetector::daily();
        let mut a = alert(1, 100);
        assert!(d.observe(&a, t(101)));
        a.source = "wish".into();
        assert!(d.observe(&a, t(102)));
        a.category = "Location".into();
        assert!(d.observe(&a, t(103)));
    }

    #[test]
    fn window_expiry_forgets_old_keys() {
        let mut d = DuplicateDetector::new(SimDuration::from_secs(60));
        assert!(d.observe(&alert(1, 100), t(100)));
        assert!(!d.observe(&alert(2, 100), t(130)));
        // 100s after first sight: beyond the window, treated as new.
        assert!(d.observe(&alert(3, 100), t(201)));
        assert_eq!(d.remembered(), 1);
    }

    #[test]
    fn counters_track_history() {
        let mut d = DuplicateDetector::daily();
        for i in 0..5 {
            d.observe(&alert(i, 100), t(100 + i));
        }
        assert_eq!(d.accepted(), 1);
        assert_eq!(d.duplicates(), 4);
    }
}
