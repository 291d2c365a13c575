//! The subscription layer: users, their address books and modes, and the
//! category → `(user, mode)` mapping (§4.1).
//!
//! "It provides a subscription API for mapping a category name to a user
//! with a particular delivery mode. Each category can have multiple
//! subscribers, each of which can specify a different delivery mode."
//! Subscriptions also carry the §3.3/§4.2 conveniences: per-subscription
//! enable/disable ("temporarily blocks unwanted alerts") and delivery time
//! windows ("specifying delivery time constraints").

use crate::address::AddressBook;
use crate::mab::DeliveryId;
use crate::mode::DeliveryMode;
use crate::vecmap::VecMap;
use simba_sim::SimTime;
use std::sync::Arc;

/// A user identifier. Every layer an alert crosses keeps one (routing
/// key, log record, staged command, ledger record, notice), so the name
/// is shared: a clone is a count bump, not an allocation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub Arc<str>);

impl UserId {
    /// Convenience constructor.
    pub fn new(s: impl Into<Arc<str>>) -> Self {
        UserId(s.into())
    }
}

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A daily delivery window in wall-clock minutes-of-day, half-open.
/// Windows may wrap midnight (`start > end`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeWindow {
    /// Start, minutes after local midnight (inclusive).
    pub start_min: u32,
    /// End, minutes after local midnight (exclusive).
    pub end_min: u32,
}

impl TimeWindow {
    /// Whether `at` falls inside the window.
    pub fn contains(&self, at: SimTime) -> bool {
        let minute = (at.millis_of_day() / 60_000) as u32;
        if self.start_min <= self.end_min {
            (self.start_min..self.end_min).contains(&minute)
        } else {
            // Wraps midnight.
            minute >= self.start_min || minute < self.end_min
        }
    }
}

/// One subscription: deliver alerts of a category to a user via a mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscription {
    /// The subscriber.
    pub user: UserId,
    /// Name of the delivery mode to use (resolved against the user's modes).
    pub mode_name: String,
    /// Whether the subscription is currently active.
    pub enabled: bool,
    /// Optional daily delivery window; outside it, alerts are suppressed
    /// ("disable these alerts during certain hours to avoid distractions",
    /// §3.3).
    pub window: Option<TimeWindow>,
}

/// Errors from the subscription registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscriptionError {
    /// The user is not registered.
    UnknownUser(UserId),
    /// The user has no mode with that name.
    UnknownMode {
        /// The subscriber.
        user: UserId,
        /// The missing mode name.
        mode_name: String,
    },
    /// The same (category, user) pair is already subscribed.
    Duplicate {
        /// The category.
        category: String,
        /// The subscriber.
        user: UserId,
    },
    /// The registry already holds [`DeliveryId::MAX_FANOUT`]
    /// subscriptions: one more could fan an alert out to more deliveries
    /// than a delivery id has positions for.
    FanOutFull,
}

impl std::fmt::Display for SubscriptionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubscriptionError::UnknownUser(u) => write!(f, "unknown user {u}"),
            SubscriptionError::UnknownMode { user, mode_name } => {
                write!(f, "user {user} has no delivery mode {mode_name:?}")
            }
            SubscriptionError::Duplicate { category, user } => {
                write!(f, "user {user} already subscribes to {category:?}")
            }
            SubscriptionError::FanOutFull => {
                let most = DeliveryId::MAX_FANOUT;
                write!(f, "the registry holds {most} subscriptions, the most one fan-out may reach")
            }
        }
    }
}

impl std::error::Error for SubscriptionError {}

/// Per-user profile: address book plus named delivery modes.
#[derive(Debug, Clone, Default)]
pub struct UserProfile {
    /// The user's addresses.
    pub address_book: AddressBook,
    /// Shared so a routed alert hands its [`DeliveryMode`] to the delivery
    /// process without a deep clone (the alert hot path).
    modes: VecMap<String, Arc<DeliveryMode>>,
}

impl UserProfile {
    /// Registers (or replaces) a delivery mode under its name.
    pub fn define_mode(&mut self, mode: DeliveryMode) {
        self.modes.insert(mode.name.clone(), Arc::new(mode));
    }

    /// Looks a mode up by name.
    pub fn mode(&self, name: &str) -> Option<&DeliveryMode> {
        self.modes.get(name).map(|m| &**m)
    }

    /// Like [`UserProfile::mode`], but returning the shared handle — the
    /// cheap way to start a delivery with this mode.
    pub fn mode_shared(&self, name: &str) -> Option<Arc<DeliveryMode>> {
        self.modes.get(name).cloned()
    }

    /// Names of all defined modes.
    pub fn mode_names(&self) -> impl Iterator<Item = &str> {
        self.modes.iter().map(|(name, _)| name.as_str())
    }
}

/// The registry behind the subscription layer.
#[derive(Debug, Clone, Default)]
pub struct SubscriptionRegistry {
    users: VecMap<UserId, UserProfile>,
    /// category → subscriptions.
    subscriptions: VecMap<String, Vec<Subscription>>,
    /// Subscriptions across every category: a bound on any alert's
    /// fan-out, which counts each subscriber once.
    subscribed: usize,
}

impl SubscriptionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SubscriptionRegistry::default()
    }

    /// Registers a user (idempotent).
    pub fn register_user(&mut self, user: UserId) -> &mut UserProfile {
        self.users.get_or_default(user)
    }

    /// The user's profile, if registered.
    pub fn user(&self, user: &UserId) -> Option<&UserProfile> {
        self.users.get(user)
    }

    /// Mutable profile access (address enable/disable, mode updates).
    pub fn user_mut(&mut self, user: &UserId) -> Option<&mut UserProfile> {
        self.users.get_mut(user)
    }

    /// Subscribes `user` to `category` with delivery mode `mode_name`.
    ///
    /// # Errors
    ///
    /// Fails if the user or mode is unknown, the pair already exists, or
    /// the registry is full ([`SubscriptionError::FanOutFull`]).
    pub fn subscribe(
        &mut self,
        category: impl Into<String>,
        user: UserId,
        mode_name: impl Into<String>,
    ) -> Result<(), SubscriptionError> {
        let category = category.into();
        let mode_name = mode_name.into();
        let profile = self
            .users
            .get(&user)
            .ok_or_else(|| SubscriptionError::UnknownUser(user.clone()))?;
        if profile.mode(&mode_name).is_none() {
            return Err(SubscriptionError::UnknownMode { user, mode_name });
        }
        if self.subscribed == DeliveryId::MAX_FANOUT {
            return Err(SubscriptionError::FanOutFull);
        }
        let subs = self.subscriptions.get_or_default(category.clone());
        if subs.iter().any(|s| s.user == user) {
            return Err(SubscriptionError::Duplicate { category, user });
        }
        self.subscribed += 1;
        subs.push(Subscription {
            user,
            mode_name,
            enabled: true,
            window: None,
        });
        Ok(())
    }

    /// Removes a subscription. Returns whether it existed.
    pub fn unsubscribe(&mut self, category: &str, user: &UserId) -> bool {
        match self.subscriptions.get_mut(category) {
            Some(subs) => {
                let before = subs.len();
                subs.retain(|s| &s.user != user);
                self.subscribed -= before - subs.len();
                before != subs.len()
            }
            None => false,
        }
    }

    /// Enables/disables a subscription. Returns whether it existed.
    pub fn set_enabled(&mut self, category: &str, user: &UserId, enabled: bool) -> bool {
        self.with_subscription(category, user, |s| s.enabled = enabled)
    }

    /// Switches the delivery mode of an existing subscription — the §3.3
    /// one-stop change ("temporarily switch the delivery mechanism for all
    /// 'Investment' alerts from SMS to IM").
    ///
    /// # Errors
    ///
    /// Fails if the subscription doesn't exist or the mode is undefined.
    pub fn set_mode(
        &mut self,
        category: &str,
        user: &UserId,
        mode_name: impl Into<String>,
    ) -> Result<(), SubscriptionError> {
        let mode_name = mode_name.into();
        let profile = self
            .users
            .get(user)
            .ok_or_else(|| SubscriptionError::UnknownUser(user.clone()))?;
        if profile.mode(&mode_name).is_none() {
            return Err(SubscriptionError::UnknownMode {
                user: user.clone(),
                mode_name,
            });
        }
        if self.with_subscription(category, user, |s| s.mode_name = mode_name.clone()) {
            Ok(())
        } else {
            Err(SubscriptionError::UnknownUser(user.clone()))
        }
    }

    /// Sets (or clears) a subscription's daily delivery window.
    pub fn set_window(&mut self, category: &str, user: &UserId, window: Option<TimeWindow>) -> bool {
        self.with_subscription(category, user, |s| s.window = window)
    }

    fn with_subscription(
        &mut self,
        category: &str,
        user: &UserId,
        f: impl FnOnce(&mut Subscription),
    ) -> bool {
        if let Some(subs) = self.subscriptions.get_mut(category) {
            if let Some(s) = subs.iter_mut().find(|s| &s.user == user) {
                f(s);
                return true;
            }
        }
        false
    }

    /// The subscriptions that should fire for `category` at `now`:
    /// enabled, inside their window. Categories are matched hierarchically:
    /// a subscription to `"Home.Security"` also receives
    /// `"Home.Security.Urgent"` unless a more specific subscription exists
    /// for the same user.
    pub fn active_subscriptions(&self, category: &str, now: SimTime) -> Vec<&Subscription> {
        self.fan_out(category, now).into_iter().map(|(_, s)| s).collect()
    }

    /// [`Self::active_subscriptions`], each with its fan-out position: its
    /// index among every subscription matching `category`, enabled or
    /// not, in or out of its window. The position is therefore fixed by
    /// the configuration alone — an enable toggle or a window boundary
    /// between an alert's first routing and its replay never moves it onto
    /// another subscriber — and stays below [`DeliveryId::MAX_FANOUT`],
    /// since each matching subscription is counted once.
    pub fn fan_out(&self, category: &str, now: SimTime) -> Vec<(usize, &Subscription)> {
        let mut out: Vec<(usize, &Subscription)> = Vec::new();
        let mut position = 0;
        // Walk from most-specific to least-specific prefix.
        let mut prefix = category;
        loop {
            if let Some(subs) = self.subscriptions.get(prefix) {
                for s in subs {
                    let at = position;
                    position += 1;
                    if !s.enabled {
                        continue;
                    }
                    if let Some(w) = s.window {
                        if !w.contains(now) {
                            continue;
                        }
                    }
                    if out.iter().all(|(_, existing)| existing.user != s.user) {
                        out.push((at, s));
                    }
                }
            }
            match prefix.rfind('.') {
                Some(idx) => prefix = &category[..idx],
                None => break,
            }
        }
        out
    }

    /// All categories with at least one subscription.
    pub fn categories(&self) -> impl Iterator<Item = &str> {
        self.subscriptions.iter().map(|(category, _)| category.as_str())
    }

    /// All subscriptions registered under exactly `category` (no
    /// hierarchical matching, no enabled/window filtering) — the raw
    /// configuration, for persistence and inspection.
    pub fn subscriptions_in(&self, category: &str) -> &[Subscription] {
        self.subscriptions.get(category).map_or(&[], Vec::as_slice)
    }

    /// All registered users with their profiles, in id order.
    pub fn users(&self) -> impl Iterator<Item = (&UserId, &UserProfile)> {
        self.users.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::{Address, CommType};
    use simba_sim::SimDuration;

    fn registry() -> SubscriptionRegistry {
        let mut r = SubscriptionRegistry::new();
        let alice = UserId::new("alice");
        let profile = r.register_user(alice.clone());
        profile
            .address_book
            .add(Address::new("MSN IM", CommType::Im, "im:alice"))
            .unwrap();
        profile
            .address_book
            .add(Address::new("Work email", CommType::Email, "alice@work"))
            .unwrap();
        profile.define_mode(DeliveryMode::im_then_email(
            "Urgent",
            "MSN IM",
            "Work email",
            SimDuration::from_secs(60),
        ));
        r
    }

    fn alice() -> UserId {
        UserId::new("alice")
    }

    #[test]
    fn subscribe_requires_user_and_mode() {
        let mut r = registry();
        assert!(matches!(
            r.subscribe("Investment", UserId::new("bob"), "Urgent"),
            Err(SubscriptionError::UnknownUser(_))
        ));
        assert!(matches!(
            r.subscribe("Investment", alice(), "NoSuchMode"),
            Err(SubscriptionError::UnknownMode { .. })
        ));
        r.subscribe("Investment", alice(), "Urgent").unwrap();
        assert!(matches!(
            r.subscribe("Investment", alice(), "Urgent"),
            Err(SubscriptionError::Duplicate { .. })
        ));
    }

    #[test]
    fn a_registry_refuses_a_subscription_past_the_fan_out_bound() {
        let mut r = registry();
        let categories = |range: std::ops::Range<usize>| range.map(|i| format!("C{i:05}"));
        for category in categories(0..DeliveryId::MAX_FANOUT) {
            r.subscribe(category, alice(), "Urgent").unwrap();
        }
        assert_eq!(
            r.subscribe("Overflow", alice(), "Urgent"),
            Err(SubscriptionError::FanOutFull)
        );
        assert_eq!(r.categories().count(), DeliveryId::MAX_FANOUT, "a refusal adds no category");
        // Unsubscribing frees a slot.
        assert!(r.unsubscribe("C00000", &alice()));
        r.subscribe("Overflow", alice(), "Urgent").unwrap();
        assert_eq!(r.subscribe("C00000", alice(), "Urgent"), Err(SubscriptionError::FanOutFull));
    }

    #[test]
    fn multiple_subscribers_per_category() {
        let mut r = registry();
        let bob = UserId::new("bob");
        let p = r.register_user(bob.clone());
        p.address_book.add(Address::new("IM", CommType::Im, "im:bob")).unwrap();
        p.define_mode(DeliveryMode::im_then_email("M", "IM", "IM", SimDuration::from_secs(30)));
        r.subscribe("Investment", alice(), "Urgent").unwrap();
        r.subscribe("Investment", bob.clone(), "M").unwrap();
        let subs = r.active_subscriptions("Investment", SimTime::ZERO);
        assert_eq!(subs.len(), 2);
        // Different users may use different modes.
        assert_ne!(subs[0].mode_name, subs[1].mode_name);
    }

    #[test]
    fn disabled_subscription_does_not_fire() {
        let mut r = registry();
        r.subscribe("Investment", alice(), "Urgent").unwrap();
        assert_eq!(r.active_subscriptions("Investment", SimTime::ZERO).len(), 1);
        assert!(r.set_enabled("Investment", &alice(), false));
        assert!(r.active_subscriptions("Investment", SimTime::ZERO).is_empty());
        assert!(r.set_enabled("Investment", &alice(), true));
        assert_eq!(r.active_subscriptions("Investment", SimTime::ZERO).len(), 1);
    }

    #[test]
    fn unsubscribe_removes() {
        let mut r = registry();
        r.subscribe("Investment", alice(), "Urgent").unwrap();
        assert!(r.unsubscribe("Investment", &alice()));
        assert!(!r.unsubscribe("Investment", &alice()));
        assert!(r.active_subscriptions("Investment", SimTime::ZERO).is_empty());
    }

    #[test]
    fn time_window_gates_delivery() {
        let mut r = registry();
        r.subscribe("Investment", alice(), "Urgent").unwrap();
        // 09:00–17:00 window.
        r.set_window("Investment", &alice(), Some(TimeWindow { start_min: 540, end_min: 1020 }));
        let nine_am = SimTime::from_hours(9);
        let eight_pm = SimTime::from_hours(20);
        assert_eq!(r.active_subscriptions("Investment", nine_am).len(), 1);
        assert!(r.active_subscriptions("Investment", eight_pm).is_empty());
        // Day boundaries honour millis_of_day: day 3 at 10:00 works too.
        let day3_ten = SimTime::from_days(3) + SimDuration::from_hours(10);
        assert_eq!(r.active_subscriptions("Investment", day3_ten).len(), 1);
    }

    #[test]
    fn a_fan_out_position_ignores_toggles_and_windows() {
        let mut r = registry();
        let bob = UserId::new("bob");
        let p = r.register_user(bob.clone());
        p.address_book.add(Address::new("IM", CommType::Im, "im:bob")).unwrap();
        p.define_mode(DeliveryMode::im_then_email("M", "IM", "IM", SimDuration::from_secs(30)));
        r.subscribe("Home", alice(), "Urgent").unwrap();
        r.subscribe("Home", bob.clone(), "M").unwrap();
        let positions = |r: &SubscriptionRegistry, at| -> Vec<(usize, String)> {
            r.fan_out("Home.Door", at).into_iter().map(|(p, s)| (p, s.user.0.to_string())).collect()
        };
        let both = vec![(0, "alice".to_string()), (1, "bob".to_string())];
        assert_eq!(positions(&r, SimTime::ZERO), both);
        // Alice's window opens at 09:00: bob keeps position 1 either side.
        r.set_window("Home", &alice(), Some(TimeWindow { start_min: 540, end_min: 1020 }));
        assert_eq!(positions(&r, SimTime::from_hours(8)), vec![(1, "bob".to_string())]);
        assert_eq!(positions(&r, SimTime::from_hours(10)), both);
        r.set_enabled("Home", &alice(), false);
        assert_eq!(positions(&r, SimTime::from_hours(10)), vec![(1, "bob".to_string())]);
        // A shadowed parent subscription keeps its position too.
        r.subscribe("Home.Door", bob, "M").unwrap();
        assert_eq!(positions(&r, SimTime::from_hours(8)), vec![(0, "bob".to_string())]);
    }

    #[test]
    fn midnight_wrapping_window() {
        let w = TimeWindow { start_min: 22 * 60, end_min: 6 * 60 };
        assert!(w.contains(SimTime::from_hours(23)));
        assert!(w.contains(SimTime::from_hours(3)));
        assert!(!w.contains(SimTime::from_hours(12)));
    }

    #[test]
    fn hierarchical_categories_match_prefix() {
        let mut r = registry();
        r.subscribe("Home.Security", alice(), "Urgent").unwrap();
        // Subcategory alert reaches the parent subscription.
        let subs = r.active_subscriptions("Home.Security.Urgent", SimTime::ZERO);
        assert_eq!(subs.len(), 1);
        // Unrelated category does not.
        assert!(r.active_subscriptions("Home", SimTime::ZERO).is_empty());
        assert!(r.active_subscriptions("Investment", SimTime::ZERO).is_empty());
    }

    #[test]
    fn specific_subscription_shadows_parent_for_same_user() {
        let mut r = registry();
        let profile = r.user_mut(&alice()).unwrap();
        profile.define_mode(DeliveryMode::im_then_email(
            "Quiet",
            "Work email",
            "Work email",
            SimDuration::from_secs(60),
        ));
        r.subscribe("Home.Security", alice(), "Quiet").unwrap();
        r.subscribe("Home.Security.Urgent", alice(), "Urgent").unwrap();
        let subs = r.active_subscriptions("Home.Security.Urgent", SimTime::ZERO);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].mode_name, "Urgent"); // most specific wins
    }

    #[test]
    fn set_mode_switches_delivery() {
        let mut r = registry();
        let profile = r.user_mut(&alice()).unwrap();
        profile.define_mode(DeliveryMode::im_then_email(
            "Travel",
            "Work email",
            "Work email",
            SimDuration::from_secs(60),
        ));
        r.subscribe("Investment", alice(), "Urgent").unwrap();
        r.set_mode("Investment", &alice(), "Travel").unwrap();
        let subs = r.active_subscriptions("Investment", SimTime::ZERO);
        assert_eq!(subs[0].mode_name, "Travel");
        assert!(r.set_mode("Investment", &alice(), "Nope").is_err());
    }

    #[test]
    fn users_and_categories_iterate_in_id_order_however_they_were_registered() {
        let mut order: Vec<u64> = (0..1_000).collect();
        let mut rng = simba_sim::SimRng::new(7);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range(0, i as u64) as usize);
        }
        let mut r = SubscriptionRegistry::new();
        for n in &order {
            let user = UserId::new(format!("user{n:04}"));
            let profile = r.register_user(user.clone());
            profile.define_mode(DeliveryMode::im_then_email("M", "IM", "IM", SimDuration::from_secs(30)));
            r.subscribe(format!("Cat{n:04}"), user, "M").unwrap();
        }
        let users: Vec<&str> = r.users().map(|(u, _)| &*u.0).collect();
        assert_eq!(users.len(), 1_000);
        assert!(users.windows(2).all(|w| w[0] < w[1]));
        let categories: Vec<&str> = r.categories().collect();
        assert_eq!(categories.len(), 1_000);
        assert!(categories.windows(2).all(|w| w[0] < w[1]));
        assert!(r.user(&UserId::new("user0500")).is_some());
        assert_eq!(r.subscriptions_in("Cat0999").len(), 1);
    }

    #[test]
    fn categories_lists_subscribed() {
        let mut r = registry();
        r.subscribe("Investment", alice(), "Urgent").unwrap();
        r.subscribe("Daily", alice(), "Urgent").unwrap();
        let cats: Vec<&str> = r.categories().collect();
        assert_eq!(cats, vec!["Daily", "Investment"]);
    }
}
