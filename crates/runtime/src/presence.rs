//! Presence-aware routing backed by the soft-state store.
//!
//! [`StoreModeSelector`] is the runtime's [`ModeSelector`]: at delivery
//! start it reads the user's `presence/<user>` fact and the
//! `chanhealth/<channel>` facts out of a [`SoftStateStore`] and distills
//! them into the [`RoutingContext`] the core's `apply_routing` consumes.
//! Expired facts read through the store are removed and never returned,
//! so an unrefreshed presence automatically decays back to the static
//! profile — no unsubscription protocol needed, exactly the soft-state
//! argument of the paper's §5 integration.

use crate::clock::RuntimeClock;
use simba_core::routing::{ModeSelector, PresenceHint, RoutingContext};
use simba_core::subscription::UserId;
use simba_core::CommType;
use simba_sim::SimTime;
use simba_store::{SoftStateStore, CHANHEALTH_SCOPE, PRESENCE_SCOPE};
pub use simba_store::HEALTHY_VALUE;

/// The `chanhealth` key for a channel type (`im` / `sms` / `email`).
pub fn chanhealth_key(comm_type: CommType) -> &'static str {
    match comm_type {
        CommType::Im => "im",
        CommType::Sms => "sms",
        CommType::Email => "email",
    }
}

/// A [`ModeSelector`] that consults the soft-state store. Cheap to
/// clone; reads are at most four shard-lock acquisitions per delivery
/// start. Time comes from the caller (the buddy passes its service
/// clock's `now`), so paused-time tests stay deterministic.
#[derive(Debug, Clone)]
pub struct StoreModeSelector {
    store: SoftStateStore,
}

impl StoreModeSelector {
    /// Builds a selector reading `store`.
    pub fn new(store: SoftStateStore) -> Self {
        StoreModeSelector { store }
    }

    /// The context as of an explicit instant.
    pub fn context_at(&self, user: &UserId, now: SimTime) -> RoutingContext {
        let presence = self
            .store
            .get(PRESENCE_SCOPE, &user.0, now)
            .and_then(|fact| PresenceHint::from_value(&fact.value));
        let unhealthy = [CommType::Im, CommType::Sms, CommType::Email]
            .into_iter()
            .filter(|&ty| {
                self.store
                    .get(CHANHEALTH_SCOPE, chanhealth_key(ty), now)
                    .is_some_and(|fact| fact.value != HEALTHY_VALUE)
            })
            .collect();
        RoutingContext { presence, unhealthy }
    }
}

impl ModeSelector for StoreModeSelector {
    fn context(&self, user: &UserId, now: SimTime) -> RoutingContext {
        self.context_at(user, now)
    }
}

/// How often the sweeper expires soft-state facts.
const SWEEP_PERIOD: std::time::Duration = std::time::Duration::from_secs(1);

/// Spawns the periodic TTL sweeper: once a second of runtime time the
/// store drops its expired facts. Driven by [`RuntimeClock`], so under a
/// paused tokio runtime the sweeps land at deterministic instants. Abort
/// the handle to stop sweeping (dropping the store does not).
pub(crate) fn spawn_sweeper(
    store: SoftStateStore,
    clock: RuntimeClock,
) -> tokio::task::JoinHandle<()> {
    tokio::spawn(async move {
        loop {
            tokio::time::sleep(SWEEP_PERIOD).await;
            store.sweep(clock.now());
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_sim::SimDuration;
    use simba_store::StoreConfig;
    use simba_telemetry::Telemetry;

    #[test]
    fn live_facts_shape_the_context() {
        let store = SoftStateStore::new(StoreConfig::default(), Telemetry::disabled());
        let selector = StoreModeSelector::new(store.clone());
        let user = UserId::new("alice");
        let t0 = SimTime::ZERO;

        assert!(selector.context_at(&user, t0).is_empty());

        store.put(PRESENCE_SCOPE, "alice", "away", SimDuration::from_secs(30), "wish", t0);
        store.put(CHANHEALTH_SCOPE, "sms", "degraded", SimDuration::from_secs(30), "net", t0);
        store.put(CHANHEALTH_SCOPE, "email", "healthy", SimDuration::from_secs(30), "net", t0);

        let ctx = selector.context_at(&user, SimTime::from_secs(1));
        assert_eq!(ctx.presence, Some(PresenceHint::Away));
        assert!(ctx.unhealthy.contains(&CommType::Sms));
        assert!(!ctx.unhealthy.contains(&CommType::Email));

        // Past the TTL every fact decays; the context empties out.
        assert!(selector.context_at(&user, SimTime::from_secs(31)).is_empty());
    }

    #[test]
    fn unparseable_presence_is_ignored() {
        let store = SoftStateStore::new(StoreConfig::default(), Telemetry::disabled());
        let selector = StoreModeSelector::new(store.clone());
        store.put(PRESENCE_SCOPE, "alice", "gone fishing", SimDuration::from_secs(30), "wish", SimTime::ZERO);
        let ctx = selector.context_at(&UserId::new("alice"), SimTime::from_secs(1));
        assert!(ctx.presence.is_none());
    }

    #[tokio::test(start_paused = true)]
    async fn sweeper_expires_facts_on_schedule() {
        let store = SoftStateStore::new(StoreConfig::default(), Telemetry::disabled());
        let clock = RuntimeClock::start();
        store.put(PRESENCE_SCOPE, "alice", "away", SimDuration::from_secs(2), "wish", clock.now());
        let sweeper = spawn_sweeper(store.clone(), clock);

        tokio::time::sleep(std::time::Duration::from_millis(1500)).await;
        assert_eq!(store.len(), 1, "fact still live before its TTL");
        tokio::time::sleep(std::time::Duration::from_millis(1600)).await;
        assert_eq!(store.len(), 0, "sweeper dropped the expired fact");
        sweeper.abort();
    }
}
