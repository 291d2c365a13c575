//! The sharded store: per-shard locking, lazy + swept TTL expiry, and
//! per-scope LRU shedding.

use crate::fact::Fact;
use simba_sim::{SimDuration, SimTime};
use simba_telemetry::{CounterHandle, GaugeHandle, Telemetry};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Tuning knobs. The defaults suit the runtime, the CLI and E7; E7's
/// tiny-store test shrinks both to exercise the LRU bound.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Number of lock shards `(scope, key)` pairs hash across. More
    /// shards means less writer contention; `1` serializes everything
    /// (useful for exact-LRU tests).
    pub shards: usize,
    /// Per-scope fact cap, enforced **per shard**: each shard keeps at
    /// most this many live facts for one scope and sheds its
    /// least-recently-touched beyond that. With `shards == 1` the bound
    /// is exact; with `n` shards a scope holds at most `n × cap` facts.
    pub scope_capacity: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 16,
            scope_capacity: 4_096,
        }
    }
}

/// Cached metric handles (one registry lock at construction, atomics
/// after).
#[derive(Debug, Clone)]
struct Counters {
    puts: CounterHandle,
    hits: CounterHandle,
    misses: CounterHandle,
    expired: CounterHandle,
    evicted: CounterHandle,
    sweeps: CounterHandle,
    size: GaugeHandle,
}

impl Counters {
    fn new(telemetry: &Telemetry) -> Self {
        let m = telemetry.metrics();
        Counters {
            puts: m.counter("store.puts"),
            hits: m.counter("store.hits"),
            misses: m.counter("store.misses"),
            expired: m.counter("store.expired"),
            evicted: m.counter("store.evicted"),
            sweeps: m.counter("store.sweeps"),
            size: m.gauge("store.size"),
        }
    }
}

/// One stored fact plus its LRU access stamp.
#[derive(Debug)]
struct Entry {
    value: String,
    source: String,
    published_at: SimTime,
    expires_at: SimTime,
    generation: u64,
    /// Shard-local access tick; only the newest queue slot for a key is
    /// live, older slots are lazily skipped.
    tick: u64,
}

impl Entry {
    fn fact(&self) -> Fact {
        Fact {
            value: self.value.clone(),
            source: self.source.clone(),
            published_at: self.published_at,
            expires_at: self.expires_at,
            generation: self.generation,
        }
    }
}

/// One lock's worth of the map.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<(String, String), Entry>,
    /// Lazy per-scope LRU queue of `(tick, key)`; stale slots (tick no
    /// longer matching the entry) are skipped at eviction and compacted
    /// away when the queue outgrows the scope 4:1.
    lru: HashMap<String, VecDeque<(u64, String)>>,
    /// Live facts per scope in this shard.
    scope_len: HashMap<String, usize>,
    tick: u64,
}

impl Shard {
    fn touch(&mut self, scope: &str, key: &str) -> u64 {
        self.tick += 1;
        let tick = self.tick;
        let queue = self.lru.entry(scope.to_string()).or_default();
        queue.push_back((tick, key.to_string()));
        let live = self.scope_len.get(scope).copied().unwrap_or(0);
        if queue.len() > 4 * live + 8 {
            let entries = &self.entries;
            let scope_owned = scope.to_string();
            queue.retain(|(t, k)| {
                entries
                    .get(&(scope_owned.clone(), k.clone()))
                    .is_some_and(|e| e.tick == *t)
            });
        }
        tick
    }

    fn remove(&mut self, scope: &str, key: &str) -> bool {
        if self.entries.remove(&(scope.to_string(), key.to_string())).is_none() {
            return false;
        }
        if let Some(len) = self.scope_len.get_mut(scope) {
            *len = len.saturating_sub(1);
        }
        true
    }

    /// Sheds the least-recently-touched live fact in `scope` other than
    /// `keep`. Returns whether one was shed.
    fn evict_lru(&mut self, scope: &str, keep: &str) -> bool {
        let Some(queue) = self.lru.get_mut(scope) else {
            return false;
        };
        while let Some((tick, key)) = queue.pop_front() {
            if key == keep {
                // The just-touched key carries the newest tick; a live
                // front slot for it would mean nothing older exists.
                continue;
            }
            let is_live = self
                .entries
                .get(&(scope.to_string(), key.clone()))
                .is_some_and(|e| e.tick == tick);
            if is_live {
                return self.remove(scope, &key);
            }
        }
        false
    }
}

#[derive(Debug)]
struct Inner {
    config: StoreConfig,
    shards: Vec<Mutex<Shard>>,
    /// Next generation, store-wide. Monotone: assigned before any shard
    /// lock, so a later put always carries a larger generation than any
    /// fact it can observe or replace.
    generation: AtomicU64,
    size: AtomicU64,
    counters: Counters,
}

/// The sharded soft-state store. Cloning is cheap (an `Arc`); all clones
/// see the same facts. Every operation takes an explicit `now` so the
/// same code is deterministic under the simulation clock and live under
/// a runtime clock.
#[derive(Debug, Clone)]
pub struct SoftStateStore {
    inner: Arc<Inner>,
}

impl SoftStateStore {
    /// Creates a store with the given shape, reporting `store.*` metrics
    /// through `telemetry`.
    pub fn new(config: StoreConfig, telemetry: Telemetry) -> Self {
        let shards = config.shards.max(1);
        SoftStateStore {
            inner: Arc::new(Inner {
                shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
                generation: AtomicU64::new(0),
                size: AtomicU64::new(0),
                counters: Counters::new(&telemetry),
                config: StoreConfig { shards, ..config },
            }),
        }
    }

    fn shard_for(&self, scope: &str, key: &str) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        scope.hash(&mut hasher);
        key.hash(&mut hasher);
        let idx = (hasher.finish() as usize) % self.inner.shards.len();
        &self.inner.shards[idx]
    }

    fn lock(shard: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
        // A panic while holding a shard lock leaves plain map data, not a
        // broken invariant: recover instead of poisoning every reader.
        shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Publishes a fact under `(scope, key)`, replacing any previous one,
    /// and returns its generation. The fact expires `ttl` after `now`.
    pub fn put(
        &self,
        scope: &str,
        key: &str,
        value: impl Into<String>,
        ttl: SimDuration,
        source: impl Into<String>,
        now: SimTime,
    ) -> u64 {
        let generation = self.inner.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let expires_at = SimTime::from_millis(now.as_millis().saturating_add(ttl.as_millis()));
        let mut entry = Entry {
            value: value.into(),
            source: source.into(),
            published_at: now,
            expires_at,
            generation,
            tick: 0,
        };
        {
            let mut shard = Self::lock(self.shard_for(scope, key));
            entry.tick = shard.touch(scope, key);
            let replaced = shard
                .entries
                .insert((scope.to_string(), key.to_string()), entry)
                .is_some();
            if !replaced {
                *shard.scope_len.entry(scope.to_string()).or_insert(0) += 1;
                self.inner.size.fetch_add(1, Ordering::Relaxed);
                let live = shard.scope_len.get(scope).copied().unwrap_or(0);
                if live > self.inner.config.scope_capacity.max(1) && shard.evict_lru(scope, key) {
                    self.inner.size.fetch_sub(1, Ordering::Relaxed);
                    self.inner.counters.evicted.incr();
                }
            }
        }
        self.inner.counters.puts.incr();
        self.inner.counters.size.set(self.inner.size.load(Ordering::Relaxed));
        generation
    }

    /// Reads the fact under `(scope, key)` as of `now`. An expired fact
    /// is removed on the spot (counted under `store.expired`) and never
    /// returned — a hit is always a live fact.
    pub fn get(&self, scope: &str, key: &str, now: SimTime) -> Option<Fact> {
        let mut expired = false;
        let result = {
            let mut shard = Self::lock(self.shard_for(scope, key));
            match shard.entries.get(&(scope.to_string(), key.to_string())) {
                None => None,
                Some(entry) if now >= entry.expires_at => {
                    expired = shard.remove(scope, key);
                    None
                }
                Some(_) => {
                    let tick = shard.touch(scope, key);
                    let entry = shard
                        .entries
                        .get_mut(&(scope.to_string(), key.to_string()))?;
                    entry.tick = tick;
                    Some(entry.fact())
                }
            }
        };
        if result.is_some() {
            self.inner.counters.hits.incr();
        } else {
            self.inner.counters.misses.incr();
        }
        if expired {
            self.inner.size.fetch_sub(1, Ordering::Relaxed);
            self.inner.counters.expired.incr();
            self.inner.counters.size.set(self.inner.size.load(Ordering::Relaxed));
        }
        result
    }

    /// Removes every fact expired at `now` across all shards, returning
    /// how many were dropped. Drive this periodically from the owning
    /// clock (the runtime spawns a sweeper task; the simulation calls it
    /// from its event loop).
    pub fn sweep(&self, now: SimTime) -> usize {
        let mut removed = 0;
        for shard in &self.inner.shards {
            let mut shard = Self::lock(shard);
            let dead: Vec<(String, String)> = shard
                .entries
                .iter()
                .filter(|(_, e)| now >= e.expires_at)
                .map(|(k, _)| k.clone())
                .collect();
            for (scope, key) in dead {
                removed += usize::from(shard.remove(&scope, &key));
            }
        }
        if removed > 0 {
            self.inner.size.fetch_sub(removed as u64, Ordering::Relaxed);
            self.inner.counters.expired.add(removed as u64);
            self.inner.counters.size.set(self.inner.size.load(Ordering::Relaxed));
        }
        self.inner.counters.sweeps.incr();
        removed
    }

    /// Total live facts (facts expired but not yet noticed by a read or
    /// sweep still count).
    pub fn len(&self) -> usize {
        self.inner.size.load(Ordering::Relaxed) as usize
    }

    /// Whether the store holds no facts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of one scope's live facts at `now`, sorted by key.
    /// Read-only: expired facts are skipped but left for the sweeper.
    pub fn snapshot_scope(&self, scope: &str, now: SimTime) -> Vec<(String, Fact)> {
        let mut out = Vec::new();
        for shard in &self.inner.shards {
            let shard = Self::lock(shard);
            for ((s, key), entry) in &shard.entries {
                if s == scope && now < entry.expires_at {
                    out.push((key.clone(), entry.fact()));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    fn store1() -> SoftStateStore {
        SoftStateStore::new(
            StoreConfig { shards: 1, ..StoreConfig::default() },
            Telemetry::disabled(),
        )
    }

    #[test]
    fn put_get_round_trip() {
        let store = store1();
        let gen = store.put("presence", "alice", "away", d(1_000), "wish", t(0));
        let fact = store.get("presence", "alice", t(500)).expect("live fact");
        assert_eq!(fact.value, "away");
        assert_eq!(fact.source, "wish");
        assert_eq!(fact.generation, gen);
        assert_eq!(fact.ttl_remaining(t(500)), d(500));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn expired_fact_is_never_returned() {
        let store = store1();
        store.put("presence", "alice", "away", d(1_000), "wish", t(0));
        assert!(store.get("presence", "alice", t(1_000)).is_none());
        // The lazy removal really removed it.
        assert_eq!(store.len(), 0);
        assert!(store.get("presence", "alice", t(0)).is_none());
    }

    #[test]
    fn refresh_extends_and_bumps_generation() {
        let store = store1();
        let g1 = store.put("presence", "alice", "away", d(100), "wish", t(0));
        let g2 = store.put("presence", "alice", "at_desk", d(100), "wish", t(50));
        assert!(g2 > g1);
        let fact = store.get("presence", "alice", t(120)).expect("refreshed");
        assert_eq!(fact.value, "at_desk");
        assert_eq!(fact.generation, g2);
    }

    #[test]
    fn sweep_removes_expired_facts_only() {
        let store = store1();
        store.put("presence", "a", "x", d(100), "s", t(0));
        store.put("presence", "b", "y", d(500), "s", t(0));
        store.put("chanhealth", "im", "down", d(100), "s", t(0));
        assert_eq!(store.sweep(t(200)), 2);
        assert_eq!(store.len(), 1);
        assert!(store.get("presence", "b", t(200)).is_some());
    }

    #[test]
    fn scope_capacity_sheds_least_recently_touched() {
        let store = SoftStateStore::new(
            StoreConfig { shards: 1, scope_capacity: 2 },
            Telemetry::disabled(),
        );
        store.put("presence", "a", "1", d(10_000), "s", t(0));
        store.put("presence", "b", "2", d(10_000), "s", t(1));
        // Touch `a` so `b` is now the LRU fact.
        assert!(store.get("presence", "a", t(2)).is_some());
        store.put("presence", "c", "3", d(10_000), "s", t(3));
        assert_eq!(store.len(), 2);
        assert!(store.get("presence", "b", t(4)).is_none(), "LRU fact shed");
        assert!(store.get("presence", "a", t(4)).is_some());
        assert!(store.get("presence", "c", t(4)).is_some());
        // Other scopes are not charged against this scope's bound.
        store.put("chanhealth", "im", "healthy", d(10_000), "s", t(5));
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn snapshot_scope_skips_expired() {
        let store = store1();
        store.put("presence", "a", "1", d(100), "s", t(0));
        store.put("presence", "b", "2", d(500), "s", t(0));
        let snap = store.snapshot_scope("presence", t(200));
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, "b");
        // Read-only: the expired fact is left for the sweeper.
        assert_eq!(store.len(), 2);
        assert_eq!(store.sweep(t(200)), 1);
    }

    #[test]
    fn metrics_follow_the_lifecycle() {
        let telemetry = Telemetry::with_sink(std::sync::Arc::new(
            simba_telemetry::RingBufferSink::new(16),
        ));
        let store = SoftStateStore::new(
            StoreConfig { shards: 1, ..StoreConfig::default() },
            telemetry.clone(),
        );
        store.put("presence", "a", "1", d(100), "s", t(0));
        assert!(store.get("presence", "a", t(10)).is_some());
        assert!(store.get("presence", "missing", t(10)).is_none());
        assert!(store.get("presence", "a", t(200)).is_none());
        store.sweep(t(200));
        let snap = telemetry.metrics().snapshot();
        assert_eq!(snap.counter("store.puts"), 1);
        assert_eq!(snap.counter("store.hits"), 1);
        assert_eq!(snap.counter("store.misses"), 2);
        assert_eq!(snap.counter("store.expired"), 1);
        assert_eq!(snap.counter("store.sweeps"), 1);
        assert_eq!(snap.gauge("store.size"), 0);
    }
}
