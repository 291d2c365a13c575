//! A sorted-vector map for the few-entry maps inside [`crate::MabConfig`]
//! and a buddy's table of tracked deliveries: a `BTreeMap` pays an
//! eleven-slot leaf for its first entry — four times per resident buddy,
//! and once more per alert when the delivery table fills and empties. One
//! `Vec` of pairs, sorted by key, grown a slot at a time (doubling brings
//! the slack back) and handed back when it empties: binary-search
//! look-ups, the `BTreeMap`'s iteration order, O(n) inserts and removes.

use std::borrow::Borrow;

#[derive(Debug, Clone)]
pub(crate) struct VecMap<K, V>(Vec<(K, V)>);

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap(Vec::new())
    }
}

impl<K: Ord, V> VecMap<K, V> {
    fn search<Q: Ord + ?Sized>(&self, key: &Q) -> Result<usize, usize>
    where
        K: Borrow<Q>,
    {
        self.0.binary_search_by(|(k, _)| k.borrow().cmp(key))
    }

    pub(crate) fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.search(key).ok().map(|at| &self.0[at].1)
    }

    pub(crate) fn get_mut<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        self.search(key).ok().map(|at| &mut self.0[at].1)
    }

    /// Inserts or replaces; returns the value replaced, like `BTreeMap`.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.search(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.0[at].1, value)),
            Err(at) => {
                self.0.reserve_exact(1);
                self.0.insert(at, (key, value));
                None
            }
        }
    }

    pub(crate) fn get_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        let at = self.search(&key).unwrap_or_else(|at| {
            self.0.reserve_exact(1);
            self.0.insert(at, (key, V::default()));
            at
        });
        &mut self.0[at].1
    }

    /// Removes `key`; an emptied map keeps no allocation.
    pub(crate) fn remove<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        let at = self.search(key).ok()?;
        let (_, value) = self.0.remove(at);
        if self.0.is_empty() {
            self.0 = Vec::new();
        }
        Some(value)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.0.iter().map(|(k, v)| (k, v))
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.0.iter().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_sim::SimRng;
    use std::collections::BTreeMap;

    /// The map is the `BTreeMap` it replaces: same return values, same
    /// iteration order, after every step of a random walk.
    #[test]
    fn behaves_like_a_btreemap() {
        for seed in 0..6 {
            let mut rng = SimRng::new(seed);
            let mut map: VecMap<String, Vec<u64>> = VecMap::default();
            let mut model: BTreeMap<String, Vec<u64>> = BTreeMap::new();
            for step in 0..400u64 {
                let key = format!("k{:02}", rng.range(0, 63));
                match rng.range(0, 4) {
                    0 => assert_eq!(
                        map.insert(key.clone(), vec![step]),
                        model.insert(key, vec![step])
                    ),
                    1 => assert_eq!(map.get(key.as_str()), model.get(key.as_str())),
                    2 => {
                        let (got, want) = (map.get_mut(key.as_str()), model.get_mut(key.as_str()));
                        assert_eq!(got, want);
                        if let (Some(got), Some(want)) = (got, want) {
                            got.push(step);
                            want.push(step);
                        }
                    }
                    3 => {
                        map.get_or_default(key.clone()).push(step);
                        model.entry(key).or_default().push(step);
                    }
                    _ => assert_eq!(map.remove(key.as_str()), model.remove(key.as_str())),
                }
                assert!(map.iter().eq(model.iter()), "seed {seed} step {step}");
                assert!(map.values().eq(model.values()));
                assert_eq!(map.is_empty(), model.is_empty());
            }
        }
    }
}
