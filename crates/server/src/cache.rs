//! A small LRU cache for warm cascade indexes.
//!
//! The daemon keys entries on [`soi_index::CascadeIndex::cache_key_for`]
//! (graph fingerprint × index config), so two graphs that happen to
//! share a name across reloads can never alias each other's indexes.
//! Entries are `Arc`-shared: eviction never invalidates an index a
//! worker is still querying.

use std::sync::Arc;

/// An LRU cache from 64-bit keys to shared values. Not thread-safe on
/// its own — the engine wraps it in a mutex.
pub struct LruCache<V> {
    cap: usize,
    /// Recency order: least-recently-used first, most-recent last.
    entries: Vec<(u64, Arc<V>)>,
}

impl<V> LruCache<V> {
    /// An empty cache holding at most `cap` entries (min 1).
    pub fn new(cap: usize) -> Self {
        LruCache {
            cap: cap.max(1),
            entries: Vec::new(),
        }
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: u64) -> Option<Arc<V>> {
        let pos = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(pos);
        let value = Arc::clone(&entry.1);
        self.entries.push(entry);
        Some(value)
    }

    /// Inserts `key`, evicting the least-recently-used entry when full.
    /// Re-inserting an existing key replaces its value and refreshes it.
    pub fn insert(&mut self, key: u64, value: Arc<V>) {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        } else if self.entries.len() >= self.cap {
            self.entries.remove(0);
        }
        self.entries.push((key, value));
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut cache: LruCache<u32> = LruCache::new(2);
        cache.insert(1, Arc::new(10));
        cache.insert(2, Arc::new(20));
        assert_eq!(cache.get(1).map(|v| *v), Some(10)); // 1 now most recent
        cache.insert(3, Arc::new(30)); // evicts 2
        assert_eq!(cache.get(2), None);
        assert_eq!(cache.get(1).map(|v| *v), Some(10));
        assert_eq!(cache.get(3).map(|v| *v), Some(30));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut cache: LruCache<u32> = LruCache::new(2);
        cache.insert(1, Arc::new(10));
        cache.insert(2, Arc::new(20));
        cache.insert(1, Arc::new(11));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(1).map(|v| *v), Some(11));
        assert_eq!(cache.get(2).map(|v| *v), Some(20));
    }

    #[test]
    fn shared_values_survive_eviction() {
        let mut cache: LruCache<u32> = LruCache::new(1);
        cache.insert(1, Arc::new(10));
        let held = cache.get(1).expect("hit");
        cache.insert(2, Arc::new(20));
        assert!(cache.get(1).is_none());
        assert_eq!(*held, 10, "evicted value stays alive while referenced");
        assert!(!cache.is_empty());
    }
}
