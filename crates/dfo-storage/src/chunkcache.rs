//! Memory-budgeted cache of *decoded* edge chunks and dispatching graphs.
//!
//! DFOGraph's edge chunks are immutable after preprocessing, so an iterative
//! algorithm that would fit its working set in spare memory should not pay
//! the chunk read + decode cost on every `process_edges` call (GraphMP and
//! GraphH get their semi-external speedups from exactly this reuse). The
//! [`ChunkCache`] keeps decoded chunks under a *byte* budget with strict LRU
//! eviction, degrading gracefully to fully-out-of-core behaviour: budget 0
//! means the engine never allocates a cache at all.
//!
//! Values are type-erased (`Arc<dyn Any + Send + Sync>`) because this crate
//! sits below the chunk codec; the engine downcasts to its concrete decoded
//! type. Keys carry the index representation the chunk was decoded with —
//! the same on-disk chunk decoded as CSR and as DCSR are different in-memory
//! objects and cache separately.
//!
//! Every chunk is read by the worker that needs it. Concurrent jobs share
//! one cache per rank, so [`ChunkCache::get_or_load`] is single-flight: a
//! miss registers its load in an in-flight table, and a second caller that
//! misses the same key meanwhile waits for that load instead of reading the
//! chunk again. The loader inserts the value, wakes its waiters and
//! deregisters; a waiter whose loader failed loads the chunk itself.

use dfo_types::{ReprKind, Result};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Type-erased decoded chunk.
pub type CachedValue = Arc<dyn Any + Send + Sync>;

/// Identity of a decoded chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChunkKey {
    /// Source partition of the chunk's edges.
    pub partition: usize,
    /// Destination batch; `None` addresses the partition's dispatching
    /// graph (which is not batch-addressed).
    pub batch: Option<usize>,
    /// Index representation the chunk was decoded with (the `want`
    /// argument of `IndexedChunk::load`).
    pub repr: Option<ReprKind>,
}

/// Cumulative counters of one cache (monotone; callers diff snapshots for
/// per-call numbers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChunkCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub inserted_bytes: u64,
    pub evicted_bytes: u64,
    /// Decoded bytes currently resident (always ≤ budget).
    pub resident_bytes: u64,
}

impl ChunkCacheStats {
    /// Counter movement since `earlier` (an older snapshot of the *same*
    /// cache): the cumulative fields come back as differences, while
    /// `resident_bytes` stays the current absolute value — residency is a
    /// level, not a flow. This is how job-scoped reports carve one job's
    /// window out of a cache whose counters are cumulative across runs.
    pub fn delta_since(&self, earlier: &ChunkCacheStats) -> ChunkCacheStats {
        ChunkCacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            inserted_bytes: self.inserted_bytes.saturating_sub(earlier.inserted_bytes),
            evicted_bytes: self.evicted_bytes.saturating_sub(earlier.evicted_bytes),
            resident_bytes: self.resident_bytes,
        }
    }
}

struct Entry {
    value: CachedValue,
    bytes: u64,
    tick: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<ChunkKey, Entry>,
    /// Recency order: tick → key; the smallest tick is the LRU victim.
    lru: BTreeMap<u64, ChunkKey>,
    resident: u64,
    tick: u64,
}

/// One in-flight load: waiters block on it instead of re-reading the
/// chunk. `done` is `None` while the load runs.
#[derive(Default)]
struct InflightSlot {
    done: Mutex<Option<Option<CachedValue>>>,
    cond: Condvar,
}

impl InflightSlot {
    /// Blocks until the load finishes; `None` means the load failed (the
    /// caller loads the chunk itself, which surfaces the error).
    fn wait(&self) -> Option<CachedValue> {
        let mut done = self.done.lock();
        loop {
            if let Some(value) = &*done {
                return value.clone();
            }
            self.cond.wait(&mut done);
        }
    }

    fn fulfill(&self, value: Option<CachedValue>) {
        *self.done.lock() = Some(value);
        self.cond.notify_all();
    }
}

/// Byte-budgeted strict-LRU cache of decoded chunks, shared by all
/// `process_edges` calls of one node (and safe across its worker threads).
pub struct ChunkCache {
    budget: u64,
    inner: Mutex<Inner>,
    inflight: Mutex<HashMap<ChunkKey, Arc<InflightSlot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserted: AtomicU64,
    evicted: AtomicU64,
}

impl ChunkCache {
    /// Creates a cache bounded to `budget` decoded bytes. A zero budget is
    /// legal but useless (every insert is refused) — the engine simply does
    /// not construct a cache in that case.
    pub fn new(budget: u64) -> Self {
        Self {
            budget,
            inner: Mutex::new(Inner::default()),
            inflight: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Looks `key` up in the cache, else waits for a load of it in flight
    /// instead of duplicating the read. Counts one hit or one miss.
    pub fn lookup(&self, key: &ChunkKey) -> Option<CachedValue> {
        let found = self.probe(key);
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// [`ChunkCache::lookup`] without the counters: `None` if the key is
    /// neither resident nor being loaded, or its load failed.
    fn probe(&self, key: &ChunkKey) -> Option<CachedValue> {
        if let Some(v) = self.touch(key) {
            return Some(v);
        }
        let slot = self.inflight.lock().get(key).cloned();
        slot?.wait()
    }

    /// [`ChunkCache::lookup`], and on a miss `load()` — registered in the
    /// in-flight table while it runs, so another caller that misses `key`
    /// meanwhile waits for this load instead of reading the chunk again.
    /// Returns the value and whether it was a hit.
    pub fn get_or_load(
        &self,
        key: ChunkKey,
        load: impl FnOnce() -> Result<(CachedValue, u64)>,
    ) -> Result<(CachedValue, bool)> {
        let slot = loop {
            if let Some(v) = self.probe(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((v, true));
            }
            // a load registered or finished since the probe is found by the
            // next one; a failed one has deregistered, so this call loads
            if let Some(slot) = self.begin_load(key) {
                break slot;
            }
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        // an error or a panic in `load` wakes the waiters empty-handed
        let mut guard = FulfillGuard { cache: self, key, slot, loaded: None };
        let (value, bytes) = load()?;
        guard.loaded = Some((value.clone(), bytes));
        Ok((value, false))
    }

    /// Inserts a decoded chunk of `bytes` decoded size, evicting LRU entries
    /// until it fits. A value larger than the whole budget is refused (the
    /// caller keeps its `Arc`; nothing resident is disturbed). Re-inserting
    /// a resident key keeps the existing entry.
    pub fn insert(&self, key: ChunkKey, value: CachedValue, bytes: u64) {
        if bytes > self.budget {
            return;
        }
        let inner = &mut *self.inner.lock();
        if inner.map.contains_key(&key) {
            return;
        }
        while inner.resident + bytes > self.budget {
            let (&t, &victim) = inner.lru.iter().next().expect("resident > 0 implies lru entries");
            inner.lru.remove(&t);
            let e = inner.map.remove(&victim).expect("lru and map agree");
            inner.resident -= e.bytes;
            self.evicted.fetch_add(e.bytes, Ordering::Relaxed);
        }
        inner.tick += 1;
        inner.lru.insert(inner.tick, key);
        inner.map.insert(key, Entry { value, bytes, tick: inner.tick });
        inner.resident += bytes;
        self.inserted.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Drops every resident entry (counted as evictions). Called when the
    /// on-disk chunks are about to change (re-preprocessing a cluster).
    pub fn clear(&self) {
        let dropped = std::mem::take(&mut *self.inner.lock()).resident;
        self.evicted.fetch_add(dropped, Ordering::Relaxed);
    }

    pub fn stats(&self) -> ChunkCacheStats {
        ChunkCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserted_bytes: self.inserted.load(Ordering::Relaxed),
            evicted_bytes: self.evicted.load(Ordering::Relaxed),
            resident_bytes: self.inner.lock().resident,
        }
    }

    /// Registers a load of `key`; `None` if one is in flight or one has
    /// finished since the caller probed (a loader inserts before it
    /// deregisters).
    fn begin_load(&self, key: ChunkKey) -> Option<Arc<InflightSlot>> {
        let mut inflight = self.inflight.lock();
        if inflight.contains_key(&key) || self.inner.lock().map.contains_key(&key) {
            return None;
        }
        let slot = Arc::<InflightSlot>::default();
        inflight.insert(key, slot.clone());
        Some(slot)
    }

    /// Completes the load registered as `slot`: inserts the value (if the
    /// load succeeded), deregisters, then wakes the waiters. They hold the
    /// slot, so they get the value even if the insert was refused.
    fn finish_load(&self, key: ChunkKey, slot: &InflightSlot, loaded: Option<(CachedValue, u64)>) {
        let value = loaded.map(|(v, bytes)| {
            self.insert(key, v.clone(), bytes);
            v
        });
        self.inflight.lock().remove(&key);
        slot.fulfill(value);
    }

    /// Cache probe that refreshes recency on hit; no counters.
    fn touch(&self, key: &ChunkKey) -> Option<CachedValue> {
        let inner = &mut *self.inner.lock();
        let entry = inner.map.get_mut(key)?;
        inner.tick += 1;
        inner.lru.remove(&entry.tick);
        inner.lru.insert(inner.tick, *key);
        entry.tick = inner.tick;
        Some(entry.value.clone())
    }
}

/// Completes the load on drop, so waiters wake even if it fails or panics.
struct FulfillGuard<'a> {
    cache: &'a ChunkCache,
    key: ChunkKey,
    slot: Arc<InflightSlot>,
    loaded: Option<(CachedValue, u64)>,
}

impl Drop for FulfillGuard<'_> {
    fn drop(&mut self) {
        self.cache.finish_load(self.key, &self.slot, self.loaded.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn key(p: usize, b: usize) -> ChunkKey {
        ChunkKey { partition: p, batch: Some(b), repr: Some(ReprKind::Dcsr) }
    }

    fn val(n: u64) -> CachedValue {
        Arc::new(n)
    }

    #[test]
    fn hit_miss_and_byte_budget() {
        let c = ChunkCache::new(100);
        assert!(c.lookup(&key(0, 0)).is_none());
        c.insert(key(0, 0), val(1), 60);
        c.insert(key(0, 1), val(2), 30);
        assert_eq!(c.stats().resident_bytes, 90);
        let v = c.lookup(&key(0, 0)).expect("resident");
        assert_eq!(*v.downcast::<u64>().unwrap(), 1);
        // 60 + 30 + 40 > 100: evicts LRU until it fits. key(0,1) is LRU
        // (key(0,0) was just touched), so it goes; 60 + 40 fits.
        c.insert(key(0, 2), val(3), 40);
        assert!(c.lookup(&key(0, 0)).is_some());
        assert!(c.lookup(&key(0, 2)).is_some());
        assert!(c.lookup(&key(0, 1)).is_none());
        let st = c.stats();
        assert_eq!(st.evicted_bytes, 30);
        assert_eq!(st.resident_bytes, 100);
        assert_eq!(st.hits, 3);
        assert_eq!(st.misses, 2);
    }

    #[test]
    fn oversized_value_is_refused() {
        let c = ChunkCache::new(10);
        c.insert(key(0, 0), val(1), 11);
        assert_eq!(c.stats().resident_bytes, 0);
        assert_eq!(c.stats().evicted_bytes, 0);
    }

    #[test]
    fn repr_is_part_of_the_key() {
        let c = ChunkCache::new(100);
        let csr = ChunkKey { partition: 0, batch: Some(0), repr: Some(ReprKind::Csr) };
        let dcsr = ChunkKey { partition: 0, batch: Some(0), repr: Some(ReprKind::Dcsr) };
        c.insert(csr, val(1), 10);
        assert!(c.lookup(&csr).is_some());
        assert!(c.lookup(&dcsr).is_none());
    }

    #[test]
    fn clear_counts_as_eviction() {
        let c = ChunkCache::new(100);
        c.insert(key(0, 0), val(1), 40);
        c.clear();
        assert_eq!(c.stats().resident_bytes, 0);
        assert_eq!(c.stats().evicted_bytes, 40);
        assert!(c.lookup(&key(0, 0)).is_none());
    }

    #[test]
    fn lookup_waits_for_inflight_load() {
        let c = Arc::new(ChunkCache::new(1000));
        let slot = c.begin_load(key(1, 1)).expect("fresh key");
        assert!(c.begin_load(key(1, 1)).is_none(), "second registration refused");
        let waiter = {
            let c = c.clone();
            std::thread::spawn(move || c.lookup(&key(1, 1)))
        };
        std::thread::sleep(Duration::from_millis(20));
        c.finish_load(key(1, 1), &slot, Some((val(7), 8)));
        let got = waiter.join().unwrap().expect("fulfilled");
        assert_eq!(*got.downcast::<u64>().unwrap(), 7);
        assert_eq!(c.stats().resident_bytes, 8, "fulfilled load is resident");
        assert!(c.inflight.lock().is_empty(), "the loader deregistered");
        assert_eq!(c.stats().hits, 1, "a wait on in-flight counts as a hit");
        assert!(c.begin_load(key(1, 1)).is_none(), "a resident key is not loaded again");
    }

    #[test]
    fn fulfilled_slot_survives_refused_insert() {
        // a budget too small for the chunk refuses the insert, but a caller
        // already waiting on the load still gets the value through the slot
        let c = ChunkCache::new(10);
        let slot = c.begin_load(key(4, 0)).expect("fresh key");
        let waiting = c.inflight.lock().get(&key(4, 0)).cloned().expect("registered");
        c.finish_load(key(4, 0), &slot, Some((val(5), 100)));
        assert_eq!(c.stats().resident_bytes, 0, "oversized insert refused");
        assert_eq!(*waiting.wait().expect("handed over").downcast::<u64>().unwrap(), 5);
        // deregistered: a later caller misses and loads the chunk itself
        assert!(c.lookup(&key(4, 0)).is_none());
        assert!(c.begin_load(key(4, 0)).is_some());
    }

    #[test]
    fn failed_inflight_load_falls_back_to_miss() {
        let c = Arc::new(ChunkCache::new(1000));
        let slot = c.begin_load(key(2, 0)).expect("fresh key");
        let waiter = {
            let c = c.clone();
            std::thread::spawn(move || c.lookup(&key(2, 0)))
        };
        std::thread::sleep(Duration::from_millis(20));
        c.finish_load(key(2, 0), &slot, None);
        assert!(waiter.join().unwrap().is_none(), "failed load surfaces as a miss");
        assert_eq!(c.stats().misses, 1);
        // the failed loader deregistered: the next caller loads
        let (v, hit) = c.get_or_load(key(2, 0), || Ok((val(3), 8))).unwrap();
        assert!(!hit);
        assert_eq!(*v.downcast::<u64>().unwrap(), 3);
    }

    #[test]
    fn stats_delta_carves_out_a_window() {
        let cache = ChunkCache::new(1 << 20);
        cache.insert(key(0, 0), val(1), 8);
        cache.lookup(&key(0, 0));
        cache.lookup(&key(9, 9)); // miss
        let before = cache.stats();
        cache.lookup(&key(0, 0));
        cache.lookup(&key(0, 0));
        cache.lookup(&key(9, 9)); // miss
        let d = cache.stats().delta_since(&before);
        assert_eq!((d.hits, d.misses), (2, 1));
        assert_eq!(d.inserted_bytes, 0);
        assert_eq!(d.resident_bytes, 8, "residency stays absolute");
    }

    #[test]
    fn panicking_load_still_fulfills_waiters() {
        let cache = Arc::new(ChunkCache::new(1 << 20));
        let (tx, rx) = std::sync::mpsc::channel();
        let loader = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                let _ = cache.get_or_load(key(3, 0), || {
                    // hand the registered slot out, as a waiter holds it
                    tx.send(cache.inflight.lock().get(&key(3, 0)).cloned()).unwrap();
                    panic!("corrupt chunk")
                });
            })
        };
        let waiting = rx.recv().unwrap().expect("registered while loading");
        // the panic kills the loader, but the guard woke the waiter first
        // and deregistered, so nothing hangs and the next caller loads
        assert!(waiting.wait().is_none());
        assert!(loader.join().is_err());
        assert!(cache.lookup(&key(3, 0)).is_none());
        assert!(cache.begin_load(key(3, 0)).is_some());
    }
}
