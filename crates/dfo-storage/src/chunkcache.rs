//! Memory-budgeted cache of *decoded* edge chunks plus a read-ahead
//! prefetcher — the engine's phase-4 I/O pipeline.
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
//! The [`Prefetcher`] overlaps chunk reads with `slot` compute: phase-4
//! workers visit destination batches in a known order, so a small pool of
//! background threads loads the chunks of the next few batches while the
//! current one is being processed. An in-flight table lets a consumer that
//! misses the cache wait for a load already in progress instead of issuing a
//! duplicate read, and a consumer's own load registers there too, so a
//! prefetch thread that reaches the same chunk meanwhile skips it.

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
    /// Index representation the chunk was decoded with (`read_from`'s
    /// `want` argument).
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

enum SlotState {
    Pending,
    Done(Option<CachedValue>),
}

/// One in-flight load: consumers wait on it instead of re-reading the chunk.
pub struct InflightSlot {
    state: Mutex<SlotState>,
    cond: Condvar,
}

impl InflightSlot {
    fn new() -> Self {
        Self { state: Mutex::new(SlotState::Pending), cond: Condvar::new() }
    }

    /// Blocks until the load finishes; `None` means the load failed (the
    /// caller falls back to a synchronous read, which surfaces the error).
    fn wait(&self) -> Option<CachedValue> {
        let mut st = self.state.lock();
        while matches!(*st, SlotState::Pending) {
            self.cond.wait(&mut st);
        }
        match &*st {
            SlotState::Done(v) => v.clone(),
            SlotState::Pending => unreachable!(),
        }
    }

    fn fulfill(&self, value: Option<CachedValue>) {
        *self.state.lock() = SlotState::Done(value);
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

    /// Consumer-side lookup: cache first, then any in-flight or completed
    /// prefetch of the same key (waiting for it instead of duplicating the
    /// read). Counts one hit or one miss.
    ///
    /// A fulfilled prefetch slot stays registered until consumed here, so a
    /// prefetched chunk that was immediately *evicted* (tiny budget) is
    /// still handed over — without this, a budget below the working set
    /// would make prefetch read every chunk twice (once in the pool, once
    /// synchronously), worse than no cache at all.
    pub fn lookup(&self, key: &ChunkKey) -> Option<CachedValue> {
        let found = self.probe(key);
        if found.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// [`ChunkCache::lookup`] counting hits only.
    fn probe(&self, key: &ChunkKey) -> Option<CachedValue> {
        if let Some(v) = self.touch(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(v);
        }
        let slot = self.inflight.lock().get(key).cloned();
        if let Some(slot) = slot {
            let loaded = slot.wait();
            // consume the slot (first taker wins; racers re-probe the cache)
            let mut inflight = self.inflight.lock();
            if inflight.get(key).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                inflight.remove(key);
            }
            drop(inflight);
            if let Some(v) = loaded {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(v);
            }
        } else if let Some(v) = self.touch(key) {
            // fulfilled between the first probe and the in-flight check:
            // loads insert into the cache before the slot is consumed
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(v);
        }
        None
    }

    /// [`ChunkCache::lookup`], and on a miss `load()` — registered in the
    /// in-flight table while it runs, so a prefetch thread that reaches
    /// `key` meanwhile skips it instead of reading the chunk a second time.
    /// Returns the value and whether it was a hit.
    pub fn get_or_load(
        &self,
        key: ChunkKey,
        load: impl FnOnce() -> Result<(CachedValue, u64)>,
    ) -> Result<(CachedValue, bool)> {
        let slot = loop {
            if let Some(v) = self.probe(&key) {
                return Ok((v, true));
            }
            // a prefetch that registered since the probe missed is waited
            // for by the next probe; a failed one was consumed by this one
            if let Some(slot) = self.begin_load(key) {
                break slot;
            }
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = FulfillGuard { cache: self, key, slot, loaded: None };
        let loaded = load();
        guard.loaded = loaded.as_ref().ok().map(|(v, bytes)| (v.clone(), *bytes));
        drop(guard);
        // the slot's one consumer is this call
        self.purge_inflight(&[key]);
        Ok((loaded?.0, false))
    }

    /// Whether `key` is resident, without touching recency or counters
    /// (prefetch threads use this to skip already-cached work).
    pub fn contains(&self, key: &ChunkKey) -> bool {
        self.inner.lock().map.contains_key(key)
    }

    /// Inserts a decoded chunk of `bytes` decoded size, evicting LRU entries
    /// until it fits. A value larger than the whole budget is refused (the
    /// caller keeps its `Arc`; nothing resident is disturbed). Re-inserting
    /// a resident key keeps the existing entry.
    pub fn insert(&self, key: ChunkKey, value: CachedValue, bytes: u64) {
        if bytes > self.budget {
            return;
        }
        let mut inner = self.inner.lock();
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
        let t = inner.tick;
        inner.lru.insert(t, key);
        inner.map.insert(key, Entry { value, bytes, tick: t });
        inner.resident += bytes;
        self.inserted.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Drops every resident entry (counted as evictions). Called when the
    /// on-disk chunks are about to change (re-preprocessing a cluster).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        let dropped = inner.resident;
        inner.map.clear();
        inner.lru.clear();
        inner.resident = 0;
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

    /// Registers an in-flight load of `key`; `None` if one is already
    /// running (the caller should skip).
    fn begin_load(&self, key: ChunkKey) -> Option<Arc<InflightSlot>> {
        let mut inflight = self.inflight.lock();
        if inflight.contains_key(&key) {
            return None;
        }
        let slot = Arc::new(InflightSlot::new());
        inflight.insert(key, slot.clone());
        Some(slot)
    }

    /// Completes an in-flight load: inserts the value (if the load
    /// succeeded) and fulfills the slot. The slot stays registered until a
    /// consumer takes it in [`ChunkCache::lookup`] (or the prefetcher purges
    /// it on shutdown) so the handed-over `Arc` survives even if the cache
    /// insert was refused or immediately evicted.
    fn finish_load(&self, key: ChunkKey, slot: &InflightSlot, loaded: Option<(CachedValue, u64)>) {
        let value = loaded.as_ref().map(|(v, _)| v.clone());
        if let Some((v, bytes)) = loaded {
            self.insert(key, v, bytes);
        }
        slot.fulfill(value);
    }

    /// Drops any fulfilled-but-unconsumed slots for `keys` (loads still
    /// pending are left alone). The prefetcher calls this after joining its
    /// threads so abandoned read-ahead does not pin memory across calls.
    fn purge_inflight(&self, keys: &[ChunkKey]) {
        let mut inflight = self.inflight.lock();
        for key in keys {
            if let Some(slot) = inflight.get(key) {
                if matches!(*slot.state.lock(), SlotState::Done(_)) {
                    inflight.remove(key);
                }
            }
        }
    }

    /// Cache probe that refreshes recency on hit; no counters.
    fn touch(&self, key: &ChunkKey) -> Option<CachedValue> {
        let mut inner = self.inner.lock();
        let entry = inner.map.get(key)?;
        let (old_tick, value) = (entry.tick, entry.value.clone());
        inner.tick += 1;
        let t = inner.tick;
        inner.lru.remove(&old_tick);
        inner.lru.insert(t, *key);
        inner.map.get_mut(key).expect("checked above").tick = t;
        Some(value)
    }
}

/// One chunk load the prefetcher may run ahead of the consumer.
pub struct PrefetchJob {
    pub key: ChunkKey,
    /// Gating group (the destination batch index): the job runs only once
    /// the consumer frontier is within `depth` groups of it, which bounds
    /// read-ahead memory to roughly `depth` batches' worth of chunks.
    pub group: usize,
    /// Reads and decodes the chunk; returns the value and its decoded size.
    #[allow(clippy::type_complexity)]
    pub load: Box<dyn FnOnce() -> Result<(CachedValue, u64)> + Send>,
}

struct PrefetchState {
    next: usize,
    frontier: usize,
    stop: bool,
}

struct PrefetchShared {
    cache: Arc<ChunkCache>,
    /// `jobs[i]` is taken exactly once by the thread that claimed index `i`.
    jobs: Mutex<Vec<Option<PrefetchJob>>>,
    /// Group of each job, in claim order (non-decreasing by construction).
    groups: Vec<usize>,
    /// Key of each job, for purging unconsumed slots at shutdown.
    keys: Vec<ChunkKey>,
    depth: usize,
    state: Mutex<PrefetchState>,
    cond: Condvar,
}

/// Fulfills the in-flight slot even if the load panics, so consumers never
/// wait forever.
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

/// Background read-ahead pool over an ordered list of chunk loads.
///
/// Threads claim jobs in order but a job for group `g` only starts once the
/// consumer has claimed group `g − depth` (reported via
/// [`Prefetcher::notify_claimed`]). Dropping the pool stops and joins all
/// threads; at most one load per thread finishes after the stop signal.
pub struct Prefetcher {
    shared: Arc<PrefetchShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// Loader-pool size cap: `depth` is a read-ahead *distance* (batches), not
/// a parallelism knob, so a deep horizon must not spawn a thread army
/// against one disk.
const MAX_PREFETCH_THREADS: usize = 4;

impl Prefetcher {
    /// Spawns `min(depth, jobs, MAX_PREFETCH_THREADS)` loader threads over
    /// `jobs` (must be sorted by `group`).
    pub fn spawn(cache: Arc<ChunkCache>, jobs: Vec<PrefetchJob>, depth: usize) -> Self {
        debug_assert!(jobs.windows(2).all(|w| w[0].group <= w[1].group), "jobs sorted by group");
        let depth = depth.max(1);
        let groups: Vec<usize> = jobs.iter().map(|j| j.group).collect();
        let n_threads = depth.min(groups.len()).min(MAX_PREFETCH_THREADS);
        let keys: Vec<ChunkKey> = jobs.iter().map(|j| j.key).collect();
        let shared = Arc::new(PrefetchShared {
            cache,
            groups,
            keys,
            jobs: Mutex::new(jobs.into_iter().map(Some).collect()),
            depth,
            state: Mutex::new(PrefetchState { next: 0, frontier: 0, stop: false }),
            cond: Condvar::new(),
        });
        let threads = (0..n_threads)
            .map(|_| {
                let sh = shared.clone();
                std::thread::spawn(move || prefetch_loop(sh))
            })
            .collect();
        Self { shared, threads }
    }

    /// The consumer claimed `group`; wakes loads now within `depth` of it.
    pub fn notify_claimed(&self, group: usize) {
        let mut st = self.shared.state.lock();
        if group > st.frontier {
            st.frontier = group;
            self.shared.cond.notify_all();
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.stop = true;
        }
        self.shared.cond.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // all loads are fulfilled now; drop any nobody consumed so abandoned
        // read-ahead does not pin decoded chunks past this call
        self.shared.cache.purge_inflight(&self.shared.keys);
    }
}

fn prefetch_loop(sh: Arc<PrefetchShared>) {
    loop {
        let i = {
            let mut st = sh.state.lock();
            loop {
                if st.stop || st.next >= sh.groups.len() {
                    return;
                }
                if sh.groups[st.next] <= st.frontier + sh.depth {
                    let i = st.next;
                    st.next += 1;
                    break i;
                }
                sh.cond.wait(&mut st);
            }
        };
        let Some(job) = sh.jobs.lock()[i].take() else { continue };
        if sh.cache.contains(&job.key) {
            continue;
        }
        let Some(slot) = sh.cache.begin_load(job.key) else { continue };
        let mut guard = FulfillGuard { cache: &sh.cache, key: job.key, slot, loaded: None };
        guard.loaded = (job.load)().ok();
        drop(guard);
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
        assert!(!c.contains(&key(0, 0)));
        assert_eq!(c.stats().resident_bytes, 0);
        assert_eq!(c.stats().evicted_bytes, 0);
    }

    #[test]
    fn repr_is_part_of_the_key() {
        let c = ChunkCache::new(100);
        let csr = ChunkKey { partition: 0, batch: Some(0), repr: Some(ReprKind::Csr) };
        let dcsr = ChunkKey { partition: 0, batch: Some(0), repr: Some(ReprKind::Dcsr) };
        c.insert(csr, val(1), 10);
        assert!(c.contains(&csr));
        assert!(!c.contains(&dcsr));
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
        assert!(c.contains(&key(1, 1)), "fulfilled load is resident");
        assert_eq!(c.stats().hits, 1, "a wait on in-flight counts as a hit");
    }

    #[test]
    fn fulfilled_slot_survives_refused_insert() {
        // a budget too small for the chunk refuses the insert, but the
        // consumer still gets the loaded value through the slot — prefetch
        // must never make a tiny-budget run read a chunk twice
        let c = Arc::new(ChunkCache::new(10));
        let slot = c.begin_load(key(4, 0)).expect("fresh key");
        c.finish_load(key(4, 0), &slot, Some((val(5), 100)));
        assert!(!c.contains(&key(4, 0)), "oversized insert refused");
        let got = c.lookup(&key(4, 0)).expect("handed over via the slot");
        assert_eq!(*got.downcast::<u64>().unwrap(), 5);
        // consumed: a second lookup is a genuine miss
        assert!(c.lookup(&key(4, 0)).is_none());
        // purge of a consumed key is a no-op
        c.purge_inflight(&[key(4, 0)]);
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
    }

    #[test]
    fn prefetcher_loads_within_depth_and_waits_beyond() {
        let cache = Arc::new(ChunkCache::new(1 << 20));
        let loaded: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<PrefetchJob> = (0..6)
            .map(|g| {
                let loaded = loaded.clone();
                PrefetchJob {
                    key: key(0, g),
                    group: g,
                    load: Box::new(move || {
                        loaded.lock().push(g);
                        Ok((val(g as u64), 16))
                    }),
                }
            })
            .collect();
        let pf = Prefetcher::spawn(cache.clone(), jobs, 2);
        // frontier starts at 0: groups 0..=2 may load, 3+ must wait
        std::thread::sleep(Duration::from_millis(50));
        {
            let l = loaded.lock();
            assert!(l.iter().all(|&g| g <= 2), "read-ahead past depth: {:?}", *l);
            assert!(l.contains(&0), "depth-0 job should have run");
        }
        pf.notify_claimed(3);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(loaded.lock().len(), 6, "frontier 3 unlocks all groups ≤ 5");
        for g in 0..6 {
            assert!(cache.contains(&key(0, g)), "group {g} cached");
        }
        drop(pf);
    }

    #[test]
    fn prefetcher_skips_resident_keys_and_stops_on_drop() {
        let cache = Arc::new(ChunkCache::new(1 << 20));
        cache.insert(key(0, 0), val(9), 8);
        let ran = Arc::new(AtomicU64::new(0));
        let jobs: Vec<PrefetchJob> = (0..2)
            .map(|g| {
                let ran = ran.clone();
                PrefetchJob {
                    key: key(0, g),
                    group: g,
                    load: Box::new(move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                        Ok((val(0), 8))
                    }),
                }
            })
            .collect();
        let pf = Prefetcher::spawn(cache.clone(), jobs, 2);
        std::thread::sleep(Duration::from_millis(50));
        drop(pf); // joins
        assert_eq!(ran.load(Ordering::Relaxed), 1, "resident key skipped");
        // the cached value is the pre-inserted one, not a reload
        let v = cache.lookup(&key(0, 0)).unwrap();
        assert_eq!(*v.downcast::<u64>().unwrap(), 9);
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
        let jobs = vec![PrefetchJob {
            key: key(3, 0),
            group: 0,
            load: Box::new(|| panic!("corrupt chunk")),
        }];
        let pf = Prefetcher::spawn(cache.clone(), jobs, 1);
        // the panic kills the loader thread, but the guard fulfilled the
        // slot first, so a lookup degrades to a miss instead of hanging
        std::thread::sleep(Duration::from_millis(50));
        assert!(cache.lookup(&key(3, 0)).is_none());
        drop(pf);
    }
}
