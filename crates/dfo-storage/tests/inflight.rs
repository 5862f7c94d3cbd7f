//! A chunk is read once even when a demand load and a prefetch race for
//! it: the demand load registers in the cache's in-flight table, so a
//! prefetch thread that claims the same key while it runs skips the key
//! instead of reading the chunk again. Deterministic: the prefetcher's one
//! thread takes its jobs in order, and the test waits for the job behind
//! the contested one before it looks — no sleep decides the outcome.

use dfo_storage::{CachedValue, ChunkCache, ChunkKey, PrefetchJob, Prefetcher};
use dfo_types::ReprKind;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc};

fn key(batch: usize) -> ChunkKey {
    ChunkKey { partition: 0, batch: Some(batch), repr: Some(ReprKind::Dcsr) }
}

/// A prefetch job for `batch` that counts its loads in `reads` and then
/// reports on `done`.
fn job(batch: usize, reads: &Arc<AtomicU32>, done: mpsc::Sender<usize>) -> PrefetchJob {
    let reads = reads.clone();
    PrefetchJob {
        key: key(batch),
        group: 0,
        load: Box::new(move || {
            reads.fetch_add(1, Ordering::Relaxed);
            done.send(batch).unwrap();
            Ok((Arc::new(batch) as CachedValue, 8))
        }),
    }
}

#[test]
fn a_prefetch_of_a_chunk_being_demand_loaded_skips_it() {
    let cache = Arc::new(ChunkCache::new(1 << 20));
    let (contested, behind) = (Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0)));
    let (tx, rx) = mpsc::channel();
    let (value, hit) = cache
        .get_or_load(key(0), || {
            // while this demand load of batch 0 runs, read-ahead claims
            // batch 0 and then batch 1 on its one thread
            let jobs = vec![job(0, &contested, tx.clone()), job(1, &behind, tx.clone())];
            let prefetch = Prefetcher::spawn(cache.clone(), jobs, 1);
            assert_eq!(rx.recv().unwrap(), 1, "batch 1 is the first chunk read ahead");
            drop(prefetch);
            Ok((Arc::new(0usize) as CachedValue, 8))
        })
        .unwrap();
    assert!(!hit);
    assert_eq!(*value.downcast::<usize>().unwrap(), 0);
    assert_eq!(contested.load(Ordering::Relaxed), 0, "batch 0 was read twice");
    assert_eq!(behind.load(Ordering::Relaxed), 1);
    // both are resident now, and a demand load of either is a hit
    for b in [0, 1] {
        assert!(cache.get_or_load(key(b), || panic!("batch {b} read again")).unwrap().1);
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (2, 1));
}
