//! A chunk is read once even when two callers miss it at the same time:
//! the first caller's load registers in the cache's in-flight table, and
//! the second caller waits for that load instead of reading the chunk
//! again. The outcome does not depend on timing: the second caller starts
//! only once the first load is registered, and then either waits on it or,
//! if it comes late, finds the chunk resident — never its own load.

use dfo_storage::{CachedValue, ChunkCache, ChunkKey};
use dfo_types::ReprKind;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn a_second_load_of_a_chunk_being_loaded_waits_for_it() {
    let cache = &ChunkCache::new(1 << 20);
    let key = ChunkKey { partition: 0, batch: Some(0), repr: Some(ReprKind::Dcsr) };
    let reads = &AtomicU32::new(0);
    let (loading_tx, loading_rx) = mpsc::channel();
    let (second_tx, second_rx) = mpsc::channel::<()>();
    let (first, second) = std::thread::scope(|s| {
        let first = s.spawn(move || {
            cache.get_or_load(key, || {
                reads.fetch_add(1, Ordering::Relaxed);
                loading_tx.send(()).unwrap();
                // hold the load open while the second caller arrives; it
                // ends early only if that caller returned without waiting
                let _ = second_rx.recv_timeout(Duration::from_millis(200));
                Ok((std::sync::Arc::new(7u64) as CachedValue, 8))
            })
        });
        loading_rx.recv().unwrap();
        let second = s.spawn(move || {
            let _done = second_tx;
            cache.get_or_load(key, || panic!("the chunk was read a second time"))
        });
        (first.join().unwrap().unwrap(), second.join().unwrap().unwrap())
    });
    assert_eq!(reads.load(Ordering::Relaxed), 1);
    assert!(!first.1 && second.1, "the first caller loads, the second hits");
    assert_eq!(*first.0.downcast::<u64>().unwrap(), 7);
    assert_eq!(*second.0.downcast::<u64>().unwrap(), 7);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}
