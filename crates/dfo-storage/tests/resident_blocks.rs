//! Write-through resident blocks are invisible: a [`VersionedArrayStore`]
//! that keeps blocks in memory returns, after any sequence of epochs,
//! writes, check-outs, aborts, rollbacks and recoveries, exactly what an
//! uncached reopen of the same directory reads from disk.

use dfo_storage::{MemBudget, NodeDisk, VersionedArrayStore};
use proptest::prelude::*;
use std::sync::Arc;
use tempfile::TempDir;

const N: usize = 3;
const KEEP: usize = 2;
const BLOCK: usize = 16;

fn block(val: u8) -> Vec<u8> {
    vec![val; BLOCK]
}

struct Harness {
    _td: TempDir,
    disk: NodeDisk,
    cow: bool,
    pool: Arc<MemBudget>,
    store: VersionedArrayStore,
    /// An epoch is open: reopening now would garbage-collect its blocks.
    open: bool,
    /// What `read_batch` must return while the epoch is open.
    model: Vec<Vec<u8>>,
    /// Checkpoints the store retains (a recovery may cap at the older one
    /// only while there are two).
    retained: usize,
}

impl Harness {
    fn new(cow: bool, cap: u64) -> Self {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let pool = MemBudget::new(cap);
        let mut store =
            VersionedArrayStore::create(disk.clone(), "arr", N, |b| block(b as u8), cow, KEEP)
                .unwrap();
        store.set_resident_budget(pool.clone());
        let model = (0..N).map(|b| block(b as u8)).collect();
        Self { _td: td, disk, cow, pool, store, open: false, model, retained: 1 }
    }

    fn reopen_uncached(&self) -> VersionedArrayStore {
        if self.cow {
            VersionedArrayStore::recover(self.disk.clone(), "arr", N, KEEP).unwrap()
        } else {
            VersionedArrayStore::open_in_place(self.disk.clone(), "arr", N)
        }
    }

    /// The cached store against the disk (when no epoch is open) and
    /// against the model (always).
    fn check(&mut self) {
        let mut fresh = (!self.open).then(|| self.reopen_uncached());
        for b in 0..N {
            let got = self.store.read_batch(b).unwrap();
            if let Some(fresh) = &mut fresh {
                self.model[b] = fresh.read_batch(b).unwrap();
            }
            assert_eq!(got, self.model[b], "batch {b} (epoch open: {})", self.open);
        }
        assert!(self.pool.used() <= (N * (KEEP + 1) * BLOCK) as u64);
    }

    fn apply(&mut self, kind: u8, b: usize, val: u8) {
        let writable = self.open || !self.cow;
        match kind {
            0 if self.cow => {
                self.store.begin_epoch();
                self.open = true;
            }
            1 | 2 if writable => {
                self.store.write_batch(b, &block(val)).unwrap();
                self.model[b] = block(val);
            }
            // check-out, maybe modify, check-in — what a BatchCtx does
            3 | 4 => {
                let mut buf = self.store.take_batch(b).unwrap();
                assert_eq!(buf, self.model[b], "checked-out bytes");
                let dirty = kind == 4 && writable;
                if dirty {
                    buf.fill(val);
                    self.model[b] = block(val);
                }
                self.store.put_batch(b, buf, dirty).unwrap();
            }
            5 => {
                self.store.commit().unwrap();
                self.retained = (self.retained + self.open as usize).min(KEEP);
                self.open = false;
            }
            6 => {
                self.store.abort().unwrap();
                self.open = false;
            }
            7 if self.cow && !self.open => {
                // refused with one checkpoint left
                assert_eq!(self.store.rollback_one().is_ok(), self.retained == 2);
                self.retained = 1;
            }
            8 if self.cow => {
                // crash + recovery, capped at the older checkpoint when
                // `val` is odd (the torn-call case)
                let back = self.retained == 2 && val % 2 == 1;
                let target = self.store.epoch() - back as u64;
                self.store = VersionedArrayStore::recover_to(
                    self.disk.clone(),
                    "arr",
                    N,
                    KEEP,
                    Some(target),
                )
                .unwrap();
                self.store.set_resident_budget(self.pool.clone());
                self.retained -= back as usize;
                self.open = false;
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_store_reads_what_an_uncached_reopen_reads(
        cow in 0u8..2,
        cap_sel in 0usize..3,
        ops in proptest::collection::vec((0u8..9, 0usize..N, 0u16..256), 1..40),
    ) {
        // room for nothing, for some blocks, for every block
        let cap = [0, 2 * BLOCK as u64, 1 << 20][cap_sel];
        let mut h = Harness::new(cow == 1, cap);
        for (kind, b, val) in ops {
            h.apply(kind, b, val as u8);
            h.check();
        }
        drop(h.store);
        prop_assert_eq!(h.pool.used(), 0, "a dropped store gives its budget back");
    }
}

#[test]
fn resident_blocks_save_the_reread_and_nothing_else() {
    for cow in [false, true] {
        let mut h = Harness::new(cow, 1 << 20);
        let stats = h.disk.stats();
        h.store.begin_epoch();
        let (r0, w0) = (stats.read_bytes.get(), stats.write_bytes.get());
        h.store.write_batch(1, &block(7)).unwrap();
        assert_eq!(stats.write_bytes.get() - w0, BLOCK as u64, "written through at once");
        assert_eq!(h.store.read_batch(1).unwrap(), block(7));
        assert_eq!(h.store.read_batch(0).unwrap(), block(0)); // first read fills
        assert_eq!(h.store.read_batch(0).unwrap(), block(0));
        assert_eq!(stats.read_bytes.get() - r0, BLOCK as u64, "one disk read in three");
        h.store.commit().unwrap();
    }
}
