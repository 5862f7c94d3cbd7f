//! Resident blocks are invisible. A [`VersionedArrayStore`] that keeps
//! blocks in memory returns, after any sequence of epochs, writes,
//! check-outs, aborts, rollbacks, recoveries, flushes and discards, what
//! its model says. What an uncached reopen of the same directory reads is
//! modelled too: a copy-on-write store's files hold every committed write,
//! an in-place store's hold each block's last clean state (a dirty block's
//! bytes reach the file at a flush, or when the pool refuses them).

use dfo_storage::spill::CHUNK;
use dfo_storage::{ChunkPool, MemBudget, NodeDisk, SpillBuf, VersionedArrayStore};
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
    cap: u64,
    pool: Arc<MemBudget>,
    store: VersionedArrayStore,
    /// An epoch is open: reopening now would garbage-collect its blocks.
    open: bool,
    /// What `read_batch` must return while the epoch is open.
    model: Vec<Vec<u8>>,
    /// In place: what each block's file holds (`None`: no file yet).
    files: Vec<Option<Vec<u8>>>,
    /// In place: created with blocks held in memory and not flushed since.
    unflushed: bool,
    /// Epochs the store retains (a recovery may cap at the older one only
    /// while there are two); `None` after a recovery to the older one,
    /// which retains one more if no batch was written in the epoch it
    /// landed on.
    retained: Option<usize>,
}

impl Harness {
    fn new(cow: bool, cap: u64) -> Self {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let pool = MemBudget::new(cap);
        let store = Self::create(&disk, cow, &pool);
        let mut h = Self {
            _td: td,
            disk,
            cow,
            cap,
            pool,
            store,
            open: false,
            model: Vec::new(),
            files: Vec::new(),
            unflushed: false,
            retained: Some(1),
        };
        h.created();
        h
    }

    fn create(disk: &NodeDisk, cow: bool, pool: &Arc<MemBudget>) -> VersionedArrayStore {
        let init = |b| block(b as u8);
        VersionedArrayStore::create_within(disk.clone(), "arr", N, init, cow, KEEP, pool.clone())
            .unwrap()
    }

    /// The models of a store just created: blocks the pool held have no
    /// file.
    fn created(&mut self) {
        self.model = (0..N).map(|b| block(b as u8)).collect();
        self.files = (0..N).map(|b| (!self.store.is_dirty(b)).then(|| block(b as u8))).collect();
        self.unflushed = self.files.contains(&None);
    }

    fn reopen_uncached(&self) -> VersionedArrayStore {
        if self.cow {
            VersionedArrayStore::recover_to(self.disk.clone(), "arr", N, KEEP, self.store.epoch())
                .unwrap()
        } else {
            VersionedArrayStore::open_in_place(self.disk.clone(), "arr", N)
        }
    }

    /// The cached store against the model (always), and the files against
    /// theirs (when no epoch is open). A copy-on-write store's model is
    /// re-read from its files then: they hold every committed write.
    fn check(&mut self) {
        let mut fresh = (!self.open).then(|| self.reopen_uncached());
        for b in 0..N {
            if self.cow {
                assert!(!self.store.is_dirty(b), "copy-on-write blocks are never dirty");
                if let Some(fresh) = &mut fresh {
                    self.model[b] = fresh.read_batch(b).unwrap();
                }
            } else {
                if !self.store.is_dirty(b) {
                    self.files[b] = Some(self.model[b].clone());
                }
                let fresh = fresh.as_mut().expect("in-place stores open no epoch");
                match &self.files[b] {
                    Some(want) => assert_eq!(&fresh.read_batch(b).unwrap(), want, "file {b}"),
                    None => assert!(fresh.read_batch(b).is_err(), "batch {b} has no file yet"),
                }
            }
            let got = self.store.read_batch(b).unwrap();
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
            // check-out, maybe modify, check-in — what a BatchCtx does; on
            // 11 the pool fills up while the block is out
            3 | 4 | 11 => {
                let mut buf = self.store.take_batch(b).unwrap();
                assert_eq!(buf, self.model[b], "checked-out bytes");
                let dirty = kind == 4 && writable;
                if dirty {
                    buf.fill(val);
                    self.model[b] = block(val);
                }
                let filler = self.cap - self.pool.used();
                if kind == 11 {
                    assert!(self.pool.try_reserve(filler));
                }
                self.store.put_batch(b, buf, dirty).unwrap();
                if kind == 11 {
                    assert!(!self.store.is_dirty(b), "a refused dirty block is written");
                    self.pool.release(filler);
                }
            }
            5 => {
                self.store.commit().unwrap();
                if self.open {
                    self.retained = Some(self.retained.map_or(KEEP, |r| (r + 1).min(KEEP)));
                }
                self.open = false;
            }
            6 => {
                self.store.abort().unwrap();
                self.open = false;
            }
            7 if self.cow && !self.open => {
                // refused with one epoch left
                let rolled = self.store.rollback_one().is_ok();
                if let Some(r) = self.retained {
                    assert_eq!(rolled, r == 2);
                }
                self.retained = Some(1);
            }
            8 if self.cow => {
                // crash + recovery, capped at the older checkpoint when
                // `val` is odd (the torn-call case)
                let back = self.retained == Some(2) && val % 2 == 1;
                let target = self.store.epoch() - back as u64;
                self.store =
                    VersionedArrayStore::recover_to(self.disk.clone(), "arr", N, KEEP, target)
                        .unwrap();
                self.store.set_resident_budget(self.pool.clone());
                if back {
                    self.retained = None;
                }
                self.open = false;
            }
            // a job that succeeded: every block reaches its file
            9 => {
                self.store.flush().unwrap();
                assert!((0..N).all(|b| !self.store.is_dirty(b)));
                self.unflushed = false;
            }
            // a job that failed: dirty blocks fall back to their files, and
            // an array created since the last flush is deleted — the next
            // job creates it anew
            10 => {
                self.store.discard().unwrap();
                if self.unflushed {
                    assert!(!VersionedArrayStore::in_place_exists(&self.disk, "arr"));
                    self.store = Self::create(&self.disk, false, &self.pool);
                    self.created();
                } else if !self.cow {
                    self.model = self.files.iter().map(|f| f.clone().unwrap()).collect();
                }
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
        ops in proptest::collection::vec((0u8..12, 0usize..N, 0u16..256), 1..40),
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
    // copy-on-write: every write is a checkpoint's, and goes out at once
    let mut h = Harness::new(true, 1 << 20);
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

#[test]
fn in_place_blocks_reach_the_disk_once_per_flush() {
    let mut h = Harness::new(false, 1 << 20);
    let stats = h.disk.stats();
    assert_eq!(stats.total_bytes(), 0, "a new array is held in memory");
    for val in 1..=5u8 {
        h.store.write_batch(1, &block(val)).unwrap();
        let mut buf = h.store.take_batch(0).unwrap();
        buf.fill(val);
        h.store.put_batch(0, buf, true).unwrap();
    }
    assert_eq!(stats.total_bytes(), 0, "five rounds of writes, none on disk");
    h.store.flush().unwrap();
    assert_eq!(stats.write_bytes.get(), (N * BLOCK) as u64, "one write per block");
    assert_eq!(stats.write_ops.get(), N as u64);
    h.store.flush().unwrap();
    assert_eq!(stats.write_bytes.get(), (N * BLOCK) as u64, "nothing left to write");
    let mut fresh = h.reopen_uncached();
    assert_eq!((fresh.read_batch(0).unwrap(), fresh.read_batch(1).unwrap()), (block(5), block(5)));
    // a discarded job leaves the flushed state behind
    h.store.write_batch(2, &block(9)).unwrap();
    h.store.discard().unwrap();
    assert_eq!(h.store.read_batch(2).unwrap(), block(2));
    assert_eq!(stats.write_bytes.get(), (N * BLOCK) as u64);
}

#[test]
fn a_dirty_block_checked_in_clean_to_a_pool_that_filled_up_is_written() {
    let mut h = Harness::new(false, 2 * BLOCK as u64);
    // blocks 0 and 1 are held dirty, block 2 did not fit and was written
    assert_eq!((0..N).map(|b| h.store.is_dirty(b)).collect::<Vec<_>>(), [true, true, false]);
    let stats = h.disk.stats();
    let w0 = stats.write_bytes.get();
    let buf = h.store.take_batch(0).unwrap();
    assert!(h.store.is_dirty(0), "dirtiness outlives the check-out");
    // another array of the node takes the room meanwhile
    assert!(h.pool.try_reserve(BLOCK as u64));
    h.store.put_batch(0, buf, false).unwrap();
    assert!(!h.store.is_dirty(0));
    assert_eq!(stats.write_bytes.get() - w0, BLOCK as u64, "the pending write happened");
    assert_eq!(h.reopen_uncached().read_batch(0).unwrap(), block(0));
    h.pool.release(BLOCK as u64);
}

/// One budget, two users: the blocks a store claims first leave the rest
/// to message chunks, rounded down to whole chunks; chunks a buffer hands
/// back stay claimed for the next buffer; capacity 0 admits neither.
#[test]
fn blocks_and_message_chunks_share_one_budget() {
    let blocks = (N * BLOCK) as u64;
    for cap in [0, blocks + 3 * CHUNK as u64 - 1] {
        let h = Harness::new(false, cap);
        let held = h.pool.used();
        assert_eq!(held, if cap == 0 { 0 } else { blocks }, "cap {cap}: blocks come first");
        let written = h.disk.stats().write_bytes.get();
        assert_eq!(written, blocks - held, "cap {cap}: a refused block is written");
        let pool = ChunkPool::new(h.pool.clone());
        let records: Vec<u8> = (0..4 * CHUNK).map(|i| (i / 8) as u8).collect();
        for name in ["a.bin", "b.bin"] {
            let mut buf = SpillBuf::new(&pool, &h.disk, name.into(), 8, 4096);
            buf.append(&records).unwrap();
            buf.finish().unwrap();
            let in_mem = buf.len() - buf.spilled_bytes();
            assert_eq!(in_mem, (cap - held) / CHUNK as u64 * CHUNK as u64, "cap {cap}, {name}");
            let mut replayed = Vec::new();
            buf.for_each_run(|run| {
                replayed.extend_from_slice(run);
                Ok(())
            })
            .unwrap();
            assert_eq!(replayed, records);
            drop(buf);
            assert_eq!(h.pool.used(), held + in_mem, "cap {cap}: chunks stay claimed");
        }
    }
}
