//! Vertex arrays (the paper's `VertexArray<T>`) and the per-batch UDF view.
//!
//! A vertex array lives on disk in per-batch blocks managed by the
//! copy-on-write [`dfo_storage::VersionedArrayStore`]. During a `Process`
//! call a worker touches exactly the blocks of the batch it works on — the
//! mechanism that bounds the span of random access (§2.2). Within the
//! node's block budget (a share of `mem_budget`) blocks stay resident
//! between calls: a [`BatchCtx`] checks its batch's blocks out of the store
//! and back in. With checkpointing on, a dirty block reaches the disk when
//! the batch is done (its checkpoint needs it). With checkpointing off it
//! stays in memory, dirty, and reaches its file only when the job ends and
//! the rank-launch body flushes the context's arrays — or never, when the
//! job was scoped or failed and they are discarded. Past the budget a block
//! is read from disk per batch and written when it is dirty.
//!
//! A block's length is checked whenever a batch loads it: an array reopened
//! under an element type of another size is a typed error, not a misread.
//!
//! In the Table 6 "no batching" ablation, arrays are instead accessed
//! through a bounded [`dfo_storage::PageCache`], modeling the memory-mapped
//! arrays of semi-out-of-core systems under memory pressure.

use dfo_storage::{MemBudget, NodeDisk, PageCache, VersionedArrayStore};
use dfo_types::{bytes_of, pod_from_bytes, DfoError, Pod, Result, VertexId, VertexRange};
use parking_lot::{Mutex, MutexGuard};
use std::marker::PhantomData;
use std::sync::Arc;

/// Page size of the [`PageCache`] behind paged (no-batching ablation) arrays.
pub(crate) const PAGE_SIZE: usize = 4096;

/// Typed handle to a named vertex array. Cheap to clone; the data lives in
/// the node's array registry.
#[derive(Clone, Debug)]
pub struct VertexArray<T> {
    name: Arc<str>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Pod> VertexArray<T> {
    pub(crate) fn new(name: impl Into<Arc<str>>) -> Self {
        Self { name: name.into(), _marker: PhantomData }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn elem_bytes(&self) -> usize {
        std::mem::size_of::<T>()
    }
}

/// Storage backend of one array on one node.
pub(crate) enum ArrayBackend {
    /// Per-batch blocks (the normal fully-out-of-core path).
    Blocks(Mutex<VersionedArrayStore>),
    /// One bounded page cache over a flat file (no-batching ablation).
    Paged(Mutex<PageCache>),
}

/// Registry entry for one array.
pub(crate) struct ArrayEntry {
    /// Shared with every handle [`ArrayEntry::handle`] gives out, so a
    /// [`BatchCtx`] finds a handle's slot by comparing pointers.
    pub name: Arc<str>,
    pub elem_bytes: usize,
    pub backend: ArrayBackend,
}

impl ArrayEntry {
    /// Creates or reopens the per-batch block store of one array. When a
    /// checkpoint exists, `recover_target` caps the epoch recovery trusts —
    /// the per-call commit record's epoch for this array — so the torn tail
    /// of a crashed multi-array commit is discarded (`None` trusts the
    /// array's own `CURRENT`). Blocks stay resident within `pool`.
    #[allow(clippy::too_many_arguments)]
    pub fn create_blocks(
        disk: &NodeDisk,
        name: &str,
        elem_bytes: usize,
        batches: &[VertexRange],
        checkpointing: bool,
        keep: usize,
        recover_target: Option<u64>,
        pool: &Arc<MemBudget>,
    ) -> Result<Self> {
        let dir = format!("arrays/{name}");
        let block_bytes = |b: usize| batches[b].len() as usize * elem_bytes;
        let reopened = if checkpointing && VersionedArrayStore::checkpoint_exists(disk, &dir) {
            Some(VersionedArrayStore::recover_to(
                disk.clone(),
                dir.clone(),
                batches.len(),
                keep,
                recover_target,
            )?)
        } else if !checkpointing && VersionedArrayStore::in_place_exists(disk, &dir) {
            let stored = disk.len(&format!("{dir}/blocks/0.bin"))?;
            if stored != block_bytes(0) as u64 {
                return Err(DfoError::Config(format!(
                    "vertex array {name:?} reopened with element size {elem_bytes}: its first \
                     block holds {stored} bytes for {} vertices",
                    batches[0].len()
                )));
            }
            Some(VersionedArrayStore::open_in_place(disk.clone(), dir.clone(), batches.len()))
        } else {
            None
        };
        let store = match reopened {
            Some(mut store) => {
                store.set_resident_budget(pool.clone());
                store
            }
            None => VersionedArrayStore::create_within(
                disk.clone(),
                dir,
                batches.len(),
                |b| vec![0u8; block_bytes(b)],
                checkpointing,
                keep,
                pool.clone(),
            )?,
        };
        Ok(Self { name: name.into(), elem_bytes, backend: ArrayBackend::Blocks(Mutex::new(store)) })
    }

    pub fn create_paged(
        disk: &NodeDisk,
        name: &str,
        elem_bytes: usize,
        partition: VertexRange,
        cache_pages: usize,
    ) -> Result<Self> {
        let file = disk.open_random(&format!("arrays/{name}/paged.bin"), true)?;
        let len = partition.len() * elem_bytes as u64;
        let cache = PageCache::new(file, PAGE_SIZE, cache_pages.max(1), len);
        Ok(Self { name: name.into(), elem_bytes, backend: ArrayBackend::Paged(Mutex::new(cache)) })
    }

    /// A typed handle to this array.
    pub fn handle<T: Pod>(&self) -> VertexArray<T> {
        VertexArray::new(self.name.clone())
    }

    /// Reads a copy of batch `b`'s bytes, which must hold `batch_len`
    /// values (blocks backend only).
    pub fn read_block(&self, b: usize, batch_len: u64) -> Result<Vec<u8>> {
        match &self.backend {
            ArrayBackend::Blocks(s) => self.checked(b, batch_len, s.lock().read_batch(b)?),
            ArrayBackend::Paged(_) => unreachable!("read_block on paged array"),
        }
    }

    /// `buf`, if it is as long as `batch_len` values of this array; a
    /// `Corrupt` error naming the array if not.
    fn checked(&self, b: usize, batch_len: u64, buf: Vec<u8>) -> Result<Vec<u8>> {
        let want = batch_len as usize * self.elem_bytes;
        if buf.len() != want {
            return Err(DfoError::Corrupt(format!(
                "vertex array {:?}: block {b} holds {} bytes, {batch_len} values of {} bytes \
                 are {want}",
                self.name,
                buf.len(),
                self.elem_bytes
            )));
        }
        Ok(buf)
    }

    /// Ends the job's use of the array: writes its dirty blocks in place
    /// (`keep`) or drops them. Paged arrays were flushed at every commit.
    pub fn close(&self, keep: bool) -> Result<()> {
        match &self.backend {
            ArrayBackend::Blocks(s) if keep => s.lock().flush(),
            ArrayBackend::Blocks(s) => s.lock().discard(),
            ArrayBackend::Paged(_) => Ok(()),
        }
    }

    pub fn begin_epoch(&self) {
        if let ArrayBackend::Blocks(s) = &self.backend {
            s.lock().begin_epoch();
        }
    }

    pub fn commit(&self) -> Result<()> {
        match &self.backend {
            ArrayBackend::Blocks(s) => s.lock().commit(),
            ArrayBackend::Paged(c) => c.lock().flush(),
        }
    }

    /// Whether this array retains checkpoints (i.e. belongs in the
    /// per-call commit record).
    pub fn checkpointed(&self) -> bool {
        match &self.backend {
            ArrayBackend::Blocks(s) => s.lock().is_cow(),
            ArrayBackend::Paged(_) => false,
        }
    }

    /// The array's latest committed epoch (0 for non-checkpointed arrays).
    pub fn epoch(&self) -> u64 {
        match &self.backend {
            ArrayBackend::Blocks(s) => s.lock().epoch(),
            ArrayBackend::Paged(_) => 0,
        }
    }

    /// Rolls the array back one committed checkpoint (ahead-rank recovery);
    /// returns the epoch it landed on.
    pub fn rollback_one(&self) -> Result<u64> {
        match &self.backend {
            ArrayBackend::Blocks(s) => s.lock().rollback_one(),
            ArrayBackend::Paged(_) => Err(DfoError::Corrupt(format!(
                "{}: rollback_one on a paged (non-checkpointed) array",
                self.name
            ))),
        }
    }
}

/// One array's data as seen while working on one batch.
enum SlotData<'a> {
    InMem { buf: Vec<u8>, dirty: bool },
    Paged { cache: MutexGuard<'a, PageCache>, partition_start: VertexId },
}

struct ArraySlot<'a> {
    entry: &'a ArrayEntry,
    data: SlotData<'a>,
}

/// The view a UDF gets of the vertex arrays of **one batch** (the paper's
/// guarantee: random access never leaves the batch).
///
/// `get`/`set` address vertices by global ID; the context checks they fall
/// inside the batch (`debug_assert` on release-hot paths).
pub struct BatchCtx<'a> {
    batch: VertexRange,
    slots: Vec<ArraySlot<'a>>,
}

impl<'a> BatchCtx<'a> {
    /// Checks the named arrays' blocks of `batch` out of their stores (one
    /// worker owns a batch at a time). `preloaded` supplies bytes that the
    /// engine already read (the active bitmap, re-used instead of read
    /// twice). `batch_index` selects the block for block-backed arrays.
    pub(crate) fn load(
        entries: &[&'a ArrayEntry],
        batch: VertexRange,
        batch_index: usize,
        partition_start: VertexId,
        mut preloaded: Option<(&str, Vec<u8>)>,
    ) -> Result<Self> {
        let mut slots = Vec::with_capacity(entries.len());
        for entry in entries {
            let data = match &entry.backend {
                ArrayBackend::Blocks(store) => {
                    let buf = match &mut preloaded {
                        Some((name, bytes)) if **name == *entry.name => std::mem::take(bytes),
                        _ => store.lock().take_batch(batch_index)?,
                    };
                    let buf = entry.checked(batch_index, batch.len(), buf)?;
                    SlotData::InMem { buf, dirty: false }
                }
                ArrayBackend::Paged(cache) => {
                    SlotData::Paged { cache: cache.lock(), partition_start }
                }
            };
            slots.push(ArraySlot { entry, data });
        }
        Ok(Self { batch, slots })
    }

    /// The vertex range of the batch being processed.
    pub fn batch(&self) -> VertexRange {
        self.batch
    }

    /// The slot of the array `name` is a handle to. Handles from
    /// [`crate::NodeCtx::vertex_array`] share their entry's name allocation,
    /// so this (twice per edge in a typical `slot`) compares pointers;
    /// only a handle made some other way is compared by string.
    #[inline]
    fn slot_index(&self, name: &Arc<str>, elem: usize) -> usize {
        let i = (self.slots.iter().position(|s| Arc::ptr_eq(&s.entry.name, name)))
            .or_else(|| self.slots.iter().position(|s| s.entry.name == *name))
            .unwrap_or_else(|| panic!("array {name:?} was not listed in this Process call"));
        assert_eq!(
            self.slots[i].entry.elem_bytes, elem,
            "array {name} accessed with wrong element type"
        );
        i
    }

    /// Reads vertex `v`'s value from `arr`.
    #[inline]
    pub fn get<T: Pod>(&mut self, arr: &VertexArray<T>, v: VertexId) -> T {
        debug_assert!(self.batch.contains(v), "vertex {v} outside batch {:?}", self.batch);
        let i = self.slot_index(&arr.name, std::mem::size_of::<T>());
        let elem = std::mem::size_of::<T>();
        match &mut self.slots[i].data {
            SlotData::InMem { buf, .. } => {
                let off = (v - self.batch.start) as usize * elem;
                pod_from_bytes(&buf[off..off + elem])
            }
            SlotData::Paged { cache, partition_start } => {
                let off = (v - *partition_start) * elem as u64;
                let mut tmp = vec![0u8; elem];
                cache.read_at(off, &mut tmp).expect("page cache read");
                pod_from_bytes(&tmp)
            }
        }
    }

    /// Writes vertex `v`'s value in `arr`.
    #[inline]
    pub fn set<T: Pod>(&mut self, arr: &VertexArray<T>, v: VertexId, value: T) {
        debug_assert!(self.batch.contains(v), "vertex {v} outside batch {:?}", self.batch);
        let i = self.slot_index(&arr.name, std::mem::size_of::<T>());
        let elem = std::mem::size_of::<T>();
        match &mut self.slots[i].data {
            SlotData::InMem { buf, dirty } => {
                let off = (v - self.batch.start) as usize * elem;
                buf[off..off + elem].copy_from_slice(bytes_of(&value));
                *dirty = true;
            }
            SlotData::Paged { cache, partition_start } => {
                let off = (v - *partition_start) * elem as u64;
                cache.write_at(off, bytes_of(&value)).expect("page cache write");
            }
        }
    }

    /// Checks every in-memory slot back into its store, marked dirty if the
    /// UDF wrote it (paged slots are flushed when the Process call commits).
    pub(crate) fn write_back(self, batch_index: usize) -> Result<()> {
        for slot in self.slots {
            if let SlotData::InMem { buf, dirty } = slot.data {
                match &slot.entry.backend {
                    ArrayBackend::Blocks(store) => {
                        store.lock().put_batch(batch_index, buf, dirty)?
                    }
                    ArrayBackend::Paged(_) => unreachable!(),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::TempDir;

    fn blocks_entry(td: &TempDir) -> ArrayEntry {
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let batches = vec![VertexRange::new(0, 4), VertexRange::new(4, 7)];
        ArrayEntry::create_blocks(&disk, "dist", 4, &batches, false, 1, None, &MemBudget::new(0))
            .unwrap()
    }

    #[test]
    fn get_set_roundtrip_in_batch() {
        let td = TempDir::new().unwrap();
        let entry = blocks_entry(&td);
        let arr = VertexArray::<f32>::new("dist");
        let batch = VertexRange::new(4, 7);
        let mut ctx = BatchCtx::load(&[&entry], batch, 1, 0, None).unwrap();
        assert_eq!(ctx.get(&arr, 5), 0.0);
        ctx.set(&arr, 5, 2.5);
        assert_eq!(ctx.get(&arr, 5), 2.5);
        ctx.write_back(1).unwrap();
        // reload sees the persisted value
        let mut ctx2 = BatchCtx::load(&[&entry], batch, 1, 0, None).unwrap();
        assert_eq!(ctx2.get(&arr, 5), 2.5);
        assert_eq!(ctx2.get(&arr, 4), 0.0);
    }

    #[test]
    fn resident_block_is_checked_out_and_written_back() {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let batches = vec![VertexRange::new(0, 4), VertexRange::new(4, 7)];
        let pool = MemBudget::new(1 << 10);
        let stats = disk.stats();
        let entry =
            ArrayEntry::create_blocks(&disk, "dist", 4, &batches, false, 1, None, &pool).unwrap();
        assert_eq!(stats.write_bytes.get(), 0, "a new array's zero blocks stay in memory");
        assert_eq!(pool.used(), 28);
        let arr = entry.handle::<f32>();
        let batch = batches[1];
        let mut ctx = BatchCtx::load(&[&entry], batch, 1, 0, None).unwrap();
        assert_eq!(pool.used(), 16, "checked out");
        ctx.set(&arr, 5, 2.5);
        ctx.write_back(1).unwrap();
        // the next worker gets the resident block itself: no read, no copy
        let mut ctx = BatchCtx::load(&[&entry], batch, 1, 0, None).unwrap();
        assert_eq!(ctx.get(&arr, 5), 2.5);
        ctx.write_back(1).unwrap();
        assert_eq!((stats.read_bytes.get(), stats.write_bytes.get()), (0, 0));
        assert_eq!(pool.used(), 28, "checked back in, still dirty");
        entry.close(true).unwrap();
        assert_eq!(stats.write_bytes.get(), 28, "the flush writes each block once");
        // a later job reopens the flushed files
        let again =
            ArrayEntry::create_blocks(&disk, "dist", 4, &batches, false, 1, None, &pool).unwrap();
        let mut ctx = BatchCtx::load(&[&again], batch, 1, 0, None).unwrap();
        assert_eq!(ctx.get(&arr, 5), 2.5);
    }

    #[test]
    fn reopening_under_another_element_size_is_a_typed_error() {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let batches = vec![VertexRange::new(0, 4), VertexRange::new(4, 7)];
        let none = MemBudget::new(0);
        ArrayEntry::create_blocks(&disk, "dist", 8, &batches, false, 1, None, &none).unwrap();
        let reopen = ArrayEntry::create_blocks(&disk, "dist", 4, &batches, false, 1, None, &none);
        let err = reopen.err().expect("a 4-byte view of 8-byte blocks");
        assert!(matches!(&err, DfoError::Config(m) if m.contains("\"dist\"")), "{err}");
        // a block that changed length behind the store's back is caught
        // where a batch loads it
        std::fs::write(td.path().join("arrays/dist/blocks/1.bin"), [0u8; 12]).unwrap();
        let entry =
            ArrayEntry::create_blocks(&disk, "dist", 8, &batches, false, 1, None, &none).unwrap();
        let err = BatchCtx::load(&[&entry], batches[1], 1, 0, None).err().unwrap();
        assert!(matches!(&err, DfoError::Corrupt(m) if m.contains("\"dist\"")), "{err}");
        assert!(entry.read_block(1, batches[1].len()).is_err());
    }

    #[test]
    #[should_panic(expected = "wrong element type")]
    fn type_confusion_caught() {
        let td = TempDir::new().unwrap();
        let entry = blocks_entry(&td);
        let wrong = VertexArray::<u64>::new("dist");
        let mut ctx = BatchCtx::load(&[&entry], VertexRange::new(0, 4), 0, 0, None).unwrap();
        let _ = ctx.get(&wrong, 0);
    }

    #[test]
    #[should_panic(expected = "not listed")]
    fn unlisted_array_caught() {
        let td = TempDir::new().unwrap();
        let entry = blocks_entry(&td);
        let other = VertexArray::<f32>::new("rank");
        let mut ctx = BatchCtx::load(&[&entry], VertexRange::new(0, 4), 0, 0, None).unwrap();
        let _ = ctx.get(&other, 0);
    }

    #[test]
    fn paged_backend_get_set() {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        // four pages of u64s behind a two-page cache, so values survive eviction
        let partition = VertexRange::new(10, 10 + 4 * PAGE_SIZE as u64 / 8);
        let entry = ArrayEntry::create_paged(&disk, "val", 8, partition, 2).unwrap();
        let arr = VertexArray::<u64>::new("val");
        {
            let mut ctx = BatchCtx::load(&[&entry], partition, 0, 10, None).unwrap();
            for v in partition.iter() {
                ctx.set(&arr, v, v * 3);
            }
            for v in (partition.start..partition.end).rev() {
                assert_eq!(ctx.get(&arr, v), v * 3);
            }
        }
        entry.commit().unwrap(); // flush pages
    }

    #[test]
    fn preloaded_bytes_are_reused() {
        let td = TempDir::new().unwrap();
        let entry = blocks_entry(&td);
        let arr = VertexArray::<f32>::new("dist");
        // hand the loader fabricated bytes: it must use them, not re-read
        let fake = bytes_of(&7.0f32).iter().copied().cycle().take(16).collect::<Vec<u8>>();
        let mut ctx =
            BatchCtx::load(&[&entry], VertexRange::new(0, 4), 0, 0, Some(("dist", fake))).unwrap();
        assert_eq!(ctx.get(&arr, 2), 7.0);
    }
}
