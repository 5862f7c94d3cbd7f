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
//! A block is read when a call first needs its old bytes, not when the call
//! checks it out. A block that is not resident is checked out empty; `set`s
//! in ascending vertex order from its first vertex — every init pass — grow
//! a written prefix, and the first `get` or `update` past that prefix or
//! any other `set` reads the block once, keeping the prefix. At write-back
//! a block written whole goes in without ever being read, one written in
//! part is completed by one read, and one not touched is neither read nor
//! written. Its file's length is checked (a `stat`) at check-out, before
//! any byte is used, so an array reopened under an element type of another
//! size is a typed error, not a misread; a deferred read that fails fails
//! the call at write-back.
//! Pages of a paged array are read when they are checked out.
//!
//! In the Table 6 "no batching" ablation the one batch is the whole
//! partition, and an array's blocks are *pages* of it (4 KiB of vertices
//! each) in the same store, under the same budget. The batch
//! checks out one page at a time, the one holding the vertex it touches:
//! the memory-mapped arrays of semi-out-of-core systems, which thrash once
//! the budget holds fewer pages than the vertex data.

use dfo_storage::{MemBudget, NodeDisk, VersionedArrayStore};
use dfo_types::{bytes_of, pod_from_bytes, DfoError, Pod, Result, VertexId, VertexRange};
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::Arc;

/// Bytes of vertex data per page of a paged (no-batching ablation) array.
pub(crate) const PAGE_SIZE: usize = 4096;

/// Epochs a checkpointed array retains: the committed one and the one
/// before, which ahead-rank rollback and a commit record that falls back
/// one call both land on.
const CHECKPOINTS_KEPT: usize = 2;

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

/// Registry entry for one array.
pub(crate) struct ArrayEntry {
    /// Shared with every handle [`ArrayEntry::handle`] gives out, so a
    /// [`BatchCtx`] finds a handle's slot by comparing pointers.
    pub name: Arc<str>,
    pub elem_bytes: usize,
    pub store: Mutex<VersionedArrayStore>,
    /// Vertices per block of a paged array, whose blocks are pages of the
    /// one batch; `None` when every batch is one block.
    pub page: Option<u64>,
}

impl ArrayEntry {
    /// Creates or reopens the block store of one array, one block per
    /// range of `blocks` (the batches, or the pages of a `page`d array).
    /// `checkpoint` is `None` for an in-place array, else the epoch the
    /// node's commit record holds for it: an array no recorded call wrote
    /// (epoch 0) is created anew, and one it names recovers to that epoch,
    /// which discards the blocks of a call whose record never landed.
    /// Blocks stay resident within `pool`.
    pub fn create_blocks(
        disk: &NodeDisk,
        name: &str,
        elem_bytes: usize,
        blocks: &[VertexRange],
        page: Option<u64>,
        checkpoint: Option<u64>,
        pool: &Arc<MemBudget>,
    ) -> Result<Self> {
        let dir = format!("arrays/{name}");
        let block_bytes = |b: usize| blocks[b].len() as usize * elem_bytes;
        let reopened = match checkpoint {
            Some(0) => None,
            Some(epoch) => Some(VersionedArrayStore::recover_to(
                disk.clone(),
                dir.clone(),
                blocks.len(),
                CHECKPOINTS_KEPT,
                epoch,
            )?),
            None if VersionedArrayStore::in_place_exists(disk, &dir) => {
                let stored = disk.len(&format!("{dir}/blocks/0.bin"))?;
                if stored != block_bytes(0) as u64 {
                    return Err(DfoError::Config(format!(
                        "vertex array {name:?} reopened with element size {elem_bytes}: its \
                         first block holds {stored} bytes for {} vertices",
                        blocks[0].len()
                    )));
                }
                Some(VersionedArrayStore::open_in_place(disk.clone(), dir.clone(), blocks.len()))
            }
            None => None,
        };
        let store = match reopened {
            Some(mut store) => {
                store.set_resident_budget(pool.clone());
                store
            }
            None => VersionedArrayStore::create_within(
                disk.clone(),
                dir,
                blocks.len(),
                |b| vec![0u8; block_bytes(b)],
                checkpoint.is_some(),
                CHECKPOINTS_KEPT,
                pool.clone(),
            )?,
        };
        Ok(Self { name: name.into(), elem_bytes, store: Mutex::new(store), page })
    }

    /// A typed handle to this array.
    pub fn handle<T: Pod>(&self) -> VertexArray<T> {
        VertexArray::new(self.name.clone())
    }

    /// Reads a copy of block `b`'s bytes, which must hold `batch_len`
    /// values.
    pub fn read_block(&self, b: usize, batch_len: u64) -> Result<Vec<u8>> {
        self.checked(b, batch_len, self.store.lock().read_batch(b)?)
    }

    /// Checks block `b` of `batch_len` values out: its bytes, or an empty
    /// buffer when the block of a non-paged array is not resident and its
    /// file holds as many bytes as it should (see the [module docs](self)).
    fn check_out(&self, b: usize, batch_len: u64) -> Result<Vec<u8>> {
        let mut store = self.store.lock();
        if self.page.is_some() {
            return self.checked(b, batch_len, store.take_batch(b)?);
        }
        match store.take_resident(b)? {
            Ok(buf) => self.checked(b, batch_len, buf),
            Err(len) => self
                .check_len(b, batch_len, len as usize)
                .map(|()| Vec::with_capacity(len as usize)),
        }
    }

    /// `buf`, if it is as long as `batch_len` values of this array; a
    /// `Corrupt` error naming the array if not.
    fn checked(&self, b: usize, batch_len: u64, buf: Vec<u8>) -> Result<Vec<u8>> {
        self.check_len(b, batch_len, buf.len()).map(|()| buf)
    }

    /// Whether block `b` may hold `len` bytes for `batch_len` values.
    fn check_len(&self, b: usize, batch_len: u64, len: usize) -> Result<()> {
        let want = batch_len as usize * self.elem_bytes;
        if len != want {
            return Err(DfoError::Corrupt(format!(
                "vertex array {:?}: block {b} holds {len} bytes, {batch_len} values of {} bytes \
                 are {want}",
                self.name, self.elem_bytes
            )));
        }
        Ok(())
    }

    /// Ends the job's use of the array: writes its dirty blocks in place
    /// (`keep`) or drops them.
    pub fn close(&self, keep: bool) -> Result<()> {
        let mut store = self.store.lock();
        if keep {
            store.flush()
        } else {
            store.discard()
        }
    }

    pub fn begin_epoch(&self) {
        self.store.lock().begin_epoch();
    }

    pub fn commit(&self) -> Result<()> {
        self.store.lock().commit()
    }

    /// Whether this array retains checkpoints (i.e. belongs in the
    /// per-call commit record).
    pub fn checkpointed(&self) -> bool {
        self.store.lock().is_cow()
    }

    /// The array's latest committed epoch (0 for non-checkpointed arrays).
    pub fn epoch(&self) -> u64 {
        self.store.lock().epoch()
    }

    /// Rolls the array back one committed checkpoint (ahead-rank recovery);
    /// returns the epoch it landed on.
    pub fn rollback_one(&self) -> Result<u64> {
        self.store.lock().rollback_one()
    }
}

/// Page `p` of `batch`, in pages of `n` vertices.
fn page_range(batch: VertexRange, n: u64, p: usize) -> VertexRange {
    let start = batch.start + p as u64 * n;
    VertexRange::new(start, (start + n).min(batch.end))
}

/// One array's block as checked out while working on one batch: the
/// batch's own block, or the page of a paged array touched last.
struct ArraySlot<'a> {
    entry: &'a ArrayEntry,
    block: usize,
    /// The first vertex `buf` holds.
    start: VertexId,
    /// The block's bytes, or while `owed > 0` the prefix of them written
    /// so far; the block is on disk.
    buf: Vec<u8>,
    /// Bytes of the block past `buf` that are still on disk.
    owed: usize,
    dirty: bool,
    /// Why reading the block failed; `buf` holds zeros in its place and
    /// the call fails at write-back.
    failed: Option<DfoError>,
}

impl ArraySlot<'_> {
    /// Where vertex `v`'s `elem` bytes sit in `buf` — past its end when `v`
    /// is on another page (below `start` too: the difference wraps).
    #[inline]
    fn value_range(&self, v: VertexId, elem: usize) -> std::ops::Range<usize> {
        let off = (v.wrapping_sub(self.start) as usize).wrapping_mul(elem);
        off..off.wrapping_add(elem)
    }

    /// The miss arm of `get`, and of a `set` that does not append to the
    /// written prefix of a block left on disk: `v`'s bytes are not in
    /// `buf`. A block left on disk is read; a paged array turns its page.
    #[cold]
    #[inline(never)]
    fn miss(&mut self, batch: VertexRange, v: VertexId, elem: usize) -> &mut [u8] {
        if self.owed > 0 && batch.contains(v) {
            if let Err(e) = self.fill(batch.len()) {
                self.buf.resize(std::mem::take(&mut self.owed) + self.buf.len(), 0);
                self.failed = Some(e);
            }
            let at = self.value_range(v, elem);
            return &mut self.buf[at];
        }
        self.turn_page(batch, v, elem)
    }

    /// Reads the block left on disk under the prefix `buf` holds.
    fn fill(&mut self, batch_len: u64) -> Result<()> {
        let entry = self.entry;
        let old = entry.store.lock().take_batch(self.block)?;
        let mut old = entry.checked(self.block, batch_len, old)?;
        old[..self.buf.len()].copy_from_slice(&self.buf);
        (self.buf, self.owed) = (old, 0);
        Ok(())
    }

    /// Checks this paged array's page back in and the page of `batch`
    /// holding `v` out; returns `v`'s bytes in it.
    fn turn_page(&mut self, batch: VertexRange, v: VertexId, elem: usize) -> &mut [u8] {
        let entry = self.entry;
        let n = entry.page.unwrap_or_else(|| panic!("vertex {v} outside batch {batch:?}"));
        let p = ((v - batch.start) / n) as usize;
        let range = page_range(batch, n, p);
        let mut store = entry.store.lock();
        let turned = store.put_batch(self.block, std::mem::take(&mut self.buf), self.dirty);
        let turned = turned.and_then(|()| entry.checked(p, range.len(), store.take_batch(p)?));
        self.buf = turned.expect("checking out a vertex-array page");
        (self.block, self.start, self.dirty) = (p, range.start, false);
        let at = self.value_range(v, elem);
        &mut self.buf[at]
    }

    /// Checks the block back in (see [`BatchCtx::write_back`]).
    fn check_in(mut self, batch: VertexRange) -> Result<()> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        if self.owed > 0 {
            if self.buf.is_empty() {
                return Ok(());
            }
            self.fill(batch.len())?;
        }
        self.entry.store.lock().put_batch(self.block, self.buf, self.dirty)
    }
}

/// The view a UDF gets of the vertex arrays of **one batch** (the paper's
/// guarantee: random access never leaves the batch).
///
/// `get`/`set`/`update` address vertices by global ID; the context checks
/// they fall inside the batch (`debug_assert` on release-hot paths). A
/// value that is read, changed and written back — an accumulator in a
/// `ProcessEdges` slot — goes through [`BatchCtx::update`], which finds it
/// once where `get` then `set` find it twice.
pub struct BatchCtx<'a> {
    batch: VertexRange,
    slots: Vec<ArraySlot<'a>>,
}

impl<'a> BatchCtx<'a> {
    /// Checks the named arrays' blocks of `batch` out of their stores (one
    /// worker owns a batch at a time): block `batch_index`, left on disk
    /// until it is needed when it is not resident, or the first page of a
    /// paged array. `preloaded` supplies bytes that the engine already read
    /// (the active bitmap, re-used instead of read twice).
    pub(crate) fn load(
        entries: &[&'a ArrayEntry],
        batch: VertexRange,
        batch_index: usize,
        mut preloaded: Option<(&str, Vec<u8>)>,
    ) -> Result<Self> {
        let mut slots = Vec::with_capacity(entries.len());
        for &entry in entries {
            let (block, range) = match entry.page {
                None => (batch_index, batch),
                Some(n) => (0, page_range(batch, n, 0)),
            };
            let buf = match &mut preloaded {
                Some((name, bytes)) if **name == *entry.name => {
                    entry.checked(block, range.len(), std::mem::take(bytes))?
                }
                _ => entry.check_out(block, range.len())?,
            };
            let (start, owed) = (range.start, range.len() as usize * entry.elem_bytes - buf.len());
            slots.push(ArraySlot { entry, block, start, buf, owed, dirty: false, failed: None });
        }
        Ok(Self { batch, slots })
    }

    /// The vertex range of the batch being processed.
    pub fn batch(&self) -> VertexRange {
        self.batch
    }

    /// The slot of the array `name` is a handle to. Handles from
    /// [`crate::NodeCtx::vertex_array`] share their entry's name allocation,
    /// so this (once per edge in a typical `slot`) compares pointers;
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

    /// The slot of `name`, the batch, and where `v`'s value would sit in
    /// the slot's buffer. The bounds check a read or write makes anyway is
    /// what tells a paged array to turn the page, so the other arrays pay
    /// nothing for paging.
    #[inline]
    fn locate(
        &mut self,
        name: &Arc<str>,
        elem: usize,
        v: VertexId,
    ) -> (&mut ArraySlot<'a>, VertexRange, std::ops::Range<usize>) {
        debug_assert!(self.batch.contains(v), "vertex {v} outside batch {:?}", self.batch);
        let (i, batch) = (self.slot_index(name, elem), self.batch);
        let slot = &mut self.slots[i];
        let at = slot.value_range(v, elem);
        (slot, batch, at)
    }

    /// Reads vertex `v`'s value from `arr`.
    #[inline]
    pub fn get<T: Pod>(&mut self, arr: &VertexArray<T>, v: VertexId) -> T {
        let elem = std::mem::size_of::<T>();
        let (slot, batch, at) = self.locate(&arr.name, elem, v);
        match slot.buf.get(at) {
            Some(bytes) => pod_from_bytes(bytes),
            None => pod_from_bytes(slot.miss(batch, v, elem)),
        }
    }

    /// Writes vertex `v`'s value in `arr`.
    #[inline]
    pub fn set<T: Pod>(&mut self, arr: &VertexArray<T>, v: VertexId, value: T) {
        let elem = std::mem::size_of::<T>();
        let (slot, batch, at) = self.locate(&arr.name, elem, v);
        if let Some(bytes) = slot.buf.get_mut(at.clone()) {
            bytes.copy_from_slice(bytes_of(&value));
        } else if at.start == slot.buf.len() && elem <= slot.owed {
            // the vertex after the written prefix of a block left on disk
            slot.buf.extend_from_slice(bytes_of(&value));
            slot.owed -= elem;
        } else {
            slot.miss(batch, v, elem).copy_from_slice(bytes_of(&value));
        }
        slot.dirty = true;
    }

    /// Replaces vertex `v`'s value in `arr` by `f` of it — exactly
    /// `let x = get(arr, v); set(arr, v, f(x))`, with one lookup of the
    /// array and of the value's bytes instead of two. A read-modify-write
    /// such as an accumulator's `x += msg` (once per edge in a typical
    /// `slot`) should use it; `get` and `set` stay for reading alone and
    /// for writing a value that does not depend on the old one.
    #[inline]
    pub fn update<T: Pod>(&mut self, arr: &VertexArray<T>, v: VertexId, f: impl FnOnce(T) -> T) {
        let elem = std::mem::size_of::<T>();
        let (slot, batch, at) = self.locate(&arr.name, elem, v);
        let bytes = match slot.buf.get_mut(at) {
            Some(bytes) => bytes,
            None => slot.miss(batch, v, elem),
        };
        let value = f(pod_from_bytes(bytes));
        bytes.copy_from_slice(bytes_of(&value));
        slot.dirty = true;
    }

    /// Checks every slot's block back into its store, marked dirty if the
    /// UDF wrote it. A block left on disk is completed by one read if the
    /// UDF wrote part of it, and stays there if the UDF did not touch it.
    /// The first error — a deferred read that failed — is returned once
    /// every other slot is back in.
    pub(crate) fn write_back(self) -> Result<()> {
        let batch = self.batch;
        let done: Vec<_> = self.slots.into_iter().map(|s| s.check_in(batch)).collect();
        done.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfo_types::ids::split_into_batches;
    use tempfile::TempDir;

    fn create(
        disk: &NodeDisk,
        elem: usize,
        blocks: &[VertexRange],
        page: Option<u64>,
        pool: &Arc<MemBudget>,
    ) -> Result<ArrayEntry> {
        ArrayEntry::create_blocks(disk, "dist", elem, blocks, page, None, pool)
    }

    fn batches() -> Vec<VertexRange> {
        vec![VertexRange::new(0, 4), VertexRange::new(4, 7)]
    }

    fn blocks_entry(td: &TempDir) -> ArrayEntry {
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        create(&disk, 4, &batches(), None, &MemBudget::new(0)).unwrap()
    }

    #[test]
    fn get_set_roundtrip_in_batch() {
        let td = TempDir::new().unwrap();
        let entry = blocks_entry(&td);
        let arr = VertexArray::<f32>::new("dist");
        let batch = VertexRange::new(4, 7);
        let mut ctx = BatchCtx::load(&[&entry], batch, 1, None).unwrap();
        assert_eq!(ctx.get(&arr, 5), 0.0);
        ctx.set(&arr, 5, 2.5);
        assert_eq!(ctx.get(&arr, 5), 2.5);
        ctx.write_back().unwrap();
        // reload sees the persisted value
        let mut ctx2 = BatchCtx::load(&[&entry], batch, 1, None).unwrap();
        assert_eq!(ctx2.get(&arr, 5), 2.5);
        assert_eq!(ctx2.get(&arr, 4), 0.0);
    }

    #[test]
    fn resident_block_is_checked_out_and_written_back() {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let batches = batches();
        let pool = MemBudget::new(1 << 10);
        let stats = disk.stats();
        let entry = create(&disk, 4, &batches, None, &pool).unwrap();
        assert_eq!(stats.write_bytes.get(), 0, "a new array's zero blocks stay in memory");
        assert_eq!(pool.used(), 28);
        let arr = entry.handle::<f32>();
        let batch = batches[1];
        let mut ctx = BatchCtx::load(&[&entry], batch, 1, None).unwrap();
        assert_eq!(pool.used(), 16, "checked out");
        ctx.set(&arr, 5, 2.5);
        ctx.write_back().unwrap();
        // the next worker gets the resident block itself: no read, no copy
        let mut ctx = BatchCtx::load(&[&entry], batch, 1, None).unwrap();
        assert_eq!(ctx.get(&arr, 5), 2.5);
        ctx.write_back().unwrap();
        assert_eq!((stats.read_bytes.get(), stats.write_bytes.get()), (0, 0));
        assert_eq!(pool.used(), 28, "checked back in, still dirty");
        entry.close(true).unwrap();
        assert_eq!(stats.write_bytes.get(), 28, "the flush writes each block once");
        // a later job reopens the flushed files
        let again = create(&disk, 4, &batches, None, &pool).unwrap();
        let mut ctx = BatchCtx::load(&[&again], batch, 1, None).unwrap();
        assert_eq!(ctx.get(&arr, 5), 2.5);
    }

    #[test]
    fn reopening_under_another_element_size_is_a_typed_error() {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let batches = batches();
        let none = MemBudget::new(0);
        create(&disk, 8, &batches, None, &none).unwrap();
        let err = create(&disk, 4, &batches, None, &none).err().expect("a 4-byte view");
        assert!(matches!(&err, DfoError::Config(m) if m.contains("\"dist\"")), "{err}");
        // a block that changed length behind the store's back is caught
        // where a batch loads it
        std::fs::write(td.path().join("arrays/dist/blocks/1.bin"), [0u8; 12]).unwrap();
        let entry = create(&disk, 8, &batches, None, &none).unwrap();
        let err = BatchCtx::load(&[&entry], batches[1], 1, None).err().unwrap();
        assert!(matches!(&err, DfoError::Corrupt(m) if m.contains("\"dist\"")), "{err}");
        assert!(entry.read_block(1, batches[1].len()).is_err());
    }

    #[test]
    #[should_panic(expected = "wrong element type")]
    fn type_confusion_caught() {
        let td = TempDir::new().unwrap();
        let entry = blocks_entry(&td);
        let wrong = VertexArray::<u64>::new("dist");
        let mut ctx = BatchCtx::load(&[&entry], VertexRange::new(0, 4), 0, None).unwrap();
        let _ = ctx.get(&wrong, 0);
    }

    #[test]
    #[should_panic(expected = "not listed")]
    fn unlisted_array_caught() {
        let td = TempDir::new().unwrap();
        let entry = blocks_entry(&td);
        let other = VertexArray::<f32>::new("rank");
        let mut ctx = BatchCtx::load(&[&entry], VertexRange::new(0, 4), 0, None).unwrap();
        let _ = ctx.get(&other, 0);
    }

    #[test]
    fn paged_backend_get_set() {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        // four pages of u64s behind a two-page pool: the batch holds one page
        // at a time, and the pages the pool has no room for go to disk
        let n = (PAGE_SIZE / 8) as u64;
        let partition = VertexRange::new(10, 10 + 4 * n - 3);
        let pages = split_into_batches(partition, n);
        let pool = MemBudget::new(2 * PAGE_SIZE as u64);
        let entry = create(&disk, 8, &pages, Some(n), &pool).unwrap();
        let arr = entry.handle::<u64>();
        let mut ctx = BatchCtx::load(&[&entry], partition, 0, None).unwrap();
        for v in partition.iter() {
            ctx.set(&arr, v, v * 3);
        }
        for v in (partition.start..partition.end).rev() {
            assert_eq!(ctx.get(&arr, v), v * 3);
        }
        ctx.write_back().unwrap();
        assert!(disk.stats().read_bytes.get() > 0, "pages past the pool thrash");
        entry.close(true).unwrap();
        let again = create(&disk, 8, &pages, Some(n), &pool).unwrap();
        let mut ctx = BatchCtx::load(&[&again], partition, 0, None).unwrap();
        for v in [partition.end - 1, partition.start + n, partition.start] {
            assert_eq!(ctx.get(&arr, v), v * 3, "vertex {v} after reopening");
        }
    }

    /// One access of [`trace`]: `Set` writes a value either way, `Rmw` is
    /// the read-modify-write under test.
    #[derive(Clone, Copy)]
    enum Op<T> {
        Set(VertexId, T),
        Rmw(VertexId),
    }

    /// What a run of accesses left behind: per slot its block, first
    /// vertex, bytes, bytes still on disk and dirty flag; the disk bytes
    /// read and written by the run and its write-back; and every block file
    /// after the array is flushed.
    type Trace = (Vec<(usize, VertexId, Vec<u8>, usize, bool)>, (u64, u64), Vec<Vec<u8>>);

    /// Makes an array in a fresh directory with `make` (which may leave
    /// earlier jobs' blocks on disk), runs `ops` on block `index` of it —
    /// each `Rmw` through `update` if `fused`, else through `get` then
    /// `set` — and traces the result.
    fn trace<T: Pod>(
        make: impl Fn(&NodeDisk) -> ArrayEntry,
        (batch, index): (VertexRange, usize),
        ops: &[Op<T>],
        f: impl Fn(T) -> T,
        fused: bool,
    ) -> Trace {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let entry = make(&disk);
        let arr = entry.handle::<T>();
        let before = (disk.stats().read_bytes.get(), disk.stats().write_bytes.get());
        let mut ctx = BatchCtx::load(&[&entry], batch, index, None).unwrap();
        for &op in ops {
            match op {
                Op::Set(v, x) => ctx.set(&arr, v, x),
                Op::Rmw(v) if fused => ctx.update(&arr, v, &f),
                Op::Rmw(v) => {
                    let x = ctx.get(&arr, v);
                    ctx.set(&arr, v, f(x));
                }
            }
        }
        let slots = ctx.slots.iter();
        let slots = slots.map(|s| (s.block, s.start, s.buf.clone(), s.owed, s.dirty)).collect();
        ctx.write_back().unwrap();
        let moved = (disk.stats().read_bytes.get(), disk.stats().write_bytes.get());
        entry.close(true).unwrap();
        let mut files: Vec<_> = std::fs::read_dir(td.path().join("arrays/dist/blocks"))
            .unwrap()
            .map(|f| f.unwrap().path())
            .collect();
        files.sort();
        let files = files.iter().map(|f| std::fs::read(f).unwrap()).collect();
        (slots, (moved.0 - before.0, moved.1 - before.1), files)
    }

    /// Asserts that `update` leaves what `get` then `set` leave.
    fn assert_update_is_get_then_set<T: Pod>(
        make: impl Fn(&NodeDisk) -> ArrayEntry,
        at: (VertexRange, usize),
        ops: &[Op<T>],
        f: impl Fn(T) -> T,
    ) {
        let want = trace(&make, at, ops, &f, false);
        assert_eq!(trace(&make, at, ops, &f, true), want);
    }

    /// `blocks` of `u32`s on disk, vertex `v` holding `v + 100`, none of
    /// them resident.
    fn stored_u32s(disk: &NodeDisk, blocks: &[VertexRange], page: Option<u64>) -> ArrayEntry {
        let entry = create(disk, 4, blocks, page, &MemBudget::new(0)).unwrap();
        for (b, range) in blocks.iter().enumerate() {
            let bytes: Vec<u8> =
                range.iter().flat_map(|v| (v as u32 + 100).to_le_bytes()).collect();
            std::fs::write(disk.root().join(format!("arrays/dist/blocks/{b}.bin")), bytes).unwrap();
        }
        entry
    }

    #[test]
    fn update_is_get_then_set_on_a_resident_block() {
        let pool = MemBudget::new(1 << 10);
        let make = |disk: &NodeDisk| create(disk, 4, &batches(), None, &pool).unwrap();
        let f = |x: f32| x * 3.0 + 1.0;
        for ops in [vec![Op::Rmw(5)], vec![Op::Rmw(5), Op::Set(6, 7.5), Op::Rmw(6), Op::Rmw(4)]] {
            assert_update_is_get_then_set(make, (batches()[1], 1), &ops, f);
        }
    }

    #[test]
    fn update_is_get_then_set_on_a_block_left_on_disk() {
        let make = |disk: &NodeDisk| stored_u32s(disk, &batches(), None);
        let batch = (batches()[1], 1);
        let f = |x: u32| x.wrapping_mul(7) ^ 1;
        // untouched before, at the first vertex past a written prefix, and
        // inside it
        for ops in [
            vec![Op::Rmw(5), Op::Rmw(5)],
            vec![Op::Set(4, 9), Op::Rmw(5)],
            vec![Op::Set(4, 9), Op::Set(5, 8), Op::Rmw(4), Op::Rmw(6)],
            vec![Op::Set(4, 9), Op::Set(5, 8), Op::Set(6, 1), Op::Rmw(6)],
        ] {
            assert_update_is_get_then_set(make, batch, &ops, f);
        }
    }

    #[test]
    fn update_is_get_then_set_when_a_paged_array_turns_its_page() {
        let n = (PAGE_SIZE / 4) as u64;
        let partition = VertexRange::new(10, 10 + 3 * n - 5);
        let pages = split_into_batches(partition, n);
        let make = |disk: &NodeDisk| stored_u32s(disk, &pages, Some(n));
        let (last, first) = (partition.end - 1, partition.start);
        let ops = [Op::Rmw(first + 1), Op::Rmw(last), Op::Rmw(first + n), Op::Rmw(first + 1)];
        assert_update_is_get_then_set(make, (partition, 0), &ops, |x: u32| x + 1);
    }

    #[test]
    fn update_is_get_then_set_on_a_bool_with_a_corrupt_byte() {
        let make = |disk: &NodeDisk| {
            let entry = create(disk, 1, &batches(), None, &MemBudget::new(0)).unwrap();
            std::fs::write(disk.root().join("arrays/dist/blocks/1.bin"), [0, 2, 0]).unwrap();
            entry
        };
        // `2` reads as `true` and is written back as `1`, either way
        for f in [|b: bool| b, |b: bool| !b] {
            assert_update_is_get_then_set(make, (batches()[1], 1), &[Op::Rmw(5)], f);
        }
        let files = trace(make, (batches()[1], 1), &[Op::Rmw(5)], |b: bool| b, true).2;
        assert_eq!(files[1], [0, 1, 0]);
    }

    #[test]
    fn preloaded_bytes_are_reused() {
        let td = TempDir::new().unwrap();
        let entry = blocks_entry(&td);
        let arr = VertexArray::<f32>::new("dist");
        // hand the loader fabricated bytes: it must use them, not re-read
        let fake = bytes_of(&7.0f32).iter().copied().cycle().take(16).collect::<Vec<u8>>();
        let mut ctx =
            BatchCtx::load(&[&entry], VertexRange::new(0, 4), 0, Some(("dist", fake))).unwrap();
        assert_eq!(ctx.get(&arr, 2), 7.0);
    }
}
