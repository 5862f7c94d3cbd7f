//! Versioned, copy-on-write block store backing checkpointed vertex arrays
//! (paper §3.2, Figure 4).
//!
//! With checkpointing enabled DFOGraph "never overwrites data blocks, and
//! redirects all write operations to a new block"; each `Process` call
//! commits a new epoch that reuses the blocks of the batches it did not
//! write, and a block no retained epoch needs is deleted. With
//! checkpointing disabled the store degrades to plain in-place per-batch
//! block files (no extra I/O — the paper notes checkpointing "does not
//! increase the amount of I/O" beyond metadata).
//!
//! On-disk layout under the store's directory:
//!
//! ```text
//! blocks/<b>_<e>.bin   copy-on-write: batch b as epoch e wrote it
//! blocks/<b>.bin       in place: batch b
//! ```
//!
//! ## The block names are the checkpoint
//!
//! The state of a copy-on-write array at epoch `e` is, for each batch, its
//! block with the newest epoch at or below `e`. So the store writes no
//! manifest and no pointer: which epoch is committed is what the node's
//! per-call record ([`crate::CommitLog`]) says, written once per call after
//! every array of the call committed. Recovery
//! ([`VersionedArrayStore::recover_to`]) takes that epoch, deletes every
//! newer block (the torn tail of a crashed call, an epoch left open) and
//! every block no retained epoch names. The blocks of a recorded epoch are
//! whole: they were written before the record was.
//!
//! A store retains `keep` epochs — the committed one and the `keep − 1`
//! before it, as far back as its blocks reach — so with `keep ≥ 2`
//! [`VersionedArrayStore::rollback_one`] can step back one epoch, and a
//! record that falls back to the previous call finds its blocks.
//!
//! ## Resident blocks
//!
//! Within a [`MemBudget`] the store keeps block bytes in memory. A block is
//! admitted while the budget has room and never evicted for another
//! (batches are scanned cyclically). The engine *checks a block out* for
//! the one worker that owns its batch ([`VersionedArrayStore::take_batch`])
//! and back in ([`VersionedArrayStore::put_batch`]), so residency costs no
//! copy. A block that is not resident can be checked out without its bytes
//! ([`VersionedArrayStore::take_resident`]): the caller reads it when it
//! first needs them, and a caller that overwrites it whole never does. A
//! store never given a budget keeps nothing.
//!
//! How a resident block reaches its file depends on the mode:
//!
//! - **Copy-on-write** blocks are **written through**: every write reaches
//!   the disk at the instant it always did, so a commit is durable and only
//!   re-reads disappear. A block leaves memory when its file does.
//! - **In-place** blocks (checkpointing off) are **written back**. A write
//!   or check-in that the pool admits marks the block dirty and leaves its
//!   file alone; one it refuses is written through. The mark belongs to the
//!   store, not to the caller: a dirty block checked out and back in clean
//!   stays dirty, and is written if it lost its room meanwhile. A new store
//!   created with a budget holds its initial blocks the same way, so a
//!   fresh array costs no write at all.
//!
//! Dirty blocks leave memory at the end of a job, by one of two calls:
//! [`VersionedArrayStore::flush`] writes each in place (a later job reopens
//! the files), [`VersionedArrayStore::discard`] drops them. After a discard
//! the files hold what the last flush left, except for blocks the pool
//! refused, which were written through as the job ran. A store created
//! since its last flush has incomplete files, so discard deletes them all
//! and the array does not exist for the next job. Dropping a store
//! discards its dirty blocks.

use crate::disk::NodeDisk;
use crate::spill::MemBudget;
use dfo_types::{DfoError, Result};
use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;

/// A block: its batch and the epoch that wrote it (0 in place).
type Key = (usize, u64);

enum Mode {
    /// Copy-on-write, retaining `keep` epochs.
    Cow {
        /// The committed epoch.
        epoch: u64,
        /// The oldest retained epoch: every batch has a block at or below
        /// it. Never above `epoch`.
        oldest: u64,
        /// Per batch, the epochs of its blocks, ascending. While an epoch
        /// is open, a batch written in it ends in `epoch + 1`.
        versions: Vec<Vec<u64>>,
        /// An epoch is open: writes make blocks of `epoch + 1`.
        open: bool,
        keep: usize,
    },
    /// In-place: one block per batch, overwritten directly.
    InPlace,
}

/// In-memory copies of block files, each holding a claim on the budget.
struct Resident {
    budget: Arc<MemBudget>,
    blocks: HashMap<Key, Vec<u8>>,
}

impl Resident {
    fn new(budget: Arc<MemBudget>) -> Self {
        Self { budget, blocks: HashMap::new() }
    }

    fn take(&mut self, key: Key) -> Option<Vec<u8>> {
        let buf = self.blocks.remove(&key)?;
        self.budget.release(buf.len() as u64);
        Some(buf)
    }

    /// Makes `buf` the resident copy of `key` if the budget admits it, and
    /// hands it back if not; whatever was resident under `key` is stale
    /// either way.
    fn put(&mut self, key: Key, buf: Vec<u8>) -> std::result::Result<(), Vec<u8>> {
        self.take(key);
        if !self.budget.try_reserve(buf.len() as u64) {
            return Err(buf);
        }
        self.blocks.insert(key, buf);
        Ok(())
    }
}

impl Drop for Resident {
    fn drop(&mut self) {
        let held: usize = self.blocks.values().map(Vec::len).sum();
        self.budget.release(held as u64);
    }
}

/// Persistent versioned storage for one vertex array on one node.
pub struct VersionedArrayStore {
    disk: NodeDisk,
    dir: String,
    n_batches: usize,
    mode: Mode,
    resident: Resident,
    /// `dirty[b]`: batch `b`'s bytes in memory (resident or checked out)
    /// are newer than its in-place file. Never set in copy-on-write mode.
    dirty: Vec<bool>,
    /// Created by this handle and not flushed since: the in-place files
    /// are incomplete.
    unflushed: bool,
}

impl VersionedArrayStore {
    /// Creates a fresh store; `init` produces the initial bytes of each
    /// batch (the paper's `GetVertexArray` creates the initial checkpoint,
    /// epoch 0).
    pub fn create(
        disk: NodeDisk,
        dir: impl Into<String>,
        n_batches: usize,
        init: impl FnMut(usize) -> Vec<u8>,
        checkpointing: bool,
        keep: usize,
    ) -> Result<Self> {
        Self::create_within(disk, dir, n_batches, init, checkpointing, keep, MemBudget::new(0))
    }

    /// [`VersionedArrayStore::create`] keeping blocks resident within
    /// `budget` from the start: an in-place store's initial blocks that fit
    /// are held dirty instead of written. A copy-on-write store first
    /// deletes the blocks an earlier array left under `dir`.
    pub fn create_within(
        disk: NodeDisk,
        dir: impl Into<String>,
        n_batches: usize,
        mut init: impl FnMut(usize) -> Vec<u8>,
        checkpointing: bool,
        keep: usize,
        budget: Arc<MemBudget>,
    ) -> Result<Self> {
        let mode = if checkpointing {
            let versions = vec![vec![0]; n_batches];
            Mode::Cow { epoch: 0, oldest: 0, versions, open: false, keep: keep.max(1) }
        } else {
            Mode::InPlace
        };
        let mut store = Self::with_mode(disk, dir.into(), n_batches, mode, budget);
        if !store.is_cow() {
            for b in 0..n_batches {
                store.put_batch(b, init(b), true)?;
            }
            store.unflushed = store.dirty.contains(&true);
            return Ok(store);
        }
        for key in stored_blocks(&store.disk, &store.dir) {
            store.disk.remove(&store.rel(key))?;
        }
        for b in 0..n_batches {
            store.write_block_file((b, 0), &init(b))?;
        }
        Ok(store)
    }

    /// Reopens an in-place (non-checkpointed) store whose block files
    /// already exist on disk.
    pub fn open_in_place(disk: NodeDisk, dir: impl Into<String>, n_batches: usize) -> Self {
        Self::with_mode(disk, dir.into(), n_batches, Mode::InPlace, MemBudget::new(0))
    }

    fn with_mode(
        disk: NodeDisk,
        dir: String,
        n_batches: usize,
        mode: Mode,
        budget: Arc<MemBudget>,
    ) -> Self {
        let (resident, dirty) = (Resident::new(budget), vec![false; n_batches]);
        Self { disk, dir, n_batches, mode, resident, dirty, unflushed: false }
    }

    /// Lets the store keep blocks resident within `budget` (shared with the
    /// node's other arrays). Blocks become resident as they are next read
    /// or written. Must not be called while blocks are dirty.
    pub fn set_resident_budget(&mut self, budget: Arc<MemBudget>) {
        debug_assert!(!self.dirty.contains(&true), "{}: dirty blocks would be lost", self.dir);
        self.resident = Resident::new(budget);
    }

    /// Whether an in-place store exists at `dir` (its first block file is
    /// present).
    pub fn in_place_exists(disk: &NodeDisk, dir: &str) -> bool {
        disk.exists(&format!("{dir}/blocks/0.bin"))
    }

    /// Reopens a copy-on-write store at `epoch`, the epoch the commit
    /// record holds for it: the array is exactly its state after the last
    /// recorded `Process` call (§3.2). Blocks newer than `epoch` — those of
    /// a call whose record never landed, or of an epoch left open — are
    /// deleted, as are blocks no retained epoch names. A batch with no
    /// block at or below `epoch` is `NoCheckpoint`: the array was never
    /// created whole, or lost files.
    pub fn recover_to(
        disk: NodeDisk,
        dir: impl Into<String>,
        n_batches: usize,
        keep: usize,
        epoch: u64,
    ) -> Result<Self> {
        let dir = dir.into();
        let mut versions = vec![Vec::new(); n_batches];
        for (b, e) in stored_blocks(&disk, &dir) {
            if b < n_batches && e <= epoch {
                versions[b].push(e);
            } else {
                disk.remove(&format!("{dir}/blocks/{b}_{e}.bin"))?;
            }
        }
        // the oldest epoch every batch has a block at or below
        let mut oldest = 0;
        for (b, v) in versions.iter_mut().enumerate() {
            v.sort_unstable();
            let first = v.first().ok_or_else(|| {
                DfoError::NoCheckpoint(format!("{dir}: batch {b} has no block at epoch {epoch}"))
            })?;
            oldest = oldest.max(*first);
        }
        let keep = keep.max(1);
        let oldest = oldest.max((epoch + 1).saturating_sub(keep as u64));
        let mode = Mode::Cow { epoch, oldest, versions, open: false, keep };
        let mut store = Self::with_mode(disk, dir, n_batches, mode, MemBudget::new(0));
        store.collect_garbage()?;
        Ok(store)
    }

    /// Latest committed epoch (0 for in-place stores).
    pub fn epoch(&self) -> u64 {
        match &self.mode {
            Mode::Cow { epoch, .. } => *epoch,
            Mode::InPlace => 0,
        }
    }

    /// Whether this store retains checkpoints (copy-on-write mode).
    pub fn is_cow(&self) -> bool {
        matches!(self.mode, Mode::Cow { .. })
    }

    /// The block batch `b` currently maps to (read-your-writes within an
    /// open epoch).
    fn block_of(&self, b: usize) -> Key {
        assert!(b < self.n_batches, "batch {b} out of range");
        match &self.mode {
            Mode::InPlace => (b, 0),
            Mode::Cow { versions, .. } => (b, *versions[b].last().expect("a batch has a block")),
        }
    }

    /// The file of block `key`.
    fn rel(&self, (b, e): Key) -> String {
        match self.mode {
            Mode::Cow { .. } => format!("{}/blocks/{b}_{e}.bin", self.dir),
            Mode::InPlace => format!("{}/blocks/{b}.bin", self.dir),
        }
    }

    /// Reads block `key` from its file. A dirty batch that is not resident
    /// is checked out, and its file is older than its bytes: a worker that
    /// fails between check-out and check-in loses them.
    fn read_block_file(&self, key: Key) -> Result<Vec<u8>> {
        if self.dirty[key.0] {
            return Err(self.lost(key.0));
        }
        self.disk.read_to_vec(&self.rel(key))
    }

    fn lost(&self, b: usize) -> DfoError {
        DfoError::Corrupt(format!(
            "{}: batch {b} was checked out and not checked back in; its last write is lost",
            self.dir
        ))
    }

    /// Reads a copy of the bytes of batch `b`; a block read from disk
    /// becomes resident if the budget admits it.
    pub fn read_batch(&mut self, b: usize) -> Result<Vec<u8>> {
        let key = self.block_of(b);
        if let Some(buf) = self.resident.blocks.get(&key) {
            return Ok(buf.clone());
        }
        match self.resident.put(key, self.read_block_file(key)?) {
            Ok(()) => Ok(self.resident.blocks[&key].clone()),
            Err(buf) => Ok(buf),
        }
    }

    /// Checks batch `b` out: the resident block itself when there is one,
    /// else its bytes from disk. The caller owns the batch until it hands
    /// the bytes back through [`VersionedArrayStore::put_batch`]; a dirty
    /// block stays dirty meanwhile.
    pub fn take_batch(&mut self, b: usize) -> Result<Vec<u8>> {
        let key = self.block_of(b);
        match self.resident.take(key) {
            Some(buf) => Ok(buf),
            None => self.read_block_file(key),
        }
    }

    /// Checks batch `b` out only if its block is resident: `Ok(block)`, or
    /// `Err(len)` with the length of its file — a `stat`, no read. A caller
    /// that needs the bytes later reads them with
    /// [`VersionedArrayStore::take_batch`]; one that overwrites them whole
    /// never does.
    pub fn take_resident(&mut self, b: usize) -> Result<std::result::Result<Vec<u8>, u64>> {
        let key = self.block_of(b);
        match self.resident.take(key) {
            Some(buf) => Ok(Ok(buf)),
            None if self.dirty[b] => Err(self.lost(b)),
            None => self.disk.len(&self.rel(key)).map(Err),
        }
    }

    /// Checks batch `b` back in, `dirty` if the caller changed it. A
    /// copy-on-write store writes dirty bytes through, exactly as
    /// [`VersionedArrayStore::write_batch`] would. An in-place store keeps
    /// the block resident and dirty if it was dirty before or is now and
    /// the budget admits it; a dirty block the budget refuses is written.
    pub fn put_batch(&mut self, b: usize, buf: Vec<u8>, dirty: bool) -> Result<()> {
        if self.is_cow() {
            let key = if dirty { self.write_through(b, &buf)? } else { self.block_of(b) };
            let _ = self.resident.put(key, buf);
            return Ok(());
        }
        assert!(b < self.n_batches, "batch {b} out of range");
        let dirty = std::mem::take(&mut self.dirty[b]) || dirty;
        match self.resident.put((b, 0), buf) {
            Ok(()) => self.dirty[b] = dirty,
            Err(buf) if dirty => self.write_block_file((b, 0), &buf)?,
            Err(_) => {}
        }
        Ok(())
    }

    /// Whether batch `b` has bytes in memory its in-place file lacks.
    pub fn is_dirty(&self, b: usize) -> bool {
        self.dirty[b]
    }

    /// Writes every dirty block in place. They stay resident, now clean,
    /// and the files are complete.
    pub fn flush(&mut self) -> Result<()> {
        for b in 0..self.n_batches {
            if self.dirty[b] {
                let buf = self.resident.blocks.get(&(b, 0)).ok_or_else(|| self.lost(b))?;
                self.write_block_file((b, 0), buf)?;
                self.dirty[b] = false;
            }
        }
        self.unflushed = false;
        Ok(())
    }

    /// Drops every dirty block unwritten (see the [module docs](self)). A
    /// store created since its last flush deletes its block files.
    pub fn discard(&mut self) -> Result<()> {
        for b in 0..self.n_batches {
            if std::mem::take(&mut self.dirty[b]) {
                self.resident.take((b, 0));
            }
        }
        if std::mem::take(&mut self.unflushed) {
            for b in 0..self.n_batches {
                self.remove_block_file((b, 0))?;
            }
        }
        Ok(())
    }

    /// Opens a new epoch; must be called before `write_batch` when the store
    /// is copy-on-write. Idempotent.
    pub fn begin_epoch(&mut self) {
        if let Mode::Cow { open, .. } = &mut self.mode {
            *open = true;
        }
    }

    /// Writes new bytes for batch `b`: a checked-in copy of `data`.
    pub fn write_batch(&mut self, b: usize, data: &[u8]) -> Result<()> {
        self.put_batch(b, data.to_vec(), true)
    }

    /// Puts `data` on disk as batch `b`'s block of the open copy-on-write
    /// epoch (a second write in one epoch overwrites the first) and returns
    /// its key.
    fn write_through(&mut self, b: usize, data: &[u8]) -> Result<Key> {
        assert!(b < self.n_batches, "batch {b} out of range");
        let Mode::Cow { epoch, versions, open, .. } = &mut self.mode else { unreachable!() };
        assert!(*open, "begin_epoch must be called before write_batch");
        let key = (b, *epoch + 1);
        if versions[b].last() != Some(&key.1) {
            versions[b].push(key.1);
        }
        self.write_block_file(key, data)?;
        Ok(key)
    }

    /// Commits the open epoch and deletes the blocks that only epochs past
    /// the retention limit named. Writes no metadata: the commit record
    /// does that for every array of the call.
    pub fn commit(&mut self) -> Result<()> {
        let Mode::Cow { epoch, oldest, open, keep, .. } = &mut self.mode else { return Ok(()) };
        if !std::mem::take(open) {
            return Ok(()); // nothing opened
        }
        *epoch += 1;
        *oldest = (*oldest).max((*epoch + 1).saturating_sub(*keep as u64));
        self.collect_garbage()
    }

    /// Rolls the store back one committed epoch, permanently discarding the
    /// newest one: the blocks it wrote are deleted. Returns the epoch the
    /// store landed on. Used by ahead-rank recovery: a rank that committed a
    /// `Process` call its crashed peers did not must discard that call to
    /// rejoin them, after the commit record stepped back.
    ///
    /// Fails with `NoCheckpoint` when the committed epoch is the oldest the
    /// store retains and with `Corrupt` when an epoch is open (`begin_epoch`
    /// without commit).
    pub fn rollback_one(&mut self) -> Result<u64> {
        let dir = &self.dir;
        let Mode::Cow { epoch, oldest, open, .. } = &mut self.mode else {
            return Err(DfoError::Corrupt(format!(
                "{dir}: rollback_one on a non-checkpointed store"
            )));
        };
        if *open {
            return Err(DfoError::Corrupt(format!("{dir}: rollback_one with an open epoch")));
        }
        if *epoch == *oldest {
            return Err(DfoError::NoCheckpoint(format!(
                "{dir}: cannot roll back epoch {epoch}, the oldest this store retains"
            )));
        }
        *epoch -= 1;
        let landed = *epoch;
        self.drop_newer_than(landed)?;
        Ok(landed)
    }

    /// Aborts the open epoch, deleting its blocks.
    pub fn abort(&mut self) -> Result<()> {
        let Mode::Cow { epoch, open, .. } = &mut self.mode else { return Ok(()) };
        if std::mem::take(open) {
            let committed = *epoch;
            self.drop_newer_than(committed)?;
        }
        Ok(())
    }

    /// Number of live block files (for tests and GC assertions).
    pub fn live_blocks(&self) -> usize {
        match &self.mode {
            Mode::InPlace => self.n_batches,
            Mode::Cow { versions, .. } => versions.iter().map(Vec::len).sum(),
        }
    }

    /// Deletes every block of an epoch after `e`.
    fn drop_newer_than(&mut self, e: u64) -> Result<()> {
        let Mode::Cow { versions, .. } = &mut self.mode else { return Ok(()) };
        let mut dead = Vec::new();
        for (b, v) in versions.iter_mut().enumerate() {
            while v.last().is_some_and(|&x| x > e) {
                dead.push((b, v.pop().unwrap()));
            }
        }
        dead.into_iter().try_for_each(|key| self.remove_block_file(key))
    }

    /// Deletes every block older than the one each batch has at the oldest
    /// retained epoch: no retained epoch names it.
    fn collect_garbage(&mut self) -> Result<()> {
        let Mode::Cow { oldest, versions, .. } = &mut self.mode else { return Ok(()) };
        let mut dead = Vec::new();
        for (b, v) in versions.iter_mut().enumerate() {
            let needed = v.partition_point(|&e| e <= *oldest).saturating_sub(1);
            dead.extend(v.drain(..needed).map(|e| (b, e)));
        }
        dead.into_iter().try_for_each(|key| self.remove_block_file(key))
    }

    fn write_block_file(&self, key: Key, data: &[u8]) -> Result<()> {
        let rel = self.rel(key);
        let mut w = self.disk.create(&rel)?;
        w.write_all(data).map_err(|e| DfoError::io(format!("writing {rel}"), e))?;
        w.finish()
    }

    fn remove_block_file(&mut self, key: Key) -> Result<()> {
        self.resident.take(key);
        self.disk.remove(&self.rel(key))
    }
}

/// The `(batch, epoch)` of every copy-on-write block file under `dir`.
fn stored_blocks(disk: &NodeDisk, dir: &str) -> Vec<Key> {
    let Ok(entries) = std::fs::read_dir(disk.root().join(format!("{dir}/blocks"))) else {
        return Vec::new();
    };
    let parse = |name: &str| {
        let (b, e) = name.strip_suffix(".bin")?.split_once('_')?;
        Some((b.parse().ok()?, e.parse().ok()?))
    };
    entries.flatten().filter_map(|entry| parse(entry.file_name().to_str()?)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::TempDir;

    fn mk(cow: bool, keep: usize) -> (TempDir, VersionedArrayStore) {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let s =
            VersionedArrayStore::create(disk, "arr", 3, |b| vec![b as u8; 4], cow, keep).unwrap();
        (td, s)
    }

    #[test]
    fn initial_contents() {
        for cow in [false, true] {
            let (_t, mut s) = mk(cow, 1);
            assert_eq!(s.read_batch(0).unwrap(), vec![0u8; 4]);
            assert_eq!(s.read_batch(2).unwrap(), vec![2u8; 4]);
        }
    }

    #[test]
    fn inplace_overwrite() {
        let (_t, mut s) = mk(false, 1);
        s.write_batch(1, &[9u8; 4]).unwrap();
        assert_eq!(s.read_batch(1).unwrap(), vec![9u8; 4]);
        s.commit().unwrap(); // no-op
        assert_eq!(s.live_blocks(), 3);
    }

    #[test]
    fn cow_reuses_unmodified_blocks_and_gcs() {
        let (_t, mut s) = mk(true, 1);
        assert_eq!(s.live_blocks(), 3);
        s.begin_epoch();
        s.write_batch(1, &[7u8; 4]).unwrap();
        s.commit().unwrap();
        // epoch 1 shares blocks 0 and 2 with epoch 0; epoch 0 retired:
        // old block of batch 1 deleted => still 3 live blocks
        assert_eq!(s.live_blocks(), 3);
        assert_eq!(s.read_batch(1).unwrap(), vec![7u8; 4]);
        assert_eq!(s.read_batch(0).unwrap(), vec![0u8; 4]);
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn keep_two_checkpoints() {
        let (_t, mut s) = mk(true, 2);
        s.begin_epoch();
        s.write_batch(0, &[1u8; 4]).unwrap();
        s.commit().unwrap();
        // epochs 0 and 1 retained: blocks {0,1,2} + new one = 4
        assert_eq!(s.live_blocks(), 4);
        s.begin_epoch();
        s.write_batch(0, &[2u8; 4]).unwrap();
        s.commit().unwrap();
        // epoch 0 retired: its batch-0 block freed
        assert_eq!(s.live_blocks(), 4);
    }

    #[test]
    fn read_your_writes_in_open_epoch() {
        let (_t, mut s) = mk(true, 1);
        s.begin_epoch();
        s.write_batch(2, &[5u8; 4]).unwrap();
        assert_eq!(s.read_batch(2).unwrap(), vec![5u8; 4]);
        s.abort().unwrap();
        assert_eq!(s.read_batch(2).unwrap(), vec![2u8; 4]);
    }

    #[test]
    fn double_write_in_epoch_drops_older() {
        let (_t, mut s) = mk(true, 1);
        s.begin_epoch();
        s.write_batch(0, &[1u8; 4]).unwrap();
        s.write_batch(0, &[2u8; 4]).unwrap();
        s.commit().unwrap();
        assert_eq!(s.read_batch(0).unwrap(), vec![2u8; 4]);
        assert_eq!(s.live_blocks(), 3);
    }

    #[test]
    fn recover_after_commit() {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        {
            let mut s =
                VersionedArrayStore::create(disk.clone(), "arr", 2, |b| vec![b as u8; 2], true, 1)
                    .unwrap();
            s.begin_epoch();
            s.write_batch(0, &[42u8; 2]).unwrap();
            s.commit().unwrap();
        }
        let mut s = VersionedArrayStore::recover_to(disk, "arr", 2, 1, 1).unwrap();
        assert_eq!(s.read_batch(0).unwrap(), vec![42u8; 2]);
        assert_eq!(s.read_batch(1).unwrap(), vec![1u8; 2]);
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn recover_discards_uncommitted_epoch() {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        {
            let mut s =
                VersionedArrayStore::create(disk.clone(), "arr", 2, |b| vec![b as u8; 2], true, 1)
                    .unwrap();
            s.begin_epoch();
            s.write_batch(0, &[99u8; 2]).unwrap();
            // crash: no commit
        }
        let mut s = VersionedArrayStore::recover_to(disk, "arr", 2, 1, 0).unwrap();
        assert_eq!(s.read_batch(0).unwrap(), vec![0u8; 2], "uncommitted write must vanish");
        // orphan pending block file must have been cleaned up
        assert_eq!(s.live_blocks(), 2);
    }

    #[test]
    fn recover_without_checkpoint_errors() {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        assert!(matches!(
            VersionedArrayStore::recover_to(disk, "nope", 2, 1, 0),
            Err(DfoError::NoCheckpoint(_))
        ));
    }

    /// The block files under `td/arr`, sorted.
    fn block_files(td: &TempDir) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(td.path().join("arr/blocks"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// Builds a two-checkpoint store: epoch 1 holds `[1; 4]` everywhere,
    /// epoch 2 holds `[2; 4]` everywhere.
    fn two_checkpoints() -> (TempDir, NodeDisk) {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let mut s =
            VersionedArrayStore::create(disk.clone(), "arr", 3, |b| vec![b as u8; 4], true, 2)
                .unwrap();
        for val in [1u8, 2] {
            s.begin_epoch();
            for b in 0..3 {
                s.write_batch(b, &[val; 4]).unwrap();
            }
            s.commit().unwrap();
        }
        (td, disk)
    }

    #[test]
    fn blocks_are_named_by_batch_and_epoch_and_nothing_else_is_written() {
        let (td, _disk) = two_checkpoints();
        let want = ["0_1.bin", "0_2.bin", "1_1.bin", "1_2.bin", "2_1.bin", "2_2.bin"];
        assert_eq!(block_files(&td), want, "epoch 0's blocks are retired");
        let mut entries: Vec<String> = std::fs::read_dir(td.path().join("arr"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        entries.sort();
        assert_eq!(entries, ["blocks"], "no manifest, no pointer");
    }

    #[test]
    fn recover_to_discards_epochs_above_target() {
        let (td, disk) = two_checkpoints();
        let mut s = VersionedArrayStore::recover_to(disk, "arr", 3, 2, 1).unwrap();
        assert_eq!(s.epoch(), 1, "epoch 2 is above the commit-record target");
        for b in 0..3 {
            assert_eq!(s.read_batch(b).unwrap(), vec![1u8; 4]);
        }
        assert_eq!(block_files(&td), ["0_1.bin", "1_1.bin", "2_1.bin"], "torn epoch deleted");
        assert!(matches!(s.rollback_one(), Err(DfoError::NoCheckpoint(_))), "epoch 0 is gone");
    }

    #[test]
    fn recover_to_at_or_above_current_is_a_no_op() {
        let (td, disk) = two_checkpoints();
        let before = block_files(&td);
        for target in [2, 99] {
            let mut s = VersionedArrayStore::recover_to(disk.clone(), "arr", 3, 2, target).unwrap();
            assert_eq!(s.epoch(), target);
            for b in 0..3 {
                assert_eq!(s.read_batch(b).unwrap(), vec![2u8; 4]);
            }
            if target == 2 {
                assert_eq!(block_files(&td), before);
            }
        }
        // epochs 98 and 99 (calls that wrote nothing) both read epoch 2's
        // blocks, so epoch 1's are no longer retained
        assert_eq!(block_files(&td), ["0_2.bin", "1_2.bin", "2_2.bin"]);
    }

    #[test]
    fn a_batch_without_a_block_at_the_target_is_no_checkpoint() {
        let (td, disk) = two_checkpoints();
        std::fs::remove_file(td.path().join("arr/blocks/1_1.bin")).unwrap();
        assert!(VersionedArrayStore::recover_to(disk.clone(), "arr", 3, 2, 2).is_ok());
        assert!(matches!(
            VersionedArrayStore::recover_to(disk, "arr", 3, 2, 1),
            Err(DfoError::NoCheckpoint(_))
        ));
    }

    #[test]
    fn rollback_one_lands_on_previous_checkpoint_and_persists() {
        let (td, disk) = two_checkpoints();
        let mut s = VersionedArrayStore::recover_to(disk.clone(), "arr", 3, 2, 2).unwrap();
        assert_eq!(s.epoch(), 2);
        assert_eq!(s.rollback_one().unwrap(), 1);
        for b in 0..3 {
            assert_eq!(s.read_batch(b).unwrap(), vec![1u8; 4]);
        }
        // a second rollback is refused: only one checkpoint left
        assert!(matches!(s.rollback_one(), Err(DfoError::NoCheckpoint(_))));
        drop(s);
        // the rolled-back blocks are gone: even a reopen at the old epoch
        // reads epoch 1's
        assert_eq!(block_files(&td), ["0_1.bin", "1_1.bin", "2_1.bin"]);
        let mut s = VersionedArrayStore::recover_to(disk, "arr", 3, 2, 2).unwrap();
        assert_eq!(s.read_batch(0).unwrap(), vec![1u8; 4]);
    }

    #[test]
    fn rollback_then_commit_reuses_the_epoch_number() {
        let (_td, disk) = two_checkpoints();
        let mut s = VersionedArrayStore::recover_to(disk.clone(), "arr", 3, 2, 2).unwrap();
        s.rollback_one().unwrap();
        s.begin_epoch();
        s.write_batch(0, &[9u8; 4]).unwrap();
        s.commit().unwrap();
        assert_eq!(s.epoch(), 2, "re-execution recommits the rolled-back epoch");
        assert_eq!(s.read_batch(0).unwrap(), vec![9u8; 4]);
        assert_eq!(s.read_batch(1).unwrap(), vec![1u8; 4]);
        drop(s);
        let mut s = VersionedArrayStore::recover_to(disk, "arr", 3, 2, 2).unwrap();
        assert_eq!(s.epoch(), 2);
        assert_eq!(s.read_batch(0).unwrap(), vec![9u8; 4]);
        assert_eq!(s.read_batch(1).unwrap(), vec![1u8; 4], "no stale block of the old epoch 2");
    }

    #[test]
    fn rollback_one_requires_a_closed_epoch_and_cow_mode() {
        let (_t, mut s) = mk(false, 1);
        assert!(matches!(s.rollback_one(), Err(DfoError::Corrupt(_))));
        let (_t, mut s) = mk(true, 2);
        s.begin_epoch();
        s.write_batch(0, &[1u8; 4]).unwrap();
        s.commit().unwrap();
        s.begin_epoch();
        assert!(matches!(s.rollback_one(), Err(DfoError::Corrupt(_))));
    }

    #[test]
    fn create_replaces_the_blocks_an_earlier_array_left() {
        let (td, disk) = two_checkpoints();
        let mut s = VersionedArrayStore::create(disk, "arr", 3, |_| vec![7u8; 4], true, 2).unwrap();
        assert_eq!(block_files(&td), ["0_0.bin", "1_0.bin", "2_0.bin"]);
        s.begin_epoch();
        s.write_batch(0, &[8u8; 4]).unwrap();
        s.commit().unwrap();
        assert_eq!(s.read_batch(1).unwrap(), vec![7u8; 4]);
    }

    #[test]
    fn many_epochs_bounded_storage() {
        let (_t, mut s) = mk(true, 1);
        for i in 0..20u8 {
            s.begin_epoch();
            s.write_batch((i % 3) as usize, &[i; 4]).unwrap();
            s.commit().unwrap();
            assert_eq!(s.live_blocks(), 3, "GC must bound live blocks");
        }
        assert_eq!(s.epoch(), 20);
    }
}
