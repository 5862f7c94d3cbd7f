//! Versioned, copy-on-write block store backing checkpointed vertex arrays
//! (paper §3.2, Figure 4).
//!
//! With checkpointing enabled DFOGraph "never overwrites data blocks, and
//! redirects all write operations to a new block"; each `Process` call
//! commits a new checkpoint that may *reuse* blocks of unmodified batches
//! from the previous one, and obsolete checkpoints are garbage-collected by
//! reference counting. With checkpointing disabled the store degrades to
//! plain in-place per-batch block files (no metadata, no extra I/O — the
//! paper notes checkpointing "does not increase the amount of I/O" beyond
//! metadata).
//!
//! On-disk layout under the store's directory:
//!
//! ```text
//! blocks/<id>.bin        one file per block version
//! meta/ckpt_<epoch>.bin  committed manifest: magic, mapping, CRC-32
//! CURRENT                latest committed epoch (written atomically)
//! ```
//!
//! ## Crash-consistent commits
//!
//! A checkpoint *manifest* (`meta/ckpt_<epoch>.bin`) carries a magic
//! number and a trailing CRC-32 over its whole body, and is written via
//! temp-file + atomic rename — so a torn, truncated, or bit-flipped
//! manifest is always *detectable*, never silently loaded. Recovery
//! ([`VersionedArrayStore::recover`]) discards invalid manifests and falls
//! back to the newest surviving valid checkpoint (rewriting `CURRENT` to
//! match), which with `keep ≥ 2` retained checkpoints means a corrupted
//! in-flight commit costs exactly one checkpoint, never the array.
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
//! - **In-place** blocks (`id == batch`, checkpointing off) are **written
//!   back**. A write or check-in that the pool admits marks the block
//!   dirty and leaves its file alone; one it refuses is written through. The
//!   mark belongs to the store, not to the caller: a dirty block checked
//!   out and back in clean stays dirty, and is written if it lost its room
//!   meanwhile. A new store created with a budget holds its initial blocks
//!   the same way, so a fresh array costs no write at all.
//!
//! Dirty blocks leave memory at the end of a job, by one of two calls:
//! [`VersionedArrayStore::flush`] writes each in place (a later job reopens
//! the files), [`VersionedArrayStore::discard`] drops them. After a discard
//! the files hold what the last flush left, except for blocks the pool
//! refused, which were written through as the job ran. A store created
//! since its last flush has incomplete files, so discard deletes them all
//! and the array does not exist for the next job. Dropping a store
//! discards its dirty blocks.

use crate::compress::crc32;
use crate::disk::NodeDisk;
use crate::spill::MemBudget;
use dfo_types::codec::{read_u64, write_u64};
use dfo_types::{DfoError, Result};
use std::collections::{HashMap, VecDeque};
use std::io::{Cursor, Write};
use std::sync::Arc;

type BlockId = u64;

/// `"DFOMANIF"`: identifies a checkpoint manifest.
const MANIFEST_MAGIC: u64 = 0x4446_4f4d_414e_4946;

enum Mode {
    /// Copy-on-write with `keep` retained checkpoints.
    Cow {
        next_block: BlockId,
        epoch: u64,
        current: Vec<BlockId>,
        pending: Option<Vec<Option<BlockId>>>,
        history: VecDeque<(u64, Vec<BlockId>)>,
        refcounts: HashMap<BlockId, u32>,
        keep: usize,
    },
    /// In-place: block id == batch index, overwritten directly.
    InPlace,
}

/// In-memory copies of block files, each holding a claim on the budget.
struct Resident {
    budget: Arc<MemBudget>,
    blocks: HashMap<BlockId, Vec<u8>>,
}

impl Resident {
    fn new(budget: Arc<MemBudget>) -> Self {
        Self { budget, blocks: HashMap::new() }
    }

    fn take(&mut self, id: BlockId) -> Option<Vec<u8>> {
        let buf = self.blocks.remove(&id)?;
        self.budget.release(buf.len() as u64);
        Some(buf)
    }

    /// Makes `buf` the resident copy of `id` if the budget admits it, and
    /// hands it back if not; whatever was resident under `id` is stale
    /// either way.
    fn put(&mut self, id: BlockId, buf: Vec<u8>) -> std::result::Result<(), Vec<u8>> {
        self.take(id);
        if !self.budget.try_reserve(buf.len() as u64) {
            return Err(buf);
        }
        self.blocks.insert(id, buf);
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
    /// batch (the paper's `GetVertexArray` creates the initial checkpoint).
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
    /// are held dirty instead of written.
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
            Mode::Cow {
                next_block: 0,
                epoch: 0,
                current: Vec::new(),
                pending: None,
                history: VecDeque::new(),
                refcounts: HashMap::new(),
                keep: keep.max(1),
            }
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
        let mut mapping = Vec::with_capacity(n_batches);
        for b in 0..n_batches {
            let data = init(b);
            let id = store.alloc_block()?;
            store.write_block_file(id, &data)?;
            mapping.push(id);
        }
        store.commit_mapping(mapping)?;
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

    /// Whether a committed checkpoint exists at `dir`.
    pub fn checkpoint_exists(disk: &NodeDisk, dir: &str) -> bool {
        disk.exists(&format!("{dir}/CURRENT"))
    }

    /// Reopens a store from its last committed checkpoint. Pending blocks
    /// from a crashed epoch are deleted; the array is exactly the state
    /// after the last successful `Process` call (§3.2).
    ///
    /// Crash consistency: a manifest that fails validation (truncated,
    /// torn, bit-flipped — anything the magic/shape/CRC checks catch) is
    /// **discarded**, and recovery lands on the newest surviving valid
    /// checkpoint, rewriting `CURRENT` to match. An unreadable `CURRENT`
    /// likewise falls back to the newest valid manifest.
    pub fn recover(
        disk: NodeDisk,
        dir: impl Into<String>,
        n_batches: usize,
        keep: usize,
    ) -> Result<Self> {
        Self::recover_to(disk, dir, n_batches, keep, None)
    }

    /// [`VersionedArrayStore::recover`] with an upper bound on the epoch
    /// considered committed. A per-call commit record (see
    /// [`crate::CommitLog`]) may know that this array's last *globally*
    /// committed epoch is older than its own `CURRENT` — a crash between
    /// the per-array commits of one multi-array `Process` call leaves some
    /// arrays one epoch ahead of the record. Passing that epoch as `target`
    /// discards the torn epochs so every array of the call rolls back as a
    /// unit. `None` trusts `CURRENT` (the pre-commit-record behaviour).
    pub fn recover_to(
        disk: NodeDisk,
        dir: impl Into<String>,
        n_batches: usize,
        keep: usize,
        target: Option<u64>,
    ) -> Result<Self> {
        let dir = dir.into();
        let current_rel = format!("{dir}/CURRENT");
        if !disk.exists(&current_rel) {
            return Err(DfoError::NoCheckpoint(format!("{dir}: no CURRENT file")));
        }
        // CURRENT is written atomically, but tolerate a damaged one anyway:
        // the validated manifests are the real source of truth
        let committed: Option<u64> =
            disk.read_to_vec(&current_rel).ok().and_then(|b| read_u64(&mut Cursor::new(&b)).ok());
        let keep = keep.max(1);

        // load the retained committed epochs (<= committed and <= target,
        // newest `keep`), discarding anything that fails validation
        let mut epochs: Vec<u64> = Self::list_meta_epochs(&disk, &dir)?;
        epochs.sort_unstable();
        let mut history: VecDeque<(u64, Vec<BlockId>)> = VecDeque::new();
        let mut refcounts: HashMap<BlockId, u32> = HashMap::new();
        let mut max_block: BlockId = 0;
        for &e in epochs.iter() {
            if committed.is_some_and(|c| e > c) || target.is_some_and(|t| e > t) {
                // uncommitted (or torn-call) metadata from a crash: remove
                disk.remove(&format!("{dir}/meta/ckpt_{e}.bin"))?;
                continue;
            }
            match Self::read_meta(&disk, &dir, e, n_batches) {
                Ok(mapping) => history.push_back((e, mapping)),
                Err(_) => {
                    // torn/corrupt manifest: never load it — fall back to
                    // an older complete checkpoint instead
                    disk.remove(&format!("{dir}/meta/ckpt_{e}.bin"))?;
                }
            }
        }
        while history.len() > keep {
            let (e, _) = history.pop_front().unwrap();
            disk.remove(&format!("{dir}/meta/ckpt_{e}.bin"))?;
        }
        if history.is_empty() {
            return Err(DfoError::NoCheckpoint(format!("{dir}: no valid checkpoint manifest")));
        }
        let committed = history.back().unwrap().0;
        // re-point CURRENT if the committed checkpoint fell back
        let mut cur = Vec::new();
        write_u64(&mut cur, committed).unwrap();
        disk.write_atomic(&current_rel, &cur)?;
        for (_, mapping) in history.iter() {
            for &id in mapping {
                *refcounts.entry(id).or_insert(0) += 1;
                max_block = max_block.max(id);
            }
        }
        let current = history.back().unwrap().1.clone();

        // delete orphan block files (from crashed pending epochs)
        let blocks_dir = disk.root().join(format!("{dir}/blocks"));
        if let Ok(entries) = std::fs::read_dir(&blocks_dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some(id) = name.strip_suffix(".bin").and_then(|s| s.parse::<BlockId>().ok())
                {
                    if !refcounts.contains_key(&id) {
                        disk.remove(&format!("{dir}/blocks/{id}.bin"))?;
                    }
                    max_block = max_block.max(id);
                }
            }
        }

        let mode = Mode::Cow {
            next_block: max_block + 1,
            epoch: committed,
            current,
            pending: None,
            history,
            refcounts,
            keep,
        };
        Ok(Self::with_mode(disk, dir, n_batches, mode, MemBudget::new(0)))
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
    fn block_of(&self, b: usize) -> BlockId {
        assert!(b < self.n_batches, "batch {b} out of range");
        match &self.mode {
            Mode::InPlace => b as BlockId,
            Mode::Cow { current, pending, .. } => {
                pending.as_ref().and_then(|p| p[b]).unwrap_or(current[b])
            }
        }
    }

    /// Reads block `id` (batch `b`'s) from its file. A dirty batch that is
    /// not resident is checked out, and its file is older than its bytes:
    /// a worker that fails between check-out and check-in loses them.
    fn read_block_file(&self, b: usize, id: BlockId) -> Result<Vec<u8>> {
        if self.dirty[b] {
            return Err(self.lost(b));
        }
        self.disk.read_to_vec(&format!("{}/blocks/{id}.bin", self.dir))
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
        let id = self.block_of(b);
        if let Some(buf) = self.resident.blocks.get(&id) {
            return Ok(buf.clone());
        }
        match self.resident.put(id, self.read_block_file(b, id)?) {
            Ok(()) => Ok(self.resident.blocks[&id].clone()),
            Err(buf) => Ok(buf),
        }
    }

    /// Checks batch `b` out: the resident block itself when there is one,
    /// else its bytes from disk. The caller owns the batch until it hands
    /// the bytes back through [`VersionedArrayStore::put_batch`]; a dirty
    /// block stays dirty meanwhile.
    pub fn take_batch(&mut self, b: usize) -> Result<Vec<u8>> {
        let id = self.block_of(b);
        match self.resident.take(id) {
            Some(buf) => Ok(buf),
            None => self.read_block_file(b, id),
        }
    }

    /// Checks batch `b` out only if its block is resident: `Ok(block)`, or
    /// `Err(len)` with the length of its file — a `stat`, no read. A caller
    /// that needs the bytes later reads them with
    /// [`VersionedArrayStore::take_batch`]; one that overwrites them whole
    /// never does.
    pub fn take_resident(&mut self, b: usize) -> Result<std::result::Result<Vec<u8>, u64>> {
        let id = self.block_of(b);
        match self.resident.take(id) {
            Some(buf) => Ok(Ok(buf)),
            None if self.dirty[b] => Err(self.lost(b)),
            None => self.disk.len(&format!("{}/blocks/{id}.bin", self.dir)).map(Err),
        }
    }

    /// Checks batch `b` back in, `dirty` if the caller changed it. A
    /// copy-on-write store writes dirty bytes through, exactly as
    /// [`VersionedArrayStore::write_batch`] would. An in-place store keeps
    /// the block resident and dirty if it was dirty before or is now and
    /// the budget admits it; a dirty block the budget refuses is written.
    pub fn put_batch(&mut self, b: usize, buf: Vec<u8>, dirty: bool) -> Result<()> {
        if self.is_cow() {
            let id = if dirty { self.write_through(b, &buf)? } else { self.block_of(b) };
            let _ = self.resident.put(id, buf);
            return Ok(());
        }
        assert!(b < self.n_batches, "batch {b} out of range");
        let dirty = std::mem::take(&mut self.dirty[b]) || dirty;
        match self.resident.put(b as BlockId, buf) {
            Ok(()) => self.dirty[b] = dirty,
            Err(buf) if dirty => self.write_block_file(b as BlockId, &buf)?,
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
                let id = b as BlockId;
                let buf = self.resident.blocks.get(&id).ok_or_else(|| self.lost(b))?;
                self.write_block_file(id, buf)?;
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
                self.resident.take(b as BlockId);
            }
        }
        if std::mem::take(&mut self.unflushed) {
            for b in 0..self.n_batches {
                self.remove_block_file(b as BlockId)?;
            }
        }
        Ok(())
    }

    /// Opens a new epoch; must be called before `write_batch` when the store
    /// is copy-on-write. Idempotent.
    pub fn begin_epoch(&mut self) {
        if let Mode::Cow { pending, .. } = &mut self.mode {
            if pending.is_none() {
                *pending = Some(vec![None; self.n_batches]);
            }
        }
    }

    /// Writes new bytes for batch `b`: a checked-in copy of `data`.
    pub fn write_batch(&mut self, b: usize, data: &[u8]) -> Result<()> {
        self.put_batch(b, data.to_vec(), true)
    }

    /// Puts `data` on disk as a new block for batch `b` in the open
    /// copy-on-write epoch and returns its id.
    fn write_through(&mut self, b: usize, data: &[u8]) -> Result<BlockId> {
        assert!(b < self.n_batches, "batch {b} out of range");
        let id = self.alloc_block()?;
        self.write_block_file(id, data)?;
        let Mode::Cow { pending, refcounts, .. } = &mut self.mode else { unreachable!() };
        let slot = pending
            .as_mut()
            .expect("begin_epoch must be called before write_batch")
            .get_mut(b)
            .unwrap();
        if let Some(old) = slot.replace(id) {
            // batch written twice in one epoch: drop the older version
            debug_assert!(!refcounts.contains_key(&old));
            self.remove_block_file(old)?;
        }
        Ok(id)
    }

    /// Commits the open epoch: persists the new mapping, retires checkpoints
    /// beyond the retention limit, garbage-collects unreferenced blocks.
    pub fn commit(&mut self) -> Result<()> {
        let mapping = match &mut self.mode {
            Mode::InPlace => return Ok(()),
            Mode::Cow { current, pending, .. } => {
                let p = match pending.take() {
                    Some(p) => p,
                    None => return Ok(()), // nothing opened
                };
                current.iter().zip(p).map(|(&cur, new)| new.unwrap_or(cur)).collect::<Vec<_>>()
            }
        };
        self.commit_mapping(mapping)
    }

    /// Rolls the store back one committed checkpoint, permanently
    /// discarding the newest one: its manifest is deleted, its
    /// no-longer-referenced blocks are garbage-collected, and `CURRENT`
    /// re-points to the previous checkpoint. Returns the epoch the store
    /// landed on. Used by ahead-rank recovery: a rank that committed a
    /// `Process` call its crashed peers did not must discard that call to
    /// rejoin them (`checkpoints_kept ≥ 2` retains the needed checkpoint).
    ///
    /// Fails with `NoCheckpoint` when only one checkpoint is retained and
    /// with `Corrupt` when an epoch is open (`begin_epoch` without commit).
    pub fn rollback_one(&mut self) -> Result<u64> {
        let dir = self.dir.clone();
        let Mode::Cow { epoch, current, pending, history, refcounts, .. } = &mut self.mode else {
            return Err(DfoError::Corrupt(format!(
                "{}: rollback_one on a non-checkpointed store",
                self.dir
            )));
        };
        if pending.is_some() {
            return Err(DfoError::Corrupt(format!("{dir}: rollback_one with an open epoch")));
        }
        if history.len() < 2 {
            return Err(DfoError::NoCheckpoint(format!(
                "{dir}: cannot roll back epoch {} — only {} checkpoint(s) retained \
                 (checkpoints_kept must be ≥ 2 for ahead-rank rollback)",
                *epoch,
                history.len()
            )));
        }
        let (dropped_epoch, dropped_mapping) = history.pop_back().unwrap();
        let (new_epoch, new_mapping) = history.back().unwrap();
        *epoch = *new_epoch;
        *current = new_mapping.clone();

        // re-point CURRENT before deleting anything: a crash mid-rollback
        // then re-runs recovery against the older committed epoch
        let mut cur = Vec::new();
        write_u64(&mut cur, *new_epoch).unwrap();
        let new_epoch = *new_epoch;
        let mut to_delete: Vec<BlockId> = Vec::new();
        for id in dropped_mapping {
            let rc = refcounts.get_mut(&id).expect("refcount missing");
            *rc -= 1;
            if *rc == 0 {
                refcounts.remove(&id);
                to_delete.push(id);
            }
        }
        self.disk.write_atomic(&format!("{dir}/CURRENT"), &cur)?;
        self.disk.remove(&format!("{dir}/meta/ckpt_{dropped_epoch}.bin"))?;
        for id in to_delete {
            self.remove_block_file(id)?;
        }
        Ok(new_epoch)
    }

    /// Aborts the open epoch, deleting its blocks.
    pub fn abort(&mut self) -> Result<()> {
        let ids: Vec<BlockId> = match &mut self.mode {
            Mode::InPlace => return Ok(()),
            Mode::Cow { pending, .. } => match pending.take() {
                Some(p) => p.into_iter().flatten().collect(),
                None => return Ok(()),
            },
        };
        for id in ids {
            self.remove_block_file(id)?;
        }
        Ok(())
    }

    /// Number of live block files (for tests and GC assertions).
    pub fn live_blocks(&self) -> usize {
        match &self.mode {
            Mode::InPlace => self.n_batches,
            Mode::Cow { refcounts, pending, .. } => {
                refcounts.len() + pending.as_ref().map(|p| p.iter().flatten().count()).unwrap_or(0)
            }
        }
    }

    fn commit_mapping(&mut self, mapping: Vec<BlockId>) -> Result<()> {
        let dir = self.dir.clone();
        let Mode::Cow { epoch, current, history, refcounts, .. } = &mut self.mode else {
            return Ok(());
        };
        let new_epoch = if history.is_empty() { *epoch } else { *epoch + 1 };

        // persist the manifest for the new checkpoint first: checksummed
        // and written via temp-file + atomic rename, so a crash mid-commit
        // leaves either no manifest or a complete, verifiable one — a torn
        // write is detected at recovery and recovery falls back
        let mut buf = Vec::with_capacity(28 + mapping.len() * 8);
        write_u64(&mut buf, MANIFEST_MAGIC).unwrap();
        write_u64(&mut buf, new_epoch).unwrap();
        write_u64(&mut buf, mapping.len() as u64).unwrap();
        for &id in &mapping {
            write_u64(&mut buf, id).unwrap();
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        self.disk.write_atomic(&format!("{dir}/meta/ckpt_{new_epoch}.bin"), &buf)?;

        for &id in &mapping {
            *refcounts.entry(id).or_insert(0) += 1;
        }
        history.push_back((new_epoch, mapping.clone()));
        *current = mapping;
        *epoch = new_epoch;

        // CURRENT pointer flips the commit atomically
        let mut cur = Vec::new();
        write_u64(&mut cur, new_epoch).unwrap();
        self.disk.write_atomic(&format!("{dir}/CURRENT"), &cur)?;

        // retire old checkpoints beyond the retention window
        let mut to_delete: Vec<BlockId> = Vec::new();
        let Mode::Cow { history, refcounts, keep, .. } = &mut self.mode else { unreachable!() };
        while history.len() > *keep {
            let (old_epoch, old_mapping) = history.pop_front().unwrap();
            self.disk.remove(&format!("{dir}/meta/ckpt_{old_epoch}.bin"))?;
            for id in old_mapping {
                let rc = refcounts.get_mut(&id).expect("refcount missing");
                *rc -= 1;
                if *rc == 0 {
                    refcounts.remove(&id);
                    to_delete.push(id);
                }
            }
        }
        for id in to_delete {
            self.remove_block_file(id)?;
        }
        Ok(())
    }

    fn alloc_block(&mut self) -> Result<BlockId> {
        match &mut self.mode {
            Mode::Cow { next_block, .. } => {
                let id = *next_block;
                *next_block += 1;
                Ok(id)
            }
            Mode::InPlace => unreachable!("alloc_block in in-place mode"),
        }
    }

    fn write_block_file(&self, id: BlockId, data: &[u8]) -> Result<()> {
        let mut w = self.disk.create(&format!("{}/blocks/{id}.bin", self.dir))?;
        w.write_all(data).map_err(|e| DfoError::io(format!("writing block {id}"), e))?;
        w.finish()
    }

    fn remove_block_file(&mut self, id: BlockId) -> Result<()> {
        self.resident.take(id);
        self.disk.remove(&format!("{}/blocks/{id}.bin", self.dir))
    }

    fn list_meta_epochs(disk: &NodeDisk, dir: &str) -> Result<Vec<u64>> {
        let meta_dir = disk.root().join(format!("{dir}/meta"));
        let mut out = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&meta_dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some(e) = name
                    .strip_prefix("ckpt_")
                    .and_then(|s| s.strip_suffix(".bin"))
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    out.push(e);
                }
            }
        }
        Ok(out)
    }

    /// Reads and fully validates one manifest: exact length, magic, epoch,
    /// batch count, and the trailing CRC-32 over the whole body. Any
    /// mismatch is `Corrupt` — a manifest is either complete or worthless.
    fn read_meta(disk: &NodeDisk, dir: &str, epoch: u64, n_batches: usize) -> Result<Vec<BlockId>> {
        let bytes = disk.read_to_vec(&format!("{dir}/meta/ckpt_{epoch}.bin"))?;
        let want_len = 28 + n_batches * 8;
        if bytes.len() != want_len {
            return Err(DfoError::Corrupt(format!(
                "manifest {epoch}: {} bytes, want {want_len} (truncated or torn)",
                bytes.len()
            )));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let want_crc = u32::from_le_bytes(trailer.try_into().unwrap());
        if crc32(body) != want_crc {
            return Err(DfoError::Corrupt(format!("manifest {epoch}: CRC mismatch")));
        }
        let mut c = Cursor::new(body);
        let magic = read_u64(&mut c).map_err(|e| DfoError::io("manifest magic", e))?;
        if magic != MANIFEST_MAGIC {
            return Err(DfoError::Corrupt(format!("manifest {epoch}: bad magic {magic:#x}")));
        }
        let e = read_u64(&mut c).map_err(|e| DfoError::io("manifest epoch", e))?;
        if e != epoch {
            return Err(DfoError::Corrupt(format!("manifest epoch {e} != name {epoch}")));
        }
        let n = read_u64(&mut c).map_err(|e| DfoError::io("manifest len", e))? as usize;
        if n != n_batches {
            return Err(DfoError::Corrupt(format!("manifest batches {n} != expected {n_batches}")));
        }
        let mut mapping = Vec::with_capacity(n);
        for _ in 0..n {
            mapping.push(read_u64(&mut c).map_err(|e| DfoError::io("manifest block id", e))?);
        }
        Ok(mapping)
    }
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
        let mut s = VersionedArrayStore::recover(disk, "arr", 2, 1).unwrap();
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
        let mut s = VersionedArrayStore::recover(disk, "arr", 2, 1).unwrap();
        assert_eq!(s.read_batch(0).unwrap(), vec![0u8; 2], "uncommitted write must vanish");
        // orphan pending block file must have been cleaned up
        assert_eq!(s.live_blocks(), 2);
    }

    #[test]
    fn recover_without_checkpoint_errors() {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        assert!(matches!(
            VersionedArrayStore::recover(disk, "nope", 2, 1),
            Err(DfoError::NoCheckpoint(_))
        ));
    }

    /// Path of epoch `e`'s manifest under the test layout of `mk`-style
    /// stores rooted at `td/arr`.
    fn manifest_path(td: &TempDir, e: u64) -> std::path::PathBuf {
        td.path().join(format!("arr/meta/ckpt_{e}.bin"))
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
    fn bit_flipped_manifest_falls_back_one_checkpoint() {
        let (td, disk) = two_checkpoints();
        let path = manifest_path(&td, 2);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let mut s = VersionedArrayStore::recover(disk, "arr", 3, 2).unwrap();
        assert_eq!(s.epoch(), 1, "must land on the previous complete checkpoint");
        for b in 0..3 {
            assert_eq!(s.read_batch(b).unwrap(), vec![1u8; 4]);
        }
        // the corrupt manifest is gone and CURRENT re-points to epoch 1
        assert!(!manifest_path(&td, 2).exists());
        let cur = std::fs::read(td.path().join("arr/CURRENT")).unwrap();
        assert_eq!(u64::from_le_bytes(cur.try_into().unwrap()), 1);
    }

    #[test]
    fn truncated_manifest_falls_back_and_store_stays_usable() {
        let (td, disk) = two_checkpoints();
        let path = manifest_path(&td, 2);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();

        let mut s = VersionedArrayStore::recover(disk.clone(), "arr", 3, 2).unwrap();
        assert_eq!(s.read_batch(0).unwrap(), vec![1u8; 4]);
        // the fallen-back store must commit cleanly on top of epoch 1
        s.begin_epoch();
        s.write_batch(0, &[9u8; 4]).unwrap();
        s.commit().unwrap();
        assert_eq!(s.epoch(), 2);
        drop(s);
        let mut s = VersionedArrayStore::recover(disk, "arr", 3, 2).unwrap();
        assert_eq!(s.read_batch(0).unwrap(), vec![9u8; 4]);
    }

    #[test]
    fn corrupting_the_only_manifest_is_no_checkpoint_not_garbage() {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let _ = VersionedArrayStore::create(disk.clone(), "arr", 2, |b| vec![b as u8; 2], true, 1)
            .unwrap();
        let path = manifest_path(&td, 0);
        std::fs::write(&path, b"garbage").unwrap();
        assert!(
            matches!(
                VersionedArrayStore::recover(disk, "arr", 2, 1),
                Err(DfoError::NoCheckpoint(_))
            ),
            "a corrupt manifest must never be loaded"
        );
    }

    #[test]
    fn recover_to_discards_epochs_above_target() {
        let (td, disk) = two_checkpoints();
        let mut s = VersionedArrayStore::recover_to(disk, "arr", 3, 2, Some(1)).unwrap();
        assert_eq!(s.epoch(), 1, "epoch 2 is above the commit-record target");
        for b in 0..3 {
            assert_eq!(s.read_batch(b).unwrap(), vec![1u8; 4]);
        }
        assert!(!manifest_path(&td, 2).exists(), "torn epoch must be deleted");
        let cur = std::fs::read(td.path().join("arr/CURRENT")).unwrap();
        assert_eq!(u64::from_le_bytes(cur.try_into().unwrap()), 1);
    }

    #[test]
    fn recover_to_at_or_above_current_is_a_no_op() {
        let (_td, disk) = two_checkpoints();
        let s = VersionedArrayStore::recover_to(disk.clone(), "arr", 3, 2, Some(2)).unwrap();
        assert_eq!(s.epoch(), 2);
        let s = VersionedArrayStore::recover_to(disk, "arr", 3, 2, Some(99)).unwrap();
        assert_eq!(s.epoch(), 2);
    }

    #[test]
    fn rollback_one_lands_on_previous_checkpoint_and_persists() {
        let (td, disk) = two_checkpoints();
        let mut s = VersionedArrayStore::recover(disk.clone(), "arr", 3, 2).unwrap();
        assert_eq!(s.epoch(), 2);
        assert_eq!(s.rollback_one().unwrap(), 1);
        for b in 0..3 {
            assert_eq!(s.read_batch(b).unwrap(), vec![1u8; 4]);
        }
        // a second rollback is refused: only one checkpoint left
        assert!(matches!(s.rollback_one(), Err(DfoError::NoCheckpoint(_))));
        drop(s);
        let s = VersionedArrayStore::recover(disk, "arr", 3, 2).unwrap();
        assert_eq!(s.epoch(), 1, "rollback must persist across reopen");
        assert!(!manifest_path(&td, 2).exists());
    }

    #[test]
    fn rollback_then_commit_reuses_the_epoch_number() {
        let (_td, disk) = two_checkpoints();
        let mut s = VersionedArrayStore::recover(disk.clone(), "arr", 3, 2).unwrap();
        s.rollback_one().unwrap();
        s.begin_epoch();
        s.write_batch(0, &[9u8; 4]).unwrap();
        s.commit().unwrap();
        assert_eq!(s.epoch(), 2, "re-execution recommits the rolled-back epoch");
        assert_eq!(s.read_batch(0).unwrap(), vec![9u8; 4]);
        assert_eq!(s.read_batch(1).unwrap(), vec![1u8; 4]);
        drop(s);
        let mut s = VersionedArrayStore::recover(disk, "arr", 3, 2).unwrap();
        assert_eq!(s.epoch(), 2);
        assert_eq!(s.read_batch(0).unwrap(), vec![9u8; 4]);
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
