//! Per-`Process`-call commit record: the one piece of checkpoint metadata
//! a node writes (paper §3.2, hardened).
//!
//! A checkpointed array's blocks are named by the epoch that wrote them
//! ([`crate::VersionedArrayStore`]), so an array records nothing about
//! which of its epochs is committed. A `Process` call touches several
//! arrays (signal, slot, active, round marker); the node's [`CommitLog`]
//! says for all of them at once which epoch each holds as of the last call
//! that finished. It is written once per call, **after** every array of
//! the call committed, atomically (temp file, `fsync`, rename):
//!
//! ```text
//! arrays/COMMITS.bin  two generations: the previous call's, then this call's
//! generation          body length u32, body, CRC-32 of the body u32
//! body                magic u64, call_seq u64, arrays u32, then per array
//!                     (ascending names): name length u32, name, epoch u64
//! ```
//!
//! * A crash **before** the record write leaves the record at call `k−1`
//!   while some arrays wrote blocks of call `k`; at recovery,
//!   [`CommitLog::target_epoch`] caps each array's
//!   [`crate::VersionedArrayStore::recover_to`], so the torn call is
//!   discarded *as a unit*.
//! * A crash **after** the record write is a clean boundary.
//! * A damaged newest generation (truncated, bit-flipped — its CRC tells)
//!   loads the previous call's, whose blocks the arrays retain. A record
//!   with no valid generation is [`DfoError::NoCheckpoint`], never a fresh
//!   start. Every length and count in a generation is checked against the
//!   bytes left before anything is allocated for it.
//!
//! The record also carries the node's global call sequence number, which
//! supervised recovery exchanges across ranks: a rank whose `call_seq` is
//! ahead of the cluster minimum rolls its last call back
//! ([`CommitLog::rollback_last`], then one
//! [`crate::VersionedArrayStore::rollback_one`] per array whose epoch the
//! two generations disagree on).

use crate::compress::crc32;
use crate::disk::NodeDisk;
use dfo_types::codec::Cur;
use dfo_types::{DfoError, Result};
use std::collections::BTreeMap;

/// `"DFOCOMIT"`: opens the body of a generation.
const COMMIT_MAGIC: u64 = 0x4446_4f43_4f4d_4954;

/// The state after one recorded call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Generation {
    call_seq: u64,
    // BTreeMap: deterministic serialization order, so byte-identical state
    // produces byte-identical records
    epochs: BTreeMap<String, u64>,
}

impl Generation {
    /// Array `name`'s epoch, 0 (its creation) if no recorded call wrote it.
    fn epoch(&self, name: &str) -> u64 {
        self.epochs.get(name).copied().unwrap_or(0)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        let at = out.len();
        out.extend_from_slice(&[0; 4]); // body length, known below
        out.extend_from_slice(&COMMIT_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.call_seq.to_le_bytes());
        out.extend_from_slice(&(self.epochs.len() as u32).to_le_bytes());
        for (name, epoch) in &self.epochs {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
        }
        let body = &out[at + 4..];
        let (len, crc) = (body.len() as u32, crc32(body));
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Decodes the generation at the front of `c`. Its body is taken only
    /// if the input holds it, and each array name only if the body does.
    fn decode(c: &mut Cur) -> Result<Self> {
        let len = c.u32()? as usize;
        let body = c.take(len)?;
        if crc32(body) != c.u32()? {
            return Err(DfoError::Corrupt("CRC mismatch".into()));
        }
        let mut b = Cur::new(body);
        let magic = b.u64()?;
        if magic != COMMIT_MAGIC {
            return Err(DfoError::Corrupt(format!("bad magic {magic:#x}")));
        }
        let mut g = Self { call_seq: b.u64()?, epochs: BTreeMap::new() };
        for _ in 0..b.u32()? {
            let name = b.str()?;
            if g.epochs.last_key_value().is_some_and(|(last, _)| *last >= name) {
                return Err(DfoError::Corrupt("array names out of order".into()));
            }
            g.epochs.insert(name, b.u64()?);
        }
        b.done()?;
        Ok(g)
    }
}

/// One node's per-call commit record over all of its checkpointed arrays.
pub struct CommitLog {
    disk: NodeDisk,
    rel: String,
    /// The state a one-call rollback returns to; equal to `cur` when there
    /// is no call to roll back.
    prev: Generation,
    cur: Generation,
}

impl CommitLog {
    /// Opens the record at `rel` on `disk`: a fresh one (call sequence 0,
    /// no arrays) when there is none, its newest valid generation when
    /// there is. A record with no valid generation is `NoCheckpoint`.
    pub fn open(disk: NodeDisk, rel: impl Into<String>) -> Result<Self> {
        let rel = rel.into();
        let (prev, cur) = if disk.exists(&rel) {
            Self::decode(&disk.read_to_vec(&rel)?).map_err(|e| {
                DfoError::NoCheckpoint(format!("commit record {rel} has no valid generation: {e}"))
            })?
        } else {
            Default::default()
        };
        Ok(Self { disk, rel, prev, cur })
    }

    /// [`CommitLog::open`] for a caller that only writes records and never
    /// recovers from them (the commit-cost probe): a record with no valid
    /// generation is replaced by a fresh one.
    pub fn load_or_new(disk: NodeDisk, rel: impl Into<String>) -> Self {
        let rel = rel.into();
        Self::open(disk.clone(), rel.clone()).unwrap_or_else(|_| Self {
            disk,
            rel,
            prev: Generation::default(),
            cur: Generation::default(),
        })
    }

    /// Number of `Process` calls this node has fully committed (record
    /// included) — the value ranks exchange to detect ahead ranks.
    pub fn call_seq(&self) -> u64 {
        self.cur.call_seq
    }

    /// The epoch recovery must cap array `name` at: its epoch as of the
    /// last fully recorded call, or 0 (the creation checkpoint) for an
    /// array no recorded call has ever touched. Blocks above this epoch
    /// belong to a call whose record never landed — the torn call is
    /// discarded by `recover_to`.
    pub fn target_epoch(&self, name: &str) -> u64 {
        self.cur.epoch(name)
    }

    /// Records one fully committed `Process` call: `touched` lists every
    /// checkpointed array the call committed, with its new epoch. Persists
    /// the record atomically and advances the call sequence. Must be called
    /// *after* the per-array commits (the record asserts they all landed).
    pub fn record_commit(&mut self, touched: &[(&str, u64)]) -> Result<()> {
        let mut next = self.cur.clone();
        for &(name, epoch) in touched {
            next.epochs.insert(name.to_string(), epoch);
        }
        next.call_seq += 1;
        self.prev = std::mem::replace(&mut self.cur, next);
        self.persist()
    }

    /// Undoes the last recorded call *in the record*: the previous
    /// generation becomes the current one. Persists first, then returns the
    /// `(name, epoch)` pairs the caller must roll the actual array stores
    /// back to — that order is itself crash-safe, since a crash after the
    /// record rewrite leaves arrays ahead of the record, exactly the torn
    /// state `target_epoch` repairs. A second rollback in a row is refused:
    /// the record keeps one call to roll back.
    pub fn rollback_last(&mut self) -> Result<Vec<(String, u64)>> {
        if self.prev.call_seq == self.cur.call_seq {
            return Err(DfoError::NoCheckpoint(format!(
                "{}: no recorded call to roll back",
                self.rel
            )));
        }
        let restored = (self.cur.epochs.iter())
            .filter(|&(name, &epoch)| self.prev.epoch(name) != epoch)
            .map(|(name, _)| (name.clone(), self.prev.epoch(name)))
            .collect();
        self.cur = self.prev.clone();
        self.persist()?;
        Ok(restored)
    }

    fn persist(&self) -> Result<()> {
        let mut buf = Vec::new();
        self.prev.encode(&mut buf);
        self.cur.encode(&mut buf);
        self.disk.write_atomic(&self.rel, &buf)
    }

    /// The two generations of a record. A newest one that does not decode,
    /// or does not follow the previous, is the call that did not land
    /// whole: the previous generation stands for both.
    fn decode(bytes: &[u8]) -> Result<(Generation, Generation)> {
        let mut c = Cur::new(bytes);
        let prev = Generation::decode(&mut c)?;
        let next = |seq: u64| seq == prev.call_seq || Some(seq) == prev.call_seq.checked_add(1);
        let cur = Generation::decode(&mut c).ok().filter(|g| c.is_empty() && next(g.call_seq));
        Ok((prev.clone(), cur.unwrap_or(prev)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::TempDir;

    const REL: &str = "arrays/COMMITS.bin";

    fn mk() -> (TempDir, NodeDisk) {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        (td, disk)
    }

    fn open(disk: &NodeDisk) -> CommitLog {
        CommitLog::open(disk.clone(), REL).unwrap()
    }

    #[test]
    fn fresh_log_knows_nothing() {
        let (_t, disk) = mk();
        let log = open(&disk);
        assert_eq!(log.call_seq(), 0);
        assert_eq!(log.target_epoch("rank"), 0);
    }

    #[test]
    fn record_and_reload_round_trip() {
        let (_t, disk) = mk();
        let mut log = open(&disk);
        log.record_commit(&[("rank", 1), ("marker", 1)]).unwrap();
        log.record_commit(&[("rank", 2)]).unwrap();
        drop(log);
        let log = open(&disk);
        assert_eq!(log.call_seq(), 2);
        assert_eq!(log.target_epoch("rank"), 2);
        assert_eq!(log.target_epoch("marker"), 1, "untouched arrays keep their epoch");
        assert_eq!(log.target_epoch("never_seen"), 0);
    }

    #[test]
    fn rollback_undoes_exactly_the_last_call() {
        let (_t, disk) = mk();
        let mut log = open(&disk);
        log.record_commit(&[("rank", 1), ("marker", 1)]).unwrap();
        log.record_commit(&[("rank", 2), ("next", 1)]).unwrap();
        let restored = log.rollback_last().unwrap();
        assert_eq!(restored, vec![("next".to_string(), 0), ("rank".to_string(), 1)]);
        assert_eq!(log.call_seq(), 1);
        assert_eq!(log.target_epoch("marker"), 1, "arrays of older calls untouched");
        assert!(matches!(log.rollback_last(), Err(DfoError::NoCheckpoint(_))), "one call back");
        drop(log);
        let mut log = open(&disk);
        assert_eq!(log.call_seq(), 1, "rollback must persist");
        assert_eq!(log.target_epoch("rank"), 1);
        assert!(matches!(log.rollback_last(), Err(DfoError::NoCheckpoint(_))));
    }

    #[test]
    fn rollback_of_an_empty_log_is_refused() {
        let (_t, disk) = mk();
        let mut log = open(&disk);
        assert!(matches!(log.rollback_last(), Err(DfoError::NoCheckpoint(_))));
    }

    /// A record of two calls, and the offset where its newest generation
    /// starts.
    fn two_calls(td: &TempDir, disk: &NodeDisk) -> (Vec<u8>, usize) {
        let mut log = open(disk);
        log.record_commit(&[("rank", 1), ("marker", 1)]).unwrap();
        log.record_commit(&[("rank", 2)]).unwrap();
        let bytes = std::fs::read(td.path().join(REL)).unwrap();
        let newest = 8 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        (bytes, newest)
    }

    #[test]
    fn a_bit_flipped_newest_generation_loads_the_previous_call() {
        let (td, disk) = mk();
        let (mut bytes, newest) = two_calls(&td, &disk);
        let mid = (newest + bytes.len()) / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(td.path().join(REL), &bytes).unwrap();
        let mut log = open(&disk);
        assert_eq!((log.call_seq(), log.target_epoch("rank")), (1, 1));
        assert!(log.rollback_last().is_err(), "the previous call has nothing before it");
    }

    #[test]
    fn a_truncated_newest_generation_loads_the_previous_call() {
        let (td, disk) = mk();
        let (bytes, newest) = two_calls(&td, &disk);
        for cut in [bytes.len() - 7, newest + 3, newest] {
            std::fs::write(td.path().join(REL), &bytes[..cut]).unwrap();
            assert_eq!(open(&disk).call_seq(), 1, "cut at {cut}");
        }
        std::fs::write(td.path().join(REL), &bytes[..newest - 1]).unwrap();
        assert!(matches!(CommitLog::open(disk, REL), Err(DfoError::NoCheckpoint(_))));
    }

    #[test]
    fn deterministic_bytes_for_identical_state() {
        let (ta, disk_a) = mk();
        let (tb, disk_b) = mk();
        for disk in [disk_a, disk_b] {
            let mut log = open(&disk);
            log.record_commit(&[("b", 1), ("a", 1)]).unwrap();
            log.record_commit(&[("a", 2), ("c", 1)]).unwrap();
        }
        let a = std::fs::read(ta.path().join(REL)).unwrap();
        let b = std::fs::read(tb.path().join(REL)).unwrap();
        assert_eq!(a, b, "identical commit history must serialize identically");
    }
}
