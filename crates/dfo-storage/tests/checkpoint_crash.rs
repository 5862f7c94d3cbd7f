//! Crash-consistency properties of the per-call commit record (paper
//! §3.2): a truncated, torn or bit-flipped newest generation is **never**
//! loaded — recovery lands on the previous call, whose blocks the arrays
//! retain — and a record with no valid generation is `NoCheckpoint`. A
//! crafted record whose checksums fit is checked, not trusted: opening it
//! either fails or loads, and never allocates more than it holds. Mirrors
//! the frame-corruption proptests of the compression layer.

use dfo_storage::compress::crc32;
use dfo_storage::{CommitLog, NodeDisk, VersionedArrayStore};
use dfo_types::DfoError;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use tempfile::TempDir;

const REL: &str = "arrays/COMMITS.bin";
/// Epochs each array retains, as the engine keeps them.
const KEEP: usize = 2;
const ARRAYS: [&str; 2] = ["arrays/a", "arrays/b"];

/// Batch contents of epoch `epoch`: every batch holds `epoch` in every
/// byte, so "which call did recovery load?" is readable from any batch.
fn fill(epoch: u64) -> Vec<u8> {
    vec![epoch as u8; 8]
}

/// Creates two arrays of `n_batches` batches and records `calls` calls,
/// each writing `fill(call)` to every batch of both.
fn committed_calls(n_batches: usize, calls: u64) -> (TempDir, NodeDisk) {
    let td = TempDir::new().unwrap();
    let disk = NodeDisk::new(td.path(), None, false).unwrap();
    let mut log = CommitLog::open(disk.clone(), REL).unwrap();
    let mut stores: Vec<_> = (ARRAYS.iter())
        .map(|a| VersionedArrayStore::create(disk.clone(), *a, n_batches, |_| fill(0), true, KEEP))
        .collect::<Result<_, _>>()
        .unwrap();
    for call in 1..=calls {
        for s in &mut stores {
            s.begin_epoch();
            for b in 0..n_batches {
                s.write_batch(b, &fill(call)).unwrap();
            }
            s.commit().unwrap();
        }
        log.record_commit(&[(ARRAYS[0], call), (ARRAYS[1], call)]).unwrap();
    }
    (td, disk)
}

/// Opens the record and recovers both arrays to the epochs it holds.
fn recover(disk: &NodeDisk, n_batches: usize) -> dfo_types::Result<Vec<VersionedArrayStore>> {
    let log = CommitLog::open(disk.clone(), REL)?;
    (ARRAYS.iter())
        .map(|a| {
            VersionedArrayStore::recover_to(disk.clone(), *a, n_batches, KEEP, log.target_epoch(a))
        })
        .collect()
}

/// The byte ranges of the record's two generations, oldest first.
fn generations(bytes: &[u8]) -> [Range<usize>; 2] {
    let end =
        |at: usize| at + 8 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let first = end(0);
    [0..first, first..end(first)]
}

/// The three corruption modes the recovery path must survive.
#[derive(Clone, Copy, Debug)]
enum Damage {
    /// Cut the file at a byte offset (a torn write).
    Truncate,
    /// Flip one bit (rot, or a torn sector rewrite).
    BitFlip,
    /// Replace the bytes with unrelated ones.
    Garbage,
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![Just(Damage::Truncate), Just(Damage::BitFlip), Just(Damage::Garbage)]
}

/// Damages the bytes of `range` in `bytes`: a cut inside it, one flipped
/// bit in it, or all of them replaced.
fn apply_damage(bytes: &mut Vec<u8>, range: Range<usize>, damage: Damage, at: usize, bit: u8) {
    let i = range.start + at % range.len();
    match damage {
        Damage::Truncate => bytes.truncate(i),
        Damage::BitFlip => bytes[i] ^= 1 << (bit % 8),
        Damage::Garbage => {
            for j in range {
                bytes[j] = (j as u8).wrapping_mul(37);
            }
        }
    }
}

fn damage_record(td: &TempDir, which: &[usize], damage: Damage, at: usize, bit: u8) {
    let path = td.path().join(REL);
    let mut bytes = std::fs::read(&path).unwrap();
    let ranges = generations(&bytes);
    // the newest first, so that a cut leaves the older range in place
    for &g in which.iter().rev() {
        apply_damage(&mut bytes, ranges[g].clone(), damage, at, bit);
    }
    std::fs::write(&path, bytes).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Damaging the newest generation must always fall back exactly one
    // call — never load garbage, never lose an array.
    #[test]
    fn corrupt_newest_generation_always_falls_back_one_call(
        n_batches in 1usize..5,
        calls in 2u64..5,
        damage in damage_strategy(),
        at in 0usize..4096,
        bit in 0u8..8,
    ) {
        let (td, disk) = committed_calls(n_batches, calls);
        damage_record(&td, &[1], damage, at, bit);

        prop_assert_eq!(CommitLog::open(disk.clone(), REL).unwrap().call_seq(), calls - 1);
        for mut s in recover(&disk, n_batches).unwrap() {
            prop_assert_eq!(s.epoch(), calls - 1, "recovery must land on the previous call");
            for b in 0..n_batches {
                prop_assert_eq!(
                    s.read_batch(b).unwrap(),
                    fill(calls - 1),
                    "batch {} must hold the previous call's data", b
                );
            }
        }
    }

    // Same damage, but recovery must also leave the node fully usable:
    // committing and recording a call on top of the fallen-back one and
    // recovering again round-trips the new data.
    #[test]
    fn fallback_store_commits_and_recovers_again(
        n_batches in 1usize..4,
        damage in damage_strategy(),
        at in 0usize..4096,
    ) {
        let (td, disk) = committed_calls(n_batches, 3);
        damage_record(&td, &[1], damage, at, 3);

        let mut log = CommitLog::open(disk.clone(), REL).unwrap();
        let mut stores = recover(&disk, n_batches).unwrap();
        for s in &mut stores {
            s.begin_epoch();
            s.write_batch(0, &fill(9)).unwrap();
            s.commit().unwrap();
        }
        log.record_commit(&[(ARRAYS[0], 3), (ARRAYS[1], 3)]).unwrap();
        drop((log, stores));

        for mut s in recover(&disk, n_batches).unwrap() {
            prop_assert_eq!(s.read_batch(0).unwrap(), fill(9));
            if n_batches > 1 {
                prop_assert_eq!(s.read_batch(1).unwrap(), fill(2), "untouched batch keeps epoch 2");
            }
        }
    }

    // With both generations damaged there is nothing valid left: recovery
    // must refuse (NoCheckpoint), not fabricate state or start afresh.
    #[test]
    fn all_generations_corrupt_is_no_checkpoint(
        n_batches in 1usize..4,
        damage in damage_strategy(),
        at in 0usize..4096,
        bit in 0u8..8,
    ) {
        let (td, disk) = committed_calls(n_batches, 2);
        damage_record(&td, &[0, 1], damage, at, bit);
        match recover(&disk, n_batches) {
            Err(DfoError::NoCheckpoint(_)) => {}
            Err(other) => panic!("want NoCheckpoint, got error {other:?}"),
            Ok(_) => panic!("recovery must not load a corrupt record"),
        }
    }
}

/// The system allocator, noting the largest request made by a thread while
/// its `WATCHED` is set — the opening thread, not a test running beside it.
struct Largest;

thread_local! {
    static WATCHED: Cell<bool> = const { Cell::new(false) };
}
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if WATCHED.try_with(Cell::get).unwrap_or(false) {
        LARGEST.fetch_max(size, Relaxed);
    }
}

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// How one field of a generation is replaced: `(mode, x)` — `x` itself, a
/// value near `u32::MAX`, one below a hundred, the old value moved by a few,
/// or (half the modes) not at all, so that many records reach the fields
/// after it.
type Replace = (u8, u64);

/// `bytes` with the little-endian word of `width` bytes at `at` (modulo
/// the space) replaced.
fn replace(bytes: &mut [u8], at: usize, width: usize, (mode, x): Replace) {
    if bytes.len() < width {
        return;
    }
    let at = at % (bytes.len() - width + 1);
    let mut word = [0u8; 8];
    word[..width].copy_from_slice(&bytes[at..at + width]);
    let old = u64::from_le_bytes(word);
    let new = match mode {
        0 => x,
        1 => u64::from(u32::MAX) - x % 64,
        2 => x % 100,
        3 => old.wrapping_add(x % 9).wrapping_sub(4),
        _ => old,
    };
    bytes[at..at + width].copy_from_slice(&new.to_le_bytes()[..width]);
}

/// A record of one `(generation, offset, width, replacement)` list: each
/// generation's body is edited and framed with its own length and a CRC
/// that fits, unless a replacement targets the length itself (generation
/// `2 + g`), which is then written as replaced.
fn crafted(honest: &[u8], edits: &[(usize, usize, usize, Replace)]) -> Vec<u8> {
    let mut bodies: Vec<Vec<u8>> =
        generations(honest).iter().map(|r| honest[r.start + 4..r.end - 4].to_vec()).collect();
    let mut lens: Vec<[u8; 4]> = vec![[0; 4]; 2];
    let mut len_edits = Vec::new();
    for &(g, at, width, rep) in edits {
        match g % 4 {
            g @ 0..=1 => replace(&mut bodies[g], at, [1, 4, 8][width % 3], rep),
            g => len_edits.push((g - 2, rep)),
        }
    }
    for (g, body) in bodies.iter().enumerate() {
        lens[g] = (body.len() as u32).to_le_bytes();
    }
    for (g, rep) in len_edits {
        replace(&mut lens[g], 0, 4, rep);
    }
    let mut out = Vec::new();
    for (len, body) in lens.iter().zip(&bodies) {
        out.extend_from_slice(len);
        out.extend_from_slice(body);
        out.extend_from_slice(&crc32(body).to_le_bytes());
    }
    out
}

#[test]
fn an_honest_record_survives_its_rewrite() {
    let (td, _disk) = committed_calls(2, 3);
    let honest = std::fs::read(td.path().join(REL)).unwrap();
    assert_eq!(crafted(&honest, &[(0, 5, 1, (7, 0)), (3, 0, 1, (7, 0))]), honest);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_a_crafted_record_loads_or_is_no_checkpoint_within_its_bytes(
        edits in proptest::collection::vec(
            (0usize..4, 0usize..512, 0usize..3, (0u8..8, 0u64..u64::MAX)),
            1..5,
        ),
    ) {
        let (td, disk) = committed_calls(1, 2);
        let file = crafted(&std::fs::read(td.path().join(REL)).unwrap(), &edits);
        std::fs::write(td.path().join(REL), &file).unwrap();
        LARGEST.store(0, Relaxed);
        WATCHED.set(true);
        let opened = CommitLog::open(disk.clone(), REL).map(|log| log.call_seq());
        WATCHED.set(false);
        let largest = LARGEST.load(Relaxed);
        prop_assert!(
            largest <= file.len().max(64 << 10),
            "{} B allocated for a {}-byte record", largest, file.len()
        );
        match opened {
            Ok(_) | Err(DfoError::NoCheckpoint(_)) => {}
            Err(e) => panic!("open: {e:?}"),
        }
    }
}
