//! A container's block directory is checked, not trusted. Entries of a
//! version-2 container are replaced with arbitrary `(logical offset, file
//! offset)` pairs and the footer's checksum is computed again, so only the
//! directory's sanity checks and each block's own stand between the
//! hostile input and the reader. Opening the file, reading pieces of it,
//! reading whole ranges and reading it from the front must then each
//! either fail `Corrupt` or serve exactly the bytes that were written —
//! never panic, and never allocate more than the file or its logical
//! stream holds.

use dfo_storage::compress::crc32;
use dfo_storage::{BlockFile, FrameWriter, NodeDisk};
use dfo_types::DfoError;
use proptest::{proptest, ProptestConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

/// The system allocator, noting the largest request made while `WATCH` is
/// set (this binary has one test, so nothing else allocates much then).
struct Largest;

static WATCH: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if WATCH.load(Relaxed) {
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

const FOOTER_BYTES: usize = 24;

/// A chunk-shaped stream — a header, two ascending columns, an unordered
/// one and noise — as a container of nine blocks, LZ4 and raw.
fn container() -> (Vec<u8>, Vec<u8>) {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut noise = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x as u8
    };
    let columns: [(usize, bool, Vec<u8>); 4] = [
        (4, true, (0..6_000u32).flat_map(|i| (3 * i).to_le_bytes()).collect()),
        (8, true, (0..3_000u64).flat_map(|i| (i * i).to_le_bytes()).collect()),
        (
            4,
            false,
            (0..8_000u32).flat_map(|i| i.wrapping_mul(2_654_435_761).to_le_bytes()).collect(),
        ),
        (8, false, (0..20_000).map(|_| noise()).collect()),
    ];
    let mut w = FrameWriter::new(Vec::new(), true).unwrap();
    let mut data = b"thirty-two bytes of chunk header".to_vec();
    w.write_all(&data).unwrap();
    for (width, monotone, bytes) in columns {
        w.begin_section(width, monotone).unwrap();
        w.write_all(&bytes).unwrap();
        data.extend(bytes);
    }
    (data, w.finish().unwrap())
}

fn word(file: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(file[at..at + 8].try_into().unwrap())
}

/// How one offset of a directory entry is replaced: `(mode, x)` — `x`
/// itself, `x` below a few hundred KiB, the old value moved by a few
/// bytes, entry `x`'s value, or (half the modes) not at all, so that many
/// files pass the directory's own checks and reach the blocks.
type Replace = (u8, u64);

/// `file` with the logical and the file offset of directory entry `k`
/// replaced, per `(k, logical, file)`, and the footer's checksum made to
/// fit again.
fn rewrite(file: &[u8], replacements: &[(usize, Replace, Replace)]) -> Vec<u8> {
    let mut file = file.to_vec();
    let footer_at = file.len() - FOOTER_BYTES;
    let n = word(&file, footer_at) as usize;
    let dir_at = footer_at - 16 * n;
    for &(k, logical, stored) in replacements {
        let entry = dir_at + 16 * (k % n);
        for (i, (mode, x)) in [logical, stored].into_iter().enumerate() {
            let old = word(&file, entry + 8 * i);
            let new = match mode {
                0 => x,
                1 => x % 300_000,
                2 => old.wrapping_add(x % 33).wrapping_sub(16),
                3 => word(&file, dir_at + 16 * (x as usize % n) + 8 * i),
                _ => old,
            };
            file[entry + 8 * i..entry + 8 * i + 8].copy_from_slice(&new.to_le_bytes());
        }
    }
    let crc = crc32(&file[dir_at..footer_at + 16]);
    file[footer_at + 16..footer_at + 20].copy_from_slice(&crc.to_le_bytes());
    file
}

/// `Ok` when `got` is the written bytes, `Err` when the read failed
/// `Corrupt`; anything else fails the test.
fn served(what: &str, got: Result<(), DfoError>, bytes: &[u8], want: &[u8]) -> Result<(), ()> {
    match got {
        Ok(()) => {
            assert!(bytes == want, "{what}: served other bytes than were written");
            Ok(())
        }
        Err(DfoError::Corrupt(_)) => Err(()),
        Err(e) => panic!("{what}: {e:?}"),
    }
}

#[test]
fn an_honest_directory_survives_its_rewrite() {
    let (data, file) = container();
    assert_eq!(rewrite(&file, &[(3, (3, 3), (3, 3))]), file);
    let td = tempfile::TempDir::new().unwrap();
    std::fs::write(td.path().join("c.bin"), &file).unwrap();
    let disk = NodeDisk::new(td.path(), None, false).unwrap();
    let mut out = Vec::new();
    disk.open_framed("c.bin").unwrap().read_to_end(&mut out).unwrap();
    assert!(out == data);
    assert_eq!(word(&file, file.len() - FOOTER_BYTES), 9, "blocks");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_a_hostile_directory_is_corrupt_or_serves_the_written_bytes(
        replacements in proptest::collection::vec(
            (0usize..64, (0u8..8, 0u64..u64::MAX), (0u8..8, 0u64..u64::MAX)),
            1..4,
        ),
        reads in proptest::collection::vec((0usize..2, 0u64..200_000, 0u64..40_000), 1..6),
    ) {
        let (data, good) = container();
        let file = rewrite(&good, &replacements);
        let td = tempfile::TempDir::new().unwrap();
        std::fs::write(td.path().join("c.bin"), &file).unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let len = data.len() as u64;
        // every buffer is allocated before the reader is watched
        let reads: Vec<(usize, u64, usize)> = reads
            .iter()
            .map(|&(column, at, n)| (column, at % len, n.min(len - at % len) as usize))
            .collect();
        let mut pieces: Vec<Vec<u8>> = reads.iter().map(|r| vec![0u8; r.2]).collect();
        // the reads that neither overlap nor go back, for one `read_ranges`
        let mut spans: Vec<(u64, usize)> = Vec::new();
        for &(_, at, n) in &reads {
            if spans.last().is_none_or(|&(prev, m)| prev + m as u64 <= at) {
                spans.push((at, n));
            }
        }
        let mut spanned: Vec<Vec<u8>> = spans.iter().map(|s| vec![0u8; s.1]).collect();
        let mut front = vec![0u8; data.len()];
        LARGEST.store(0, Relaxed);
        WATCH.store(true, Relaxed);
        let results = BlockFile::open(&disk, "c.bin", 2).map(|mut blocks| {
            let at: Vec<_> = reads
                .iter()
                .zip(&mut pieces)
                .map(|(&(column, at, _), buf)| blocks.read_at(column, buf, at))
                .collect();
            let mut ranges: Vec<(u64, &mut [u8])> =
                spans.iter().zip(&mut spanned).map(|(s, buf)| (s.0, &mut buf[..])).collect();
            (at, blocks.read_ranges(&mut ranges))
        });
        let from_front = disk.open_framed("c.bin").and_then(|mut r| {
            r.read_exact(&mut front).map_err(|e| {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
                DfoError::Corrupt(e.to_string())
            })
        });
        WATCH.store(false, Relaxed);
        let largest = LARGEST.load(Relaxed);
        assert!(
            largest <= file.len().max(data.len()),
            "{largest} B allocated for a {}-byte file of {len} logical bytes",
            file.len()
        );
        match results {
            Err(DfoError::Corrupt(_)) => {}
            Err(e) => panic!("open: {e:?}"),
            Ok((at, whole)) => {
                for ((res, buf), &(_, off, n)) in at.into_iter().zip(&pieces).zip(&reads) {
                    let want = &data[off as usize..off as usize + n];
                    let _ = served(&format!("read_at {n} B at {off}"), res, buf, want);
                }
                if served("read_ranges", whole, &[], &[]).is_ok() {
                    for (&(off, n), buf) in spans.iter().zip(&spanned) {
                        let want = &data[off as usize..off as usize + n];
                        assert!(buf[..] == want[..], "read_ranges: {n} B at {off}");
                    }
                }
            }
        }
        let _ = served("a read from the front", from_front, &front, &data);
    }
}
