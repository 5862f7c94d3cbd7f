//! The wire codec of message frames and exchanged vectors round-trips and
//! trusts nothing: every frame it codes decodes to the records it came
//! from and is never longer than they are, arbitrary bytes behind a coded
//! frame's tag decode to an error or to well-formed records, and every
//! truncation or extension of a coded frame is refused.

use dfo_core::messages::{pack_vector, unpack_vector, FrameCodec, FRAME_BYTES};
use proptest::collection::{btree_set, vec};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Vertices of the sending partition in every test.
const N_SRC: u64 = 1 << 20;

/// Ids from one source to a full frame, dense and sparse.
fn id_sets() -> impl Strategy<Value = BTreeSet<u32>> {
    prop_oneof![
        btree_set(0u32..64, 1..64),
        btree_set(0u32..70_000, 1..66_000),
        btree_set(0u32..N_SRC as u32, 1..3_000),
    ]
}

/// A raw frame of `w`-byte payloads for (at most a frame of) `ids`: all
/// equal, small numbers or noise, as `kind` says.
fn raw_frame(ids: &BTreeSet<u32>, w: usize, kind: u8, seed: u64) -> Vec<u8> {
    let cap = FRAME_BYTES / (4 + w);
    let mut raw = Vec::new();
    for &id in ids.iter().take(cap) {
        let noise = (id as u64 ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let v = match kind {
            0 => seed,
            1 => noise % 7,
            _ => noise,
        };
        raw.extend_from_slice(&id.to_le_bytes());
        raw.extend_from_slice(&v.to_le_bytes()[..w]);
    }
    raw
}

/// Decodes `frame` with a fresh codec; well-formed records or an error.
fn decode(w: usize, frame: &[u8]) -> Result<Vec<u8>, String> {
    let mut codec = FrameCodec::new(4 + w, N_SRC);
    codec.decode(frame).map(<[u8]>::to_vec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn frames_round_trip_and_never_grow(
        ids in id_sets(),
        w in (0usize..3).prop_map(|i| [0, 4, 8][i]),
        kind in 0u8..3,
        seed in 0u64..1_000_000,
    ) {
        let raw = raw_frame(&ids, w, kind, seed);
        let wire = FrameCodec::new(4 + w, N_SRC).encode(&[], &raw);
        prop_assert!(wire.len() <= raw.len(), "{} > {} bytes", wire.len(), raw.len());
        prop_assert_eq!(decode(w, &wire), Ok(raw));
    }

    #[test]
    fn arbitrary_bytes_behind_the_tag_are_refused_or_well_formed(
        word in (0u32..1 << 31).prop_map(|x| 1 << 31 | (x & 0x6000_0000) | (x % 40)),
        tail in vec((0u16..256).prop_map(|b| b as u8), 0..400),
        w in (0usize..3).prop_map(|i| [0, 4, 8][i]),
    ) {
        let frame = [&word.to_le_bytes()[..], &tail].concat();
        if let Ok(records) = decode(w, &frame) {
            prop_assert!(!records.is_empty() && records.len() % (4 + w) == 0);
            prop_assert!(records.len() <= FRAME_BYTES);
            for r in records.chunks_exact(4 + w) {
                prop_assert!((u32::from_le_bytes(r[..4].try_into().unwrap()) as u64) < N_SRC);
            }
        }
    }

    #[test]
    fn every_cut_or_extension_of_a_coded_frame_is_refused(
        ids in btree_set(0u32..1_000, 150..600),
        w in (0usize..3).prop_map(|i| [0, 4, 8][i]),
        kind in 0u8..2,
        extra in vec((0u16..256).prop_map(|b| b as u8), 1..9),
    ) {
        let raw = raw_frame(&ids, w, kind, 3);
        let wire = FrameCodec::new(4 + w, N_SRC).encode(&[], &raw);
        prop_assert!(wire.len() < raw.len(), "these frames code");
        for cut in 0..wire.len() {
            prop_assert!(decode(w, &wire[..cut]).is_err(), "cut at {cut} of {}", wire.len());
        }
        prop_assert!(decode(w, &[&wire[..], &extra].concat()).is_err());
    }

    #[test]
    fn exchanged_vectors_round_trip(
        v in vec(0u64..4, 0..5_000),
        noise in vec(0u64..u64::MAX, 0..50),
    ) {
        for v in [v, noise] {
            let wire = pack_vector(&v);
            // a length word, then per byte plane a length word and at most the plane
            prop_assert!(wire.len() <= 8 + 8 * 8 + 8 * v.len());
            prop_assert_eq!(unpack_vector::<u64>(&wire), Ok(v));
        }
    }
}

#[test]
fn a_dense_frame_of_small_numbers_codes_to_a_fraction() {
    let ids: BTreeSet<u32> = (100..20_100).collect();
    let raw = raw_frame(&ids, 8, 1, 5);
    let wire = FrameCodec::new(12, N_SRC).encode(&[], &raw);
    assert!(wire.len() * 8 < raw.len(), "{} of {} bytes", wire.len(), raw.len());
    assert_eq!(decode(8, &wire), Ok(raw));
}

#[test]
fn vectors_that_are_no_whole_number_of_elements_are_refused() {
    let err = unpack_vector::<u64>(&pack_vector(&[7u8; 13])).unwrap_err();
    assert!(err.contains("no whole 8-byte elements"), "{err}");
    let packed = pack_vector(&[0u8; 4_004]);
    assert!(packed.len() < 100, "zeros pack");
    assert!(unpack_vector::<u64>(&packed).is_err());
    assert!(unpack_vector::<u64>(&[9, 1, 2]).is_err(), "no length");
}
