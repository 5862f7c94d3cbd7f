//! Crash-consistency properties of the checkpoint manifests (paper §3.2):
//! a truncated, torn, or bit-flipped manifest is **never** loaded —
//! recovery always lands on the previous complete checkpoint. Mirrors the
//! frame-corruption proptests of the compression layer.

use dfo_storage::{NodeDisk, VersionedArrayStore};
use dfo_types::DfoError;
use proptest::prelude::*;
use tempfile::TempDir;

/// Batch contents of checkpoint `epoch`: every batch holds `epoch` in
/// every byte, so "which checkpoint did recovery load?" is readable from
/// any batch.
fn fill(epoch: u64) -> Vec<u8> {
    vec![epoch as u8; 8]
}

/// Creates a store with `n_batches` batches and commits `epochs` full
/// checkpoints (epoch `e` writes `fill(e)` everywhere), keeping two.
fn committed_store(n_batches: usize, epochs: u64) -> (TempDir, NodeDisk) {
    let td = TempDir::new().unwrap();
    let disk = NodeDisk::new(td.path(), None, false).unwrap();
    let mut s =
        VersionedArrayStore::create(disk.clone(), "arr", n_batches, |_| fill(0), true, 2).unwrap();
    for e in 1..=epochs {
        s.begin_epoch();
        for b in 0..n_batches {
            s.write_batch(b, &fill(e)).unwrap();
        }
        s.commit().unwrap();
    }
    (td, disk)
}

/// The three corruption modes the recovery path must survive.
#[derive(Clone, Copy, Debug)]
enum Damage {
    /// Cut the file at a byte offset (a torn write).
    Truncate,
    /// Flip one bit (rot, or a torn sector rewrite).
    BitFlip,
    /// Replace the whole file with unrelated bytes.
    Garbage,
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![Just(Damage::Truncate), Just(Damage::BitFlip), Just(Damage::Garbage)]
}

fn apply_damage(path: &std::path::Path, damage: Damage, at: usize, bit: u8) {
    let bytes = std::fs::read(path).unwrap();
    let damaged = match damage {
        Damage::Truncate => bytes[..at % bytes.len()].to_vec(),
        Damage::BitFlip => {
            let mut b = bytes;
            let i = at % b.len();
            b[i] ^= 1 << (bit % 8);
            b
        }
        Damage::Garbage => (0..bytes.len()).map(|i| (i as u8).wrapping_mul(37)).collect(),
    };
    std::fs::write(path, damaged).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Damaging the newest manifest must always fall back exactly one
    // checkpoint — never load garbage, never lose the array.
    #[test]
    fn corrupt_manifest_always_falls_back_one_checkpoint(
        n_batches in 1usize..5,
        epochs in 2u64..5,
        damage in damage_strategy(),
        at in 0usize..4096,
        bit in 0u8..8,
    ) {
        let (td, disk) = committed_store(n_batches, epochs);
        let manifest = td.path().join(format!("arr/meta/ckpt_{epochs}.bin"));
        apply_damage(&manifest, damage, at, bit);

        let mut s = VersionedArrayStore::recover(disk, "arr", n_batches, 2).unwrap();
        prop_assert_eq!(s.epoch(), epochs - 1, "recovery must land on the previous checkpoint");
        for b in 0..n_batches {
            prop_assert_eq!(
                s.read_batch(b).unwrap(),
                fill(epochs - 1),
                "batch {} must hold the previous checkpoint's data", b
            );
        }
    }

    // Same damage, but recovery must also leave the store fully usable:
    // committing on top of the fallen-back checkpoint and recovering
    // again round-trips the new data.
    #[test]
    fn fallback_store_commits_and_recovers_again(
        n_batches in 1usize..4,
        damage in damage_strategy(),
        at in 0usize..4096,
    ) {
        let (td, disk) = committed_store(n_batches, 3);
        let manifest = td.path().join("arr/meta/ckpt_3.bin");
        apply_damage(&manifest, damage, at, 3);

        let mut s = VersionedArrayStore::recover(disk.clone(), "arr", n_batches, 2).unwrap();
        s.begin_epoch();
        s.write_batch(0, &fill(9)).unwrap();
        s.commit().unwrap();
        drop(s);

        let mut s = VersionedArrayStore::recover(disk, "arr", n_batches, 2).unwrap();
        prop_assert_eq!(s.read_batch(0).unwrap(), fill(9));
        if n_batches > 1 {
            prop_assert_eq!(s.read_batch(1).unwrap(), fill(2), "untouched batch keeps epoch 2");
        }
    }

    // With every retained manifest damaged there is nothing valid left:
    // recovery must refuse (NoCheckpoint), not fabricate state.
    #[test]
    fn all_manifests_corrupt_is_no_checkpoint(
        n_batches in 1usize..4,
        damage in damage_strategy(),
        at in 0usize..4096,
        bit in 0u8..8,
    ) {
        let (td, disk) = committed_store(n_batches, 2);
        // keep = 2 retains the manifests of epochs 1 and 2
        for e in [1u64, 2] {
            let manifest = td.path().join(format!("arr/meta/ckpt_{e}.bin"));
            apply_damage(&manifest, damage, at, bit);
        }
        match VersionedArrayStore::recover(disk, "arr", n_batches, 2) {
            Err(DfoError::NoCheckpoint(_)) => {}
            Err(other) => panic!("want NoCheckpoint, got error {other:?}"),
            Ok(_) => panic!("recovery must not load a corrupt manifest"),
        }
    }
}
