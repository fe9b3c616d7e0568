//! No panic on arbitrary bytes: the zoo snapshot decoder answers
//! garbage, every truncation of a valid snapshot and single-bit flips
//! of one with a typed `SnapshotError`. A flip is always caught by a
//! checksum or a header check, never mistaken for another zoo.

use std::sync::OnceLock;

use cne_nn::train::TrainConfig;
use cne_nn::{ModelZoo, SnapshotError, ZooConfig, ZooKey};
use cne_simdata::dataset::TaskKind;
use cne_util::SeedSequence;
use proptest::prelude::*;

/// A small zoo with 8-bit variants, so every section of the format
/// (both model halves, every tensor kind) is present.
fn key() -> ZooKey {
    ZooKey {
        task: TaskKind::MnistLike,
        config: ZooConfig {
            train_samples: 64,
            pool_samples: 16,
            train: TrainConfig {
                epochs: 1,
                batch_size: 32,
                learning_rate: 0.2,
            },
        },
        seed: SeedSequence::new(3),
        quantized_bits: Some(8),
    }
}

fn valid() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let key = key();
        let mut bytes = Vec::new();
        key.train()
            .write_snapshot(&key, &mut bytes)
            .expect("encode");
        bytes
    })
}

fn decode(bytes: &[u8]) -> Result<ModelZoo, SnapshotError> {
    ModelZoo::read_snapshot(&key(), bytes)
}

/// Bytes of the header frame: magic, version, key, CRC.
const HEADER: usize = 8 + 4 + 1 + 6 * 8 + 4 + 4;

/// A flip must be caught by the body CRC or a header check.
fn assert_flip_caught(at: usize, bit: u32) {
    let mut bytes = valid().to_vec();
    bytes[at] ^= 1 << bit;
    let err = decode(&bytes).expect_err("a flipped snapshot must not load");
    assert!(
        matches!(
            err,
            SnapshotError::Corrupt(_) | SnapshotError::NotASnapshot | SnapshotError::Version(_)
        ),
        "flip at byte {at} bit {bit}: {err:?}"
    );
}

/// Every cut inside the header and the start of the body, then 128
/// evenly spaced cuts through the rest: each is `Truncated`, while the
/// whole snapshot loads.
#[test]
fn every_truncation_is_rejected() {
    let bytes = valid();
    assert!(decode(bytes).is_ok());
    let cuts = (0..HEADER + 256).chain((HEADER + 256..bytes.len()).step_by(bytes.len() / 128));
    for cut in cuts {
        match decode(&bytes[..cut]) {
            Err(SnapshotError::Truncated) => {}
            other => panic!("cut at {cut} of {}: {:?}", bytes.len(), other.map(|_| ())),
        }
    }
}

/// Every bit of the header, then one bit of 128 evenly spaced body
/// bytes.
#[test]
fn single_bit_flips_are_caught() {
    for at in 0..HEADER {
        for bit in 0..8 {
            assert_flip_caught(at, bit);
        }
    }
    for at in (HEADER..valid().len()).step_by(valid().len() / 128) {
        assert_flip_caught(at, (at % 8) as u32);
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_are_rejected(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        prop_assert!(decode(&bytes).is_err());
    }

    /// A valid prefix of any length followed by garbage.
    #[test]
    fn garbage_after_a_valid_prefix_is_rejected(
        frac in 0.0..1.0f64,
        tail in proptest::collection::vec(0u8..=255, 1..64),
    ) {
        let bytes = valid();
        let cut = (frac * bytes.len() as f64) as usize;
        let mut mixed = bytes[..cut].to_vec();
        mixed.extend_from_slice(&tail);
        // The tail could re-create the bytes it replaced; skip that.
        prop_assume!(mixed.as_slice() != bytes);
        prop_assert!(decode(&mixed).is_err());
    }

    #[test]
    fn sampled_truncations_are_rejected(frac in 0.0..1.0f64) {
        let bytes = valid();
        let cut = (frac * bytes.len() as f64) as usize;
        prop_assert!(matches!(decode(&bytes[..cut]), Err(SnapshotError::Truncated)));
    }

    #[test]
    fn sampled_bit_flips_are_caught(frac in 0.0..1.0f64, bit in 0u32..8) {
        let at = (frac * valid().len() as f64) as usize;
        assert_flip_caught(at, bit);
    }
}
