//! Fuzz suite for the checkpoint codec: `decode`/`decode_checkpoint` must
//! never panic on malformed input (the buffer is untrusted disk data), and
//! the v2 CRCs must reject every single-bit corruption of a valid file.

use proptest::prelude::*;
use tmn_core::checkpoint::{crc32, decode, decode_checkpoint, save_checkpoint, TrainerState};
use tmn_core::{save_params, CheckpointError, LossKind, ModelConfig, ModelKind};

fn small_checkpoint() -> Vec<u8> {
    let model = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 42 });
    let adam = tmn_autograd::optim::Adam::new(model.params(), 5e-3).state_snapshot();
    let trainer = TrainerState {
        epoch: 1,
        steps: 17,
        batches: 3,
        next_anchor: 5,
        total_pairs: 36,
        total_loss: 2.5,
        rng: [11, 22, 33, 44],
        seed: 7,
        batch_pairs: 12,
        sampling_number: 6,
        sub_stride: 5,
        use_sub_loss: true,
        loss: LossKind::Mse,
        order: vec![3, 0, 2, 1, 4, 5],
        buffer: vec![(3, 1, 0.5)],
    };
    save_checkpoint(model.params(), Some(&adam), Some(&trainer)).to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary garbage: the decoder returns an error (or, vacuously, an
    /// accidental success) but must never panic or over-allocate.
    #[test]
    fn decode_arbitrary_bytes_never_panics(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        let _ = decode(&bytes);
        let _ = decode_checkpoint(&bytes);
    }

    /// Garbage behind a valid magic + version 2 header reaches the deep
    /// decoding paths (section table, length fields, shape products) —
    /// still no panics, no unbounded allocations. Version 1 (no longer
    /// read) is refused as unsupported.
    #[test]
    fn decode_framed_garbage_never_panics(
        version in prop_oneof![Just(1u32), Just(2u32)],
        body in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let mut buf = b"TMNW".to_vec();
        buf.extend_from_slice(&version.to_le_bytes());
        buf.extend_from_slice(&body);
        let _ = decode(&buf);
        let _ = decode_checkpoint(&buf);
        if version == 1 && buf.len() >= 12 {
            prop_assert_eq!(decode(&buf), Err(CheckpointError::UnsupportedVersion(1)));
        }
    }

    /// Single-byte mutations of a real v2 checkpoint: never a panic, and
    /// any actual change is rejected (per-section + whole-file CRC32).
    #[test]
    fn single_byte_mutation_never_panics_and_is_rejected(
        pos_seed in 0usize..usize::MAX,
        xor in 1u8..=255,
    ) {
        let clean = small_checkpoint();
        let pos = pos_seed % clean.len();
        let mut bad = clean.clone();
        bad[pos] ^= xor;
        prop_assert!(decode_checkpoint(&bad).is_err(), "mutation at {pos} (^{xor:#x}) accepted");
    }

    /// Truncations at every length parse cleanly into an error.
    #[test]
    fn truncation_never_panics(cut_seed in 0usize..usize::MAX) {
        let clean = small_checkpoint();
        let cut = cut_seed % clean.len();
        prop_assert!(decode_checkpoint(&clean[..cut]).is_err());
    }
}

/// CRC32 detects *all* single-bit errors, so walk every bit of a full v2
/// checkpoint (params + adam + trainer sections) and require rejection.
#[test]
fn v2_crc_rejects_every_single_bit_flip() {
    let clean = small_checkpoint();
    assert!(decode_checkpoint(&clean).is_ok(), "baseline checkpoint must decode");
    for byte in 0..clean.len() {
        for bit in 0..8 {
            let mut bad = clean.clone();
            bad[byte] ^= 1 << bit;
            assert!(
                decode_checkpoint(&bad).is_err(),
                "single-bit flip at byte {byte} bit {bit} was accepted"
            );
        }
    }
}

/// Weights-only files (what `save_params` writes) get the same guarantee.
#[test]
fn weights_only_v2_rejects_every_single_bit_flip() {
    let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 9 });
    let clean = save_params(model.params()).to_vec();
    for byte in 0..clean.len() {
        for bit in 0..8 {
            let mut bad = clean.clone();
            bad[byte] ^= 1 << bit;
            assert!(
                decode(&bad).is_err(),
                "single-bit flip at byte {byte} bit {bit} was accepted"
            );
        }
    }
}

#[test]
fn crc32_matches_reference_vectors() {
    // zlib's documented test vector plus structural properties.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    assert_ne!(crc32(b"a"), crc32(b"b"));
}
