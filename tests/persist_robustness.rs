//! Robustness of the EP2M persistence format (v2: checksummed, with an
//! optional embedded trainer-state record).
//!
//! The properties pinned here are the ones checkpoint/resume depends on:
//!
//! - **Round trip**: `to_bytes_with_state ∘ from_bytes_full` is the
//!   identity on (model, state) for arbitrary dims and values.
//! - **Truncation**: a v2 file cut at *every* byte boundary is rejected
//!   with an error — never a panic, never a silently-short model. A torn
//!   read must surface as corruption, not as a plausible model.
//! - **Bit flips**: any single-bit flip anywhere in the file fails the
//!   crc32 (or a stricter structural check first) — `from_bytes` errors
//!   and `inspect` reports the mismatch with both checksums.
//! - **Garbage**: arbitrary byte blobs never panic the parser.

use std::sync::Arc;

use eigenpro2::core::persist::{self, ChecksumStatus, TrainerState};
use eigenpro2::core::trainer::EpochStats;
use eigenpro2::core::KernelModel;
use eigenpro2::device::Precision;
use eigenpro2::kernels::{Kernel, KernelKind};
use eigenpro2::linalg::Matrix;
use proptest::prelude::*;

fn model(n: usize, d: usize, l: usize, centers: Vec<f64>, weights: Vec<f64>) -> KernelModel {
    let kernel: Arc<dyn Kernel> = KernelKind::Gaussian.with_bandwidth(3.5).into();
    KernelModel::from_weights(
        kernel,
        Matrix::from_vec(n, d, centers),
        Matrix::from_vec(n, l, weights),
    )
}

fn sample_state(history_len: usize) -> TrainerState {
    TrainerState {
        epochs_done: history_len as u64,
        eta: 12.75,
        eta_backoffs: 1,
        rollbacks: 2,
        best_val: 0.125,
        since_best: 3,
        prev_mse: 0.0625,
        sgd_ops: 1.5e9,
        precond_ops: 2.5e8,
        iterations: 40,
        simulated_seconds: 0.375,
        sim_launches: 80,
        sim_total_ops: 1.75e9,
        plan_fingerprint: 0xDEAD_BEEF_CAFE_F00D,
        precision: Precision::Bf16,
        history: (1..=history_len)
            .map(|e| EpochStats {
                epoch: e,
                train_mse: 1.0 / e as f64,
                val_error: if e % 2 == 0 {
                    Some(0.25 / e as f64)
                } else {
                    None
                },
                simulated_seconds: 0.125 * e as f64,
                wall_seconds: 0.25 * e as f64,
            })
            .collect(),
    }
}

/// A small but fully-populated v2 file (model + state) for corruption runs.
fn fixture() -> (KernelModel, TrainerState, Vec<u8>) {
    let m = model(
        3,
        2,
        2,
        vec![0.5, -1.0, 2.0, 0.25, -0.75, 1.5],
        vec![1.0, -2.0, 0.5, 0.0, 3.0, -0.125],
    );
    let state = sample_state(2);
    let bytes = persist::to_bytes_with_state(&m, Some(&state))
        .expect("serialization succeeds")
        .to_vec();
    (m, state, bytes)
}

fn models_equal(a: &KernelModel, b: &KernelModel) -> bool {
    a.kernel().name() == b.kernel().name()
        && a.kernel().bandwidth() == b.kernel().bandwidth()
        && a.centers().as_slice() == b.centers().as_slice()
        && a.weights().as_slice() == b.weights().as_slice()
}

#[test]
fn round_trip_preserves_model_and_state() {
    let (m, state, bytes) = fixture();
    let (back, back_state) = persist::from_bytes_full(&bytes).expect("round trip");
    assert!(models_equal(&m, &back));
    assert_eq!(back_state.as_ref(), Some(&state));
    // The stateless writer still round-trips through the full reader.
    let plain = persist::to_bytes(&m).expect("serialization succeeds");
    let (back, none) = persist::from_bytes_full(&plain).expect("round trip");
    assert!(models_equal(&m, &back));
    assert_eq!(none, None);
}

#[test]
fn truncation_at_every_byte_boundary_is_an_error() {
    let (_, _, bytes) = fixture();
    for len in 0..bytes.len() {
        let r = persist::from_bytes_full(&bytes[..len]);
        assert!(
            r.is_err(),
            "truncation to {len}/{} bytes accepted",
            bytes.len()
        );
    }
    // v2 is strict about length in the other direction too: trailing bytes
    // mean the header lied about the payload, so they are rejected.
    let mut long = bytes.clone();
    long.push(0);
    assert!(persist::from_bytes_full(&long).is_err());
}

#[test]
fn every_single_bit_flip_is_caught() {
    let (_, _, bytes) = fixture();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << bit;
            assert!(
                persist::from_bytes_full(&corrupt).is_err(),
                "bit {bit} of byte {i} flipped without detection"
            );
        }
    }
}

#[test]
fn inspect_reports_checksum_mismatch_with_both_values() {
    let (_, _, bytes) = fixture();
    let good = persist::inspect(&bytes).expect("inspectable");
    assert_eq!(good.version, 2);
    assert_eq!(good.checksum, ChecksumStatus::Valid);
    assert!(good.state.is_some());

    // Flip one weight bit: the header still parses, so `inspect` stays
    // usable for diagnosing the corruption it reports.
    let mut corrupt = bytes.clone();
    let body = corrupt.len() - 20;
    corrupt[body] ^= 0x10;
    let bad = persist::inspect(&corrupt).expect("header still inspectable");
    match bad.checksum {
        ChecksumStatus::Mismatch { stored, computed } => assert_ne!(stored, computed),
        other => panic!("expected a checksum mismatch, got {other:?}"),
    }
    assert!(persist::from_bytes(&corrupt)
        .unwrap_err()
        .to_string()
        .contains("checksum"));
}

#[test]
fn magic_and_version_mismatches_are_rejected() {
    let (_, _, bytes) = fixture();
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    assert!(persist::from_bytes(&wrong_magic).is_err());
    assert!(persist::inspect(&wrong_magic).is_err());

    let mut future_version = bytes.clone();
    future_version[4] = 99;
    assert!(persist::from_bytes(&future_version).is_err());
}

#[test]
fn header_dims_cannot_claim_more_than_the_file_holds() {
    // The satellite fix: a header asserting huge n/d/l over a short body
    // must error (previously this was an allocation-sized panic risk).
    let (_, _, mut bytes) = fixture();
    // n lives right after magic(4) + version(4) + name_len(2) + name +
    // bandwidth(8); overwrite it with u64::MAX >> 8.
    let name_len = u16::from_le_bytes([bytes[8], bytes[9]]) as usize;
    let n_off = 10 + name_len + 8;
    bytes[n_off..n_off + 8].copy_from_slice(&(u64::MAX >> 8).to_le_bytes());
    assert!(persist::from_bytes_full(&bytes).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn round_trip_arbitrary_models(
        n in 1usize..5,
        d in 1usize..4,
        l in 1usize..3,
        seed in 0u64..u64::MAX,
        history_len in 0usize..4,
    ) {
        // Deterministic pseudo-random payload from the seed (no RNG dep).
        let mut x = seed | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x as i32 as f64) / (i32::MAX as f64) * 8.0
        };
        let centers: Vec<f64> = (0..n * d).map(|_| next()).collect();
        let weights: Vec<f64> = (0..n * l).map(|_| next()).collect();
        let m = model(n, d, l, centers, weights);
        let state = if history_len == 0 { None } else { Some(sample_state(history_len)) };
        let bytes = persist::to_bytes_with_state(&m, state.as_ref()).unwrap();
        let (back, back_state) = persist::from_bytes_full(&bytes).unwrap();
        prop_assert!(models_equal(&m, &back));
        prop_assert_eq!(back_state, state);
        let info = persist::inspect(&bytes).unwrap();
        prop_assert_eq!(info.checksum, ChecksumStatus::Valid);
        prop_assert_eq!((info.n, info.d, info.l), (n, d, l));
    }

    #[test]
    fn garbage_never_panics(
        len in 0usize..256,
        bytes in collection::vec((0u32..256).prop_map(|v| v as u8), 256),
    ) {
        let blob = &bytes[..len];
        let _ = persist::from_bytes_full(blob);
        let _ = persist::inspect(blob);
    }

    #[test]
    fn crc32_is_deterministic_and_bit_sensitive(
        len in 1usize..64,
        bytes in collection::vec((0u32..256).prop_map(|v| v as u8), 64),
    ) {
        let data = &bytes[..len];
        prop_assert_eq!(persist::crc32(data), persist::crc32(data));
        let mut flipped = data.to_vec();
        flipped[0] ^= 1;
        prop_assert_ne!(persist::crc32(data), persist::crc32(&flipped));
    }
}

#[test]
fn crc32_check_value() {
    // The IEEE 802.3 check value every CRC-32 implementation must hit.
    assert_eq!(persist::crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn ep2m_layout_is_byte_stable() {
    // Pins the exact EP2M bytes of the fixture: length plus the crc32 of
    // everything before the trailer (the crc32 of a whole valid file is
    // the CRC-32 residue, the same for every file, so it pins nothing).
    // Any change to field order, width, endianness or flags moves these.
    let (m, _, with_state) = fixture();
    let plain = persist::to_bytes(&m).expect("serialization succeeds");
    let body_crc = |b: &[u8]| persist::crc32(&b[..b.len() - 4]);
    assert_eq!(plain.len(), 151);
    assert_eq!(body_crc(&plain), 0x9406_9A7C);
    assert_eq!(with_state.len(), 346);
    assert_eq!(body_crc(&with_state), 0x2D84_B4FD);
}
