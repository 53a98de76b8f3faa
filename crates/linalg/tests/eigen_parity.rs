//! Golden-bit parity for the dense symmetric eigensolver.
//!
//! Every trained model depends on the exact bits of `sym_eig_f64`: the
//! subsample spectrum picks `q`, `η` and the batch size, and the top
//! eigenvectors form the preconditioner. A change to the solver's loop
//! structure must therefore leave its output bit-for-bit unchanged, and this
//! suite pins it: for seeded Gaussian kernel matrices it compares an FNV-1a
//! hash over the bits of `values` and `vectors` with a recorded constant.
//!
//! The sizes cover the degenerate `1` and `2`, sizes that are not multiples
//! of any small interleave width (`7`, `257`, `300`, so unrolled loops run
//! their tails), a power of two (`64`), and a matrix with all-zero off-diagonal
//! rows, which drives the Householder reduction through its `scale == 0`
//! branch.
//!
//! The inputs are `f32` kernel matrices, as in f32 training, so the hash of
//! the input is insensitive to the last bit of the platform's `exp`. Each
//! case also pins the input hash, so a mismatch says whether the input or
//! the solver moved.

use ep2_linalg::eigen::sym_eig_f64;
use ep2_linalg::Matrix;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn hash_f64s<'a>(hash: u64, values: impl IntoIterator<Item = &'a f64>) -> u64 {
    values
        .into_iter()
        .fold(hash, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

/// SplitMix64 uniform in `[0, 1)`.
fn uniform(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Gaussian kernel matrix `exp(-|x_i - x_j|² / 2σ²)` over `n` seeded points
/// in `[0, 1)^d`, rounded to `f32`.
fn gaussian_kernel(n: usize, seed: u64) -> Matrix<f32> {
    const D: usize = 6;
    const BANDWIDTH: f64 = 0.5;
    let mut state = seed;
    let points: Vec<[f64; D]> = (0..n)
        .map(|_| std::array::from_fn(|_| uniform(&mut state)))
        .collect();
    Matrix::from_fn(n, n, |i, j| {
        let d2: f64 = points[i]
            .iter()
            .zip(&points[j])
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        (-d2 / (2.0 * BANDWIDTH * BANDWIDTH)).exp() as f32
    })
}

/// `(input hash, output hash)` of one case.
fn hashes(a: &Matrix<f32>) -> (u64, u64) {
    let input = a
        .as_slice()
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()));
    let dec = sym_eig_f64(a).expect("a finite symmetric matrix decomposes");
    let output = hash_f64s(hash_f64s(FNV_OFFSET, &dec.values), dec.vectors.as_slice());
    (input, output)
}

fn check(name: &str, a: &Matrix<f32>, expected: (u64, u64)) {
    let (input, output) = hashes(a);
    assert_eq!(
        input, expected.0,
        "{name}: the input matrix changed (hash {input:#018x}), so the case no longer tests the solver"
    );
    assert_eq!(
        output, expected.1,
        "{name}: sym_eig_f64 output bits changed (hash {output:#018x})"
    );
}

#[test]
fn gaussian_kernel_decompositions_are_bit_stable() {
    let cases: [(usize, u64, (u64, u64)); 6] = [
        (1, 11, (0x4b72_477f_9c5c_2f98, 0x2be2_cbea_19a8_27c5)),
        (2, 12, (0x9a95_e917_bbe1_11a9, 0xcd18_f2a9_8dfe_ad1a)),
        (7, 13, (0x682c_fd5e_d59c_c7d0, 0x922c_98ca_32d2_36ed)),
        (64, 14, (0xb4fb_3e11_e0b6_8cd1, 0xd079_b688_1922_93b4)),
        (257, 15, (0xa48a_78c7_2462_eed4, 0xe0ef_633b_9d5e_6941)),
        (300, 16, (0x42ea_7e0e_62c1_1191, 0xe398_a875_72d7_ab50)),
    ];
    for (n, seed, expected) in cases {
        check(&format!("n = {n}"), &gaussian_kernel(n, seed), expected);
    }
}

#[test]
fn zero_off_diagonal_rows_take_the_zero_scale_branch_bit_stably() {
    // The last index is isolated (its off-diagonal row and column are zero)
    // and the rest splits into two uncoupled blocks at `SPLIT`, so the
    // reduction meets an all-zero row both on its first step and mid-way.
    const N: usize = 37;
    const SPLIT: usize = 16;
    let mut a = gaussian_kernel(N, 17);
    for i in 0..N {
        for j in 0..N {
            let isolated = i != j && (i == N - 1 || j == N - 1);
            let coupled = (i < SPLIT) != (j < SPLIT);
            if isolated || coupled {
                a[(i, j)] = 0.0;
            }
        }
    }
    check(
        "zero off-diagonal rows",
        &a,
        (0x4d30_f5a9_bca8_50a8, 0xe230_3337_4a1c_c7ae),
    );
}
