//! Thread-budget parity of kernel assembly: [`kernel_cross_into`] and
//! [`kernel_matrix`] must produce **bit-for-bit** the same output under
//! thread budgets 1, 2 and 5 — per kernel family, per precision, on shapes
//! straddling every microkernel and cache-block boundary (MR/NR/MC/NC/KC).
//!
//! Budget 1 runs the per-thread GEMM engine inline; budgets 2 and 5 run the
//! cooperative shared-slab engine, and 5 divides the row blocks unevenly —
//! exactly where a mis-threaded write-back or profile pass would skip or
//! double-process entries. Training, checkpoint resume and served-vs-offline
//! prediction all rely on this: the same inputs assemble the same kernel
//! blocks on any core count.
//!
//! Scoped to one precision leg by `EP2_TEST_PRECISION` (unset = all), the
//! same hook the CI `precision-matrix` job drives for `tests/precision.rs`;
//! the `mixed` policy stores f32 at this layer, so it selects the f32 legs.

use ep2_kernels::matrix::{kernel_cross_into, kernel_matrix, row_sq_norms};
use ep2_kernels::KernelKind;
use ep2_linalg::{Bf16, Matrix, Scalar};

/// Thread budgets every assembly is compared across; the first is the
/// reference.
const BUDGETS: [usize; 3] = [1, 2, 5];

/// Whether `EP2_TEST_PRECISION` (unset, or a comma-separated policy list)
/// selects this scalar's legs. `mixed` trains f32 storage, so it selects
/// the f32 assembly legs at this layer.
fn precision_selected(name: &str) -> bool {
    match std::env::var("EP2_TEST_PRECISION") {
        Ok(names) => names.split(',').any(|n| {
            let n = n.trim();
            n == name || (n == "mixed" && name == "f32")
        }),
        Err(_) => true,
    }
}

fn points<S: Scalar>(n: usize, d: usize, seed: u64) -> Matrix<S> {
    let mut state = seed | 1;
    Matrix::from_fn(n, d, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        S::from_f64(((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0)
    })
}

fn assert_bits_equal<S: Scalar>(got: &Matrix<S>, reference: &Matrix<S>, ctx: &str) {
    assert_eq!(got.shape(), reference.shape(), "{ctx}: shape");
    for i in 0..got.rows() {
        for j in 0..got.cols() {
            let (g, r) = (got[(i, j)], reference[(i, j)]);
            assert_eq!(
                g.to_f64().to_bits(),
                r.to_f64().to_bits(),
                "{ctx}: entry ({i},{j}) {g} vs budget-1 {r}"
            );
        }
    }
}

/// Asserts `kernel_cross_into` on one `(n, m, d)` shape for one kernel
/// family is identical at every budget in [`BUDGETS`].
fn check_cross<S: Scalar>(kind: KernelKind, n: usize, m: usize, d: usize) {
    let kernel = kind.with_bandwidth_in::<S>(1.7);
    let a = points::<S>(n, d, 0xA5A5 + n as u64);
    let b = points::<S>(m, d, 0x5A5A + m as u64);
    let a_sq = row_sq_norms(&a);
    let b_sq = row_sq_norms(&b);
    let assemble = |threads| {
        ep2_runtime::with_budget(threads, || {
            let mut out = Matrix::zeros(n, m);
            kernel_cross_into(kernel.as_ref(), &a, &b, &a_sq, &b_sq, &mut out);
            out
        })
    };
    let reference = assemble(BUDGETS[0]);
    for &threads in &BUDGETS[1..] {
        let ctx = format!("{kind:?} {} {n}x{m} d={d} budget {threads}", S::NAME);
        assert_bits_equal(&assemble(threads), &reference, &ctx);
    }
}

/// All six kernel families on shapes covering the small-product engine
/// (with MR/NR edge tiles) and the packed engine straddling MC and the
/// register tails; plus the deeper cache-block-crossing shapes (multi-slab
/// `d > KC`, `m > NC`) on two families to bound debug-build runtime — the
/// engine code is family-independent, only the profile differs.
fn cross_sweep<S: Scalar>() {
    for kind in KernelKind::ALL {
        // Small path: 7*40*17 ops < SMALL_PRODUCT, edge tiles on both axes.
        check_cross::<S>(kind, 7, 17, 40);
        // Packed path: 70*37*60 ops > SMALL_PRODUCT; rows straddle MC = 48
        // and MR, cols straddle NR.
        check_cross::<S>(kind, 70, 60, 37);
    }
    for kind in [KernelKind::Gaussian, KernelKind::Laplacian] {
        // Multi-slab accumulation (d = 265 > KC = 256) with rows straddling
        // MC and cols straddling NC = 512.
        check_cross::<S>(kind, 51, 517, 265);
        // Exact block multiples: interior tiles only.
        check_cross::<S>(kind, 48, 128, 256);
    }
}

#[test]
fn cross_assembly_is_budget_invariant_f32() {
    if precision_selected("f32") {
        cross_sweep::<f32>();
    }
}

#[test]
fn cross_assembly_is_budget_invariant_f64() {
    if precision_selected("f64") {
        cross_sweep::<f64>();
    }
}

#[test]
fn cross_assembly_is_budget_invariant_bf16() {
    if precision_selected("bf16") {
        cross_sweep::<Bf16>();
    }
}

/// `kernel_matrix` is identical at every budget, exactly symmetric, and
/// has the profile's `k(0)` on its diagonal.
fn kernel_matrix_sweep<S: Scalar>() {
    for (kinds, n, d) in [
        (&KernelKind::ALL[..], 60usize, 37usize),
        // Multi-slab + MC/NR straddling, packed engine.
        (&KernelKind::ALL[..2], 130, 300),
    ] {
        for &kind in kinds {
            let kernel = kind.with_bandwidth_in::<S>(2.1);
            let x = points::<S>(n, d, 0xC0DE + n as u64);
            let assemble =
                |threads| ep2_runtime::with_budget(threads, || kernel_matrix(kernel.as_ref(), &x));
            let reference = assemble(BUDGETS[0]);
            let ctx = format!("kernel_matrix {kind:?} {} n={n} d={d}", S::NAME);
            let unit = kernel.of_sq_dist(S::ZERO).to_f64().to_bits();
            for i in 0..n {
                assert_eq!(
                    reference[(i, i)].to_f64().to_bits(),
                    unit,
                    "{ctx}: ({i},{i})"
                );
                for j in 0..i {
                    assert_eq!(
                        reference[(i, j)].to_f64().to_bits(),
                        reference[(j, i)].to_f64().to_bits(),
                        "{ctx}: ({i},{j}) asymmetric"
                    );
                }
            }
            for &threads in &BUDGETS[1..] {
                assert_bits_equal(
                    &assemble(threads),
                    &reference,
                    &format!("{ctx} budget {threads}"),
                );
            }
        }
    }
}

#[test]
fn kernel_matrix_is_budget_invariant() {
    if precision_selected("f32") {
        kernel_matrix_sweep::<f32>();
    }
    if precision_selected("f64") {
        kernel_matrix_sweep::<f64>();
    }
    if precision_selected("bf16") {
        kernel_matrix_sweep::<Bf16>();
    }
}
