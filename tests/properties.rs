//! Property-based tests (proptest) on the core data structures and the
//! paper's invariants, across randomly generated inputs.

use std::sync::Arc;

use eigenpro2::core::{critical, Preconditioner};
use eigenpro2::device::{batch, cost, Precision, ResourceSpec};
use eigenpro2::kernels::{matrix as kmat, GaussianKernel, Kernel, KernelKind, LaplacianKernel};
use eigenpro2::linalg::{blas, cholesky::CholeskyFactor, eigen, ops, Matrix};
use proptest::prelude::*;

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0_f64..3.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kernel matrices are symmetric with unit diagonal and (numerically)
    /// positive semi-definite for every kernel family and random data.
    #[test]
    fn kernel_matrices_are_psd(data in small_matrix(12, 4), sigma in 0.5_f64..8.0) {
        for kind in [KernelKind::Gaussian, KernelKind::Laplacian, KernelKind::Cauchy] {
            let k = kind.with_bandwidth(sigma);
            let km = kmat::kernel_matrix(k.as_ref(), &data);
            prop_assert_eq!(km.asymmetry(), 0.0);
            for i in 0..12 {
                prop_assert!((km[(i, i)] - 1.0).abs() < 1e-12);
            }
            let dec = eigen::sym_eig(&km).unwrap();
            for &v in &dec.values {
                prop_assert!(v > -1e-8, "negative eigenvalue {} for {}", v, kind);
            }
        }
    }

    /// Cross-kernel assembly agrees with pointwise evaluation.
    #[test]
    fn kernel_cross_matches_eval(a in small_matrix(5, 3), b in small_matrix(7, 3), sigma in 0.5_f64..5.0) {
        let k = GaussianKernel::new(sigma);
        let kc = kmat::kernel_cross(&k, &a, &b);
        for i in 0..5 {
            for j in 0..7 {
                let direct = k.eval(a.row(i), b.row(j));
                prop_assert!((kc[(i, j)] - direct).abs() < 1e-10);
            }
        }
    }

    /// GEMM agrees with the naive triple loop.
    #[test]
    fn gemm_matches_naive(a in small_matrix(6, 4), b in small_matrix(4, 5)) {
        let c = blas::matmul(&a, &b);
        for i in 0..6 {
            for j in 0..5 {
                let mut s = 0.0;
                for p in 0..4 {
                    s += a[(i, p)] * b[(p, j)];
                }
                prop_assert!((c[(i, j)] - s).abs() < 1e-10);
            }
        }
    }

    /// Eigendecomposition reconstructs the matrix and yields an orthonormal
    /// basis.
    #[test]
    fn sym_eig_reconstructs(data in small_matrix(8, 8)) {
        let mut a = data;
        a.symmetrize();
        let dec = eigen::sym_eig(&a).unwrap();
        // Orthonormality.
        let vtv = blas::matmul(&dec.vectors.transpose(), &dec.vectors);
        for i in 0..8 {
            for j in 0..8 {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((vtv[(i, j)] - expect).abs() < 1e-8);
            }
        }
        // Reconstruction.
        let lam = Matrix::from_diag(&dec.values);
        let vl = blas::matmul(&dec.vectors, &lam);
        let mut rec = Matrix::zeros(8, 8);
        blas::gemm_nt(1.0, &vl, &dec.vectors, 0.0, &mut rec);
        for i in 0..8 {
            for j in 0..8 {
                prop_assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-7);
            }
        }
    }

    /// Cholesky solves SPD systems to high accuracy.
    #[test]
    fn cholesky_solves(data in small_matrix(6, 6), rhs in proptest::collection::vec(-2.0_f64..2.0, 6)) {
        // A = data·dataᵀ + 6I is SPD.
        let mut a = Matrix::zeros(6, 6);
        blas::gemm_nt(1.0, &data, &data, 0.0, &mut a);
        for i in 0..6 {
            a[(i, i)] += 6.0;
        }
        let f = CholeskyFactor::new(&a).unwrap();
        let x = f.solve(&rhs);
        let mut ax = vec![0.0; 6];
        blas::gemv(1.0, &a, &x, 0.0, &mut ax);
        for (u, v) in ax.iter().zip(&rhs) {
            prop_assert!((u - v).abs() < 1e-8);
        }
    }

    /// Step-1 batch calculators: m^C_G decreases with data size and
    /// dimension; the plan is always within [1, n].
    #[test]
    fn batch_plan_monotone(n in 100_usize..100_000, d in 1_usize..2_000, l in 1_usize..100) {
        let spec = ResourceSpec::titan_xp();
        let m1 = batch::batch_for_capacity(&spec, n, d, l);
        let m2 = batch::batch_for_capacity(&spec, n * 2, d, l);
        prop_assert!(m2 <= m1);
        let m3 = batch::batch_for_capacity(&spec, n, d * 2, l);
        prop_assert!(m3 <= m1);
        if batch::batch_for_memory(&spec, n, d, l) > 0 {
            let plan = batch::max_batch(&spec, n, d, l);
            prop_assert!(plan.batch >= 1 && plan.batch <= n);
            prop_assert!(plan.batch <= plan.capacity_batch.max(1));
        }
    }

    /// An explicit producer count is honoured verbatim at every thread
    /// budget — by the thread partition and by the ring the streamed
    /// planner sizes for it — so the same `--producers` runs the same
    /// pipeline on any machine.
    #[test]
    fn producer_override_is_budget_invariant(
        n in 1_000_usize..200_000,
        m in 1_usize..2_048,
        d in 1_usize..1_024,
        l in 1_usize..200,
        n_tile in 1_usize..4_096,
        p in 1_usize..17,
    ) {
        let shape = cost::ProblemShape { n, m, d, l, s: 500, q: 40 };
        let spec = ResourceSpec::scaled_virtual_gpu();
        let planned = |total| {
            batch::max_batch_streamed_planned(&spec, n, d, l, Precision::F32, None, Some(p), total)
                .map(|sp| (sp.m, sp.n_tile, sp.tiles_in_flight))
                .ok()
        };
        let reference = planned(1);
        for total in 1..=8 {
            let tp = cost::partition_stream_threads(&shape, n_tile, total, Some(p));
            prop_assert_eq!(tp.producers, p, "total = {}", total);
            prop_assert!(tp.producer_threads >= 1 && tp.update_threads >= 1);
            prop_assert_eq!(planned(total), reference, "total = {}", total);
        }
        if let Some((_, _, tiles_in_flight)) = reference {
            prop_assert!(tiles_in_flight > p);
        }
    }

    /// The analytic step size is always on the stable side: `η λ₁ < 1`
    /// whenever `λ₁ ≤ β` (which holds for normalised kernels).
    #[test]
    fn step_size_stable(m in 1_usize..10_000, beta in 0.01_f64..2.0, frac in 0.0001_f64..1.0) {
        let lambda1 = beta * frac;
        let eta = critical::optimal_step_size(m, beta, lambda1);
        prop_assert!(eta > 0.0);
        prop_assert!(eta * lambda1 <= 1.0 + 1e-12, "η·λ₁ = {}", eta * lambda1);
        // And the convergence rate is a contraction.
        let g = critical::convergence_rate(m, beta, lambda1, lambda1 * 1e-3);
        prop_assert!(g > 0.0 && g < 1.0);
    }

    /// Eq.-(7) q selection is monotone in the resource's batch size.
    #[test]
    fn select_q_monotone(decay in 0.3_f64..0.95, s in 16_usize..512) {
        let spectrum: Vec<f64> = (0..16).map(|i| decay.powi(i)).collect();
        let mut prev = 0;
        for m_max in [1_usize, 4, 16, 64, 256, 1024] {
            let q = critical::select_q(&spectrum, s, m_max);
            prop_assert!(q >= prev);
            prev = q;
        }
    }

    /// Preconditioner invariants over random clustered data: the adaptive
    /// kernel never raises β or λ₁, and a zero residual produces a zero
    /// correction.
    #[test]
    fn preconditioner_invariants(seed in 0_u64..1000, q in 2_usize..8) {
        let mut state = seed | 1;
        let x = Matrix::from_fn(60, 3, |i, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            2.0 * ((i % 3) as f64) + 0.3 * (((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0)
        });
        let kernel: Arc<dyn Kernel> = Arc::new(LaplacianKernel::new(2.0));
        let p = Preconditioner::fit_damped(&kernel, &x, 40, q, 0.95, seed).unwrap();
        prop_assert!(p.lambda1_preconditioned() <= p.lambda1_original() + 1e-12);
        let beta_g = p.beta_estimate(&kernel, &x, 60, seed);
        prop_assert!(beta_g <= 1.0 + 1e-9);
        prop_assert!(beta_g > 0.0);
        // Zero residual → zero correction.
        let phi = Matrix::zeros(5, 40);
        let zero_resid = Matrix::zeros(5, 2);
        let corr = p.apply_correction(&phi, &zero_resid);
        prop_assert!(ops::norm2(corr.as_slice()) == 0.0);
    }

    /// One-hot targets: each row sums to exactly 1 and has the 1 at the
    /// label position.
    #[test]
    fn one_hot_targets_well_formed(n in 1_usize..50, classes in 1_usize..12, seed in 0_u64..500) {
        let spec = eigenpro2::data::synth::MixtureSpec {
            classes,
            ..eigenpro2::data::synth::MixtureSpec::quick("p", n, 6, seed)
        };
        let ds = eigenpro2::data::synth::generate(&spec);
        for i in 0..n {
            let row = ds.targets.row(i);
            let sum: f64 = row.iter().sum();
            prop_assert_eq!(sum, 1.0);
            prop_assert_eq!(row[ds.labels[i]], 1.0);
        }
    }
}
