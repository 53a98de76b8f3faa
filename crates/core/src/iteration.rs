//! Algorithm 1: the improved EigenPro iteration
//! ("double coordinate block descent").
//!
//! Model state is the weight vector `α ∈ R^{n x l}` over **all** training
//! centers. Each step touches two coordinate blocks:
//!
//! 1. Steps 2–3 (exactly standard SGD): predict on the sampled mini-batch
//!    and update the `m` sampled coordinates of `α` with the residual.
//! 2. Steps 4–5 (the preconditioner correction): evaluate the feature map
//!    `φ` of the mini-batch against the `s` fixed subsample coordinates and
//!    add `η (2/m) V D Vᵀ Φᵀ (f − y)` to the fixed block.
//!
//! With the preconditioner disabled this type **is** plain mini-batch
//! kernel SGD (randomized coordinate descent for `Kα = y`), which is how
//! the SGD baseline and Figure-2/3 comparisons run on identical code paths.
//!
//! The iteration is written once, in [`EigenProIteration::step_streamed`],
//! over the `m x n` kernel block delivered as column tiles. The in-core
//! [`EigenProIteration::step`] is a one-tile stream, the out-of-core
//! trainer feeds it the streaming engine's ring tiles, and
//! [`crate::distributed`] feeds it one tile per device shard.
//!
//! Every dense product in the step — the `m x n` kernel-block assembly
//! (`gemm_nt` cross-term), the prediction `gemm` (reading `α`'s tile rows
//! in place), and the correction's `gemm`/`gemm_tn` — runs on
//! `ep2_linalg`'s packed register-blocked engine, so per-iteration wall
//! time tracks the `2·m·n·(d+l)` operation count the simulated clock
//! prices (see `BENCH_gemm.json`).

use ep2_linalg::{Matrix, Scalar};
use ep2_stream::TileGuard;

use crate::counter::FlopCounter;
use crate::model::KernelModel;
use crate::precond::Preconditioner;

/// Widens the `m x l` residual into the compute precision (borrow-free: it
/// is a tiny matrix, copied once per step only when preconditioning).
fn widen_residual<S: Scalar>(g: &Matrix<S>) -> Matrix<S::Compute> {
    Matrix::from_fn(g.rows(), g.cols(), |i, j| g[(i, j)].compute())
}

/// One training-iteration driver over a [`KernelModel`] whose centers are
/// the training set, generic over the numeric precision `S`.
///
/// The step size `η` is kept in `f64` regardless of `S` — it is an analytic
/// spectral quantity (see `ep2_device::Precision`) — and converted once per
/// step when scaling the residual. The preconditioner lives at the GEMM
/// compute precision `S::Compute` (identical to `S` for the native floats):
/// its correction `V D Vᵀ` damps the top eigendirections through near-exact
/// cancellation, so quantising the eigenvectors to a storage-only format
/// like bf16 would leak un-damped top-eigenvalue mass and push the
/// analytically-stepped iteration over the stability edge — while the
/// buffers involved are `s x q`, a rounding error of the kernel blocks'
/// footprint. Storage stays `S`; only Φ (gathered per batch) and the
/// residual are widened for the correction products.
#[derive(Debug)]
pub struct EigenProIteration<S: Scalar = f64> {
    model: KernelModel<S>,
    precond: Option<Preconditioner<S::Compute>>,
    eta: f64,
    counter: FlopCounter,
}

impl<S: Scalar> EigenProIteration<S> {
    /// Creates the driver. Pass `precond: None` for plain mini-batch SGD.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is not positive and finite.
    pub fn new(
        model: KernelModel<S>,
        precond: Option<Preconditioner<S::Compute>>,
        eta: f64,
    ) -> Self {
        assert!(eta > 0.0 && eta.is_finite(), "step size must be positive");
        EigenProIteration {
            model,
            precond,
            eta,
            counter: FlopCounter::new(),
        }
    }

    /// The model being trained.
    pub fn model(&self) -> &KernelModel<S> {
        &self.model
    }

    /// Mutable access to the model (used by the trainer's divergence
    /// safeguard to reset weights).
    pub fn model_mut(&mut self) -> &mut KernelModel<S> {
        &mut self.model
    }

    /// Consumes the driver and returns the trained model.
    pub fn into_model(self) -> KernelModel<S> {
        self.model
    }

    /// Step size `η`.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// Overrides the step size (used by batch-size sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `eta` is not positive and finite.
    pub fn set_eta(&mut self, eta: f64) {
        assert!(eta > 0.0 && eta.is_finite(), "step size must be positive");
        self.eta = eta;
    }

    /// Operation counts accumulated so far.
    pub fn counter(&self) -> &FlopCounter {
        &self.counter
    }

    /// Mutable access to the operation counter — used by checkpoint resume
    /// to restore accumulated counts so reports continue the interrupted
    /// trajectory.
    pub fn counter_mut(&mut self) -> &mut FlopCounter {
        &mut self.counter
    }

    /// The preconditioner, if any (at the GEMM compute precision).
    pub fn precond(&self) -> Option<&Preconditioner<S::Compute>> {
        self.precond.as_ref()
    }

    /// Executes one iteration of Algorithm 1 on the mini-batch given by
    /// `batch_indices` (rows into the training set/centers), with targets
    /// `y` (`n x l`, the full target matrix): assembles the whole `m x n`
    /// kernel block and runs it through [`EigenProIteration::step_streamed`]
    /// as a single tile.
    ///
    /// Returns the operation count of this iteration (for the simulated
    /// clock).
    ///
    /// # Panics
    ///
    /// Panics if any batch index is out of range or `y` has wrong shape.
    pub fn step(&mut self, batch_indices: &[usize], y: &Matrix<S>) -> f64 {
        assert!(!batch_indices.is_empty(), "empty mini-batch");
        let batch_x = self.model.centers().select_rows(batch_indices);
        let k_block = ep2_kernels::matrix::kernel_cross(
            self.model.kernel().as_ref(),
            &batch_x,
            self.model.centers(),
        );
        self.step_streamed(batch_indices, y, [TileGuard::detached(0, k_block)])
    }

    /// Algorithm 1's iteration over the `m x n` mini-batch kernel block
    /// delivered as a sequence of column tiles — the one implementation
    /// behind the in-core step (a single tile), the out-of-core step (the
    /// [`TileGuard`]s a [`ep2_stream::StreamEngine`] delivers) and the
    /// sharded step (one tile per shard). Tiles must arrive in column
    /// order and cover all `n` centers exactly once; each tile contributes
    /// its slice of the prediction (`f += K_tile · α[tile]`) and of the
    /// feature map `Φ`, and its ring buffer recycles as soon as the guard
    /// drops — so peak residency stays at the plan's budget while assembly
    /// of the next tile overlaps this consumer work.
    ///
    /// Returns the operation count of this iteration (for the simulated
    /// clock); the counted work does not depend on the tiling.
    ///
    /// # Panics
    ///
    /// Panics if the tiles do not tile `0..n` contiguously, a tile's row
    /// count differs from the batch size, any batch index is out of range,
    /// or `y` has the wrong shape.
    pub fn step_streamed<I>(&mut self, batch_indices: &[usize], y: &Matrix<S>, tiles: I) -> f64
    where
        I: IntoIterator<Item = TileGuard<S>>,
    {
        let n = self.model.n_centers();
        let l = self.model.n_outputs();
        let d = self.model.dim();
        let m = batch_indices.len();
        assert!(m > 0, "empty mini-batch");
        assert_eq!(y.rows(), n, "targets must cover all centers");
        assert_eq!(y.cols(), l, "target width mismatch");

        let mut f: Matrix<S> = Matrix::zeros(m, l);
        let mut phi: Option<Matrix<S::Compute>> =
            self.precond.as_ref().map(|p| Matrix::zeros(m, p.s()));
        let mut covered = 0usize;
        for tile in tiles {
            let range = tile.col_range();
            assert_eq!(
                range.start, covered,
                "tiles must arrive in column order with no gaps"
            );
            assert_eq!(tile.block().rows(), m, "tile row count != batch size");
            covered = range.end;
            self.model
                .accumulate_tile(tile.block(), range.start, &mut f);
            // Φ: the subsample columns (k(x_r_j, x_t_i)) that fall inside
            // this tile, widened to the preconditioner's precision.
            if let (Some(phi), Some(precond)) = (phi.as_mut(), &self.precond) {
                let hits: Vec<(usize, usize)> = precond
                    .subsample_indices()
                    .iter()
                    .enumerate()
                    .filter(|&(_, cj)| range.contains(cj))
                    .map(|(j, &cj)| (j, cj - range.start))
                    .collect();
                for bi in 0..m {
                    let src = tile.block().row(bi);
                    let dst = phi.row_mut(bi);
                    for &(j, local) in &hits {
                        dst[j] = src[local].compute();
                    }
                }
            }
            // `tile` drops here: the ring buffer recycles to the producers.
        }
        assert_eq!(covered, n, "tiles must cover all {n} centers");

        // Residual G = f − y on the batch.
        let mut g = f;
        for (bi, &idx) in batch_indices.iter().enumerate() {
            let row = g.row_mut(bi);
            for (c, v) in row.iter_mut().enumerate() {
                *v -= y[(idx, c)];
            }
        }

        let scale = S::from_f64(self.eta * 2.0 / m as f64);

        // Step 3: update the sampled coordinate block.
        for (bi, &idx) in batch_indices.iter().enumerate() {
            let g_row = g.row(bi);
            let w_row = self.model.weights_mut().row_mut(idx);
            for (w, &gv) in w_row.iter_mut().zip(g_row) {
                *w -= scale * gv;
            }
        }

        let sgd_ops = (n * m * (d + l)) as f64;
        let mut precond_ops = 0.0;

        // Steps 4–5: preconditioner correction on the fixed block, run
        // entirely at the compute precision (the residual is widened, the
        // weight update narrows once per touched entry).
        if let Some(precond) = &self.precond {
            let phi = phi.expect("phi gathered whenever a preconditioner is set");
            let sub_idx = precond.subsample_indices();
            let g_c: Matrix<S::Compute> = widen_residual(&g);
            let correction = precond.apply_correction(&phi, &g_c);
            precond_ops = precond.correction_ops(m, l);
            let scale_c = S::Compute::from_f64(self.eta * 2.0 / m as f64);
            for (j, &idx) in sub_idx.iter().enumerate() {
                let c_row = correction.row(j);
                let w_row = self.model.weights_mut().row_mut(idx);
                for (w, &cv) in w_row.iter_mut().zip(c_row) {
                    *w = S::from_compute(w.compute() + scale_c * cv);
                }
            }
        }

        self.counter.record(sgd_ops, precond_ops);
        sgd_ops + precond_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PredictOptions;
    use ep2_kernels::{GaussianKernel, Kernel};
    use ep2_linalg::cholesky::solve_spd;
    use std::sync::Arc;

    /// Clustered features (fast spectral decay — the regime the paper's
    /// analysis targets) with labels given by cluster membership.
    fn toy_problem(n: usize, seed: u64) -> (Matrix, Matrix, Arc<dyn Kernel>) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let x = Matrix::from_fn(n, 3, |i, _| 2.0 * ((i % 4) as f64) + 0.15 * next());
        let y = Matrix::from_fn(n, 1, |i, _| if i % 4 < 2 { 1.0 } else { 0.0 });
        let k: Arc<dyn Kernel> = Arc::new(GaussianKernel::new(1.0));
        (x, y, k)
    }

    /// A target concentrated on the top eigendirections of K (a "smooth"
    /// function), where unpreconditioned gradient descent converges quickly.
    fn smooth_target(km: &Matrix, top: usize) -> Matrix {
        let dec = ep2_linalg::eigen::sym_eig(km).unwrap();
        let n = km.rows();
        let mut y = Matrix::zeros(n, 1);
        for j in 0..top {
            for i in 0..n {
                y[(i, 0)] += dec.vectors[(i, j)];
            }
        }
        y
    }

    /// Full-batch gradient descent (m = n) must converge toward the
    /// interpolating solution K⁻¹y for a smooth (top-eigenspace) target.
    #[test]
    fn full_batch_sgd_converges_to_interpolation() {
        let (x, _, k) = toy_problem(30, 3);
        let km = ep2_kernels::matrix::kernel_matrix(k.as_ref(), &x);
        let y = smooth_target(&km, 3);
        // Exact interpolant (with tiny jitter for conditioning).
        let mut km_j = km.clone();
        for i in 0..30 {
            km_j[(i, i)] += 1e-10;
        }
        let alpha_star = solve_spd(&km_j, &y.col(0)).unwrap();

        let model = KernelModel::zeros(k.clone(), x.clone(), 1);
        // λ₁ of normalised kernel matrix for the step size.
        let dec = ep2_linalg::eigen::sym_eig(&km).unwrap();
        let l1 = dec.values[0] / 30.0;
        let eta = crate::critical::optimal_step_size(30, 1.0, l1);
        let mut it = EigenProIteration::new(model, None, eta);
        let all: Vec<usize> = (0..30).collect();
        for _ in 0..4000 {
            it.step(&all, &y);
        }
        let f = it.model().predict_with(&x, &PredictOptions::default());
        let mse = ep2_data::metrics::mse(&f, &y);
        assert!(mse < 1e-5, "train mse {mse}");
        // Weights approach the interpolant.
        let w = it.model().weights().col(0);
        let mut err = 0.0;
        let mut norm = 0.0;
        for i in 0..30 {
            err += (w[i] - alpha_star[i]) * (w[i] - alpha_star[i]);
            norm += alpha_star[i] * alpha_star[i];
        }
        assert!(err / norm < 0.05, "relative weight error {}", err / norm);
    }

    /// The preconditioned iteration must reach a much smaller training MSE
    /// than plain SGD in the same number of epochs at the same large batch
    /// size — Figure 1's claim.
    #[test]
    fn preconditioning_accelerates_large_batch() {
        let (x, y, k) = toy_problem(120, 7);
        let m = 60; // far above m*(k) for clustered data

        let run = |precond: Option<Preconditioner>, eta: f64| -> f64 {
            let model = KernelModel::zeros(k.clone(), x.clone(), 1);
            let mut it = EigenProIteration::new(model, precond, eta);
            let idx: Vec<usize> = (0..120).collect();
            for _epoch in 0..20 {
                for chunk_start in (0..120).step_by(m) {
                    let batch: Vec<usize> = idx[chunk_start..chunk_start + m].to_vec();
                    it.step(&batch, &y);
                }
            }
            let f = it.model().predict_with(&x, &PredictOptions::default());
            ep2_data::metrics::mse(&f, &y)
        };

        // Plain SGD with its own optimal step for this batch.
        let km = ep2_kernels::matrix::kernel_matrix(k.as_ref(), &x);
        let dec = ep2_linalg::eigen::sym_eig(&km).unwrap();
        let l1 = dec.values[0] / 120.0;
        let eta_sgd = crate::critical::optimal_step_size(m, 1.0, l1);
        let mse_sgd = run(None, eta_sgd);

        // EigenPro with q = 12, reference damping, and robust β/λ estimates.
        let p = Preconditioner::fit_damped(&k, &x, 80, 12, 0.95, 5).unwrap();
        let beta_g = p.beta_estimate(&k, &x, 120, 1);
        let lambda = p
            .lambda1_preconditioned()
            .max(p.probe_lambda_max(&k, &x, 120, 12, 1));
        let eta_ep = crate::critical::optimal_step_size(m, beta_g, lambda);
        let mse_ep = run(Some(p), eta_ep);

        assert!(
            mse_ep < mse_sgd * 0.2,
            "eigenpro {mse_ep} not ≪ sgd {mse_sgd}"
        );
    }

    /// EigenPro and plain SGD converge to the same (interpolating) solution:
    /// the preconditioner changes the path, not the fixed point.
    #[test]
    fn same_fixed_point_as_sgd() {
        let (x, _, k) = toy_problem(40, 9);
        let km = ep2_kernels::matrix::kernel_matrix(k.as_ref(), &x);
        let y = smooth_target(&km, 4);
        let p = Preconditioner::fit_damped(&k, &x, 30, 5, 0.95, 2).unwrap();
        let beta_g = p.beta_estimate(&k, &x, 40, 2);
        let lambda = p
            .lambda1_preconditioned()
            .max(p.probe_lambda_max(&k, &x, 40, 12, 2));
        let eta = crate::critical::optimal_step_size(40, beta_g, lambda);
        let model = KernelModel::zeros(k.clone(), x.clone(), 1);
        let mut it = EigenProIteration::new(model, Some(p), eta);
        let all: Vec<usize> = (0..40).collect();
        for _ in 0..3000 {
            it.step(&all, &y);
        }
        // At convergence the residual is ~0, i.e. f interpolates y — the
        // same solution SGD converges to.
        let f = it.model().predict_with(&x, &PredictOptions::default());
        let mse = ep2_data::metrics::mse(&f, &y);
        assert!(mse < 1e-6, "not interpolating: mse {mse}");
    }

    /// Cuts the in-core kernel block of a batch into detached column tiles
    /// (what the streaming producers would deliver, minus the threads).
    fn tiles_for(
        model: &KernelModel,
        batch: &[usize],
        n_tile: usize,
    ) -> Vec<ep2_stream::TileGuard<f64>> {
        let bx = model.centers().select_rows(batch);
        let block =
            ep2_kernels::matrix::kernel_cross(model.kernel().as_ref(), &bx, model.centers());
        let n = model.n_centers();
        let mut tiles = Vec::new();
        let mut j0 = 0;
        while j0 < n {
            let cols = n_tile.min(n - j0);
            let mut t = Matrix::zeros(batch.len(), cols);
            for i in 0..batch.len() {
                t.row_mut(i).copy_from_slice(&block.row(i)[j0..j0 + cols]);
            }
            tiles.push(ep2_stream::TileGuard::detached(j0, t));
            j0 += cols;
        }
        tiles
    }

    /// A streamed step must produce (numerically near-)identical weights to
    /// the in-core step: the only difference is the column order of the
    /// prediction accumulation, and a single full-width tile is the in-core
    /// step bit for bit.
    #[test]
    fn streamed_step_matches_in_core_step() {
        let (x, y, k) = toy_problem(90, 11);
        let p = Preconditioner::fit_damped(&k, &x, 40, 6, 0.95, 3).unwrap();
        let batch: Vec<usize> = (10..42).collect();
        for n_tile in [7usize, 16, 64, 90] {
            let mut a = EigenProIteration::new(
                KernelModel::zeros(k.clone(), x.clone(), 1),
                Some(p.clone()),
                0.5,
            );
            let mut b = EigenProIteration::new(
                KernelModel::zeros(k.clone(), x.clone(), 1),
                Some(p.clone()),
                0.5,
            );
            let ops_in_core = a.step(&batch, &y);
            let tiles = tiles_for(b.model(), &batch, n_tile);
            let ops_streamed = b.step_streamed(&batch, &y, tiles);
            assert_eq!(ops_in_core, ops_streamed, "identical accounted work");
            let (wa, wb) = (
                a.model().weights().as_slice(),
                b.model().weights().as_slice(),
            );
            if n_tile == 90 {
                // One full-width tile is exactly the in-core step.
                assert_eq!(
                    wa, wb,
                    "tile {n_tile}: one tile must be bit-for-bit in-core"
                );
            }
            for (u, v) in wa.iter().zip(wb) {
                assert!((u - v).abs() < 1e-12, "tile {n_tile}: {u} vs {v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cover all")]
    fn streamed_step_rejects_partial_tiles() {
        let (x, y, k) = toy_problem(30, 5);
        let mut it = EigenProIteration::new(KernelModel::zeros(k, x, 1), None, 1.0);
        let batch: Vec<usize> = (0..4).collect();
        let mut tiles = tiles_for(it.model(), &batch, 10);
        tiles.pop(); // drop the last tile: columns 20..30 never arrive
        it.step_streamed(&batch, &y, tiles);
    }

    #[test]
    fn counter_tracks_ops() {
        let (x, y, k) = toy_problem(20, 1);
        let model = KernelModel::zeros(k, x, 1);
        let mut it = EigenProIteration::new(model, None, 1.0);
        let ops = it.step(&[0, 1, 2, 3], &y);
        // n·m·(d+l) = 20·4·(3+1).
        assert_eq!(ops, 320.0);
        assert_eq!(it.counter().iterations, 1);
        assert_eq!(it.counter().precond_ops, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty mini-batch")]
    fn empty_batch_panics() {
        let (x, y, k) = toy_problem(5, 1);
        let model = KernelModel::zeros(k, x, 1);
        let mut it = EigenProIteration::new(model, None, 1.0);
        it.step(&[], &y);
    }
}
