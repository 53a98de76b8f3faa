//! The user-facing "worry-free" trainer: Steps 1–3 end to end, with early
//! stopping, dual (simulated-GPU + wall-clock) timing, and a numeric
//! [`Precision`] policy.
//!
//! # Stages
//!
//! [`EigenPro2::fit`] runs in three stages:
//!
//! 1. **Plan**: validation, residency, streamed tiling and Steps 1–2 —
//!    the [`TrainPlan`] that [`EigenPro2::plan`] (and `ep2 plan`) previews.
//! 2. **Reserve**: the plan's residency is charged on the memory ledger; an
//!    allocation failure degrades the plan and re-runs Steps 1–2.
//! 3. **Epoch loop** over one live [`TrainerState`]: the state a
//!    checkpoint saves and a resume loads.
//!
//! # Precision policy
//!
//! [`TrainConfig::precision`] selects one of three operating points
//! (see [`ep2_device::Precision`]):
//!
//! - **`F64`** (default): everything in double precision — the library's
//!   historical behaviour, and the reference the other modes are validated
//!   against.
//! - **`F32`**: the paper's GPU configuration. Features, kernel blocks,
//!   weights, and the whole Algorithm-1 loop run in f32; Step 1's memory
//!   accounting gets the full f32 slot budget, so the memory-limited batch
//!   `m^S_G` doubles relative to `F64`. Setup quantities are estimated from
//!   f32-assembled kernel matrices (the dense eigensolver itself still
//!   iterates in f64 — see `ep2_linalg::eigen`).
//! - **`Mixed`**: plan at f64, execute at f32. Subsample kernel assembly,
//!   eigensolves, `β`/`λ₁` estimation, and the analytic step size are
//!   computed exactly as under `F64`, then the preconditioner is cast to
//!   f32 for the hot loop (its spectral scalars are `f64` on both sides, so
//!   the analytic parameters transfer verbatim). Per-epoch error metrics
//!   accumulate in f64 under every mode.
//! - **`Bf16`**: the half-storage extension of `Mixed` — plan at f64,
//!   store at bfloat16, compute at f32. Kernel blocks, streamed tile rings,
//!   features and weights live in 2-byte bf16 (`slot_factor = 0.5`: the
//!   memory-limited batch `m^S_G` and the streamed `n_tile` double vs f32
//!   at equal `S_G`), while every packed-GEMM register tile widens its
//!   panels to f32 at pack time (`Scalar::Compute`) and error-sensitive
//!   reductions accumulate in f32 (`Scalar::Accum`), so the hot loop runs
//!   at f32 FMA speed over half the bytes. Each *stored* value carries
//!   bf16's `2^-8` relative rounding — see the README's rounding-error
//!   model and `tests/precision.rs` for the enforced divergence bounds.
//!
//! Whatever the policy, [`TrainOutcome::model`] is returned in f64 so
//! persistence and downstream evaluation are precision-agnostic.

use std::any::Any;
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ep2_data::{metrics, Dataset};
use ep2_device::cost::ProblemShape;
use ep2_device::memory::Allocation;
use ep2_device::{
    batch, DeviceMode, MemoryLedger, Precision, ResidencyMode, ResourceSpec, SimClock,
};
use ep2_kernels::{Kernel, KernelKind};
use ep2_linalg::{Matrix, Scalar};
use ep2_stream::{BlockPlan, StreamEngine};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::autotune::{self, AutoParams};
use crate::counter::FlopCounter;
use crate::iteration::EigenProIteration;
use crate::model::{KernelModel, PredictOptions};
use crate::persist::{self, TrainerState};
use crate::CoreError;

/// Spectral margin added to the planned `λ₁(K_G)` when executing under
/// [`Precision::Bf16`]: the spectral estimates come from the f64 plan, but
/// the executed kernel blocks carry bf16 storage rounding — a perturbation
/// `E` with `|E_ij| ≤ u·|K_ij| ≤ u` (`u = 2^-8`, kernel values in (0, 1]),
/// so the *normalised* operator the stability analysis runs on shifts by at
/// most `‖E‖₂/n ≤ ‖E‖_F/n ≤ u`. The preconditioner cannot damp `E` (it is
/// built from the exact spectrum), so the executed step size is re-derived
/// as `η = m/(β_G + (m−1)(λ₁ + 4u))` — the factor 4 (empirical: 2u still
/// drifts at memory-limited batches, 4u is smooth) covers the analysis
/// running on mini-batch blocks rather than the full Gram matrix, and the
/// second noise source the Frobenius bound misses: the *weights* are also
/// bf16-stored, so every step re-injects `O(u·|w|)` quantisation noise
/// that near-neutral directions (`η'λ ≈ 0`) integrate. This is
/// self-scaling where a flat derate is not: at small batches
/// `(m−1)·2u ≪ β_G` and η is essentially the analytic optimum, while at
/// the memory-limited batches half-width storage unlocks (where
/// `η*λ₁ → 1` with no margin, and a percent-level λ₁ shift demonstrably
/// diverges — f32 at the same `m`/`η` converges) it backs η off by exactly
/// the quantisation-noise share of the spectrum.
pub const BF16_LAMBDA_MARGIN: f64 = 4.0 / 256.0;

/// Early-stopping policy (the interpolation framework's regulariser —
/// Yao–Rosasco–Caponnetto 2007, as adopted by the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStopping {
    /// Stop after this many epochs without validation improvement.
    pub patience: usize,
    /// Minimum decrease in validation error that counts as improvement.
    pub min_delta: f64,
}

impl Default for EarlyStopping {
    fn default() -> Self {
        EarlyStopping {
            patience: 2,
            min_delta: 1e-4,
        }
    }
}

/// Training configuration. Only the kernel and its bandwidth are required
/// choices (the paper's selling point); everything else has analytic or
/// paper-rule defaults.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Kernel family.
    pub kernel: KernelKind,
    /// Kernel bandwidth σ.
    pub bandwidth: f64,
    /// Maximum training epochs.
    pub epochs: usize,
    /// Fixed coordinate block size `s`; `None` = paper rule
    /// ([`autotune::default_subsample_size`]).
    pub subsample_size: Option<usize>,
    /// Spectral truncation `q`; `None` = Eq. (7) + Appendix-B adjustment.
    pub q: Option<usize>,
    /// Mini-batch size; `None` = `m^max_G` from Step 1. Must be positive.
    pub batch_size: Option<usize>,
    /// Step size; `None` = analytic `η`.
    pub step_size: Option<f64>,
    /// Early stopping on validation error; `None` disables it.
    pub early_stopping: Option<EarlyStopping>,
    /// Stop once training MSE falls below this value (the Figure-2
    /// convergence criterion); `None` disables it.
    pub target_train_mse: Option<f64>,
    /// Stop once validation classification error falls to this value or
    /// below (the Table-3 "match the SVM's accuracy" protocol); `None`
    /// disables it. Requires a validation set to have any effect.
    pub target_val_error: Option<f64>,
    /// Device-timing idealisation for the simulated clock.
    pub device_mode: DeviceMode,
    /// Numeric precision policy (see the module docs).
    pub precision: Precision,
    /// Residency override: `None` (the default) picks
    /// [`ResidencyMode::InCore`] when the Step-1 bound
    /// `(d + l + m) · n ≤ S_G` has a solution and
    /// [`ResidencyMode::Streamed`] (out-of-core kernel-block streaming)
    /// when even `m = 1` over-budgets. `Some(mode)` forces the mode —
    /// forcing `Streamed` on a problem that fits is how the in-core vs
    /// streamed equivalence tests and throughput comparisons run.
    pub residency: Option<ResidencyMode>,
    /// Streamed-mode tile-width override (columns per kernel-block tile);
    /// `None` = the widest tile the ring budget affords. Must be positive
    /// and still fit the budget formula — see
    /// `ep2_device::batch::streamed_slots`; tiles wider than `n` run at `n`.
    pub stream_tile: Option<usize>,
    /// Streamed-mode producer-count override (tile-assembly stage tasks).
    /// `None` (the default) lets `autotune::plan_streamed` partition the
    /// thread budget between assembly and the update GEMM via the
    /// `device::cost` overlap model. An explicit count is honoured at every
    /// thread budget (the ring is sized to fit it).
    pub stream_producers: Option<usize>,
    /// RNG seed (subsampling + batch shuffling).
    pub seed: u64,
    /// Directory for periodic training checkpoints; `None` disables
    /// checkpointing. Checkpoints are `ckpt-{epoch:06}.ep2` files in the v2
    /// persist format (model + [`TrainerState`] + CRC32), written
    /// atomically so a crash mid-write can never corrupt the last good one.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence in epochs (default 1 = every epoch; must be
    /// positive). Only epochs the divergence safeguard did not flag are
    /// checkpointed, so a resume always starts from a healthy state.
    pub checkpoint_every: usize,
    /// Resume from the newest valid checkpoint in `checkpoint_dir` (corrupt
    /// or torn files are skipped with a warning). The restored run continues
    /// the interrupted trajectory exactly: batch shuffles are re-derived per
    /// epoch from `seed`, and weights/η/clock/counters are restored from the
    /// checkpoint, so an uninterrupted run and a killed-and-resumed run
    /// produce bit-identical weights and reports at equal total epochs.
    pub resume: bool,
    /// Retention bound for on-disk checkpoints: keep only the newest `k`
    /// `ckpt-*.ep2` files, pruning older ones **after** each successful
    /// atomic checkpoint write (never mid-write, so the file a crashed
    /// resume would fall back to is always intact). `None` keeps every
    /// checkpoint; `Some(0)` is rejected.
    pub checkpoint_keep: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            kernel: KernelKind::Gaussian,
            bandwidth: 5.0,
            epochs: 10,
            subsample_size: None,
            q: None,
            batch_size: None,
            step_size: None,
            early_stopping: Some(EarlyStopping::default()),
            target_train_mse: None,
            target_val_error: None,
            device_mode: DeviceMode::ActualGpu,
            precision: Precision::F64,
            residency: None,
            stream_tile: None,
            stream_producers: None,
            seed: 0,
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
            checkpoint_keep: None,
        }
    }
}

/// Per-epoch statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (1-based).
    pub epoch: usize,
    /// Training MSE at epoch end (always accumulated in f64).
    pub train_mse: f64,
    /// Validation classification error at epoch end (when a validation set
    /// was supplied).
    pub val_error: Option<f64>,
    /// Simulated device seconds elapsed since training started.
    pub simulated_seconds: f64,
    /// Wall-clock seconds elapsed since training started.
    pub wall_seconds: f64,
}

/// Full training report.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// The analytically selected parameters (Table 4's columns).
    pub params: AutoParams,
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStats>,
    /// Final training MSE.
    pub final_train_mse: f64,
    /// Final validation classification error.
    pub final_val_error: Option<f64>,
    /// Total simulated device seconds.
    pub simulated_seconds: f64,
    /// Total wall-clock seconds.
    pub wall_seconds: f64,
    /// Total iterations executed.
    pub iterations: u64,
    /// Preconditioner overhead fraction (Table 1's measured counterpart).
    pub overhead_fraction: f64,
    /// Why training stopped.
    pub stop_reason: StopReason,
    /// Times the step size was halved by the divergence safeguard (0 when
    /// the analytic η was stable, the common case).
    pub eta_backoffs: u32,
    /// Numeric precision policy the run executed under.
    pub precision: Precision,
    /// Residency the run executed under (`Streamed` = out-of-core
    /// kernel-block streaming).
    pub residency: ResidencyMode,
    /// The streamed tiling the run executed (`None` in core): `m`,
    /// `n_tile`, ring depth and peak residency.
    pub stream_plan: Option<batch::StreamedBatchPlan>,
    /// High-water mark of ledger-charged device slots over the whole run —
    /// streamed runs assert `peak_slots <= budget_slots` to prove they
    /// never exceeded `S_G`.
    pub peak_slots: f64,
    /// The device budget `S_G` the ledger enforced (raw f32-reference
    /// slots).
    pub budget_slots: f64,
    /// Times the divergence safeguard restored weights from the last
    /// healthy checkpoint instead of zeroing them (0 in stable runs).
    pub rollbacks: u32,
    /// Dead stream producers the self-healing pipeline absorbed (respawns
    /// or work redistributions); 0 for in-core runs and fault-free streams.
    pub stream_recoveries: usize,
    /// Graceful-degradation and self-healing events, in order: mid-setup
    /// memory re-plans (in-core → streamed), tile narrowings, and stream
    /// producer deaths the pipeline recovered from. Empty in healthy runs.
    pub degradations: Vec<String>,
    /// `Some(epoch)` when this run resumed from a checkpoint written at
    /// that epoch.
    pub resumed_from_epoch: Option<usize>,
}

/// Why the training loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// All configured epochs ran.
    EpochsExhausted,
    /// Validation error stopped improving.
    EarlyStopped,
    /// The training-MSE target was reached.
    TargetReached,
}

/// Outcome of [`EigenPro2::fit`]: the trained model plus its report.
#[derive(Debug)]
pub struct TrainOutcome {
    /// The trained kernel machine (always returned in f64; under
    /// `F32`/`Mixed` the f32 weights are widened losslessly).
    pub model: KernelModel,
    /// Metrics, parameters and timings.
    pub report: TrainReport,
}

/// The plan a run executes, as [`EigenPro2::plan`] resolves it: the
/// analytic parameters of Steps 1–3, the residency, and the streamed tiling.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainPlan {
    /// The analytically selected parameters (Table 4's columns).
    pub params: AutoParams,
    /// Where the kernel blocks live during training.
    pub residency: ResidencyMode,
    /// The streamed tiling (`None` in core).
    pub stream: Option<batch::StreamedBatchPlan>,
}

/// Validation data + metric, precision-agnostic (features are cast into the
/// training precision once per run; the metric itself accumulates in f64).
enum ValMetric {
    /// Classification error against integer labels (arg-max over outputs).
    Classification {
        features: Matrix,
        labels: Vec<usize>,
    },
    /// Mean squared error against continuous targets.
    Mse { features: Matrix, targets: Matrix },
}

/// The EigenPro 2.0 trainer.
#[derive(Debug, Clone)]
pub struct EigenPro2 {
    config: TrainConfig,
    device: ResourceSpec,
}

impl EigenPro2 {
    /// Creates a trainer for the given configuration and device.
    pub fn new(config: TrainConfig, device: ResourceSpec) -> Self {
        EigenPro2 { config, device }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains on `train`, optionally tracking validation classification
    /// error on `val`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for inconsistent configurations or eigensolver
    /// failures.
    pub fn fit(&self, train: &Dataset, val: Option<&Dataset>) -> Result<TrainOutcome, CoreError> {
        let val_metric = val.map(|v| ValMetric::Classification {
            features: v.features.clone(),
            labels: v.labels.clone(),
        });
        self.fit_impl(&train.features, &train.targets, val_metric)
    }

    /// Trains a regression model on continuous targets; the validation
    /// metric (driving early stopping and `target_val_error`) is the
    /// validation MSE.
    ///
    /// Kernel interpolation is loss-agnostic (Remark 2.1), so this is the
    /// same Algorithm-1 training loop as classification — only the
    /// validation metric differs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for inconsistent configurations or eigensolver
    /// failures.
    pub fn fit_regression(
        &self,
        train: &ep2_data::RegressionDataset,
        val: Option<&ep2_data::RegressionDataset>,
    ) -> Result<TrainOutcome, CoreError> {
        let val_metric = val.map(|v| ValMetric::Mse {
            features: v.features.clone(),
            targets: v.targets.clone(),
        });
        self.fit_impl(&train.features, &train.targets, val_metric)
    }

    fn fit_impl(
        &self,
        features: &Matrix,
        targets: &Matrix,
        val: Option<ValMetric>,
    ) -> Result<TrainOutcome, CoreError> {
        match self.config.precision {
            Precision::F64 => self.fit_typed::<f64>(features, targets, val),
            Precision::F32 | Precision::Mixed => self.fit_typed::<f32>(features, targets, val),
            Precision::Bf16 => self.fit_typed::<ep2_linalg::Bf16>(features, targets, val),
        }
    }

    /// The plan [`Self::fit`] executes on `features` with `n_outputs`
    /// outputs, without training. `fit` starts from the same resolver, so
    /// the preview is what runs unless a mid-setup allocation failure
    /// degrades it (see [`TrainReport::degradations`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an empty training set or a zero
    /// count option; [`CoreError::DeviceMemory`] when the residency cannot
    /// fit the device; eigensolver failures.
    pub fn plan(&self, features: &Matrix, n_outputs: usize) -> Result<TrainPlan, CoreError> {
        // Only `F32` runs Steps 1–2 at the storage precision; every other
        // policy plans at f64 on the f64 features.
        Ok(match self.config.precision {
            Precision::F32 => {
                self.plan_typed::<f32>(features, &features.cast(), n_outputs)?
                    .0
            }
            _ => self.plan_typed::<f64>(features, features, n_outputs)?.0,
        })
    }

    /// Rejects configurations no plan can honour, before any work runs:
    /// zero counts are refused, never clamped.
    fn validate(&self, features: &Matrix) -> Result<(), CoreError> {
        let cfg = &self.config;
        let counts = [
            ("epochs", Some(cfg.epochs)),
            ("batch_size", cfg.batch_size),
            ("stream_tile", cfg.stream_tile),
            ("stream_producers", cfg.stream_producers),
            ("checkpoint_every", Some(cfg.checkpoint_every)),
            ("checkpoint_keep", cfg.checkpoint_keep),
        ];
        let message = if features.rows() == 0 {
            "training set is empty".to_string()
        } else if let Some((field, _)) = counts.iter().find(|(_, v)| *v == Some(0)) {
            format!("{field} must be positive")
        } else if cfg.resume && cfg.checkpoint_dir.is_none() {
            "resume requires checkpoint_dir".to_string()
        } else {
            return Ok(());
        };
        Err(CoreError::InvalidConfig { message })
    }

    /// The one resolver behind [`Self::plan`] and [`Self::fit`]:
    /// validation, the residency choice, streamed sizing, then Steps 1–2 at
    /// the precision policy. `x` is the training matrix at the storage
    /// precision `S`.
    fn plan_typed<S: Scalar>(
        &self,
        features: &Matrix,
        x: &Matrix<S>,
        n_outputs: usize,
    ) -> Result<(TrainPlan, Precond<S::Compute>), CoreError> {
        self.validate(features)?;
        let cfg = &self.config;
        let (n, d) = (features.rows(), features.cols());
        // Honour the override, otherwise stream exactly when the in-core
        // Step-1 bound has no solution (m^S_G = 0 — features + weights +
        // one kernel-block row over-budget).
        let fits = batch::fits_in_core(&self.device, n, d, n_outputs, cfg.precision);
        let residency = cfg.residency.unwrap_or(if fits {
            ResidencyMode::InCore
        } else {
            ResidencyMode::Streamed
        });
        let stream = match residency {
            ResidencyMode::InCore if !fits => {
                return Err(CoreError::DeviceMemory {
                    message: format!(
                        "in-core residency needs (d + l + 1)·n = {:.3e} slots of {:.3e} at {}; \
                         the dataset can only train Streamed (--out-of-core)",
                        ((d + n_outputs + 1) * n) as f64 * cfg.precision.slot_factor(),
                        self.device.memory_floats,
                        cfg.precision,
                    ),
                })
            }
            ResidencyMode::InCore => None,
            ResidencyMode::Streamed => Some(self.stream_plan(n, d, n_outputs)?),
        };
        let (params, precond) = self.steps_1_2(features, x, n_outputs, stream.as_ref())?;
        Ok((
            TrainPlan {
                params,
                residency,
                stream,
            },
            precond,
        ))
    }

    /// Streamed Step 1: `m` and the ring sized to the explicit or planned
    /// producer count (the final cost-model partition runs inside
    /// `plan_streamed` once `s`/`q` are known), then the `stream_tile`
    /// override checked against the budget.
    fn stream_plan(
        &self,
        n: usize,
        d: usize,
        l: usize,
    ) -> Result<batch::StreamedBatchPlan, CoreError> {
        let cfg = &self.config;
        let mut splan = batch::max_batch_streamed_planned(
            &self.device,
            n,
            d,
            l,
            cfg.precision,
            cfg.batch_size,
            cfg.stream_producers,
            ep2_runtime::current_threads(),
        )
        .map_err(|e| CoreError::DeviceMemory {
            message: e.to_string(),
        })?;
        if let Some(tile) = cfg.stream_tile {
            splan.retile(tile.min(n), n, d, l);
            let (needs, budget) = (
                splan.resident_slots(cfg.precision),
                self.device.memory_floats,
            );
            if needs > budget {
                return Err(CoreError::DeviceMemory {
                    message: format!(
                        "stream_tile override {tile} needs {needs:.3e} slots of {budget:.3e}"
                    ),
                });
            }
        }
        Ok(splan)
    }

    /// Steps 1–2 at the precision policy. `Mixed` and `Bf16` run the
    /// subsample eigensolve, β/λ₁ estimation and analytic η at f64 on the
    /// f64 `features`; `F64` and `F32` plan at `S` on `x`. Either way the
    /// preconditioner is cast to the hot loop's compute precision.
    fn steps_1_2<S: Scalar>(
        &self,
        features: &Matrix,
        x: &Matrix<S>,
        n_outputs: usize,
        splan: Option<&batch::StreamedBatchPlan>,
    ) -> Planned<S::Compute> {
        if matches!(self.config.precision, Precision::Mixed | Precision::Bf16) {
            self.plan_at(features, n_outputs, splan)
        } else {
            self.plan_at(x, n_outputs, splan)
        }
    }

    /// [`autotune::plan`] for in-core residency, [`autotune::plan_streamed`]
    /// under a streamed plan, at precision `P` on `x`.
    fn plan_at<P: Scalar, C: Scalar>(
        &self,
        x: &Matrix<P>,
        n_outputs: usize,
        splan: Option<&batch::StreamedBatchPlan>,
    ) -> Planned<C> {
        let cfg = &self.config;
        let kernel: Arc<dyn Kernel<P>> = cfg.kernel.with_bandwidth_in::<P>(cfg.bandwidth).into();
        let (params, precond) = match splan {
            None => autotune::plan(
                &kernel,
                x,
                n_outputs,
                &self.device,
                cfg.subsample_size,
                cfg.q,
                cfg.batch_size,
                cfg.precision,
                cfg.seed,
            ),
            Some(splan) => autotune::plan_streamed(
                &kernel,
                x,
                n_outputs,
                &self.device,
                cfg.subsample_size,
                cfg.q,
                splan,
                cfg.stream_producers,
                cfg.precision,
                cfg.seed,
            ),
        }?;
        Ok((params, precond.map(|p| p.cast())))
    }

    /// Charges the plan's Step-1 accounting on `ledger` at the precision's
    /// slot width. In core: features (d·n) + weights (l·n) + the kernel
    /// block (m·n). Streamed: weights (l·n) + the batch feature block (d·m),
    /// plus the tile ring the returned engine charges. The caller holds the
    /// reservation for the whole run.
    ///
    /// An allocation failure degrades instead of aborting: in core re-plans
    /// as streamed, a streamed ring halves its tile down to a 16-column
    /// floor. Each step re-runs Steps 1–2 and is logged.
    #[allow(clippy::too_many_arguments)]
    fn reserve<S: Scalar>(
        &self,
        plan: &mut TrainPlan,
        precond: &mut Precond<S::Compute>,
        features: &Matrix,
        kernel: &Arc<dyn Kernel<S>>,
        centers: &Arc<Matrix<S>>,
        n_outputs: usize,
        ledger: &MemoryLedger,
    ) -> Result<Reserved<S>, CoreError> {
        let (n, d, l) = (features.rows(), features.cols(), n_outputs);
        let precision = self.config.precision;
        let mut degradations = Vec::new();
        loop {
            let built = match &plan.stream {
                None => ledger
                    .alloc(((d + l + plan.params.m) * n) as f64 * precision.slot_factor())
                    .map(|residency| (residency, None)),
                Some(splan) => {
                    let bplan = BlockPlan::from_streamed(n, d, l, splan, precision)
                        .with_stream_threads(
                            plan.params
                                .stream_threads
                                .expect("plan_streamed always records the thread partition"),
                        );
                    ledger.alloc(bplan.static_slots()).and_then(|residency| {
                        StreamEngine::new(Arc::clone(kernel), Arc::clone(centers), bplan, ledger)
                            .map(|engine| (residency, Some(Box::new(engine))))
                    })
                }
            };
            let e = match built {
                Ok((residency, engine)) => return Ok((residency, engine, degradations)),
                Err(e) => e,
            };
            match &mut plan.stream {
                None => {
                    let splan = self.stream_plan(n, d, l).map_err(|plan_err| {
                        let message = format!(
                            "in-core residency allocation failed ({e}) and no streamed plan \
                             fits either: {plan_err}"
                        );
                        CoreError::DeviceMemory { message }
                    })?;
                    degradations.push(format!(
                        "in-core residency allocation failed ({e}); re-planned to \
                         streamed residency (tile {})",
                        splan.n_tile
                    ));
                    plan.residency = ResidencyMode::Streamed;
                    plan.stream = Some(splan);
                }
                Some(splan) if splan.n_tile > 16 => {
                    let narrowed = (splan.n_tile / 2).max(16);
                    degradations.push(format!(
                        "streamed allocation failed ({e}); narrowed tile {} -> {narrowed}",
                        splan.n_tile
                    ));
                    splan.retile(narrowed, n, d, l);
                }
                Some(_) => {
                    return Err(CoreError::DeviceMemory {
                        message: format!(
                            "{e} (streamed tile already at the 16-column floor; no \
                             degradation path left)"
                        ),
                    })
                }
            }
            (plan.params, *precond) = self.steps_1_2(features, centers, l, plan.stream.as_ref())?;
        }
    }

    /// The step size the hot loop executes. The analytic η sits on the
    /// stability edge: η* = m/(β_G + (m−1)λ₁) with λ₁ estimated from the
    /// f64 plan. Under bf16 the *executed* kernel blocks carry
    /// 2^-8-relative storage rounding the preconditioner cannot damp, so
    /// the executed step is re-derived with the quantisation margin
    /// [`BF16_LAMBDA_MARGIN`] added to λ₁. The reported plan keeps the
    /// analytic value (it is the f64 plan, transferred verbatim), an
    /// explicit `step_size` is always respected, and the divergence
    /// safeguard ([`judge_epoch`]) remains the backstop.
    fn executed_eta(&self, params: &AutoParams) -> f64 {
        self.config
            .step_size
            .unwrap_or(match self.config.precision {
                Precision::Bf16 => crate::critical::optimal_step_size(
                    params.m,
                    params.beta_g,
                    params.lambda1_g + BF16_LAMBDA_MARGIN,
                ),
                _ => params.eta,
            })
    }

    /// Creates the `checkpoint_dir`, if any. Fail fast, before the
    /// expensive run: a directory that cannot be created would otherwise
    /// degrade every epoch's snapshot into a warning.
    fn create_checkpoint_dir(&self) -> Result<(), CoreError> {
        match self.config.checkpoint_dir.as_deref() {
            Some(dir) => std::fs::create_dir_all(dir).map_err(|e| CoreError::InvalidConfig {
                message: format!("cannot create checkpoint directory {}: {e}", dir.display()),
            }),
            None => Ok(()),
        }
    }

    /// The newest valid checkpoint to resume from when `resume` is set: its
    /// run state and weights, after checking it was written under this plan
    /// (`fingerprint`) and for this data. `None` when there is nothing to
    /// resume.
    fn resume_point<S: Scalar>(
        &self,
        fingerprint: u64,
        n: usize,
        n_outputs: usize,
    ) -> Result<Option<(TrainerState, Matrix<S>)>, CoreError> {
        let cfg = &self.config;
        let Some(dir) = cfg.checkpoint_dir.as_deref().filter(|_| cfg.resume) else {
            return Ok(None);
        };
        let Some((path, model, state)) = latest_valid_checkpoint(dir) else {
            return Ok(None);
        };
        let consistent = state.history.len() as u64 == state.epochs_done
            && model.n_centers() == n
            && model.n_outputs() == n_outputs;
        let message = if state.plan_fingerprint != fingerprint {
            format!(
                "checkpoint {} was written under a different plan \
                 (fingerprint {:#018x}, this run {fingerprint:#018x}); refusing to resume",
                path.display(),
                state.plan_fingerprint,
            )
        } else if !consistent {
            format!(
                "checkpoint {} is inconsistent with this run's data",
                path.display()
            )
        } else {
            // Lossless: checkpoints store f64 weights widened from `S`, so
            // casting back reproduces the stored values bit-for-bit.
            return Ok(Some((state, model.weights_in())));
        };
        Err(CoreError::InvalidConfig { message })
    }

    /// The training run, monomorphised per storage precision: plan,
    /// reserve, then the epoch loop over one [`TrainerState`].
    fn fit_typed<S: Scalar>(
        &self,
        features: &Matrix,
        targets: &Matrix,
        val: Option<ValMetric>,
    ) -> Result<TrainOutcome, CoreError> {
        let cfg = &self.config;
        let (n, d, l) = (features.rows(), features.cols(), targets.cols());
        // Borrow when S is already f64 (the default path pays no cast copy).
        let targets_s: Cow<'_, Matrix<S>> = cast_cow(targets);
        let centers: Arc<Matrix<S>> = Arc::new(cast_cow(features).into_owned());
        let (mut plan, mut precond) = self.plan_typed(features, &centers, l)?;
        let kernel: Arc<dyn Kernel<S>> = cfg.kernel.with_bandwidth_in::<S>(cfg.bandwidth).into();
        let ledger = MemoryLedger::new(self.device.memory_floats);
        let (residency, mut engine, mut degradations) = self.reserve(
            &mut plan,
            &mut precond,
            features,
            &kernel,
            &centers,
            l,
            &ledger,
        )?;
        let eta = self.executed_eta(&plan.params);
        let model = KernelModel::zeros_shared(kernel, centers, l);
        let mut iter = EigenProIteration::new(model, precond, eta);
        let mut clock = SimClock::new(self.device.clone(), cfg.device_mode);
        let start = Instant::now();

        // Validation features cast into the training precision once
        // (borrowed under f64).
        let val_s: Option<(Cow<'_, Matrix<S>>, &ValMetric)> = val.as_ref().map(|v| match v {
            ValMetric::Classification { features, .. } | ValMetric::Mse { features, .. } => {
                (cast_cow(features), v)
            }
        });
        let fingerprint = plan_fingerprint(cfg, n, d, l, &plan.params, plan.residency);
        let mut state = TrainerState {
            eta,
            best_val: f64::INFINITY,
            prev_mse: f64::INFINITY,
            plan_fingerprint: fingerprint,
            precision: cfg.precision,
            ..TrainerState::default()
        };
        // Last healthy weights, refreshed at the checkpoint cadence: the
        // divergence safeguard's rollback target, kept in memory even when
        // no checkpoint directory is configured.
        let mut last_good: Option<Matrix<S>> = None;
        self.create_checkpoint_dir()?;
        let mut resumed_from_epoch = None;
        if let Some((loaded, weights)) = self.resume_point::<S>(fingerprint, n, l)? {
            restore_run(&loaded, weights, &mut iter, &mut clock);
            last_good = Some(iter.model().weights().clone());
            resumed_from_epoch = Some(loaded.epochs_done as usize);
            state = loaded;
        }

        let shape = ProblemShape {
            n,
            m: plan.params.m,
            d,
            l,
            s: plan.params.s,
            q: plan.params.adjusted_q,
        };
        // Streamed runs evaluate epoch metrics through the column-tiled
        // prediction path so the transient kernel panel stays within one
        // ring slot (`m x n_tile`) — the in-core `block x n` panel would
        // break the very budget streaming exists to respect.
        let eval_tile = plan.stream.map(|sp| (shape.m.max(1), sp.n_tile));
        let mut stop_reason = StopReason::EpochsExhausted;
        for epoch in state.epochs_done as usize + 1..=cfg.epochs {
            // Each epoch derives its shuffle from (seed, epoch) alone — not
            // from a run-long RNG stream — so a resumed run at epoch e
            // replays exactly the batches the uninterrupted run drew there.
            let mut indices: Vec<usize> = (0..n).collect();
            indices.shuffle(&mut StdRng::seed_from_u64(epoch_seed(
                cfg.seed,
                epoch as u64,
            )));
            run_epoch(
                engine.as_deref_mut(),
                &mut iter,
                &targets_s,
                &indices,
                &shape,
                &mut clock,
            )?;
            let val_epoch = val_s.as_ref().map(|(f, v)| (f.as_ref(), *v));
            let stats = epoch_stats(epoch, &iter, targets, val_epoch, eval_tile, &clock, start);
            let (healthy, stop) =
                judge_epoch(cfg, &mut state, &mut iter, last_good.as_ref(), stats);
            // Checkpoint cadence: only healthy epochs refresh the rollback
            // snapshot and hit disk, so the newest checkpoint is always a
            // state worth resuming from.
            if healthy
                && (epoch % cfg.checkpoint_every == 0 || stop.is_some() || epoch == cfg.epochs)
            {
                last_good = Some(iter.model().weights().clone());
                if let Some(dir) = &cfg.checkpoint_dir {
                    self.write_checkpoint(dir, features, &iter, &clock, &mut state);
                }
            }
            if let Some(reason) = stop {
                stop_reason = reason;
                break;
            }
        }

        // Training over: collect the self-healing log, release the ring and
        // the residency reservation, then audit the ledger — the whole run,
        // tiles included, must have stayed within `S_G`.
        let stream_recoveries = engine.as_ref().map_or(0, |e| e.recoveries());
        degradations.extend(engine.iter().flat_map(|e| e.fault_log().iter().cloned()));
        drop((engine, residency));
        let peak_slots = ledger.peak_slots();
        let budget_slots = ledger.budget();
        debug_assert!(peak_slots <= budget_slots, "ledger over-ran S_G");

        let last = *state.history.last().expect("at least one epoch ran");
        let report = TrainReport {
            params: plan.params,
            final_train_mse: last.train_mse,
            final_val_error: last.val_error,
            simulated_seconds: clock.elapsed(),
            wall_seconds: start.elapsed().as_secs_f64(),
            iterations: iter.counter().iterations,
            overhead_fraction: iter.counter().overhead_fraction(),
            epochs: state.history,
            stop_reason,
            eta_backoffs: state.eta_backoffs,
            precision: cfg.precision,
            residency: plan.residency,
            stream_plan: plan.stream,
            peak_slots,
            budget_slots,
            rollbacks: state.rollbacks,
            stream_recoveries,
            degradations,
            resumed_from_epoch,
        };
        Ok(TrainOutcome {
            model: into_f64_model(iter.into_model()),
            report,
        })
    }

    /// Writes `ckpt-{epoch:06}.ep2` into `dir`: the f64 model (weights
    /// widened from `S`) plus `state`, once its counter and clock fields
    /// are synced from
    /// `iter` and `clock`. A failed write warns and training continues —
    /// the previous checkpoint survives intact (atomic rename), which is
    /// exactly the crash-consistency contract.
    fn write_checkpoint<S: Scalar>(
        &self,
        dir: &Path,
        features: &Matrix,
        iter: &EigenProIteration<S>,
        clock: &SimClock,
        state: &mut TrainerState,
    ) {
        let counter = iter.counter();
        state.sgd_ops = counter.sgd_ops;
        state.precond_ops = counter.precond_ops;
        state.iterations = counter.iterations;
        state.simulated_seconds = clock.elapsed();
        state.sim_launches = clock.launches();
        state.sim_total_ops = clock.total_ops();
        let cfg = &self.config;
        let snapshot = KernelModel::from_weights(
            cfg.kernel.with_bandwidth(cfg.bandwidth).into(),
            features.clone(),
            iter.model().weights().cast(),
        );
        let epoch = state.epochs_done;
        let path = dir.join(format!("ckpt-{epoch:06}.ep2"));
        if let Err(e) = persist::save_checkpoint(&snapshot, state, &path) {
            eprintln!(
                "warning: checkpoint write failed at epoch {epoch} ({e}); training continues"
            );
        } else if let Some(keep) = cfg.checkpoint_keep {
            // Prune only after the atomic write landed: the newest file is
            // durable before any older one is deleted, so a crash at any
            // point still leaves a resumable checkpoint on disk.
            prune_checkpoints(dir, keep);
        }
    }
}

/// The Steps 1–2 preconditioner at precision `C` (none for plain SGD).
type Precond<C> = Option<crate::Preconditioner<C>>;

/// Steps 1–2 output: the analytic parameters and the preconditioner.
type Planned<C> = Result<(AutoParams, Precond<C>), CoreError>;

/// What [`EigenPro2::reserve`] holds for the run: the residency
/// reservation, the stream engine under a streamed plan, and the
/// degradations it took to get there.
type Reserved<S> = (Allocation, Option<Box<StreamEngine<S>>>, Vec<String>);

/// Puts a resumed run's `weights`, η and counters back on `iter` and its
/// time on `clock` — the inverse of [`EigenPro2::write_checkpoint`]'s sync.
fn restore_run<S: Scalar>(
    state: &TrainerState,
    weights: Matrix<S>,
    iter: &mut EigenProIteration<S>,
    clock: &mut SimClock,
) {
    *iter.model_mut().weights_mut() = weights;
    iter.set_eta(state.eta);
    *iter.counter_mut() = FlopCounter {
        sgd_ops: state.sgd_ops,
        precond_ops: state.precond_ops,
        iterations: state.iterations,
    };
    clock.restore(
        state.simulated_seconds,
        state.sim_launches,
        state.sim_total_ops,
    );
}

/// Runs one epoch over the shuffled `indices` in mini-batches of `shape.m`,
/// recording every iteration's operation count on the simulated clock. In
/// core each `step` assembles its own block; streamed, `engine` produces
/// the kernel-block tiles into its ledger-charged ring while
/// `step_streamed` consumes them.
fn run_epoch<S: Scalar>(
    engine: Option<&mut StreamEngine<S>>,
    iter: &mut EigenProIteration<S>,
    targets: &Matrix<S>,
    indices: &[usize],
    shape: &ProblemShape,
    clock: &mut SimClock,
) -> Result<(), CoreError> {
    let Some(engine) = engine else {
        for chunk in indices.chunks(shape.m) {
            clock.record_launch(iter.step(chunk, targets));
        }
        return Ok(());
    };
    let n_tile = engine.plan().n_tile;
    let batches: Vec<&[usize]> = indices.chunks(shape.m).collect();
    // A streamed epoch can still fail beyond what the pipeline's
    // self-healing absorbs (every producer dead with the respawn budget
    // exhausted): surface the panic as a typed error so callers can retry
    // from the last checkpoint.
    catch_unwind(AssertUnwindSafe(|| {
        engine.run_epoch(&batches, |bi, tiles| {
            iter.step_streamed(batches[bi], targets, tiles);
            // The simulated clock prices the *exposed* critical path of the
            // overlapped pipeline (assembly of tile t+1 runs under the
            // update of tile t) — the same `cost::streamed_eigenpro` model
            // the fig3b harness plans with, so `ep2 train --out-of-core` and
            // the fig3b tables agree on what a streamed iteration costs. The
            // FlopCounter keeps counting the full work (`m` is rewritten per
            // mini-batch — the last one may be short).
            let shape = ProblemShape {
                m: batches[bi].len(),
                ..*shape
            };
            clock.record_launch(ep2_device::cost::streamed_eigenpro(&shape, n_tile).exposed_ops);
        });
    }))
    .map_err(|payload| CoreError::Stream {
        message: panic_message(payload.as_ref()),
    })
}

/// Folds one finished epoch into the run state: records it, applies the
/// divergence safeguard, and decides the target and early-stop criteria.
/// Returns `(healthy, stop)`, where "healthy" is the bar for a state worth
/// checkpointing.
fn judge_epoch<S: Scalar>(
    cfg: &TrainConfig,
    state: &mut TrainerState,
    iter: &mut EigenProIteration<S>,
    last_good: Option<&Matrix<S>>,
    stats: EpochStats,
) -> (bool, Option<StopReason>) {
    let mse = stats.train_mse;
    // Divergence safeguard: the analytic η relies on estimated spectra; if
    // the training MSE regresses, the estimate was on the unstable side —
    // halve the step and continue. At paper scale (s = 1.2e4) this never
    // fires; it protects small-s runs. A catastrophic blow-up (MSE far
    // beyond the one-hot target scale) additionally rolls the weights back
    // to the last healthy snapshot (falling back to a zero restart when none
    // exists yet), since exponentially overgrown weights cannot be
    // contracted back within any reasonable epoch budget.
    if mse > state.prev_mse * 1.2 && state.eta_backoffs < 16 {
        state.eta *= 0.5;
        iter.set_eta(state.eta);
        state.eta_backoffs += 1;
        if !mse.is_finite() || mse > 100.0 {
            let weights = iter.model_mut().weights_mut().as_mut_slice();
            match last_good {
                Some(good) => {
                    weights.copy_from_slice(good.as_slice());
                    state.rollbacks += 1;
                }
                None => weights.fill(S::ZERO),
            }
        }
    }
    // Finite and within the catastrophic-blow-up bound. A mild regression
    // (the 1.2x test above) still counts — the halved η is part of the
    // recorded state, so resuming from it continues the corrected
    // trajectory.
    let healthy = mse.is_finite() && mse <= 100.0;
    state.prev_mse = mse.min(state.prev_mse);
    let reached_target = cfg.target_train_mse.is_some_and(|t| mse <= t)
        || matches!(
            (cfg.target_val_error, stats.val_error),
            (Some(t), Some(ve)) if ve <= t
        );
    let mut stop = None;
    if let (Some(es), Some(ve)) = (cfg.early_stopping, stats.val_error) {
        if ve < state.best_val - es.min_delta {
            state.best_val = ve;
            state.since_best = 0;
        } else {
            state.since_best += 1;
        }
        if state.since_best >= es.patience as u64 {
            stop = Some(StopReason::EarlyStopped);
        }
    }
    if stop.is_none() && reached_target {
        stop = Some(StopReason::TargetReached);
    }
    state.history.push(stats);
    state.epochs_done = stats.epoch as u64;
    (healthy, stop)
}

/// Casts a borrowed f64 matrix into the training precision, borrowing
/// (zero-copy) when `S` is already `f64`.
fn cast_cow<S: Scalar>(m: &Matrix) -> Cow<'_, Matrix<S>> {
    match (m as &dyn Any).downcast_ref::<Matrix<S>>() {
        Some(same) => Cow::Borrowed(same),
        None => Cow::Owned(m.cast()),
    }
}

/// Converts the trained model back to f64 — a move (no copy) when `S` is
/// already `f64`, a lossless widening cast otherwise.
fn into_f64_model<S: Scalar>(model: KernelModel<S>) -> KernelModel {
    let boxed: Box<dyn Any> = Box::new(model);
    match boxed.downcast::<KernelModel>() {
        Ok(same) => *same,
        Err(boxed) => boxed
            .downcast_ref::<KernelModel<S>>()
            .expect("model has type KernelModel<S>")
            .cast(),
    }
}

/// Splitmix64 over `(seed, epoch)`: every epoch's shuffle seed is derived
/// independently of how many epochs ran before it, which is what makes
/// checkpoint resume trajectory-exact.
fn epoch_seed(seed: u64, epoch: u64) -> u64 {
    let mut z = seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a fingerprint of the executed plan. A checkpoint refuses to resume
/// under a different fingerprint: same data shape, analytic parameters,
/// kernel, precision, seed and residency — or nothing.
fn plan_fingerprint(
    cfg: &TrainConfig,
    n: usize,
    d: usize,
    l: usize,
    params: &AutoParams,
    residency: ResidencyMode,
) -> u64 {
    let tag = format!(
        "{:?}|{n}|{d}|{l}|{}|{}|{}|{:?}|{:016x}|{}|{residency:?}",
        cfg.kernel,
        params.m,
        params.s,
        params.adjusted_q,
        cfg.precision,
        cfg.bandwidth.to_bits(),
        cfg.seed,
    );
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in tag.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Finds the newest loadable checkpoint in `dir` (highest epoch whose file
/// parses and passes its CRC). Torn or corrupt files — e.g. a crash mid
/// `write(2)` before the atomic rename, or bit rot — are skipped with a
/// warning, so recovery lands on the last *good* checkpoint.
fn latest_valid_checkpoint(dir: &Path) -> Option<(PathBuf, persist::AnyModel, TrainerState)> {
    for (_, path) in checkpoint_files(dir).into_iter().rev() {
        match persist::load_any_with_state(&path) {
            Ok((model, Some(state))) => return Some((path, model, state)),
            Ok((_, None)) => {
                eprintln!(
                    "warning: {} carries no trainer state; skipping",
                    path.display()
                );
            }
            Err(e) => {
                eprintln!(
                    "warning: skipping corrupt checkpoint {}: {e}",
                    path.display()
                );
            }
        }
    }
    None
}

/// Enumerates `ckpt-NNNNNN.ep2` files in `dir`, sorted by epoch.
fn checkpoint_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(epoch) = name
            .strip_prefix("ckpt-")
            .and_then(|rest| rest.strip_suffix(".ep2"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((epoch, path));
    }
    found.sort_by_key(|&(epoch, _)| epoch);
    found
}

/// Deletes all but the newest `keep` checkpoints in `dir` (by epoch
/// number). Called only after a successful atomic checkpoint write, so the
/// retained newest file is always a complete, durable checkpoint; a failed
/// unlink merely warns — stale files are retried on the next prune.
fn prune_checkpoints(dir: &Path, keep: usize) {
    let found = checkpoint_files(dir);
    for (_, path) in found.iter().take(found.len().saturating_sub(keep)) {
        if let Err(e) = std::fs::remove_file(path) {
            eprintln!(
                "warning: could not prune checkpoint {}: {e}",
                path.display()
            );
        }
    }
}

/// Extracts the human-readable message from a `catch_unwind` payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "stream pipeline panicked".to_string()
    }
}

fn epoch_stats<S: Scalar>(
    epoch: usize,
    iter: &EigenProIteration<S>,
    targets: &Matrix,
    val: Option<(&Matrix<S>, &ValMetric)>,
    eval_tile: Option<(usize, usize)>,
    clock: &SimClock,
    start: Instant,
) -> EpochStats {
    // `eval_tile = (block_rows, col_tile)` routes evaluation through the
    // column-tiled prediction so streamed runs honour their memory budget.
    let predict = |x: &Matrix<S>| {
        let opts = match eval_tile {
            Some((rows, cols)) => PredictOptions::new().block_rows(rows).col_tile(cols),
            None => PredictOptions::default(),
        };
        iter.model().predict_with(x, &opts)
    };
    let train_pred = predict(iter.model().centers());
    let train_mse = metrics::mse(&train_pred, targets);
    let val_error = val.map(|(features_s, metric)| {
        let pred = predict(features_s);
        match metric {
            ValMetric::Classification { labels, .. } => {
                metrics::classification_error(&pred, labels)
            }
            ValMetric::Mse { targets, .. } => metrics::mse(&pred, targets),
        }
    });
    EpochStats {
        epoch,
        train_mse,
        val_error,
        simulated_seconds: clock.elapsed(),
        wall_seconds: start.elapsed().as_secs_f64(),
    }
}

/// Predicts class labels with a trained model (argmax over outputs).
///
/// # Panics
///
/// Panics if `x.cols()` differs from the model's feature dimension.
pub fn predict_labels(model: &KernelModel, x: &Matrix) -> Vec<usize> {
    let pred = model.predict_with(x, &PredictOptions::default());
    (0..pred.rows())
        .map(|i| {
            ep2_linalg::ops::argmax(pred.row(i))
                .expect("non-empty row")
                .0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ep2_data::catalog;

    fn quick_config() -> TrainConfig {
        TrainConfig {
            kernel: KernelKind::Gaussian,
            bandwidth: 4.0,
            epochs: 5,
            subsample_size: Some(150),
            early_stopping: None,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn trains_mnist_like_to_low_error() {
        let data = catalog::mnist_like(500, 3);
        let (train, test) = data.split_at(400);
        let trainer = EigenPro2::new(quick_config(), ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit(&train, Some(&test)).unwrap();
        let err = out.report.final_val_error.unwrap();
        assert!(err < 0.12, "test error {err}");
        // Train MSE decreases monotonically (allow tiny noise).
        let mses: Vec<f64> = out.report.epochs.iter().map(|e| e.train_mse).collect();
        assert!(mses.last().unwrap() < &mses[0]);
        assert_eq!(out.report.precision, Precision::F64);
    }

    #[test]
    fn f32_policy_trains_to_comparable_error() {
        let data = catalog::mnist_like(500, 3);
        let (train, test) = data.split_at(400);
        let cfg = TrainConfig {
            precision: Precision::F32,
            ..quick_config()
        };
        let trainer = EigenPro2::new(cfg, ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit(&train, Some(&test)).unwrap();
        let err = out.report.final_val_error.unwrap();
        assert!(err < 0.12, "f32 test error {err}");
        assert_eq!(out.report.precision, Precision::F32);
        // The returned model is f64 regardless of the training precision.
        let pred = out
            .model
            .predict_with(&test.features, &PredictOptions::default());
        assert_eq!(pred.shape(), (test.len(), train.n_classes));
    }

    #[test]
    fn mixed_policy_matches_f64_mse_closely() {
        let data = catalog::mnist_like(400, 11);
        let (train, _) = data.split_at(400);
        let run = |precision| {
            let cfg = TrainConfig {
                precision,
                ..quick_config()
            };
            EigenPro2::new(cfg, ResourceSpec::scaled_virtual_gpu())
                .fit(&train, None)
                .unwrap()
        };
        let out64 = run(Precision::F64);
        let mixed = run(Precision::Mixed);
        // Mixed plans at f64: identical analytic parameters...
        assert_eq!(mixed.report.params.eta, out64.report.params.eta);
        assert_eq!(
            mixed.report.params.adjusted_q,
            out64.report.params.adjusted_q
        );
        // ...and the f32 hot loop lands within 1e-3 of the f64 final MSE.
        assert!(
            (mixed.report.final_train_mse - out64.report.final_train_mse).abs() <= 1e-3,
            "mixed {} vs f64 {}",
            mixed.report.final_train_mse,
            out64.report.final_train_mse
        );
    }

    #[test]
    fn early_stopping_halts() {
        let data = catalog::mnist_like(400, 5);
        let (train, test) = data.split_at(300);
        let config = TrainConfig {
            epochs: 50,
            early_stopping: Some(EarlyStopping {
                patience: 1,
                min_delta: 0.0,
            }),
            ..quick_config()
        };
        let trainer = EigenPro2::new(config, ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit(&train, Some(&test)).unwrap();
        assert!(out.report.epochs.len() < 50);
        // Stop reason must be early stopping or the (unset) target.
        assert_eq!(out.report.stop_reason, StopReason::EarlyStopped);
    }

    #[test]
    fn target_mse_stops_training() {
        let data = catalog::mnist_like(300, 7);
        let (train, _) = data.split_at(300);
        let config = TrainConfig {
            epochs: 40,
            target_train_mse: Some(0.05),
            early_stopping: None,
            ..quick_config()
        };
        let trainer = EigenPro2::new(config, ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit(&train, None).unwrap();
        assert!(out.report.final_train_mse <= 0.05);
        if out.report.epochs.len() < 40 {
            assert_eq!(out.report.stop_reason, StopReason::TargetReached);
        }
    }

    #[test]
    fn overhead_is_small() {
        let data = catalog::mnist_like(600, 9);
        let (train, _) = data.split_at(600);
        let trainer = EigenPro2::new(quick_config(), ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit(&train, None).unwrap();
        // Improved EigenPro: precond overhead ≪ SGD cost. At this scale
        // (s=150, n=600, d=784) it is well under 10%.
        assert!(
            out.report.overhead_fraction < 0.10,
            "overhead {}",
            out.report.overhead_fraction
        );
        assert!(out.report.simulated_seconds > 0.0);
        assert!(out.report.iterations > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = catalog::susy_like(300, 2);
        let (train, test) = data.split_at(250);
        let trainer = EigenPro2::new(quick_config(), ResourceSpec::scaled_virtual_gpu());
        let a = trainer.fit(&train, Some(&test)).unwrap();
        let b = trainer.fit(&train, Some(&test)).unwrap();
        assert_eq!(a.report.final_train_mse, b.report.final_train_mse);
        assert_eq!(a.model.weights().as_slice(), b.model.weights().as_slice());
    }

    #[test]
    fn divergence_backoff_recovers_from_bad_step_size() {
        let data = catalog::mnist_like(300, 13);
        let (train, _) = data.split_at(300);
        let config = TrainConfig {
            epochs: 20,
            // Deliberately unstable: far beyond the analytic step size.
            step_size: Some(1e5),
            ..quick_config()
        };
        let trainer = EigenPro2::new(config, ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit(&train, None).unwrap();
        assert!(out.report.eta_backoffs > 0, "safeguard should have fired");
        assert!(
            out.report.final_train_mse.is_finite(),
            "training must recover, not blow up"
        );
        let first = out.report.epochs.first().unwrap().train_mse;
        let last = out.report.final_train_mse;
        assert!(
            last < first,
            "mse should improve after backoff: {first} -> {last}"
        );
    }

    #[test]
    fn regression_fits_smooth_function() {
        use ep2_data::regression::{self, RegressionSpec};
        let ds = regression::generate(&RegressionSpec {
            noise: 0.02,
            ..RegressionSpec::quick("smooth", 500, 12, 21)
        });
        let (train, test) = ds.split_at(400);
        // Bandwidth/epochs tuned for the vendored deterministic RNG's data
        // draw (σ = 3 reaches R² ≈ 0.91 on this seed; narrower bandwidths
        // underfit the 12-dim latent manifold at n = 400).
        let config = TrainConfig {
            kernel: KernelKind::Gaussian,
            bandwidth: 3.0,
            epochs: 30,
            subsample_size: Some(200),
            early_stopping: None,
            ..TrainConfig::default()
        };
        let trainer = EigenPro2::new(config, ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit_regression(&train, Some(&test)).unwrap();
        // Validation metric is MSE here; check R² on test directly.
        let pred = out
            .model
            .predict_with(&test.features, &PredictOptions::default());
        let r2 = regression::r2(&pred, &test.targets);
        assert!(r2 > 0.9, "R² = {r2}");
        // Val metric (mse) was tracked.
        assert!(out.report.final_val_error.unwrap() < 0.1);
    }

    #[test]
    fn regression_early_stopping_on_val_mse() {
        use ep2_data::regression::{self, RegressionSpec};
        let ds = regression::generate(&RegressionSpec::quick("s", 300, 10, 23));
        let (train, test) = ds.split_at(240);
        let config = TrainConfig {
            kernel: KernelKind::Gaussian,
            bandwidth: 2.0,
            epochs: 60,
            subsample_size: Some(120),
            early_stopping: Some(EarlyStopping {
                patience: 2,
                min_delta: 0.0,
            }),
            ..TrainConfig::default()
        };
        let trainer = EigenPro2::new(config, ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit_regression(&train, Some(&test)).unwrap();
        assert!(out.report.epochs.len() < 60, "early stopping should fire");
    }

    #[test]
    fn target_val_error_stops_training() {
        let data = catalog::mnist_like(400, 15);
        let (train, test) = data.split_at(320);
        let config = TrainConfig {
            epochs: 50,
            early_stopping: None,
            // The MNIST clone reaches ≤ 10% test error quickly.
            target_val_error: Some(0.10),
            ..quick_config()
        };
        let trainer = EigenPro2::new(config, ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit(&train, Some(&test)).unwrap();
        assert!(out.report.final_val_error.unwrap() <= 0.10);
        assert!(out.report.epochs.len() < 50);
        assert_eq!(out.report.stop_reason, StopReason::TargetReached);
    }

    #[test]
    fn rejects_empty_training_set() {
        let data = catalog::mnist_like(10, 1);
        let (_, empty) = data.split_at(10);
        let trainer = EigenPro2::new(quick_config(), ResourceSpec::scaled_virtual_gpu());
        assert!(trainer.fit(&empty, None).is_err());
    }

    #[test]
    fn batch_override_exceeding_in_core_degrades_to_streamed() {
        let data = catalog::mnist_like(200, 1);
        let (train, _) = data.split_at(200);
        // Step 1 would size m to fit; an explicit full-batch override blows
        // the in-core ledger instead. Sized so the dataset residency fits
        // Step 1's f64 accounting ((d+l+1)·n·2 ≈ 318k slots) but the
        // full-batch override ((d+l+200)·n·2 ≈ 398k) does not — the
        // graceful-degradation loop must re-plan it as streamed (the
        // streamed static set l·n + d·m ≈ 318k still fits) rather than
        // abort the run.
        let tiny = ResourceSpec::new("tiny-mem", 1e12, 350_000.0, 1e12, 0.0);
        let config = TrainConfig {
            batch_size: Some(200),
            epochs: 1,
            ..quick_config()
        };
        let trainer = EigenPro2::new(config, tiny);
        let out = trainer
            .fit(&train, None)
            .expect("degrades instead of aborting");
        assert_eq!(out.report.residency, ResidencyMode::Streamed);
        assert!(
            out.report
                .degradations
                .iter()
                .any(|d| d.contains("re-planned to streamed")),
            "degradation log missing the re-plan: {:?}",
            out.report.degradations
        );
        assert_eq!(out.report.params.m, 200, "override still honored");
    }

    #[test]
    fn impossible_budget_is_still_rejected() {
        let data = catalog::mnist_like(200, 1);
        let (train, _) = data.split_at(200);
        // Below even the streamed static set (l·n + d·m ≈ 318k f64 slots at
        // the full-batch override) there is no degradation path left: the
        // run must fail with a DeviceMemory error naming both dead ends.
        let hopeless = ResourceSpec::new("hopeless-mem", 1e12, 300_000.0, 1e12, 0.0);
        let config = TrainConfig {
            batch_size: Some(200),
            ..quick_config()
        };
        let trainer = EigenPro2::new(config, hopeless);
        match trainer.fit(&train, None) {
            Err(CoreError::DeviceMemory { .. }) => {}
            other => panic!("expected DeviceMemory error, got {other:?}"),
        }
    }

    #[test]
    fn f32_fits_in_core_where_f64_degrades_to_streamed() {
        // A device sized so the f32 residency fits but the f64 residency
        // (2x the slots) does not: the precision knob keeps the problem
        // in-core — Step 1's m^max_G doubling in action — while the f64
        // run survives only by degrading to the streamed residency.
        let data = catalog::susy_like(200, 1);
        let (train, _) = data.split_at(200);
        // Residency = (d + l + m) · n slots · slot_factor with d=18, l=2.
        // Pick S_G between the f32 and f64 requirements for m = 64.
        let m = 64;
        let f32_slots = ((18 + 2 + m) * 200) as f64;
        let spec = ResourceSpec::new("half-card", 1e12, f32_slots * 1.5, 1e12, 0.0);
        let config = |precision| TrainConfig {
            kernel: KernelKind::Gaussian,
            bandwidth: 4.0,
            epochs: 1,
            subsample_size: Some(80),
            batch_size: Some(m),
            early_stopping: None,
            precision,
            ..TrainConfig::default()
        };
        let f64_run = EigenPro2::new(config(Precision::F64), spec.clone())
            .fit(&train, None)
            .expect("f64 degrades to streamed instead of aborting");
        assert_eq!(f64_run.report.residency, ResidencyMode::Streamed);
        assert!(
            f64_run
                .report
                .degradations
                .iter()
                .any(|d| d.contains("re-planned to streamed")),
            "degradation log missing the re-plan: {:?}",
            f64_run.report.degradations
        );
        let f32_run = EigenPro2::new(config(Precision::F32), spec)
            .fit(&train, None)
            .expect("f32 residency fits in-core");
        assert_eq!(f32_run.report.residency, ResidencyMode::InCore);
        assert!(f32_run.report.degradations.is_empty());
    }

    #[test]
    fn auto_streams_when_dataset_exceeds_device_memory() {
        // (d + l + 1)·n·2 = 21·400·2 = 16.8k slots ≫ S_G = 4k: the in-core
        // plan has no solution, so the trainer must pick Streamed on its
        // own and still train end to end within the ledger.
        let data = catalog::susy_like(400, 3);
        let (train, _) = data.split_at(400);
        let spec = ResourceSpec::new("starved", 2e8, 4_000.0, 1e12, 0.0);
        let config = TrainConfig {
            kernel: KernelKind::Gaussian,
            bandwidth: 4.0,
            epochs: 2,
            subsample_size: Some(60),
            early_stopping: None,
            ..TrainConfig::default()
        };
        let out = EigenPro2::new(config, spec.clone())
            .fit(&train, None)
            .unwrap();
        assert_eq!(out.report.residency, ResidencyMode::Streamed);
        assert!(
            out.report.peak_slots <= out.report.budget_slots,
            "peak {} > S_G {}",
            out.report.peak_slots,
            out.report.budget_slots
        );
        assert_eq!(out.report.budget_slots, spec.memory_floats);
        assert!(out.report.final_train_mse.is_finite());
        // The in-core memory batch is reported as the "does not fit" 0.
        assert_eq!(out.report.params.memory_batch, 0);
    }

    #[test]
    fn forced_streamed_matches_in_core_closely() {
        let data = catalog::mnist_like(300, 5);
        let (train, _) = data.split_at(300);
        let run = |residency, stream_tile| {
            let cfg = TrainConfig {
                epochs: 3,
                batch_size: Some(32),
                residency,
                stream_tile,
                // Pin the PR 3 single-producer double-buffered pipeline:
                // the residency comparison below is a property of that
                // ring shape, and the auto-planned producer count (hence
                // ring depth) varies with the thread budget.
                stream_producers: Some(1),
                ..quick_config()
            };
            EigenPro2::new(cfg, ResourceSpec::scaled_virtual_gpu())
                .fit(&train, None)
                .unwrap()
        };
        let incore = run(None, None);
        // Tile width straddling nothing in particular — just ≪ n, so the
        // ring + batch-block residency stays below the in-core footprint.
        let streamed = run(Some(ResidencyMode::Streamed), Some(64));
        assert_eq!(incore.report.residency, ResidencyMode::InCore);
        assert_eq!(streamed.report.residency, ResidencyMode::Streamed);
        // Same analytic plan, same batch schedule; the only numeric
        // difference is the column order of the prediction accumulation.
        assert_eq!(incore.report.params.m, streamed.report.params.m);
        assert!(
            (incore.report.final_train_mse - streamed.report.final_train_mse).abs() < 1e-8,
            "in-core {} vs streamed {}",
            incore.report.final_train_mse,
            streamed.report.final_train_mse
        );
        // Streaming holds strictly less resident memory.
        assert!(streamed.report.peak_slots < incore.report.peak_slots);
        // A one-tile stream is the in-core step: bit-for-bit weights.
        let one_tile = run(Some(ResidencyMode::Streamed), Some(train.len()));
        assert_eq!(one_tile.report.residency, ResidencyMode::Streamed);
        assert_eq!(
            one_tile.model.weights().as_slice(),
            incore.model.weights().as_slice()
        );
    }

    #[test]
    fn forced_in_core_on_oversized_dataset_errors_cleanly() {
        let data = catalog::susy_like(400, 3);
        let (train, _) = data.split_at(400);
        let spec = ResourceSpec::new("starved", 2e8, 4_000.0, 1e12, 0.0);
        let config = TrainConfig {
            residency: Some(ResidencyMode::InCore),
            ..quick_config()
        };
        match EigenPro2::new(config, spec).fit(&train, None) {
            Err(CoreError::DeviceMemory { message }) => {
                assert!(message.contains("out-of-core"), "message: {message}");
            }
            other => panic!("expected DeviceMemory error, got {other:?}"),
        }
    }

    #[test]
    fn stream_tile_override_respected_and_checked() {
        let data = catalog::susy_like(300, 9);
        let (train, _) = data.split_at(300);
        let ok = TrainConfig {
            epochs: 1,
            residency: Some(ResidencyMode::Streamed),
            stream_tile: Some(50),
            ..quick_config()
        };
        let out = EigenPro2::new(ok, ResourceSpec::scaled_virtual_gpu())
            .fit(&train, None)
            .unwrap();
        assert_eq!(out.report.residency, ResidencyMode::Streamed);
        // A tile too wide for a tiny budget is rejected up front.
        let spec = ResourceSpec::new("starved", 2e8, 4_000.0, 1e12, 0.0);
        let bad = TrainConfig {
            residency: Some(ResidencyMode::Streamed),
            stream_tile: Some(300),
            ..quick_config()
        };
        match EigenPro2::new(bad, spec).fit(&train, None) {
            Err(CoreError::DeviceMemory { message }) => {
                assert!(message.contains("stream_tile"), "message: {message}");
            }
            other => panic!("expected DeviceMemory error, got {other:?}"),
        }
    }

    #[test]
    fn plan_is_what_fit_runs() {
        let data = catalog::susy_like(300, 4);
        let (train, _) = data.split_at(300);
        for precision in [
            Precision::F64,
            Precision::F32,
            Precision::Mixed,
            Precision::Bf16,
        ] {
            for (residency, stream_tile) in
                [(None, None), (Some(ResidencyMode::Streamed), Some(48))]
            {
                let cfg = TrainConfig {
                    epochs: 1,
                    precision,
                    residency,
                    stream_tile,
                    ..quick_config()
                };
                let trainer = EigenPro2::new(cfg, ResourceSpec::scaled_virtual_gpu());
                let plan = trainer.plan(&train.features, train.targets.cols()).unwrap();
                let report = trainer.fit(&train, None).unwrap().report;
                let case = format!("{precision} {residency:?}");
                assert!(report.degradations.is_empty(), "{case}");
                assert_eq!(plan.params, report.params, "{case}");
                assert_eq!(plan.residency, report.residency, "{case}");
                assert_eq!(plan.stream, report.stream_plan, "{case}");
                assert_eq!(plan.stream.map(|sp| sp.n_tile), stream_tile, "{case}");
            }
        }
    }

    /// `fit` and `plan` both refuse `cfg` with an `InvalidConfig` naming
    /// `field`.
    fn assert_rejected(cfg: TrainConfig, field: &str) {
        let data = catalog::susy_like(100, 1);
        let trainer = EigenPro2::new(cfg, ResourceSpec::scaled_virtual_gpu());
        let fit = trainer.fit(&data, None).map(|_| ());
        let plan = trainer
            .plan(&data.features, data.targets.cols())
            .map(|_| ());
        for result in [fit, plan] {
            match result {
                Err(CoreError::InvalidConfig { message }) => {
                    assert!(message.contains(field), "message: {message}");
                }
                other => panic!("{field} = 0 was accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn zero_batch_size_is_rejected() {
        let cfg = TrainConfig {
            batch_size: Some(0),
            ..quick_config()
        };
        assert_rejected(cfg, "batch_size");
    }

    #[test]
    fn zero_stream_tile_is_rejected() {
        let cfg = TrainConfig {
            residency: Some(ResidencyMode::Streamed),
            stream_tile: Some(0),
            ..quick_config()
        };
        assert_rejected(cfg, "stream_tile");
    }

    #[test]
    fn zero_stream_producers_is_rejected() {
        let cfg = TrainConfig {
            residency: Some(ResidencyMode::Streamed),
            stream_producers: Some(0),
            ..quick_config()
        };
        assert_rejected(cfg, "stream_producers");
    }

    #[test]
    fn zero_checkpoint_every_is_rejected() {
        let cfg = TrainConfig {
            checkpoint_every: 0,
            ..quick_config()
        };
        assert_rejected(cfg, "checkpoint_every");
    }

    #[test]
    fn zero_checkpoint_keep_is_rejected() {
        let cfg = TrainConfig {
            checkpoint_keep: Some(0),
            ..quick_config()
        };
        assert_rejected(cfg, "checkpoint_keep");
    }

    #[test]
    fn predict_labels_argmax() {
        let data = catalog::mnist_like(200, 11);
        let (train, _) = data.split_at(200);
        let trainer = EigenPro2::new(quick_config(), ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit(&train, None).unwrap();
        let labels = predict_labels(&out.model, &train.features);
        assert_eq!(labels.len(), 200);
        let err = labels
            .iter()
            .zip(&train.labels)
            .filter(|(a, b)| a != b)
            .count() as f64
            / 200.0;
        assert!(err < 0.1, "train error {err}");
    }
}
