//! The two training workloads, run untraced through `EigenPro2::fit`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ep2_core::persist;
use ep2_core::trainer::{EigenPro2, StopReason, TrainConfig, TrainOutcome};
use ep2_data::{catalog, Dataset};
use ep2_device::{Precision, ResidencyMode, ResourceSpec};

use crate::json::Metric;
use crate::stats;
use crate::Outcome;

/// One training workload: how to make its data, train on it and judge the
/// result.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// Makes the full data set and the train/validation split.
    pub data: fn(u64) -> (Dataset, Dataset),
    pub device: fn() -> ResourceSpec,
    pub residency: ResidencyMode,
    pub subsample: usize,
    pub epochs: usize,
    /// Train-MSE target; `None` stops at the epoch cap.
    pub target_train_mse: Option<f64>,
    pub checkpoint: bool,
    /// Validation error a correct fit stays under.
    pub val_error_ceiling: f64,
}

fn timit_data(seed: u64) -> (Dataset, Dataset) {
    catalog::timit_like(10_000, seed).split_at(8_000)
}

fn susy_data(seed: u64) -> (Dataset, Dataset) {
    catalog::susy_like(20_000, seed).split_at(16_000)
}

/// `scaled_virtual_gpu` with `S_G = 1e6` slots: SUSY's 16k × (18 + 2)
/// resident set plus any useful batch overflows it, so it streams.
fn streamed_device() -> ResourceSpec {
    ResourceSpec {
        memory_floats: 1.0e6,
        ..ResourceSpec::scaled_virtual_gpu()
    }
}

/// TIMIT-like in core: d = 440 and l = 144 make assembly GEMM-bound and
/// `K·α` non-trivial; s = 1000 keeps the setup eigensolve a large share of
/// the run. Every seed tried reaches train MSE 5e-4 at epoch 2 (epoch 1
/// ends above 1e-3, epoch 2 below 2.2e-4); at epoch 3 the seeds spread
/// from 4e-6 to 1.2e-4, so no later target stops every seed at the same
/// epoch.
pub fn timit() -> TrainSpec {
    TrainSpec {
        data: timit_data,
        device: ResourceSpec::scaled_virtual_gpu,
        residency: ResidencyMode::InCore,
        subsample: 1_000,
        epochs: 4,
        target_train_mse: Some(5e-4),
        checkpoint: false,
        val_error_ceiling: 0.15,
    }
}

/// SUSY-like streamed: d = 18 makes assembly bound by the radial profile,
/// not the GEMM; it exercises the tile pipeline, the ledger and the
/// checkpoint write path. At s = 500 the analytic step trips the divergence
/// safeguard at a seed-dependent epoch, so a train-MSE target would stop
/// at a seed-dependent epoch; the run stops at a fixed cap instead.
pub fn susy() -> TrainSpec {
    TrainSpec {
        data: susy_data,
        device: streamed_device,
        residency: ResidencyMode::Streamed,
        subsample: 500,
        epochs: 3,
        target_train_mse: None,
        checkpoint: true,
        val_error_ceiling: 0.3,
    }
}

impl TrainSpec {
    /// The fit configuration; `checkpoint_dir` is set per fit.
    pub fn config(&self, seed: u64) -> TrainConfig {
        TrainConfig {
            bandwidth: 5.0,
            epochs: self.epochs,
            subsample_size: Some(self.subsample),
            early_stopping: None,
            target_train_mse: self.target_train_mse,
            precision: Precision::F32,
            // In core is what `fit` picks on its own; streaming is forced.
            residency: (self.residency == ResidencyMode::Streamed).then_some(self.residency),
            checkpoint_every: 1,
            seed,
            ..TrainConfig::default()
        }
    }
}

/// Fits per run at least: the medians of set-up and fit time need three
/// samples to shed one slow outlier.
const MIN_FITS: usize = 3;

/// Timings of one fit.
#[derive(Debug, Clone)]
pub struct FitTimes {
    pub wall_s: f64,
    pub setup_s: f64,
    pub epoch_s: Vec<f64>,
}

/// `fit` wall time split into set-up (everything before the trainer's own
/// clock starts) and per-epoch wall times.
pub fn fit_times(wall_s: f64, out: &TrainOutcome) -> FitTimes {
    let mut prev = 0.0;
    let epoch_s = out
        .report
        .epochs
        .iter()
        .map(|e| {
            let d = e.wall_seconds - prev;
            prev = e.wall_seconds;
            d
        })
        .collect();
    FitTimes {
        wall_s,
        setup_s: wall_s - out.report.wall_seconds,
        epoch_s,
    }
}

/// Everything wrong with one fit's outcome; empty when it is correct.
pub fn check_fit(spec: &TrainSpec, out: &TrainOutcome, ckpt_dir: Option<&Path>) -> Vec<String> {
    let r = &out.report;
    let mut bad = Vec::new();
    if r.residency != spec.residency {
        bad.push(format!(
            "residency {:?}, expected {:?}",
            r.residency, spec.residency
        ));
    }
    if !r.degradations.is_empty() {
        bad.push(format!("degradations: {:?}", r.degradations));
    }
    if r.peak_slots > r.budget_slots {
        bad.push(format!(
            "ledger peak {} over budget {}",
            r.peak_slots, r.budget_slots
        ));
    }
    match spec.target_train_mse {
        Some(t) if r.stop_reason != StopReason::TargetReached || r.final_train_mse > t => {
            bad.push(format!(
                "train MSE target {t} not reached (final {})",
                r.final_train_mse
            ))
        }
        None if r.epochs.len() != spec.epochs => {
            bad.push(format!("ran {} of {} epochs", r.epochs.len(), spec.epochs))
        }
        _ => {}
    }
    if !r.final_train_mse.is_finite() {
        bad.push(format!("train MSE {}", r.final_train_mse));
    }
    match r.final_val_error {
        Some(v) if v <= spec.val_error_ceiling => {}
        other => bad.push(format!(
            "val error {other:?} over ceiling {}",
            spec.val_error_ceiling
        )),
    }
    if let Some(dir) = ckpt_dir {
        bad.extend(check_checkpoint(dir, out));
    }
    bad
}

/// The newest checkpoint loads with a valid CRC, records the epochs run,
/// and holds exactly the returned model's weights.
fn check_checkpoint(dir: &Path, out: &TrainOutcome) -> Vec<String> {
    let epochs = out.report.epochs.len();
    let path = checkpoint_path(dir, epochs);
    match persist::load_any_with_state(&path) {
        Err(e) => vec![format!("checkpoint {}: {e}", path.display())],
        Ok((_, None)) => vec![format!(
            "checkpoint {} has no trainer state",
            path.display()
        )],
        Ok((model, Some(state))) => {
            let mut bad = Vec::new();
            if state.epochs_done != epochs as u64 {
                bad.push(format!("checkpoint epochs_done {}", state.epochs_done));
            }
            let stored = model.weights_in::<f64>();
            let same = stored.shape() == out.model.weights().shape()
                && stored
                    .as_slice()
                    .iter()
                    .zip(out.model.weights().as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                bad.push("checkpoint weights differ from the returned model".to_string());
            }
            bad
        }
    }
}

/// Where `fit` writes the checkpoint of `epoch`.
pub fn checkpoint_path(dir: &Path, epoch: usize) -> PathBuf {
    dir.join(format!("ckpt-{epoch:06}.ep2"))
}

/// Fits at least `MIN_FITS` times, then again while another fit as long
/// as the last one still ends within `seconds`, checking every fit.
pub fn run(spec: &TrainSpec, seed: u64, seconds: f64, scratch: &Path) -> Outcome {
    let (train, val) = (spec.data)(seed);
    let device = (spec.device)();
    let start = Instant::now();
    let mut fits: Vec<FitTimes> = Vec::new();
    let mut val_errors = Vec::new();
    let mut backoffs = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut last_wall = 0.0;
    while fits.len() < MIN_FITS || start.elapsed().as_secs_f64() + last_wall <= seconds {
        let mut cfg = spec.config(seed);
        let dir = scratch.join(format!("ckpt-{}", fits.len()));
        if spec.checkpoint {
            cfg.checkpoint_dir = Some(dir.clone());
        }
        attempted += 1;
        let t0 = Instant::now();
        let result = EigenPro2::new(cfg, device.clone()).fit(&train, Some(&val));
        let wall = t0.elapsed().as_secs_f64();
        last_wall = wall;
        let bad = match &result {
            Err(e) => vec![format!("fit failed: {e}")],
            Ok(out) => {
                fits.push(fit_times(wall, out));
                val_errors.push(out.report.final_val_error.unwrap_or(f64::NAN));
                backoffs.push(out.report.eta_backoffs);
                check_fit(spec, out, spec.checkpoint.then_some(dir.as_path()))
            }
        };
        let _ = std::fs::remove_dir_all(&dir);
        if !bad.is_empty() {
            failed += 1;
            failures.extend(bad);
        }
        if result.is_err() {
            break;
        }
    }
    let setups: Vec<f64> = fits.iter().map(|f| f.setup_s).collect();
    let walls: Vec<f64> = fits.iter().map(|f| f.wall_s).collect();
    let epochs: Vec<f64> = fits.iter().flat_map(|f| f.epoch_s.clone()).collect();
    let epoch_s = stats::median(&epochs);
    let fail_frac = failed as f64 / attempted as f64;
    let target_name = if spec.target_train_mse.is_some() {
        "time_to_target_s"
    } else {
        "time_to_cap_s"
    };
    let report = vec![
        Metric::new("setup_s", stats::median(&setups), "s"),
        Metric::new("epoch_s", epoch_s, "s"),
        Metric::new(target_name, stats::median(&walls), "s"),
        Metric::new("val_error", stats::median(&val_errors), "fraction"),
        Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MB"),
        Metric::new("fail_frac", fail_frac, "fraction"),
    ];
    println!(
        "samples: {} fits, {} epochs; set-up {:.3?} s, fit {:.3?} s, eta backoffs {:?} per fit",
        fits.len(),
        epochs.len(),
        setups,
        walls,
        backoffs
    );
    Outcome {
        attempted,
        failed,
        failures,
        report,
        gated: vec![
            Metric::new("setup_s", stats::median(&setups), "s"),
            Metric::new("p50_ms", epoch_s * 1e3, "ms"),
            Metric::new("result_s", stats::median(&walls), "s"),
            Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MB"),
        ],
    }
}
