//! The traced run: the same inputs driven through the public calls of each
//! layer, every call inside a span.
//!
//! Training mirrors `EigenPro2::fit` call for call — Steps 1–2, then per
//! epoch the mini-batch steps, the epoch-end evaluation and the checkpoint —
//! and must reproduce the untraced fit's plan and every epoch's train MSE
//! bit for bit, which the run checks. Serving drives the two offered loads
//! with spans around `submit` and `stats`, one span per request from due
//! time to reply, and times `predict_with_into` at three batch sizes.
//!
//! Every per-layer metric is reported on every workload; one a workload
//! does not exercise reads 0.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ep2_core::autotune::{ADJUST_Q_REL_FLOOR, BETA_SAMPLE, PROBE_EXTRAS, PROBE_ITERS};
use ep2_core::model::PredictOptions;
use ep2_core::persist::{self, TrainerState};
use ep2_core::precond::{probe_cap_for_elements, SubsampleEigens, DEFAULT_DAMPING};
use ep2_core::trainer::{EigenPro2, EpochStats};
use ep2_core::{critical, KernelModel, Preconditioner};
use ep2_data::{metrics, Dataset};
use ep2_device::cost::{self, ProblemShape, StreamThreadPlan};
use ep2_device::{batch, MemoryLedger, Precision, ResidencyMode, StreamedBatchPlan};
use ep2_kernels::{matrix as kmat, Kernel, KernelKind};
use ep2_linalg::{blas, eigen, Matrix};
use ep2_stream::{BlockPlan, StreamEngine};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::json::Metric;
use crate::trace::{self, Tracer};
use crate::train::{self, TrainSpec};
use crate::{openloop, serve, stats, Outcome};

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("linalg.sym_eig_s", "s"),
    ("linalg.gemm_nt_s", "s"),
    ("linalg.gemm_nt_gops", "Gop/s"),
    ("kernels.subsample_kmat_s", "s"),
    ("kernels.assembly_s", "s"),
    ("kernels.assembly_entries_per_s", "1/s"),
    ("kernels.profile_s", "s"),
    ("core.plan_s", "s"),
    ("core.precond.beta_s", "s"),
    ("core.precond.probe_s", "s"),
    ("core.step_s", "s"),
    ("core.update_s", "s"),
    ("core.precond.correction_s", "s"),
    ("core.epoch_eval_s", "s"),
    ("core.persist.checkpoint_s", "s"),
    ("core.persist.checkpoint_bytes", "bytes"),
    ("core.persist.load_s", "s"),
    ("core.predict_batch_ms.b1", "ms"),
    ("core.predict_batch_ms.b16", "ms"),
    ("core.predict_batch_ms.cap", "ms"),
    ("core.eta_backoffs", "count"),
    ("core.val_error", "fraction"),
    ("stream.consumer_wait_s", "s"),
    ("stream.consumer_busy_s", "s"),
    ("stream.wait_share", "fraction"),
    ("stream.step_streamed_s", "s"),
    ("stream.tiles", "count"),
    ("stream.producers", "count"),
    ("stream.recoveries", "count"),
    ("device.ledger_peak_slots", "slots"),
    ("device.budget_slots", "slots"),
    ("device.cost.assembly_ops", "ops"),
    ("device.cost.update_ops", "ops"),
    ("device.cost.correction_ops", "ops"),
    ("device.cost.assembly_gops", "Gop/s"),
    ("device.cost.update_gops", "Gop/s"),
    ("device.cost.correction_gops", "Gop/s"),
    ("serve.submit_us.p50", "us"),
    ("serve.submit_us.p99", "us"),
    ("serve.batches", "count"),
    ("serve.batch_rows_mean", "rows"),
    ("serve.shed", "count"),
    ("serve.recoveries", "count"),
    ("serve.stats_call_us.p99", "us"),
    ("serve.engine_new_s", "s"),
    ("serve.gen_late_us.p99", "us"),
    ("self_s.bench", "s"),
    ("self_s.core", "s"),
    ("self_s.device", "s"),
    ("self_s.kernels", "s"),
    ("self_s.linalg", "s"),
    ("self_s.serve", "s"),
    ("self_s.stream", "s"),
    ("trace.setup_s", "s"),
    ("trace.epoch_s", "s"),
    ("trace.setup_vs_untraced", "ratio"),
    ("trace.epoch_vs_untraced", "ratio"),
    ("trace.setup_coverage", "fraction"),
    ("trace.epoch_coverage", "fraction"),
    ("sanity.sym_eig_share_of_setup", "fraction"),
    ("sanity.eval_share_of_epoch", "fraction"),
    ("sanity.b1_over_cap_row", "ratio"),
];

type Values = BTreeMap<&'static str, f64>;

pub fn run(workload: &str, seed: u64, seconds: f64, scratch: &Path, out_dir: &Path) -> Outcome {
    let tracer = Tracer::default();
    let mut values = Values::new();
    let mut outcome = match workload {
        "timit-incore-f32" => train_traced(&train::timit(), seed, scratch, &tracer, &mut values),
        "susy-streamed-f32" => train_traced(&train::susy(), seed, scratch, &tracer, &mut values),
        _ => serve_traced(seed, seconds, scratch, &tracer, &mut values),
    };
    let spans = tracer.spans();
    for (layer, t) in trace::layer_self_times(&spans) {
        if let Some((name, _)) = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_prefix("self_s.") == Some(layer))
        {
            values.insert(name, t);
        }
    }
    let path = out_dir.join(format!("trace-{workload}-seed{seed}.json"));
    match tracer.write(&path) {
        Ok(()) => println!("trace: {} spans written to {}", spans.len(), path.display()),
        Err(e) => println!("trace: could not write {}: {e}", path.display()),
    }
    outcome.report = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    outcome
}

/// Per-epoch sum of the spans named `name` under each `bench.epoch` span.
fn per_epoch(spans: &[trace::Span], name: &str) -> Vec<f64> {
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "bench.epoch")
        .collect();
    let mut sums = vec![0.0; roots.len()];
    for s in spans.iter().filter(|s| s.name == name) {
        let mut at = s.parent;
        while let Some(p) = at {
            if let Some(k) = roots.iter().position(|&r| r == p) {
                sums[k] += s.seconds();
                break;
            }
            at = spans[p].parent;
        }
    }
    sums
}

/// Steps 1–2 as `autotune::plan`/`plan_streamed` make them, with the
/// setup transients clamped to the device in streamed mode.
struct Planned {
    m: usize,
    s: usize,
    q: usize,
    eta: f64,
    precond: Option<Preconditioner<f32>>,
    splan: Option<StreamedBatchPlan>,
    threads: Option<StreamThreadPlan>,
}

fn plan_traced(
    spec: &TrainSpec,
    kernel: &Arc<dyn Kernel<f32>>,
    x: &Matrix<f32>,
    l: usize,
    seed: u64,
    tracer: &Tracer,
) -> Planned {
    let device = (spec.device)();
    let (n, d) = (x.rows(), x.cols());
    let splan = (spec.residency == ResidencyMode::Streamed).then(|| {
        tracer.time("device.plan_streamed", || {
            batch::max_batch_streamed_planned(
                &device,
                n,
                d,
                l,
                Precision::F32,
                None,
                None,
                ep2_runtime::current_threads(),
            )
            .expect("the streamed plan fits the device")
        })
    });
    let _plan = tracer.span("core.plan");
    let (m, setup_elements) = match &splan {
        Some(sp) => (sp.m, Some(device.memory_slots(Precision::F32))),
        None => (
            tracer.time("device.max_batch", || {
                batch::max_batch_with(&device, n, d, l, Precision::F32)
                    .batch
                    .clamp(1, n)
            }),
            None,
        ),
    };
    let s = spec.subsample.clamp(1, n);
    let (indices, centers) = tracer.time("core.precond.subsample", || {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
        idx.truncate(s);
        idx.sort_unstable();
        let centers = x.select_rows(&idx);
        (idx, centers)
    });
    let ks = tracer.time("kernels.subsample_kmat", || {
        kmat::kernel_matrix(kernel.as_ref(), &centers)
    });
    let (values, vectors) = tracer.time("linalg.sym_eig", || {
        let dec = eigen::sym_eig_f64(&ks).expect("the subsample eigensolve converges");
        (dec.values, dec.vectors.cast::<f32>())
    });
    drop(ks);
    let eig = SubsampleEigens {
        indices,
        centers,
        values,
        vectors,
    };
    let (q, precond) = tracer.time("core.precond.build", || {
        let q_cap = (s / 4).max(1).min(eig.values.len().saturating_sub(2));
        let q_eq7 = critical::select_q(&eig.values, s, m).min(q_cap);
        let q = critical::adjust_q(&eig.values, s, q_eq7, ADJUST_Q_REL_FLOOR).min(q_cap);
        let beta = kernel.of_sq_dist(0.0) as f64;
        let lambda1 = eig.lambda(0);
        let precond = (q > 0).then(|| {
            Preconditioner::from_eigens_damped(eig, q, DEFAULT_DAMPING)
                .expect("the adjusted q is within the spectrum")
        });
        (q, precond.ok_or((beta, lambda1)))
    });
    let (beta_g, lambda1_g, precond) = match precond {
        Err((beta, lambda1)) => (beta, lambda1, None),
        Ok(p) => {
            let beta_sample = setup_elements.map_or(BETA_SAMPLE, |e| {
                BETA_SAMPLE.min(((e / s.max(1) as f64) as usize).max(1))
            });
            let beta_g = tracer.time("core.precond.beta", || {
                p.beta_estimate(kernel, x, beta_sample, seed)
            });
            let probe_cap = setup_elements.map_or(usize::MAX, probe_cap_for_elements);
            let probe = (s + PROBE_EXTRAS).min(n).min(probe_cap.max(s));
            let probed = tracer.time("core.precond.probe", || {
                p.probe_lambda_max(kernel, x, probe, PROBE_ITERS, seed)
            });
            (beta_g, p.lambda1_preconditioned().max(probed), Some(p))
        }
    };
    let eta = critical::optimal_step_size(m, beta_g, lambda1_g);
    let threads = splan.as_ref().map(|sp| {
        tracer.time("device.partition_threads", || {
            let shape = ProblemShape { n, m, d, l, s, q };
            let max_producers = sp.tiles_in_flight.saturating_sub(1).max(1);
            let total = ep2_runtime::current_threads();
            let tp = cost::partition_stream_threads(&shape, sp.n_tile, total, None);
            if tp.producers > max_producers {
                cost::partition_stream_threads(&shape, sp.n_tile, total, Some(max_producers))
            } else {
                tp
            }
        })
    });
    Planned {
        m,
        s,
        q,
        eta,
        precond,
        splan,
        threads,
    }
}

/// Splitmix64 over `(seed, epoch)`, the per-epoch shuffle seed `fit` uses.
fn epoch_seed(seed: u64, epoch: u64) -> u64 {
    let mut z = seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The training state one mirrored step updates.
struct Learner<'a> {
    model: KernelModel<f32>,
    precond: Option<&'a Preconditioner<f32>>,
    eta: f64,
    targets: &'a Matrix<f32>,
}

impl Learner<'_> {
    /// Residual, sampled-block update and preconditioner correction: the
    /// tail of Algorithm 1's step, given the batch predictions and Φ.
    fn finish(
        &mut self,
        batch: &[usize],
        f: Matrix<f32>,
        phi: Option<Matrix<f32>>,
        tracer: &Tracer,
    ) {
        let m = batch.len();
        let scale = (self.eta * 2.0 / m as f64) as f32;
        let g = tracer.time("core.update", || {
            let mut g = f;
            for (bi, &idx) in batch.iter().enumerate() {
                for (c, v) in g.row_mut(bi).iter_mut().enumerate() {
                    *v -= self.targets[(idx, c)];
                }
            }
            for (bi, &idx) in batch.iter().enumerate() {
                let w_row = self.model.weights_mut().row_mut(idx);
                for (w, &gv) in w_row.iter_mut().zip(g.row(bi)) {
                    *w -= scale * gv;
                }
            }
            g
        });
        if let (Some(p), Some(phi)) = (self.precond, phi) {
            tracer.time("core.precond.correction", || {
                let correction = p.apply_correction(&phi, &g);
                for (j, &idx) in p.subsample_indices().iter().enumerate() {
                    let w_row = self.model.weights_mut().row_mut(idx);
                    for (w, &cv) in w_row.iter_mut().zip(correction.row(j)) {
                        *w += scale * cv;
                    }
                }
            });
        }
    }

    fn step(&mut self, batch: &[usize], tracer: &Tracer) {
        let _g = tracer.span("core.step");
        let k_block = tracer.time("kernels.assembly", || {
            let bx = self.model.centers().select_rows(batch);
            kmat::kernel_cross(self.model.kernel().as_ref(), &bx, self.model.centers())
        });
        let f = tracer.time("core.predict_block", || {
            self.model.predict_from_kernel_block(&k_block)
        });
        let phi = self.precond.map(|p| {
            tracer.time("core.phi_gather", || {
                let sub = p.subsample_indices();
                let mut phi = Matrix::zeros(batch.len(), p.s());
                for bi in 0..batch.len() {
                    let src = k_block.row(bi);
                    for (dst, &cj) in phi.row_mut(bi).iter_mut().zip(sub) {
                        *dst = src[cj];
                    }
                }
                phi
            })
        });
        self.finish(batch, f, phi, tracer);
    }

    fn step_streamed<I>(&mut self, batch: &[usize], mut tiles: I, tracer: &Tracer)
    where
        I: Iterator<Item = ep2_stream::TileGuard<f32>>,
    {
        let _g = tracer.span("core.step");
        let (m, l) = (batch.len(), self.model.n_outputs());
        let mut f = Matrix::zeros(m, l);
        let sub: Vec<usize> = self
            .precond
            .map(|p| p.subsample_indices().to_vec())
            .unwrap_or_default();
        let mut phi = self.precond.map(|p| Matrix::zeros(m, p.s()));
        loop {
            let Some(tile) = tracer.time("stream.consumer_wait", || tiles.next()) else {
                break;
            };
            tracer.time("core.tile_update", || {
                let range = tile.col_range();
                let w = self
                    .model
                    .weights()
                    .submatrix(range.start, 0, range.len(), l);
                blas::gemm(1.0, tile.block(), &w, 1.0, &mut f);
                if let Some(phi) = phi.as_mut() {
                    for (j, &cj) in sub.iter().enumerate() {
                        if range.contains(&cj) {
                            for bi in 0..m {
                                phi[(bi, j)] = tile.block()[(bi, cj - range.start)];
                            }
                        }
                    }
                }
            });
        }
        self.finish(batch, f, phi, tracer);
    }
}

/// The untraced fit the traced one is compared with.
struct Reference {
    times: train::FitTimes,
    mse: Vec<f64>,
    m: usize,
    s: usize,
    q: usize,
    eta: f64,
}

fn train_traced(
    spec: &TrainSpec,
    seed: u64,
    scratch: &Path,
    tracer: &Tracer,
    v: &mut Values,
) -> Outcome {
    let (train_set, val_set) = (spec.data)(seed);
    let mut outcome = Outcome::default();

    // Untraced reference fit: its checks count like any fit's.
    let dir = scratch.join("ckpt-ref");
    let mut cfg = spec.config(seed);
    if spec.checkpoint {
        cfg.checkpoint_dir = Some(dir.clone());
    }
    let t0 = Instant::now();
    let fitted = EigenPro2::new(cfg, (spec.device)()).fit(&train_set, Some(&val_set));
    let wall = t0.elapsed().as_secs_f64();
    outcome.attempted += 1;
    let reference = match fitted {
        Err(e) => {
            outcome.failed += 1;
            outcome.failures.push(format!("reference fit failed: {e}"));
            return outcome;
        }
        Ok(out) => {
            let bad = train::check_fit(spec, &out, spec.checkpoint.then_some(dir.as_path()));
            if !bad.is_empty() {
                outcome.failed += 1;
                outcome.failures.extend(bad);
            }
            let r = &out.report;
            v.insert("device.ledger_peak_slots", r.peak_slots);
            v.insert("device.budget_slots", r.budget_slots);
            v.insert("stream.recoveries", r.stream_recoveries as f64);
            v.insert("core.eta_backoffs", f64::from(r.eta_backoffs));
            v.insert("core.val_error", r.final_val_error.unwrap_or(f64::NAN));
            Reference {
                times: train::fit_times(wall, &out),
                mse: r.epochs.iter().map(|e| e.train_mse).collect(),
                m: r.params.m,
                s: r.params.s,
                q: r.params.adjusted_q,
                eta: r.params.eta,
            }
        }
    };
    let _ = std::fs::remove_dir_all(&dir);

    // The traced mirror.
    outcome.attempted += 1;
    let mirror = mirror_fit(spec, seed, &train_set, &val_set, scratch, tracer, v);
    let mut bad = Vec::new();
    if (mirror.m, mirror.s, mirror.q, mirror.eta.to_bits())
        != (
            reference.m,
            reference.s,
            reference.q,
            reference.eta.to_bits(),
        )
    {
        bad.push(format!(
            "traced plan (m {}, s {}, q {}, eta {}) differs from fit's (m {}, s {}, q {}, eta {})",
            mirror.m,
            mirror.s,
            mirror.q,
            mirror.eta,
            reference.m,
            reference.s,
            reference.q,
            reference.eta
        ));
    }
    if mirror
        .mse
        .iter()
        .map(|x| x.to_bits())
        .ne(reference.mse.iter().map(|x| x.to_bits()))
    {
        bad.push(format!(
            "traced epochs' train MSE {:?} differ from fit's {:?}",
            mirror.mse, reference.mse
        ));
    }
    if !bad.is_empty() {
        outcome.failed += 1;
        outcome.failures.extend(bad);
    }

    let spans = tracer.spans();
    let setup = trace::total(&spans, "bench.setup");
    let epoch = stats::median(&trace::durations(&spans, "bench.epoch"));
    let untraced_epoch = stats::median(&reference.times.epoch_s);
    v.insert("trace.setup_s", setup);
    v.insert("trace.epoch_s", epoch);
    v.insert("trace.setup_vs_untraced", setup / reference.times.setup_s);
    v.insert("trace.epoch_vs_untraced", epoch / untraced_epoch);
    v.insert(
        "trace.setup_coverage",
        trace::coverage(&spans, "bench.setup"),
    );
    v.insert(
        "trace.epoch_coverage",
        trace::coverage(&spans, "bench.epoch"),
    );
    for (metric, span) in [
        ("linalg.sym_eig_s", "linalg.sym_eig"),
        ("kernels.subsample_kmat_s", "kernels.subsample_kmat"),
        ("core.plan_s", "core.plan"),
        ("core.precond.beta_s", "core.precond.beta"),
        ("core.precond.probe_s", "core.precond.probe"),
    ] {
        v.insert(metric, trace::total(&spans, span));
    }
    let med = |name| stats::median(&per_epoch(&spans, name));
    let step = med("core.step");
    let correction = med("core.precond.correction");
    let wait = med("stream.consumer_wait");
    let eval = med("core.epoch_eval");
    v.insert("core.step_s", step);
    v.insert("core.precond.correction_s", correction);
    v.insert("core.epoch_eval_s", eval);
    v.insert("core.persist.checkpoint_s", med("core.persist.checkpoint"));
    // In core, assembly runs inside the step; streamed, on the producers.
    let in_core = spec.residency == ResidencyMode::InCore;
    let assembly = if in_core {
        med("kernels.assembly")
    } else {
        v.insert("stream.consumer_wait_s", wait);
        v.insert("stream.consumer_busy_s", step - wait);
        v.insert("stream.step_streamed_s", step);
        v.insert("stream.wait_share", wait / step);
        v["kernels.assembly_s"]
    };
    let update = step - if in_core { assembly } else { 0.0 } - correction - wait;
    v.insert("kernels.assembly_s", assembly);
    v.insert("core.update_s", update);
    v.insert("kernels.profile_s", assembly - v["linalg.gemm_nt_s"]);
    v.insert(
        "kernels.assembly_entries_per_s",
        (train_set.len() * train_set.len()) as f64 / assembly,
    );
    for (ops, gops, secs) in [
        (
            "device.cost.assembly_ops",
            "device.cost.assembly_gops",
            assembly,
        ),
        ("device.cost.update_ops", "device.cost.update_gops", update),
        (
            "device.cost.correction_ops",
            "device.cost.correction_gops",
            correction,
        ),
    ] {
        v.insert(gops, v[ops] / secs * 1e-9);
    }
    v.insert(
        "sanity.sym_eig_share_of_setup",
        v["linalg.sym_eig_s"] / setup,
    );
    v.insert("sanity.eval_share_of_epoch", eval / epoch);
    println!(
        "untraced reference: setup {:.3} s, epoch {untraced_epoch:.3} s; traced: setup \
         {setup:.3} s, epoch {epoch:.3} s",
        reference.times.setup_s
    );
    outcome
}

/// What the mirrored fit produced, to compare with the untraced fit.
struct Mirror {
    m: usize,
    s: usize,
    q: usize,
    eta: f64,
    mse: Vec<f64>,
}

fn mirror_fit(
    spec: &TrainSpec,
    seed: u64,
    train_set: &Dataset,
    val_set: &Dataset,
    scratch: &Path,
    tracer: &Tracer,
    v: &mut Values,
) -> Mirror {
    let (n, d, l) = (train_set.len(), train_set.dim(), train_set.targets.cols());
    let device = (spec.device)();
    let kernel: Arc<dyn Kernel<f32>> = KernelKind::Gaussian.with_bandwidth_in::<f32>(5.0).into();
    let ledger = MemoryLedger::new(device.memory_floats);

    let setup = tracer.span("bench.setup");
    let (x, y, val_x) = tracer.time("core.cast", || {
        (
            Arc::new(train_set.features.cast::<f32>()),
            train_set.targets.cast::<f32>(),
            val_set.features.cast::<f32>(),
        )
    });
    let plan = plan_traced(spec, &kernel, &x, l, seed, tracer);
    let m = plan.m;
    let (_residency, mut engine) = match (&plan.splan, plan.threads) {
        (Some(sp), Some(tp)) => {
            let _g = tracer.span("stream.engine_new");
            let bplan =
                BlockPlan::from_streamed(n, d, l, sp, Precision::F32).with_stream_threads(tp);
            let guard = ledger
                .alloc(bplan.static_slots())
                .expect("the static streamed slots fit");
            let engine = StreamEngine::new(Arc::clone(&kernel), Arc::clone(&x), bplan, &ledger)
                .expect("the tile ring fits");
            (guard, Some(engine))
        }
        _ => {
            let _g = tracer.span("device.ledger_alloc");
            let slots = ((d + l + m) * n) as f64 * Precision::F32.slot_factor();
            (ledger.alloc(slots).expect("the in-core set fits"), None)
        }
    };
    let mut learner = Learner {
        model: KernelModel::zeros_shared(Arc::clone(&kernel), Arc::clone(&x), l),
        precond: plan.precond.as_ref(),
        eta: plan.eta,
        targets: &y,
    };
    drop(setup);

    let eval_opts = match &plan.splan {
        Some(sp) => PredictOptions::new()
            .block_rows(m.max(1))
            .col_tile(sp.n_tile),
        None => PredictOptions::default(),
    };
    let k64: Arc<dyn Kernel> = KernelKind::Gaussian.with_bandwidth(5.0).into();
    let mut history: Vec<EpochStats> = Vec::new();
    let mut prev_mse = f64::INFINITY;
    let mut backoffs = 0u32;
    let mut last_good: Option<Matrix<f32>> = None;
    let mut first_batches: Vec<Vec<usize>> = Vec::new();
    let mut ckpt_bytes = 0u64;
    for epoch in 1..=spec.epochs {
        let _epoch = tracer.span("bench.epoch");
        let indices = tracer.time("core.shuffle", || {
            let mut idx: Vec<usize> = (0..n).collect();
            idx.shuffle(&mut StdRng::seed_from_u64(epoch_seed(seed, epoch as u64)));
            idx
        });
        let batches: Vec<&[usize]> = indices.chunks(m).collect();
        if epoch == 1 {
            first_batches = batches.iter().map(|b| b.to_vec()).collect();
        }
        match engine.as_mut() {
            None => {
                for b in &batches {
                    learner.step(b, tracer);
                }
            }
            Some(engine) => {
                let _g = tracer.span("stream.run_epoch");
                engine.run_epoch(&batches, |bi, tiles| {
                    learner.step_streamed(batches[bi], tiles, tracer)
                });
            }
        }
        let (train_mse, val_error) = tracer.time("core.epoch_eval", || {
            let pred = learner
                .model
                .predict_with(learner.model.centers(), &eval_opts);
            let train_mse = metrics::mse(&pred, &train_set.targets);
            let pred = learner.model.predict_with(&val_x, &eval_opts);
            (
                train_mse,
                metrics::classification_error(&pred, &val_set.labels),
            )
        });
        // The divergence safeguard, as `fit` applies it.
        if train_mse > prev_mse * 1.2 && backoffs < 16 {
            learner.eta *= 0.5;
            backoffs += 1;
            if !train_mse.is_finite() || train_mse > 100.0 {
                let w = learner.model.weights_mut().as_mut_slice();
                match &last_good {
                    Some(good) => w.copy_from_slice(good.as_slice()),
                    None => w.fill(0.0),
                }
            }
        }
        let healthy = train_mse.is_finite() && train_mse <= 100.0;
        prev_mse = train_mse.min(prev_mse);
        history.push(EpochStats {
            epoch,
            train_mse,
            val_error: Some(val_error),
            simulated_seconds: 0.0,
            wall_seconds: 0.0,
        });
        let stop = spec.target_train_mse.is_some_and(|t| train_mse <= t);
        if healthy {
            last_good = Some(learner.model.weights().clone());
            if spec.checkpoint {
                let _g = tracer.span("core.persist.checkpoint");
                let state = TrainerState {
                    epochs_done: epoch as u64,
                    eta: learner.eta,
                    eta_backoffs: backoffs,
                    rollbacks: 0,
                    best_val: f64::INFINITY,
                    since_best: 0,
                    prev_mse,
                    sgd_ops: 0.0,
                    precond_ops: 0.0,
                    iterations: 0,
                    simulated_seconds: 0.0,
                    sim_launches: 0,
                    sim_total_ops: 0.0,
                    plan_fingerprint: 0,
                    precision: Precision::F32,
                    history: history.clone(),
                };
                let snapshot = KernelModel::from_weights(
                    Arc::clone(&k64),
                    train_set.features.clone(),
                    learner.model.weights().cast(),
                );
                let path = train::checkpoint_path(scratch, epoch);
                persist::save_checkpoint(&snapshot, &state, &path)
                    .expect("the scratch directory is writable");
                ckpt_bytes = std::fs::metadata(&path).map_or(0, |md| md.len());
            }
        }
        if stop {
            break;
        }
    }
    v.insert("core.persist.checkpoint_bytes", ckpt_bytes as f64);

    // Probes outside the epoch spans, on the first epoch's batch shapes:
    // the d² cross-term GEMM alone, and (streamed) serial tile assembly at
    // the producer's thread budget.
    let centers = Arc::clone(&x);
    let tile = plan.splan.as_ref().map_or(n, |sp| sp.n_tile);
    let tile_threads = plan
        .threads
        .map_or(ep2_runtime::current_threads(), |t| t.producer_threads);
    let blocks: Vec<Matrix<f32>> = (0..n)
        .step_by(tile)
        .map(|c0| centers.submatrix(c0, 0, tile.min(n - c0), d))
        .collect();
    let (mut gemm_s, mut asm_s, mut gemm_ops) = (0.0, 0.0, 0.0);
    ep2_runtime::with_budget(tile_threads, || {
        for b in &first_batches {
            let bx = centers.select_rows(b);
            for block in &blocks {
                let mut c = Matrix::zeros(bx.rows(), block.rows());
                let t = Instant::now();
                blas::gemm_nt(-2.0, &bx, block, 0.0, &mut c);
                gemm_s += t.elapsed().as_secs_f64();
                gemm_ops += 2.0 * (bx.rows() * block.rows() * d) as f64;
                if engine.is_some() {
                    let t = Instant::now();
                    let k = kmat::kernel_cross(kernel.as_ref(), &bx, block);
                    asm_s += t.elapsed().as_secs_f64();
                    std::hint::black_box(k);
                }
                std::hint::black_box(&c);
            }
        }
    });
    v.insert("linalg.gemm_nt_s", gemm_s);
    v.insert("linalg.gemm_nt_gops", gemm_ops / gemm_s * 1e-9);
    if engine.is_some() {
        v.insert("kernels.assembly_s", asm_s);
    }

    // The cost model's operation count per epoch, phase by phase.
    let (mut asm_ops, mut upd_ops, mut cor_ops) = (0.0, 0.0, 0.0);
    for b in &first_batches {
        let shape = ProblemShape {
            n,
            m: b.len(),
            d,
            l,
            s: plan.s,
            q: plan.q,
        };
        let streamed = cost::streamed_eigenpro(&shape, tile);
        let correction =
            cost::improved_eigenpro(&shape).compute_ops - cost::sgd(&shape).compute_ops;
        asm_ops += streamed.assembly_ops;
        upd_ops += streamed.update_ops - correction;
        cor_ops += correction;
    }
    v.insert("device.cost.assembly_ops", asm_ops);
    v.insert("device.cost.update_ops", upd_ops);
    v.insert("device.cost.correction_ops", cor_ops);
    if let Some(engine) = &engine {
        v.insert(
            "stream.tiles",
            (engine.plan().n_tiles() * first_batches.len()) as f64,
        );
        v.insert("stream.producers", engine.producers() as f64);
    }
    Mirror {
        m,
        s: plan.s,
        q: plan.q,
        eta: plan.eta,
        mse: history.iter().map(|e| e.train_mse).collect(),
    }
}

fn serve_traced(
    seed: u64,
    seconds: f64,
    scratch: &Path,
    tracer: &Tracer,
    v: &mut Values,
) -> Outcome {
    let path = scratch.join("serve-model.ep2");
    let queries = serve::make_inputs(seed, &path);
    let mut outcome = Outcome::default();

    let t0 = Instant::now();
    let (engine, steps) = {
        let _g = tracer.span("bench.setup");
        serve::setup(&path, &serve::default_config(), Some(tracer))
    };
    v.insert("trace.setup_s", t0.elapsed().as_secs_f64());
    v.insert("core.persist.load_s", steps[0]);
    v.insert("serve.engine_new_s", steps[2]);
    let untraced_setup: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            drop(serve::setup(&path, &serve::default_config(), None));
            t.elapsed().as_secs_f64()
        })
        .collect();
    v.insert(
        "trace.setup_vs_untraced",
        v["trace.setup_s"] / stats::median(&untraced_setup),
    );
    let plan = engine.plan().clone();
    v.insert(
        "device.budget_slots",
        ep2_device::ResourceSpec::scaled_virtual_gpu().memory_floats,
    );
    v.insert(
        "device.ledger_peak_slots",
        plan.resident_slots + plan.workers as f64 * plan.per_worker_slots,
    );

    let cap = plan.batch_rows;
    for (name, rows) in [
        ("core.predict_batch_ms.b1", 1),
        ("core.predict_batch_ms.b16", 16),
        ("core.predict_batch_ms.cap", cap),
    ] {
        let ms = tracer.time("core.predict_probe", || {
            serve::predict_batch_ms(&engine, &queries, rows)
        });
        v.insert(name, ms);
    }
    v.insert(
        "sanity.b1_over_cap_row",
        v["core.predict_batch_ms.b1"] / (v["core.predict_batch_ms.cap"] / cap as f64),
    );
    let expected = engine.model().predict_with(&queries, &plan.opts);
    drop(engine);

    let mut submit = Vec::new();
    let mut stats_calls = Vec::new();
    let (mut batches, mut served, mut shed, mut recoveries) = (0, 0, 0, 0);
    let mut late = Vec::new();
    for (k, rate, share) in [(1u64, serve::LOW_RPS, 0.3), (2, serve::HIGH_RPS, 0.15)] {
        let count = ((rate * share * seconds) as usize).max(1_000);
        let due = openloop::arrivals(rate, count, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k);
        let engine = serve::setup(&path, &serve::default_config(), None).0;
        let phase = {
            let _g = tracer.span("bench.phase");
            serve::run_phase(&engine, &queries, &expected, &due, true, Some(tracer))
        };
        outcome.attempted += phase.sent;
        outcome.failed += phase.failed();
        if phase.missing + phase.wrong > 0 {
            outcome.failures.push(format!(
                "rate {rate}: {} missing and {} wrong replies",
                phase.missing, phase.wrong
            ));
        }
        submit.extend(phase.submit_us);
        stats_calls.extend(phase.stats_call_us);
        late.extend(phase.late_us);
        batches += phase.batches;
        served += phase.served;
        shed += phase.shed;
        recoveries += phase.recoveries;
    }
    v.insert("serve.submit_us.p50", stats::median(&submit));
    v.insert("serve.submit_us.p99", stats::percentile(&submit, 99.0));
    v.insert(
        "serve.stats_call_us.p99",
        stats::percentile(&stats_calls, 99.0),
    );
    v.insert("serve.gen_late_us.p99", stats::percentile(&late, 99.0));
    v.insert("serve.batches", batches as f64);
    v.insert(
        "serve.batch_rows_mean",
        served as f64 / batches.max(1) as f64,
    );
    v.insert("serve.shed", shed as f64);
    v.insert("serve.recoveries", recoveries as f64);
    outcome
}
