//! The open-loop serving workload.
//!
//! A TIMIT-shaped model (n = 8000, d = 440, l = 144: centers from
//! `timit_like`, seeded weights) is saved with `persist::save` and loaded
//! back during set-up. One `ServeEngine<f32>` worker on a one-thread budget
//! answers requests that one generator thread submits on a Poisson
//! schedule, so the process runs two busy threads on two cores. The
//! generator also polls `engine.stats()` every 10 ms, as a monitor would.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ep2_core::{persist, KernelModel, PredictBuffers};
use ep2_data::catalog;
use ep2_device::{MemoryLedger, Precision, ResourceSpec};
use ep2_kernels::{GaussianKernel, Kernel};
use ep2_linalg::Matrix;
use ep2_serve::{ServeConfig, ServeEngine, ServePlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::json::Metric;
use crate::trace::Tracer;
use crate::{openloop, stats, Outcome};

const N: usize = 8_000;
const L: usize = 144;
/// Distinct query rows; request `i` asks for row `i % POOL`.
const POOL: usize = 1_024;
/// The two fixed offered loads, rows per second. Burst drain is 3.9k to
/// 4.5k rows/s on a 2-core x86-64 host, but each batch also pays a fixed
/// cost of about 12 ms that admission control folds into its per-row
/// estimate, so a stall of a shared host makes it shed a few requests even
/// at these rates (and dozens at 500 and 2000 rows/s).
pub const LOW_RPS: f64 = 250.0;
pub const HIGH_RPS: f64 = 1_000.0;
/// The ladder `max_rps_p99` climbs, rows per second.
const LADDER_RPS: [f64; 8] = [
    500.0, 750.0, 1_000.0, 1_500.0, 2_000.0, 2_500.0, 3_000.0, 4_000.0,
];
/// The p99 latency a ladder rate must meet.
const P99_LIMIT_US: f64 = 50_000.0;
/// How often the generator reads `engine.stats()`.
const POLL: Duration = Duration::from_millis(10);
/// How long before a request is due the generator stops sleeping.
const SPIN: Duration = Duration::from_micros(1_500);
/// The shortest wait before a shed request is sent again.
const MIN_BACKOFF: Duration = Duration::from_millis(1);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Bursts per run, each of `BURST_CAPS` batch caps; `result_s` is the
/// median drain time.
const BURSTS: usize = 3;
const BURST_CAPS: usize = 8;

fn device() -> ResourceSpec {
    ResourceSpec::scaled_virtual_gpu()
}

pub fn default_config() -> ServeConfig {
    ServeConfig {
        workers: Some(1),
        ..ServeConfig::default()
    }
}

/// Writes the model made from `seed` to `path` and returns the query rows.
pub fn make_inputs(seed: u64, path: &Path) -> Matrix<f32> {
    let centers = catalog::timit_like(N, seed).features;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
    let weights = Matrix::from_fn(N, L, |_, _| rng.gen_range(-0.01..0.01));
    let kernel: Arc<dyn Kernel> = Arc::new(GaussianKernel::new(5.0));
    let model = KernelModel::from_weights(kernel, centers, weights);
    persist::save(&model, path).expect("the scratch directory is writable");
    catalog::timit_like(POOL, seed ^ 0x9e37).features.cast()
}

/// Set-up as a server pays it: load the model, plan, build the engine.
/// Returns the engine and the seconds each step took.
pub fn setup(
    path: &Path,
    config: &ServeConfig,
    tracer: Option<&Tracer>,
) -> (ServeEngine<f32>, [f64; 3]) {
    let span = |name| tracer.map(|t| t.span(name));
    let t0 = Instant::now();
    let model = {
        let _g = span("core.persist.load");
        let any = persist::load_any(path).expect("the saved model loads");
        Arc::new(any.cast_into::<f32>())
    };
    let t1 = Instant::now();
    let plan = {
        let _g = span("serve.plan");
        ServePlan::plan(N, model.dim(), L, &device(), Precision::F32, config)
    };
    let t2 = Instant::now();
    // The ledger only audits the engine's charge; it need not outlive it.
    let engine = {
        let _g = span("serve.engine_new");
        let ledger = MemoryLedger::new(device().memory_floats);
        ServeEngine::new(model, plan, &ledger).expect("the serve plan fits the device")
    };
    let t3 = Instant::now();
    (
        engine,
        [
            (t1 - t0).as_secs_f64(),
            (t2 - t1).as_secs_f64(),
            (t3 - t2).as_secs_f64(),
        ],
    )
}

/// What one open-loop phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    pub sent: u64,
    /// Submissions admission control refused.
    pub shed: u64,
    /// Requests given up after a shed, never answered.
    pub dropped: u64,
    pub missing: u64,
    pub wrong: u64,
    /// Reply time minus due time, µs, one per answered request.
    pub latency_us: Vec<f64>,
    /// Submit time minus due time, µs.
    pub late_us: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub stats_call_us: Vec<f64>,
    pub backlog_growing: bool,
    pub batches: u64,
    pub served: u64,
    pub recoveries: u64,
    /// First due time to last reply, seconds.
    pub wall_s: f64,
}

impl Phase {
    /// Requests that never got a correct reply.
    pub fn failed(&self) -> u64 {
        self.dropped + self.missing + self.wrong
    }

    /// Meets the p99 limit with no shed, no lost reply and no growing
    /// backlog.
    pub fn meets_limit(&self) -> bool {
        self.shed == 0
            && self.failed() == 0
            && !self.backlog_growing
            && stats::percentile(&self.latency_us, 99.0) <= P99_LIMIT_US
    }
}

/// Drives `due` (ns offsets) through a fresh engine and checks every reply
/// bit for bit against `expected`. With `resubmit`, the generator sends a
/// shed request again after the wait the refusal reports, as a client
/// backing off would, and the request is still timed from its first due
/// time; without it, a shed request is dropped.
pub fn run_phase(
    engine: &ServeEngine<f32>,
    queries: &Matrix<f32>,
    expected: &Matrix<f32>,
    due: &[u64],
    resubmit: bool,
    tracer: Option<&Tracer>,
) -> Phase {
    let count = due.len();
    // Reply time in ns since `t0`, plus one; 0 = no reply yet.
    let replies: Vec<AtomicU64> = (0..count).map(|_| AtomicU64::new(0)).collect();
    let wrong = AtomicU64::new(0);
    let t0 = Instant::now();
    let sink = |id: &str, out: &[f32]| {
        let at = t0.elapsed().as_nanos() as u64 + 1;
        let Ok(i) = id.parse::<usize>() else {
            wrong.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let want = expected.row(i % POOL);
        if out.len() != want.len()
            || out
                .iter()
                .zip(want)
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            wrong.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(slot) = replies.get(i) {
            slot.store(at, Ordering::Relaxed);
        }
    };
    let mut phase = Phase::default();
    let mut outstanding = Vec::new();
    let mut admitted = 0u64;
    engine.run(&sink, || {
        let mut id = String::new();
        let mut next_poll = t0 + POLL;
        // Shed requests waiting to be resubmitted: (when, request).
        let mut retries: BinaryHeap<Reverse<(Instant, usize)>> = BinaryHeap::new();
        let mut next = 0;
        loop {
            // The earliest of the next scheduled request and the next retry.
            let scheduled = due.get(next).map(|&ns| t0 + Duration::from_nanos(ns));
            let (i, due_at, first) = match (scheduled, retries.peek()) {
                (Some(at), Some(&Reverse((r, _)))) if at <= r => (next, at, true),
                (Some(at), None) => (next, at, true),
                (_, Some(_)) => {
                    let Reverse((r, j)) = retries.pop().expect("peeked");
                    (j, r, false)
                }
                (None, None) => break,
            };
            if first {
                next += 1;
            }
            loop {
                let now = Instant::now();
                if now >= due_at {
                    break;
                }
                if now >= next_poll {
                    next_poll += POLL;
                    let c0 = Instant::now();
                    let st = {
                        let _g = tracer.map(|t| t.span("serve.stats_call"));
                        engine.stats()
                    };
                    phase.stats_call_us.push(c0.elapsed().as_secs_f64() * 1e6);
                    outstanding.push(admitted.saturating_sub(st.served) as usize);
                    continue;
                }
                // Sleep while far from due; spin the last stretch, which
                // covers the scheduler's wake-up delay.
                let left = due_at - now;
                if left > SPIN {
                    std::thread::sleep(left - SPIN);
                } else {
                    std::hint::spin_loop();
                }
            }
            id.clear();
            let _ = write!(id, "{i}");
            let s0 = Instant::now();
            let submitted = {
                let _g = tracer.map(|t| t.span_req("serve.submit", i as u64));
                engine.submit(&id, queries.row(i % POOL))
            };
            let s1 = Instant::now();
            if first {
                phase.late_us.push((s0 - due_at).as_secs_f64() * 1e6);
            }
            phase.submit_us.push((s1 - s0).as_secs_f64() * 1e6);
            match submitted {
                Ok(()) => admitted += 1,
                Err(shed) => {
                    phase.shed += 1;
                    if resubmit {
                        // Informed backoff: wait out the estimated excess.
                        let wait = shed.est_wait_us.saturating_sub(shed.budget_us);
                        let wait = Duration::from_micros(wait).max(MIN_BACKOFF);
                        retries.push(Reverse((s1 + wait, i)));
                    } else {
                        phase.dropped += 1;
                    }
                }
            }
        }
    });
    let st = engine.stats();
    let mut last_reply = 0u64;
    for (i, slot) in replies.iter().enumerate() {
        let at = slot.load(Ordering::Relaxed);
        if at == 0 {
            continue;
        }
        let at = at - 1;
        last_reply = last_reply.max(at);
        phase
            .latency_us
            .push(at.saturating_sub(due[i]) as f64 * 1e-3);
        if let Some(t) = tracer {
            t.record(
                "serve.request",
                t0 + Duration::from_nanos(due[i]),
                t0 + Duration::from_nanos(at),
                Some(i as u64),
            );
        }
    }
    phase.sent = count as u64;
    phase.missing = admitted.saturating_sub(phase.latency_us.len() as u64);
    phase.wrong = wrong.load(Ordering::Relaxed);
    phase.backlog_growing = openloop::backlog_growing(&outstanding, engine.plan().batch_rows);
    phase.batches = st.batches;
    phase.served = st.served;
    phase.recoveries = st.recoveries;
    phase.wall_s = (last_reply.saturating_sub(due.first().copied().unwrap_or(0))) as f64 * 1e-9;
    phase
}

/// Median of `SETUPS` set-ups, seconds, and the last engine built.
fn timed_setups(path: &Path) -> (f64, ServeEngine<f32>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        // One engine at a time, as a restarted server holds.
        drop(last.take());
        let t0 = Instant::now();
        let (engine, _) = setup(path, &default_config(), None);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(engine);
    }
    (stats::median(&times), last.expect("SETUPS > 0"))
}

/// Schedule seeds of the phases, all derived from the run seed.
fn phase_seed(seed: u64, phase: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ phase
}

fn fresh(path: &Path, config: &ServeConfig) -> ServeEngine<f32> {
    setup(path, config, None).0
}

pub fn run(seed: u64, seconds: f64, scratch: &Path) -> Outcome {
    let path = scratch.join("serve-model.ep2");
    let queries = make_inputs(seed, &path);
    let (setup_s, engine) = timed_setups(&path);
    let expected = engine.model().predict_with(&queries, &engine.plan().opts);
    let cap = engine.plan().batch_rows;
    drop(engine);

    // Burst drain: the queue is filled at once; no window, no shedding.
    let burst_config = ServeConfig {
        window_us: Some(0),
        latency_budget_us: Some(u64::MAX / 2),
        ..default_config()
    };
    let bursts: Vec<Phase> = (0..BURSTS)
        .map(|_| {
            let engine = fresh(&path, &burst_config);
            run_phase(
                &engine,
                &queries,
                &expected,
                &vec![0; BURST_CAPS * cap],
                false,
                None,
            )
        })
        .collect();
    let drain_s: Vec<f64> = bursts.iter().map(|b| b.wall_s).collect();

    let at_rate = |rate: f64, secs: f64, phase: u64, resubmit: bool| {
        let count = ((rate * secs) as usize).max(1_000);
        let due = openloop::arrivals(rate, count, phase_seed(seed, phase));
        run_phase(
            &fresh(&path, &default_config()),
            &queries,
            &expected,
            &due,
            resubmit,
            None,
        )
    };
    // Clients at the two fixed loads back off and resubmit a shed request;
    // ladder steps drop it, and a step that sheds ends the climb.
    let low = at_rate(LOW_RPS, 0.3 * seconds, 1, true);
    let high = at_rate(HIGH_RPS, 0.15 * seconds, 2, true);
    let mut max_rps = 0.0;
    let (mut ladder_sent, mut ladder_shed, mut ladder_bad) = (0, 0, 0);
    for (k, &rate) in LADDER_RPS.iter().enumerate() {
        let step = at_rate(rate, 0.04 * seconds, 10 + k as u64, false);
        ladder_sent += step.sent;
        ladder_shed += step.shed;
        ladder_bad += step.missing + step.wrong;
        if !step.meets_limit() {
            break;
        }
        max_rps = rate;
    }

    // A request fails when it never gets a correct reply. Ladder rates past
    // capacity shed by design, so only their lost or wrong replies count
    // as failed.
    let phases = bursts.iter().chain([&low, &high]);
    let attempted: u64 = phases.clone().map(|p| p.sent).sum::<u64>() + ladder_sent;
    let failed: u64 = phases.clone().map(Phase::failed).sum::<u64>() + ladder_bad;
    let mut failures = Vec::new();
    for (name, p) in bursts
        .iter()
        .map(|b| ("burst", b))
        .chain([("low", &low), ("high", &high)])
    {
        if p.missing + p.wrong > 0 {
            failures.push(format!(
                "{name}: {} missing and {} wrong replies of {}",
                p.missing, p.wrong, p.sent
            ));
        }
        if p.shed > 0 {
            println!(
                "warning: admission shed {} submissions of {} requests at the {name} \
                 rate; each was resubmitted",
                p.shed, p.sent
            );
        }
        if p.backlog_growing {
            println!("warning: backlog grew at the {name} rate");
        }
    }
    if ladder_bad > 0 {
        failures.push(format!("ladder: {ladder_bad} missing or wrong replies"));
    }

    let mut report = vec![Metric::new("setup_s", setup_s, "s")];
    for (name, p) in [("low", &low), ("high", &high)] {
        report.push(Metric::new(
            format!("lat_p50_us.{name}"),
            stats::median(&p.latency_us),
            "us",
        ));
        if let Some((pct, v)) = stats::supported_tail(&p.latency_us) {
            report.push(Metric::new(
                format!("lat_{}_us.{name}", stats::label(pct)),
                v,
                "us",
            ));
        }
        report.push(Metric::new(format!("shed.{name}"), p.shed as f64, "count"));
        let late = stats::percentile(&p.late_us, 99.0);
        report.push(Metric::new(format!("gen_late_us.p99.{name}"), late, "us"));
        if late > 0.1 * stats::median(&p.latency_us) {
            println!(
                "warning: generator ran late at the {name} rate: p99 {late:.0} us \
                 against a p50 latency of {:.0} us",
                stats::median(&p.latency_us)
            );
        }
    }
    report.extend([
        Metric::new("max_rps_p99", max_rps, "rows/s"),
        Metric::new(
            "burst_rows_per_s",
            (BURST_CAPS * cap) as f64 / stats::median(&drain_s),
            "rows/s",
        ),
        Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MB"),
        Metric::new("fail_frac", failed as f64 / attempted as f64, "fraction"),
    ]);
    println!(
        "samples: {SETUPS} set-ups, {BURSTS} bursts of {} rows, {} low and {} high \
         requests; ladder shed {ladder_shed}; p99 limit {P99_LIMIT_US} us",
        BURST_CAPS * cap,
        low.sent,
        high.sent
    );
    Outcome {
        attempted,
        failed,
        failures,
        report,
        gated: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("p50_ms", stats::median(&low.latency_us) * 1e-3, "ms"),
            Metric::new("result_s", stats::median(&drain_s), "s"),
            Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MB"),
        ],
    }
}

/// Median milliseconds of `predict_with_into` on `rows` query rows under
/// the serve plan's options, over enough calls to fill about a second.
pub fn predict_batch_ms(engine: &ServeEngine<f32>, queries: &Matrix<f32>, rows: usize) -> f64 {
    let model = engine.model();
    let opts = engine.plan().opts;
    assert!(rows <= queries.rows(), "the query pool covers a full batch");
    let x = queries.submatrix(0, 0, rows, queries.cols());
    let mut bufs = PredictBuffers::new();
    let mut out = Matrix::zeros(rows, model.n_outputs());
    model.predict_with_into(&x, &opts, &mut bufs, &mut out);
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 5 || (start.elapsed().as_secs_f64() < 1.0 && times.len() < 200) {
        let t0 = Instant::now();
        model.predict_with_into(&x, &opts, &mut bufs, &mut out);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(&out);
    }
    stats::median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small model and its offline answers. `n·d` and `n·l` exceed
    /// `gemm::SMALL_PRODUCT`, so a one-row batch runs the same GEMM engine
    /// as the offline pass and matches it bit for bit.
    fn small_engine(config: &ServeConfig) -> (ServeEngine<f32>, Matrix<f32>, Matrix<f32>) {
        let (n, d, l) = (4_200, 32, 32);
        let mut rng = StdRng::seed_from_u64(1);
        let mut draw = |rows, cols| -> Matrix<f32> {
            Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0)).cast()
        };
        let kernel: Arc<dyn Kernel<f32>> = Arc::new(GaussianKernel::new(1.0));
        let model = Arc::new(KernelModel::from_weights(kernel, draw(n, d), draw(n, l)));
        let queries = draw(POOL, d);
        let plan = ServePlan::plan(n, d, l, &device(), Precision::F32, config);
        let ledger = MemoryLedger::new(device().memory_floats);
        let engine = ServeEngine::new(model, plan, &ledger).expect("the small model fits");
        let expected = engine.model().predict_with(&queries, &engine.plan().opts);
        (engine, queries, expected)
    }

    /// Under a zero budget admission sheds every request that arrives
    /// behind a queued one.
    #[test]
    fn shed_requests_are_resubmitted_or_dropped() {
        let config = ServeConfig {
            window_us: Some(0),
            latency_budget_us: Some(0),
            ..default_config()
        };
        let due = vec![0; 200];
        let (engine, queries, expected) = small_engine(&config);
        let kept = run_phase(&engine, &queries, &expected, &due, true, None);
        assert!(kept.shed > 0, "a zero budget sheds a burst");
        assert_eq!((kept.dropped, kept.missing, kept.wrong), (0, 0, 0));
        assert_eq!(kept.latency_us.len(), due.len());
        assert!(!kept.meets_limit(), "a phase that shed misses the limit");

        let (engine, queries, expected) = small_engine(&config);
        let dropped = run_phase(&engine, &queries, &expected, &due, false, None);
        assert_eq!(dropped.dropped, dropped.shed);
        assert_eq!(dropped.failed(), dropped.shed);
        assert_eq!(dropped.latency_us.len() as u64, 200 - dropped.shed);
    }
}
