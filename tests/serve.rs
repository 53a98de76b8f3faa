//! Serving-path integration tests: micro-batch formation under bursty
//! arrival (simulated clock — no sleeps), admission shedding at
//! over-budget load, bit-for-bit parity between served and offline
//! predictions at every precision, and worker-panic self-healing.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use eigenpro2::core::KernelModel;
use eigenpro2::device::{MemoryLedger, Precision, ResourceSpec};
use eigenpro2::kernels::{GaussianKernel, Kernel};
use eigenpro2::linalg::Matrix;
use eigenpro2::serve::{AdmissionController, MicroBatcher, ServeConfig, ServeEngine, ServePlan};
use eigenpro2::Scalar;

mod common;
use common::precision_selected;

/// Engine tests share the process-global failpoint registry (every batch
/// execution consults `serve_worker_panic`), so they run serialized.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A bursty arrival trace under a simulated microsecond clock: each event
/// is (arrival time, rows arriving at that instant).
fn replay_batches(batcher: &MicroBatcher, trace: &[(u64, usize)]) -> Vec<(u64, usize)> {
    // (enq_us, rows) per queued request, FIFO.
    let mut queue: std::collections::VecDeque<u64> = Default::default();
    let mut cuts = Vec::new();
    let horizon = trace
        .last()
        .map(|&(t, _)| t + 10 * batcher.window_us)
        .unwrap_or(0);
    let mut trace_iter = trace.iter().peekable();
    for now in 0..=horizon {
        while let Some(&&(t, rows)) = trace_iter.peek() {
            if t > now {
                break;
            }
            trace_iter.next();
            for _ in 0..rows {
                queue.push_back(t);
            }
        }
        while let Some(&oldest) = queue.front() {
            match batcher.ready(queue.len(), oldest, now) {
                Some(take) => {
                    queue.drain(..take);
                    cuts.push((now, take));
                }
                None => break,
            }
        }
    }
    cuts
}

#[test]
fn bursty_arrivals_form_expected_batches() {
    let batcher = MicroBatcher::new(8, 100);
    // A burst of 20 at t=0: two full batches immediately, 4 left waiting.
    // A straggler at t=50 joins them; the window expires at t=100.
    // A lone request at t=500 waits out its own window.
    let cuts = replay_batches(&batcher, &[(0, 20), (50, 1), (500, 1)]);
    assert_eq!(cuts, vec![(0, 8), (0, 8), (100, 5), (600, 1)]);
}

#[test]
fn quiet_period_holds_no_batch() {
    let batcher = MicroBatcher::new(8, 100);
    assert!(replay_batches(&batcher, &[]).is_empty());
}

#[test]
fn sustained_overload_cuts_only_full_batches() {
    let batcher = MicroBatcher::new(16, 1_000);
    // 64 rows at once: four full batches, no window-expired stragglers.
    let cuts = replay_batches(&batcher, &[(0, 64)]);
    assert_eq!(cuts, vec![(0, 16); 4]);
    assert!(cuts.iter().all(|&(t, _)| t == 0));
}

#[test]
fn admission_sheds_exactly_past_the_budget() {
    // 150 µs/row estimate, 1 ms budget: 6 queued rows (900 µs) admit, 7
    // (1050 µs) shed — and the empty queue always admits.
    let c = AdmissionController::new(1_000, 150.0);
    assert!(c.admit(0).is_ok());
    assert!(c.admit(6).is_ok());
    let shed = c.admit(7).unwrap_err();
    assert_eq!(shed.est_wait_us, 1_050);
    assert_eq!(shed.budget_us, 1_000);
}

fn test_model<S: Scalar>(n: usize, d: usize, l: usize) -> Arc<KernelModel<S>> {
    let kernel: Arc<dyn Kernel<S>> = Arc::new(GaussianKernel::new(2.0));
    let centers = Matrix::from_fn(n, d, |i, j| {
        S::from_f64(((i * 31 + j * 17) % 23) as f64 * 0.07)
    });
    let weights = Matrix::from_fn(n, l, |i, j| S::from_f64((i + j) as f64 * 0.11 - 1.5));
    Arc::new(KernelModel::from_weights(kernel, centers, weights))
}

fn engine_with<S: Scalar>(
    model: Arc<KernelModel<S>>,
    config: &ServeConfig,
    precision: Precision,
) -> ServeEngine<S> {
    let spec = ResourceSpec::scaled_virtual_gpu();
    let plan = ServePlan::plan(
        model.n_centers(),
        model.dim(),
        model.n_outputs(),
        &spec,
        precision,
        config,
    );
    let ledger = MemoryLedger::new(spec.memory_floats);
    ServeEngine::new(model, plan, &ledger).expect("serve plan fits the ledger")
}

/// Submits `k` rows while the (single, long-window) worker is held off,
/// then lets the engine drain; returns the replies keyed by request id.
fn serve_rows<S: Scalar>(engine: &ServeEngine<S>, rows: &Matrix<S>) -> HashMap<String, Vec<S>> {
    let replies: Mutex<HashMap<String, Vec<S>>> = Mutex::new(HashMap::new());
    let sink = |id: &str, out: &[S]| {
        replies.lock().unwrap().insert(id.to_string(), out.to_vec());
    };
    engine.run(&sink, || {
        for i in 0..rows.rows() {
            engine
                .submit(&format!("r{i}"), rows.row(i))
                .expect("within budget");
        }
    });
    replies.into_inner().unwrap()
}

fn served_matches_offline_bitwise<S: Scalar>(precision: Precision) {
    let _g = lock();
    let (n, d, l, k) = (120, 7, 3, 33);
    let model = test_model::<S>(n, d, l);
    let x = Matrix::from_fn(k, d, |i, j| {
        S::from_f64(((i * 13 + j * 5) % 19) as f64 * 0.09)
    });
    // One worker and a window far longer than the submit loop: all k
    // requests coalesce into a single drain batch in submission order, so
    // the served batch matrix is exactly `x`.
    let config = ServeConfig {
        batch_rows: Some(k),
        window_us: Some(5_000_000),
        workers: Some(1),
        ..Default::default()
    };
    let engine = engine_with(model.clone(), &config, precision);
    let replies = serve_rows(&engine, &x);
    assert_eq!(replies.len(), k);
    assert_eq!(engine.stats().served, k as u64);

    let offline = model.predict_with(&x, &engine.plan().opts);
    for i in 0..k {
        let served = &replies[&format!("r{i}")];
        assert_eq!(served.len(), l);
        for (j, (s, o)) in served.iter().zip(offline.row(i)).enumerate() {
            assert_eq!(
                s.to_f64().to_bits(),
                o.to_f64().to_bits(),
                "row {i} output {j}: served {} vs offline {}",
                s.to_f64(),
                o.to_f64()
            );
        }
    }
}

#[test]
fn served_equals_offline_bitwise_f32() {
    if precision_selected(Precision::F32) {
        served_matches_offline_bitwise::<f32>(Precision::F32);
    }
}

#[test]
fn served_equals_offline_bitwise_f64() {
    if precision_selected(Precision::F64) {
        served_matches_offline_bitwise::<f64>(Precision::F64);
    }
}

#[test]
fn served_equals_offline_bitwise_bf16() {
    if precision_selected(Precision::Bf16) {
        served_matches_offline_bitwise::<eigenpro2::linalg::Bf16>(Precision::Bf16);
    }
}

#[test]
fn over_budget_load_is_shed_with_busy() {
    let _g = lock();
    let model = test_model::<f32>(80, 5, 2);
    // Zero latency budget: the first request (empty queue) always admits,
    // everything that queues behind it sheds. The huge window keeps the
    // worker from draining mid-test.
    let config = ServeConfig {
        batch_rows: Some(64),
        window_us: Some(5_000_000),
        latency_budget_us: Some(0),
        workers: Some(1),
    };
    let engine = engine_with(model, &config, Precision::F32);
    let row: Vec<f32> = vec![0.25; 5];
    let mut sheds = Vec::new();
    let ok: Mutex<u64> = Mutex::new(0);
    let sink = |_id: &str, _out: &[f32]| *ok.lock().unwrap() += 1;
    engine.run(&sink, || {
        assert!(engine.submit("first", &row).is_ok(), "empty queue admits");
        for i in 0..5 {
            match engine.submit(&format!("flood{i}"), &row) {
                Ok(()) => {}
                Err(shed) => sheds.push(shed),
            }
        }
    });
    assert!(!sheds.is_empty(), "over-budget load was never shed");
    assert!(sheds.iter().all(|s| s.budget_us == 0 && s.est_wait_us > 0));
    let st = engine.stats();
    assert_eq!(st.shed, sheds.len() as u64);
    // Every admitted request was still served on drain.
    assert_eq!(st.served + st.shed, 6);
    assert_eq!(*ok.lock().unwrap(), st.served);
}

#[test]
fn worker_panic_failpoint_loses_no_request() {
    let _g = lock();
    let model = test_model::<f64>(60, 4, 2);
    let k = 9;
    let x = Matrix::from_fn(k, 4, |i, j| ((i * 7 + j) % 11) as f64 * 0.13);
    let config = ServeConfig {
        batch_rows: Some(k),
        window_us: Some(5_000_000),
        workers: Some(1),
        ..Default::default()
    };
    let engine = engine_with(model.clone(), &config, Precision::F64);
    // Kill the first batch mid-flight; the requeued batch retries as
    // batch 2 with identical composition, so the replies still match
    // offline prediction bit-for-bit.
    let guard = eigenpro2::runtime::faults::arm("serve_worker_panic", Some(1));
    let replies = serve_rows(&engine, &x);
    assert_eq!(
        eigenpro2::runtime::faults::fired("serve_worker_panic"),
        1,
        "failpoint did not fire"
    );
    drop(guard);
    let st = engine.stats();
    assert_eq!(st.recoveries, 1, "panic recovery was not recorded");
    assert_eq!(st.served, k as u64, "a request was lost in recovery");
    let offline = model.predict_with(&x, &engine.plan().opts);
    for i in 0..k {
        for (s, o) in replies[&format!("r{i}")].iter().zip(offline.row(i)) {
            assert_eq!(s.to_bits(), o.to_bits());
        }
    }
}

#[test]
fn non_finite_features_are_refused_at_the_serving_precision() {
    let _g = lock();
    let model = test_model::<f32>(40, 5, 2);
    let config = ServeConfig {
        workers: Some(1),
        ..Default::default()
    };
    let engine = engine_with(model, &config, Precision::F32);
    // NaN, an infinity, and 1e300 (finite in f64, +inf once narrowed to
    // f32) must all be refused; a finite row on the same stream is served.
    let input = "predict 1 0.1,0.2,0.3,0.4,nan\n\
                 predict 2 0.1,0.2,0.3,0.4,1e300\n\
                 predict 3 0.1,0.2,0.3,0.4,-inf\n\
                 predict 4 0.1,0.2,0.3,0.4,0.5\n\
                 shutdown\n";
    let mut out: Vec<u8> = Vec::new();
    eigenpro2::serve::server::serve_lines(&engine, input.as_bytes(), &mut out).unwrap();
    let replies = String::from_utf8(out).unwrap();
    for id in 1..=3 {
        assert!(
            replies
                .lines()
                .any(|l| l.starts_with(&format!("err {id} "))),
            "request {id} was not refused: {replies}"
        );
    }
    let served: Vec<&str> = replies.lines().filter(|l| l.starts_with("ok ")).collect();
    assert_eq!(served.len(), 1, "{replies}");
    assert!(served[0].starts_with("ok 4 "), "{replies}");
    assert_eq!(engine.stats().served, 1);
}

#[test]
fn over_long_line_is_refused_and_the_next_request_served_bitwise() {
    let _g = lock();
    let (d, l) = (5, 2);
    let model = test_model::<f32>(40, d, l);
    let config = ServeConfig {
        workers: Some(1),
        ..Default::default()
    };
    let engine = engine_with(model.clone(), &config, Precision::F32);
    // A 4 MB request line, far past the cap for five features, then a
    // normal request on the same stream.
    let huge = format!("predict big {}", "0.125,".repeat(700_000));
    assert!(huge.len() > 4 << 20);
    let row = [0.1_f32, 0.2, 0.3, 0.4, 0.5];
    let payload: Vec<String> = row.iter().map(|v| v.to_string()).collect();
    let input = format!("{huge}\npredict 7 {}\nshutdown\n", payload.join(","));
    let mut out: Vec<u8> = Vec::new();
    let handled =
        eigenpro2::serve::server::serve_lines(&engine, input.as_bytes(), &mut out).unwrap();
    assert_eq!(handled, 3);
    let replies = String::from_utf8(out).unwrap();
    assert!(
        replies
            .lines()
            .next()
            .is_some_and(|l| l.starts_with("err - line too long")),
        "{replies}"
    );
    let served: Vec<&str> = replies.lines().filter(|l| l.starts_with("ok ")).collect();
    assert_eq!(served.len(), 1, "{replies}");
    let values: Vec<f32> = served[0]
        .strip_prefix("ok 7 ")
        .expect("reply to request 7")
        .split(',')
        .map(|v| v.parse().expect("a float"))
        .collect();
    let offline = model.predict_with(&Matrix::from_vec(1, d, row.to_vec()), &engine.plan().opts);
    assert_eq!(values.len(), l);
    for (s, o) in values.iter().zip(offline.row(0)) {
        assert_eq!(s.to_bits(), o.to_bits());
    }
}
