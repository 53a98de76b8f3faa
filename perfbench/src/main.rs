//! The repository benchmark: one command per workload run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `timit-incore-f32`, `susy-streamed-f32`, `serve-open-f32`.
//! An untraced run (`--trace 0`) prints every end-to-end metric of its
//! workload by name and unit, then, as its last line, the JSON result whose
//! metrics are the gated subset defined on every workload. A traced run
//! (`--trace 1`) drives the same inputs through the public calls of each
//! layer inside spans and reports the per-layer metrics instead; its spans
//! are written to `.bench_out/`. The exit code is non-zero when a
//! correctness check fails.

mod json;
mod openloop;
mod serve;
mod stats;
mod trace;
mod traced;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Metric;

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations that failed: fits that failed a check, or requests
    /// dropped, lost or answered wrongly.
    pub failed: u64,
    /// One line per failed correctness check; empty when every output was
    /// correct. A request dropped after a shed fails as an operation but is
    /// no wrong output.
    pub failures: Vec<String>,
    /// Every metric of the workload, printed for people.
    pub report: Vec<Metric>,
    /// The metrics of the result line.
    pub gated: Vec<Metric>,
}

const WORKLOADS: [&str; 3] = ["timit-incore-f32", "susy-streamed-f32", "serve-open-f32"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds: bad value {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host and build a result was measured on.
fn host_line(args: &Args, threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut isa: Vec<&str> = Vec::new();
    if cfg!(target_feature = "avx512f") {
        isa.push("avx512f");
    }
    if cfg!(target_feature = "avx2") {
        isa.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        isa.push("fma");
    }
    if cfg!(target_feature = "neon") {
        isa.push("neon");
    }
    format!(
        "host: nproc={nproc} EP2_THREADS={threads} isa={} rustflags={} commit={} \
         workload={} seed={} seconds={} trace={}",
        if isa.is_empty() {
            "baseline".to_string()
        } else {
            isa.join(",")
        },
        json::string(env!("PERFBENCH_RUSTFLAGS")),
        env!("PERFBENCH_COMMIT"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

/// Threads each workload runs under: the training workloads use both
/// cores; the serve engine gets one, the request generator the other.
fn threads_for(workload: &str) -> usize {
    if workload == "serve-open-f32" {
        1
    } else {
        2
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = threads_for(&args.workload);
    // Before any call into the workspace: the runtime reads its budget once.
    std::env::set_var("EP2_THREADS", threads.to_string());
    println!("{}", host_line(&args, threads));

    let out_dir = PathBuf::from(".bench_out");
    let scratch = out_dir.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let outcome = if args.trace {
        traced::run(&args.workload, args.seed, args.seconds, &scratch, &out_dir)
    } else {
        match args.workload.as_str() {
            "timit-incore-f32" => train::run(&train::timit(), args.seed, args.seconds, &scratch),
            "susy-streamed-f32" => train::run(&train::susy(), args.seed, args.seconds, &scratch),
            _ => serve::run(args.seed, args.seconds, &scratch),
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);

    for m in &outcome.report {
        println!(
            "{:<34} {:>16} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    for f in &outcome.failures {
        println!("check failed: {f}");
    }
    let metrics = if args.trace {
        &outcome.report
    } else {
        &outcome.gated
    };
    let correct = outcome.failures.is_empty()
        && outcome.attempted > 0
        && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "checks: {} ({} failed of {} attempted)",
        if correct { "ok" } else { "FAILED" },
        outcome.failed,
        outcome.attempted
    );
    println!(
        "{}",
        json::result_line(correct, outcome.attempted, outcome.failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload serve-open-f32 --seed 7 --seconds 30 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve-open-f32");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 30.0);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload serve-open-f32")).is_err());
        assert!(parse_args(&argv("--workload serve-open-f32 --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve-open-f32 --seed 1 --seconds -3")).is_err());
    }
}
