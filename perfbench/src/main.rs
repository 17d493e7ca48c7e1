//! The repository benchmark: three workloads measured end to end, and a
//! traced run that decomposes them layer by layer. See `README.md`.
//!
//! ```text
//! gals-perfbench --workload <figure6|serve_cold|serve_hot> --seed <n>
//!                --seconds <s> --trace <0|1> [--tiny] [--out <dir>]
//! ```
//!
//! The last stdout line is the result object; the line before it records
//! the host, the build and the pinned environment.

mod figure6;
mod layers;
mod report;
mod serve;
mod serve_cold;
mod serve_hot;
mod spans;

use std::path::PathBuf;

use report::{Metrics, Tally};
use spans::Tracer;

/// What one workload run needs to know.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A seconds-long version of the workload, for the benchmark's tests.
    pub tiny: bool,
    /// Private scratch directory (stores) inside the output directory;
    /// removed when the run ends.
    pub scratch: PathBuf,
}

/// What one workload run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    pub info: Vec<(String, String)>,
    pub tracer: Option<Tracer>,
}

const WORKLOADS: [&str; 3] = ["figure6", "serve_cold", "serve_hot"];

/// The `GALS_*` knobs each workload defines. Every other `GALS_*`
/// variable is removed before the workload starts, so a stray shell
/// setting (say `GALS_MCD_COHORT_WIDTH=0`) cannot move a metric.
fn knobs(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "figure6" => &[("GALS_MCD_SYNC_SUBSET", "1")],
        // The sync-sweep subset applies to the traced run's engine layer.
        _ => &[
            ("GALS_MCD_SYNC_SUBSET", "1"),
            ("GALS_MCD_WAL_SYNC", "batch:64"),
        ],
    }
}

/// Pins the process environment (before any thread exists) and returns
/// the effective knob set and the names of the variables removed.
fn pin_env(workload: &str) -> (String, String) {
    // lint:allow(env-discipline): pinning the raw process environment is this function's purpose
    let mut removed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GALS_"))
        .collect();
    removed.sort();
    for k in &removed {
        // lint:allow(env-discipline): pinning the raw process environment is this function's purpose
        std::env::remove_var(k);
    }
    let set: Vec<String> = knobs(workload)
        .iter()
        .map(|(k, v)| {
            // lint:allow(env-discipline): pinning the raw process environment is this function's purpose
            std::env::set_var(k, v);
            format!("{k}={v}")
        })
        .collect();
    (set.join(" "), removed.join(" "))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut tiny = false;
    let mut out = PathBuf::from(".bench_out");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--tiny" => tiny = true,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gals-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (knob_set, removed) = pin_env(&args.workload);
    let scratch = args.out.join(format!(
        "run-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).expect("create the scratch directory");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: args.tiny,
        scratch: scratch.clone(),
    };
    let outcome = match args.workload.as_str() {
        "figure6" => figure6::run(&ctx),
        "serve_cold" => serve_cold::run(&ctx),
        _ => serve_hot::run(&ctx),
    };

    let mut info = vec![
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("knobs".to_string(), knob_set),
        ("removed_env".to_string(), removed),
        ("wal_sync".to_string(), "batch:64".to_string()),
    ];
    info.extend(outcome.info);
    if let Some(tracer) = &outcome.tracer {
        let path = args
            .out
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        tracer.write_json(&path).expect("write the span file");
        info.push(("spans".to_string(), path.display().to_string()));
        info.push(("span_count".to_string(), tracer.spans().len().to_string()));
    }
    let provenance = report::provenance(&scratch, &info);
    let _ = std::fs::remove_dir_all(&scratch);
    for note in &outcome.tally.notes {
        eprintln!("gals-perfbench: check failed: {note}");
    }
    println!("{}", report::object_line("provenance", &provenance));
    println!("{}", report::result_line(&outcome.tally, &outcome.metrics));
}
