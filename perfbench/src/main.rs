//! The repository benchmark: four closed-loop workloads over the
//! simulator's layers, with end-to-end metrics from untraced runs and
//! per-layer metrics from traced runs. See `README.md` next to this
//! package for why each workload exists and what each metric means.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --workload <name> --write-reference
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod calib;
mod check;
mod churn;
mod config;
mod direct;
mod matrix;
mod oracle;
mod report;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use check::Reference;
use report::Outcome;
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["suite-matrix", "apps", "campaign-churn", "oracle-sweep"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: config::DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            args.write_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .iter()
                    .find(|w| **w == value)
                    .ok_or_else(|| format!("unknown workload {value:?}; one of {WORKLOADS:?}"))?;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad)?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required; one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Working directory for shard artifacts, journals and traces.
fn work_dir() -> PathBuf {
    bench_dir().join("work")
}

fn reference_path(workload: &str) -> PathBuf {
    bench_dir()
        .join("reference")
        .join(format!("{workload}.json"))
}

/// Write the traced run's spans; returns the line to print.
pub fn write_trace(args: &Args, t: &Tracer) -> String {
    let path = work_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(work_dir()).and_then(|()| std::fs::write(&path, t.chrome_json()));
    match written {
        Ok(()) => format!("trace: {}", path.display()),
        Err(e) => format!("trace: not written ({}: {e})", path.display()),
    }
}

fn write_reference(args: &Args) -> Result<(), String> {
    let (cells, reps) = match args.workload {
        "suite-matrix" => (matrix::reference(matrix::Kind::Suite), config::MATRIX_REPS),
        "apps" => (matrix::reference(matrix::Kind::Apps), config::MATRIX_REPS),
        "campaign-churn" => (
            churn::reference(&work_dir().join("churn"))?,
            config::CHURN_REPS,
        ),
        w => {
            return Err(format!(
                "{w} has no reference: its oracle is the differ's and analyzer's verdicts"
            ))
        }
    };
    let wrong: Vec<String> = cells
        .iter()
        .filter_map(|c| check::status(check::hole_of(c), c))
        .collect();
    if !wrong.is_empty() {
        return Err(format!(
            "refusing to write a reference:\n{}",
            wrong.join("\n")
        ));
    }
    let path = reference_path(args.workload);
    Reference::save(&path, args.workload, reps, cells)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Print the human-readable table and, last, the JSON result line.
fn emit(args: &Args, out: &Outcome) {
    let names: Vec<(String, &str)> = if args.trace {
        config::per_layer()
    } else {
        config::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} (default seed {}, held-out seed {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        config::DEFAULT_SEED,
        config::HELD_OUT_SEED
    );
    for note in &out.notes {
        println!("{note}");
    }
    let mut correct = out.failed == 0;
    let mut json = Vec::new();
    for (name, unit) in names {
        let value = match out.metrics.get(&name) {
            Some(v) if v.is_finite() => *v,
            // A traced run reports layers its workload never calls as 0.
            None if args.trace => 0.0,
            other => {
                eprintln!("perfbench: metric {name} is {other:?}");
                correct = false;
                0.0
            }
        };
        println!("{name:<30} {value:>18.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{:<30} {:>18.6} ratio ({} failed of {} attempted)",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for p in out.problems.iter().take(20) {
        eprintln!("perfbench: FAILED {p}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        json.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_reference {
        return match write_reference(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let reference = match args.workload {
        "oracle-sweep" => None,
        w => match Reference::load(&reference_path(w)) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("perfbench: reference: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let mut out = match (args.workload, &reference) {
        ("suite-matrix", Some(r)) => matrix::run(matrix::Kind::Suite, &args, r),
        ("apps", Some(r)) => matrix::run(matrix::Kind::Apps, &args, r),
        ("campaign-churn", Some(r)) => churn::run(&args, r, &work_dir().join("churn")),
        _ => oracle::run(&args),
    };
    out.set("peak_rss_mb", report::peak_rss_mb());
    emit(&args, &out);
    ExitCode::SUCCESS
}
