//! End-to-end benchmark of LEAD through its public API.
//!
//! ```text
//! perfbench --workload <detect_busy|stream_fleet|fit_small> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop of one caller on one worker thread. With
//! `--trace 0` the run reports the end-to-end metrics, measured without a
//! probe; with `--trace 1` it reports the per-layer breakdown of a traced
//! pass. The last line of standard output is the result object; the exit
//! code is non-zero when an output check failed. See `NOTES.md`.

mod clock;
mod ops;
mod stats;
mod trace;
mod workloads;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for shard files, removed when the run ends.
    pub work: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    // Shards live under the build directory of the checkout, per run.
    let build =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| ".bench_build".into(), PathBuf::from);
    let work = build
        .join("perfbench-work")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        work,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "detect_busy" => workloads::detect_busy,
        "stream_fleet" => workloads::stream_fleet,
        "fit_small" => workloads::fit_small,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let out = run(&args);
    // Best effort: the directory only holds this run's shard files.
    let _ = std::fs::remove_dir_all(&args.work);
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", out.to_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
