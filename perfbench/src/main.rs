//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds`, checks its outputs, and prints a
//! JSON line `{"correct", "attempted", "failed", "metrics"}` last: the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics. Lines
//! before it, starting with `#`, give the host fingerprint, sample counts
//! and the plan regime.

use perfbench::host::{self, ScratchDir};
use perfbench::workloads::RunConfig;
use perfbench::Scale;
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !perfbench::WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "perfbench: unknown workload {:?}; known: {:?}",
            args.workload,
            perfbench::WORKLOADS
        );
        return ExitCode::from(2);
    }
    let scratch = match ScratchDir::create(Path::new(host::SCRATCH_ROOT), &args.workload) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: creating the scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace_root = Path::new(host::TRACE_ROOT);
    if args.trace {
        if let Err(e) = std::fs::create_dir_all(trace_root) {
            eprintln!("perfbench: creating {}: {e}", trace_root.display());
            return ExitCode::FAILURE;
        }
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        data_dir: scratch.path().to_path_buf(),
        trace_file: trace_root.join(format!(
            "trace-{}-seed{}-{}.csv",
            args.workload,
            args.seed,
            std::process::id()
        )),
    };
    println!(
        "# {} trace={} seconds={} host: {}",
        args.workload,
        u8::from(args.trace),
        args.seconds,
        host::fingerprint(scratch.path(), args.seed)
    );
    match perfbench::run(&args.workload, Scale::Full, &cfg) {
        Ok(out) => {
            for note in &out.notes {
                println!("# {note}");
            }
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
