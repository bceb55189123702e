//! Command line of the MMR simulator benchmark.
//!
//! ```text
//! mmr-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! mmr-perfbench --list [--workload <name|all>] [--seed N]
//! mmr-perfbench --digests [--workload <name|all>]
//! ```
//!
//! A run prints its host record, every metric by name with its unit, and
//! as its last line one JSON object `{correct, attempted, failed,
//! metrics}`; it exits 1 when any output check fails.  `--workload all`
//! runs each workload in a fresh child process.  `--list` builds every
//! point's input without simulating.  `--digests` prints the pass
//! digests of the default seeds in `digests.txt` format.

use mmr_perfbench::host::Host;
use mmr_perfbench::workloads::{self, DEFAULT_SEEDS, WORKLOADS};
use mmr_perfbench::{checks, measure, run, trace::Tracer};
use std::path::Path;
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    list: bool,
    digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        list: false,
        digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--list" => args.list = true,
            "--digests" => args.digests = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() && !(args.list || args.digests) {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The workloads a flag value names (`all` or empty: every workload).
fn selected(name: &str) -> Result<Vec<&'static str>, String> {
    if name.is_empty() || name == "all" {
        return Ok(WORKLOADS.to_vec());
    }
    workloads::lookup(name)
        .map(|w| vec![w])
        .ok_or_else(|| format!("unknown workload {name:?}; known: {}", WORKLOADS.join(", ")))
}

fn list(names: &[&'static str], seed: u64) -> Result<(), String> {
    for &w in names {
        let points = workloads::list(w, seed)?;
        println!("{w} ({} points, seed {seed}):", points.len());
        for p in points {
            println!(
                "  {:<40} {:>5} connections  {:>9} cycles  warmup {}",
                p.label, p.connections, p.cycles, p.warmup
            );
        }
    }
    Ok(())
}

fn digests(names: &[&'static str]) -> Result<(), String> {
    for &w in names {
        for seed in DEFAULT_SEEDS {
            let pass = run::run_pass(w, seed, false, &mut Tracer::new(false))?;
            println!("{w} {seed} {:016x}", pass.digest);
        }
    }
    Ok(())
}

/// Run every workload in a fresh child process, so no workload's memory
/// high-water mark or warm state leaks into the next.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("spawn {w}: {e}"))?;
        if !status.success() {
            println!("workload {w} FAILED ({status})");
            all_ok = false;
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mmr-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names = match selected(&args.workload) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("mmr-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.list {
        list(&names, args.seed).map(|_| true)
    } else if args.digests {
        digests(&names).map(|_| true)
    } else if names.len() > 1 {
        run_all(&args)
    } else {
        let w = names[0];
        let host = Host::probe();
        println!("{}", host.line());
        if checks::recorded_digest(w, args.seed).is_none() {
            println!(
                "seed {} has no recorded digests: digest check skipped",
                args.seed
            );
        }
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let result = if args.trace {
            measure::traced(w, args.seed, args.seconds, &host, &out_dir)
        } else {
            measure::end_to_end(w, args.seed, args.seconds)
        };
        result.map(|o| {
            println!("{}", o.json());
            o.correct()
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mmr-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
