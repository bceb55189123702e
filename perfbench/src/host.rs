//! The host record every run prints, and the process memory high-water
//! mark.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Iterations of the fixed calibration loop.
const CALIBRATION_ITERS: u64 = 20_000_000;

/// Where and with what a run was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Git revision of the source tree (`unknown` outside a git checkout).
    pub git_rev: String,
    /// Nanoseconds the fixed calibration loop took: a drift reference
    /// for comparing runs made on different days.
    pub calibration_ns: u64,
}

impl Host {
    /// Probe the host (runs the ~0.1 s calibration loop).
    pub fn probe() -> Self {
        Host {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split(':').nth(1))
                        .map(|m| m.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            git_rev: Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".to_string()),
            calibration_ns: calibrate(),
        }
    }

    /// One-line rendering.
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" rustc=\"{}\" git={} calibration_ns={}",
            self.nproc, self.cpu_model, self.rustc, self.git_rev, self.calibration_ns
        )
    }
}

/// Time a fixed splitmix64 chain.
fn calibrate() -> u64 {
    let start = Instant::now();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    for _ in 0..CALIBRATION_ITERS {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= z ^ (z >> 31);
    }
    black_box(x);
    start.elapsed().as_nanos() as u64
}

/// This process's resident-memory high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
