//! A timed run of one workload: repeated passes for `--seconds`, medians
//! of the per-pass metrics, every output checked, and the one-line JSON
//! result.

use crate::host::{self, Host};
use crate::metrics::{self, median, END_TO_END, PER_LAYER, TRACE_OVERHEAD};
use crate::run::{self, PassRecord};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Fewest passes a run makes, even past `--seconds`, so every reported
/// host time is a median.
const MIN_PASSES: usize = 3;
/// Set-up-only repetitions after each pass.  `setup_s` is their median,
/// so its samples spread over the run as the passes do, and each pass
/// contributes the same mix of a set-up after simulating and warm ones.
const SETUPS_PER_PASS: usize = 3;
/// The closure check's lower bound: the children of the workload spans,
/// and of the point spans, must cover this share of them.
const MIN_CLOSURE: f64 = 0.95;

/// Outcome of a run: the JSON line's fields.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Point runs checked.
    pub attempted: usize,
    /// Point runs that failed a check.
    pub failed: usize,
    /// Metric values in declaration order, with units.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Non-point failures (closure check).
    pub other_failures: Vec<String>,
}

impl Outcome {
    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.other_failures.is_empty()
    }

    /// The result line the benchmark prints last.
    pub fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`, each value with all its
/// digits.
fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// Check every point of every pass, including that each pass reproduced
/// the first pass's digests; prints each failure and returns
/// `(attempted, failed)`.  This is what sets the exit status.
pub fn tally(passes: &[PassRecord]) -> (usize, usize) {
    let mut attempted = 0;
    let mut failed = 0;
    let first = &passes[0];
    for (k, pass) in passes.iter().enumerate() {
        for f in &pass.workload_failures {
            println!("FAIL pass {k}: {f}");
        }
        for (i, (&digest, point_failures)) in
            pass.digests.iter().zip(&pass.point_failures).enumerate()
        {
            attempted += 1;
            let mut failures = point_failures.clone();
            if digest != first.digests[i] {
                failures.push(format!(
                    "digest {digest:016x} differs from the first pass's {:016x}",
                    first.digests[i]
                ));
            }
            for f in &failures {
                println!("FAIL pass {k} point {i}: {f}");
            }
            if !failures.is_empty() || !pass.workload_failures.is_empty() {
                failed += 1;
            }
        }
    }
    (attempted, failed)
}

fn fmt_metrics(metrics: &[(&'static str, f64, &'static str)]) -> String {
    let mut s = String::new();
    for (name, value, unit) in metrics {
        let _ = writeln!(s, "  {name:<28} {value:>16.6} {unit}");
    }
    s
}

/// Untraced run: the end-to-end metrics.  Only the first pass is kept
/// whole (its results give the simulated metrics); later passes keep
/// their [`PassRecord`], so `peak_rss_mb` does not depend on how many
/// passes fit into `seconds`.  `setup_s` is the median of
/// [`SETUPS_PER_PASS`] set-up-only repetitions after every pass; it does
/// not mix in the passes' own set-ups.
pub fn end_to_end(workload: &'static str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut first = None;
    let mut records = Vec::new();
    let mut setups = Vec::new();
    let mut longest: f64 = 0.0;
    while records.len() < MIN_PASSES || start.elapsed().as_secs_f64() + longest <= seconds {
        let round = Instant::now();
        let pass = run::run_pass(workload, seed, false, &mut Tracer::new(false))?;
        records.push(pass.record());
        for _ in 0..SETUPS_PER_PASS {
            setups.push(run::setup_only(workload, seed)?);
        }
        longest = longest.max(round.elapsed().as_secs_f64());
        first.get_or_insert(pass);
    }
    let first = first.expect("a run makes at least one pass");
    let (attempted, failed) = tally(&records);
    let host_per_pass: Vec<_> = records.iter().map(metrics::host_metrics).collect();
    let sim = metrics::sim_metrics(&first);
    let rss = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "peak_rss_mb" => rss,
                "setup_s" => median(&setups),
                "qos_delay_us" | "xbar_util" => sim[name],
                _ => median(&host_per_pass.iter().map(|m| m[name]).collect::<Vec<_>>()),
            };
            (name, value, unit)
        })
        .collect::<Vec<_>>();
    println!(
        "{workload} seed {seed}: {} passes, {} points each (medians over passes; setup_s over {} set-ups)",
        records.len(),
        first.points.len(),
        setups.len()
    );
    print!("{}", fmt_metrics(&metrics));
    let walls: Vec<String> = records.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    println!("  pass wall_s: {}", walls.join(" "));
    println!(
        "  {:<28} {:>16.6} ratio ({failed} of {attempted} point runs failed a check)",
        "failed_frac",
        failed as f64 / attempted as f64
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        other_failures: Vec::new(),
    })
}

/// Traced run: untraced and traced passes alternate; the traced ones
/// give the per-layer metrics and spans, the pair gives the tracing
/// overhead.  Spans are written to `out_dir` when the run ends.
pub fn traced(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    host: &Host,
    out_dir: &std::path::Path,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let obs = run::observatory_cost(workload, seed)?;
    let mut plain: Vec<PassRecord> = Vec::new();
    let mut traced: Vec<PassRecord> = Vec::new();
    let mut per_pass = Vec::new();
    let mut step_ns = 0.0;
    let mut wrapper_ns = 0.0;
    let mut tracer = Tracer::new(true);
    let mut longest: f64 = 0.0;
    loop {
        let is_traced = plain.len() > traced.len();
        if !is_traced
            && !traced.is_empty()
            && start.elapsed().as_secs_f64() + 2.0 * longest > seconds
        {
            break;
        }
        if is_traced {
            let pass = run::run_pass(workload, seed, true, &mut tracer)?;
            per_pass.push(metrics::layer_metrics(&pass, &obs));
            for l in pass.points.iter().filter_map(|p| p.layers.as_ref()) {
                step_ns += l.step_ns.sum() as f64;
                wrapper_ns += l.wrapper_ns as f64;
            }
            longest = longest.max(pass.wall_s);
            traced.push(pass.record());
        } else {
            let pass = run::run_pass(workload, seed, false, &mut Tracer::new(false))?;
            longest = longest.max(pass.wall_s);
            plain.push(pass.record());
        }
    }

    let records: Vec<PassRecord> = plain.iter().chain(traced.iter()).cloned().collect();
    let (attempted, failed) = tally(&records);
    let wall = |v: &[PassRecord]| median(&v.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let overhead = (wall(&traced) / wall(&plain) - 1.0) * 100.0;
    let mut metrics: Vec<(&'static str, f64, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v: Vec<f64> = per_pass.iter().map(|m| m[name]).collect();
            (name, median(&v), unit)
        })
        .collect();
    metrics.push((TRACE_OVERHEAD.0, overhead, TRACE_OVERHEAD.1));

    let (table, closure) = metrics::span_table(tracer.spans(), MIN_CLOSURE);
    println!(
        "{workload} seed {seed}: {} untraced + {} traced passes (per-layer medians over traced passes)",
        plain.len(),
        traced.len()
    );
    print!("{}", fmt_metrics(&metrics));
    println!("span self time and share of parent (summed over traced passes):");
    println!(
        "  {:<20} {:>8} {:>12} {:>12} {:>9}",
        "span", "count", "total_ms", "self_ms", "share"
    );
    for (name, t) in &table {
        println!(
            "  {:<20} {:>8} {:>12.3} {:>12.3} {:>8.2}%",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.total_ns as f64 / t.parent_ns.max(1) as f64
        );
    }
    let run_ns = table.get("run").map(|t| t.total_ns).unwrap_or(0) as f64;
    let m: BTreeMap<_, _> = metrics.iter().map(|&(n, v, _)| (n, v)).collect();
    let step_share = step_ns / run_ns.max(1.0);
    let wrapper_share = wrapper_ns / run_ns.max(1.0);
    println!(
        "  inside run: step {:.2}% of run, wrapper bookkeeping {:.2}% (taken out of the step), engine self {:.2}%; arbiter {:.2}% and priority {:.2}% of step",
        100.0 * step_share,
        100.0 * wrapper_share,
        100.0 * (1.0 - step_share - wrapper_share),
        100.0 * m["arbiter.share_of_step"],
        100.0 * m["priority.share_of_step"]
    );
    if closure.is_empty() {
        println!(
            "closure check: passed (children cover >= {:.0}% of the workload spans and of the point spans)",
            MIN_CLOSURE * 100.0
        );
    }
    for f in &closure {
        println!("FAIL {f}");
    }
    println!(
        "traced digests {} untraced digests",
        if plain[0].digests == traced[0].digests {
            "equal"
        } else {
            "DIFFER from"
        }
    );

    write_trace(out_dir, workload, seed, host, tracer.spans(), &metrics)?;
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        other_failures: closure,
    })
}

fn write_trace(
    dir: &std::path::Path,
    workload: &str,
    seed: u64,
    host: &Host,
    spans: &[crate::trace::Span],
    metrics: &[(&'static str, f64, &'static str)],
) -> Result<(), String> {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"host\": {{\"nproc\": {}, \"cpu_model\": {:?}, \"rustc\": {:?}, \"git_rev\": {:?}, \"calibration_ns\": {}}},\n\"metrics\": {},\n\"spans\": [\n",
        host.nproc,
        host.cpu_model,
        host.rustc,
        host.git_rev,
        host.calibration_ns,
        metrics_json(metrics)
    );
    for (i, sp) in spans.iter().enumerate() {
        let sep = if i + 1 < spans.len() { "," } else { "" };
        let opt = |o: Option<usize>| o.map(|v| v.to_string()).unwrap_or_else(|| "null".into());
        let _ = writeln!(
            s,
            "{{\"id\": {i}, \"name\": \"{}\", \"point\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
            sp.name,
            opt(sp.point),
            opt(sp.parent),
            sp.start_ns,
            sp.end_ns
        );
    }
    s.push_str("]}\n");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    std::fs::write(&path, s).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}
