//! Metric definitions and their computation from recorded passes.

use crate::run::{ObservatoryCost, Pass, PassRecord};
use crate::trace::{LayerCounts, Span};
use crate::workloads;
use mmr_core::config::SimConfig;
use std::collections::{BTreeMap, BTreeSet};

/// End-to-end metrics (`--trace 0`), name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("flits_per_s", "flits/s"),
    ("peak_rss_mb", "MB"),
    ("qos_delay_us", "us"),
    ("xbar_util", "ratio"),
];

/// Per-layer metrics (`--trace 1`), name and unit.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("lang.compile_ms", "ms"),
    ("traffic.build_ms", "ms"),
    ("traffic.connections", "count"),
    ("traffic.cac_accept_ratio", "ratio"),
    ("router.build_ms", "ms"),
    ("engine.run_s", "s"),
    ("engine.cycles_executed", "count"),
    ("engine.skip_fraction", "ratio"),
    ("router.step_ns_p50", "ns"),
    ("router.step_ns_p99", "ns"),
    ("router.step_self_ns", "ns"),
    ("router.ns_per_port_cycle", "ns"),
    ("router.backlog_flits_mean", "flits"),
    ("arbiter.calls_per_cycle", "count"),
    ("arbiter.ns_per_call_p50", "ns"),
    ("arbiter.ns_per_call_p99", "ns"),
    ("arbiter.candidates_per_call", "count"),
    ("arbiter.grants_per_call", "count"),
    ("arbiter.grant_ratio", "ratio"),
    ("arbiter.share_of_step", "ratio"),
    ("priority.calls_per_cycle", "count"),
    ("priority.ns_per_call", "ns"),
    ("priority.share_of_step", "ratio"),
    ("observatory.overhead_pct", "%"),
    ("observatory.report_ms", "ms"),
    ("report.summary_ms", "ms"),
    ("report.serialize_ms", "ms"),
    ("report.result_bytes", "bytes"),
    ("claims.eval_ms", "ms"),
    ("dashboard.render_ms", "ms"),
];

/// The per-layer metric the trace run adds about itself.
pub const TRACE_OVERHEAD: (&str, &str) = ("trace.overhead_pct", "%");

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// End-to-end host metrics of one pass.
pub fn host_metrics(pass: &PassRecord) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("setup_s", pass.setup_s),
        ("wall_s", pass.wall_s),
        ("sim_cycles_per_s", pass.executed as f64 / pass.run_s),
        ("flits_per_s", pass.delivered as f64 / pass.run_s),
    ])
}

/// Simulated end-to-end metrics: identical on every pass of a seed.
///
/// `qos_delay_us` is the median over configurations of each
/// configuration's seed-mean delay, so one seed's admission draws cannot
/// flip which configuration the median lands on.
pub fn sim_metrics(pass: &Pass) -> BTreeMap<&'static str, f64> {
    let mut groups: Vec<(SimConfig, f64, f64)> = Vec::new();
    for p in &pass.points {
        let key = p.result.config.with_seed(0);
        let delay = workloads::qos_delay_us(&p.result);
        match groups.iter_mut().find(|g| g.0 == key) {
            Some(g) => {
                g.1 += delay;
                g.2 += 1.0;
            }
            None => groups.push((key, delay, 1.0)),
        }
    }
    let delays: Vec<f64> = groups.iter().map(|g| g.1 / g.2).collect();
    let util = pass
        .points
        .iter()
        .map(|p| p.result.summary.crossbar_utilization)
        .sum::<f64>()
        / pass.points.len() as f64;
    BTreeMap::from([("qos_delay_us", median(&delays)), ("xbar_util", util)])
}

/// Per-layer metrics of one traced pass plus the observatory pricing.
pub fn layer_metrics(pass: &Pass, obs: &ObservatoryCost) -> BTreeMap<&'static str, f64> {
    let mut all = LayerCounts::new(0);
    let mut port_steps = 0.0;
    for p in &pass.points {
        let l = p.layers.as_ref().expect("traced pass has layer counts");
        all.merge(l);
        port_steps += (l.step_ns.count() * l.ports as u64) as f64;
    }
    let sum = |f: &dyn Fn(&crate::run::PointRun) -> f64| pass.points.iter().map(f).sum::<f64>();
    let steps = all.step_ns.count() as f64;
    let step_total = all.step_ns.sum() as f64;
    let arb_calls = all.arbiter_ns.count() as f64;
    let arb_total = all.arbiter_ns.sum() as f64;
    let prio_total = all.priority_total_ns();
    let executed = sum(&|p| p.outcome.executed as f64);
    let accepted = sum(&|p| p.result.admission.accepted as f64);
    let attempted = sum(&|p| p.result.admission.attempted() as f64);
    let q = |h: &mmr_sim::stats::LogHistogram, q: f64| h.quantile(q).unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ms = 1e3;
    BTreeMap::from([
        (
            "lang.compile_ms",
            if pass.has_pack {
                pass.compile_s * ms
            } else {
                0.0
            },
        ),
        ("traffic.build_ms", sum(&|p| p.build_workload_s) * ms),
        ("traffic.connections", sum(&|p| p.result.connections as f64)),
        ("traffic.cac_accept_ratio", ratio(accepted, attempted)),
        ("router.build_ms", sum(&|p| p.build_router_s) * ms),
        ("engine.run_s", pass.run_s()),
        ("engine.cycles_executed", executed),
        (
            "engine.skip_fraction",
            ratio(sum(&|p| p.outcome.skipped as f64), executed),
        ),
        ("router.step_ns_p50", q(&all.step_ns, 0.5)),
        ("router.step_ns_p99", q(&all.step_ns, 0.99)),
        (
            "router.step_self_ns",
            ratio(step_total - arb_total - prio_total, steps),
        ),
        ("router.ns_per_port_cycle", ratio(step_total, port_steps)),
        (
            "router.backlog_flits_mean",
            ratio(all.backlog_sum as f64, all.backlog_samples as f64),
        ),
        ("arbiter.calls_per_cycle", ratio(arb_calls, steps)),
        ("arbiter.ns_per_call_p50", q(&all.arbiter_ns, 0.5)),
        ("arbiter.ns_per_call_p99", q(&all.arbiter_ns, 0.99)),
        (
            "arbiter.candidates_per_call",
            ratio(all.candidates as f64, arb_calls),
        ),
        (
            "arbiter.grants_per_call",
            ratio(all.grants as f64, arb_calls),
        ),
        (
            "arbiter.grant_ratio",
            ratio(all.grants as f64, all.offering_inputs as f64),
        ),
        ("arbiter.share_of_step", ratio(arb_total, step_total)),
        (
            "priority.calls_per_cycle",
            ratio(all.priority_calls as f64, steps),
        ),
        ("priority.ns_per_call", all.priority_ns_per_call()),
        ("priority.share_of_step", ratio(prio_total, step_total)),
        ("observatory.overhead_pct", obs.overhead_pct),
        ("observatory.report_ms", obs.report_s * ms),
        ("report.summary_ms", sum(&|p| p.summary_s) * ms),
        ("report.serialize_ms", sum(&|p| p.serialize_s) * ms),
        ("report.result_bytes", sum(&|p| p.result_bytes as f64)),
        ("claims.eval_ms", pass.claims_s * ms),
        ("dashboard.render_ms", pass.dashboard_s * ms),
    ])
}

/// Aggregated spans of one name.
#[derive(Debug, Clone, Default)]
pub struct LayerTime {
    /// Summed duration (ns).
    pub total_ns: u64,
    /// Summed duration of the direct children (ns).
    pub children_ns: u64,
    /// Summed self time: duration minus direct children (ns).
    pub self_ns: u64,
    /// Summed duration of the distinct parents of these spans (ns).
    pub parent_ns: u64,
    /// Spans aggregated.
    pub count: u64,
}

/// Self time and share of parent per span name, plus the closure check:
/// the direct children of all `workload` spans, and of all `point` spans,
/// must cover at least `min_cover` of them.  The check sums over spans so
/// that one preemption inside a millisecond-long point cannot fail it.
/// Returns the table and the closure failures.
pub fn span_table(
    spans: &[Span],
    min_cover: f64,
) -> (BTreeMap<&'static str, LayerTime>, Vec<String>) {
    let mut children_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children_ns[p] += s.ns();
        }
    }
    let mut table: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    let mut parents_seen = BTreeSet::new();
    for (i, s) in spans.iter().enumerate() {
        let e = table.entry(s.name).or_default();
        e.total_ns += s.ns();
        e.children_ns += children_ns[i];
        e.self_ns += s.ns().saturating_sub(children_ns[i]);
        let parent = s.parent.unwrap_or(i);
        if parents_seen.insert((s.name, parent)) {
            e.parent_ns += spans[parent].ns();
        }
        e.count += 1;
    }
    let mut failures = Vec::new();
    for name in ["workload", "point"] {
        let t = table.get(name).cloned().unwrap_or_default();
        let cover = t.children_ns as f64 / t.total_ns.max(1) as f64;
        if !(min_cover..=1.0 + 1e-9).contains(&cover) {
            failures.push(format!(
                "closure: children of the {} {name} spans cover {:.1}% of them",
                t.count,
                cover * 100.0
            ));
        }
    }
    (table, failures)
}
