//! The four benchmark workloads, each a list of simulation points built
//! from the `--seed` argument through the simulator's public config API.
//!
//! Every point is a closed-loop batch run: a fixed flit-cycle budget, or
//! run-until-drained for VBR.  Nothing is scheduled against host time.

use mmr_arbiter::scheduler::ArbiterKind;
use mmr_core::config::{
    InjectionKind, MixGroup, RunLength, SimConfig, TelemetrySpec, WorkloadSpec,
};
use mmr_core::conformance::ensemble_seeds;
use mmr_core::experiment::build_workload;
use mmr_core::scenarios::{vbr_cycle_budget, Fidelity};
use mmr_core::sweep::SweepSpec;
use mmr_core::workload_lang::{self, CompiledPack};
use mmr_router::config::RouterConfig;
use mmr_traffic::connection::TrafficClass;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["fig5_cbr", "vbr_mpeg", "wide64_fat", "wimax_observed"];

/// Seeds whose result digests are recorded in `digests.txt`.
pub const DEFAULT_SEEDS: std::ops::RangeInclusive<u64> = 1..=10;

/// The committed QoS-class pack the `wimax_observed` workload compiles.
pub const WIMAX_PACK: &str = include_str!("../../workloads/wimax_classes.toml");

/// Seeds per configuration of `fig5_cbr`: admission draws move one
/// seed's cost at loads 0.8–0.9 by about a quarter, so a pass averages
/// many short runs.
const FIG5_SEEDS: usize = 25;
/// Flit cycles per `fig5_cbr` point after warm-up.
const FIG5_CYCLES: u64 = 2_000;
/// Seeds per configuration of `vbr_mpeg`: one GOP spans enough frames
/// that one seed's cost varies little.
const VBR_SEEDS: usize = 1;
/// GOPs per VBR connection: one GOP already runs ~1.2M flit cycles.
const VBR_GOPS: usize = 1;
/// Seeds per configuration of `wide64_fat`.
const WIDE_SEEDS: usize = 2;
/// Flit cycles per `wide64_fat` point after warm-up.
const WIDE_CYCLES: u64 = 4_000;

/// What a workload runs: its points and, for a pack, the compiled pack
/// whose claims are evaluated over the points' results.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Simulation points, run in order.
    pub points: Vec<SimConfig>,
    /// The compiled pack (`wimax_observed` only).
    pub pack: Option<CompiledPack>,
    /// Index of the point the traced run re-runs armed and disarmed to
    /// price the QoS observatory: the first highest-load COA point.
    pub representative: usize,
}

/// Canonical name of a workload, or `None` if it is unknown.
pub fn lookup(name: &str) -> Option<&'static str> {
    WORKLOADS.iter().copied().find(|w| *w == name)
}

/// Build a workload's plan.  `seed` is the base of the workload's seed
/// set: every configuration runs under each seed of
/// `ensemble_seeds(seed, n)`, seeds innermost.  For `wimax_observed` this
/// parses and compiles the pack (whose own seed count sets `n`), the
/// set-up work `lang.compile_ms` measures.
pub fn plan(workload: &'static str, seed: u64) -> Result<Plan, String> {
    let (points, pack) = match workload {
        "fig5_cbr" => {
            let base = SimConfig {
                workload: WorkloadSpec::cbr(0.5),
                warmup_cycles: 500,
                run: RunLength::Cycles(500 + FIG5_CYCLES),
                seed,
                ..SimConfig::default()
            };
            let mut sweep = SweepSpec::coa_vs_wfa(base, vec![0.2, 0.6, 0.8, 0.9]);
            sweep.seeds = ensemble_seeds(seed, FIG5_SEEDS);
            (sweep.configs(), None)
        }
        "vbr_mpeg" => {
            let mut points = Vec::new();
            for injection in [InjectionKind::SmoothRate, InjectionKind::BackToBack] {
                for arbiter in [ArbiterKind::Coa, ArbiterKind::Wfa] {
                    for seed in ensemble_seeds(seed, VBR_SEEDS) {
                        points.push(SimConfig {
                            workload: WorkloadSpec::Vbr {
                                target_load: 0.7,
                                gops: VBR_GOPS,
                                injection,
                                enforce_peak: true,
                            },
                            arbiter,
                            warmup_cycles: 0,
                            run: RunLength::UntilDrained {
                                max_cycles: vbr_cycle_budget(VBR_GOPS),
                            },
                            seed,
                            ..SimConfig::default()
                        });
                    }
                }
            }
            (points, None)
        }
        "wide64_fat" => {
            let base = SimConfig {
                router: RouterConfig {
                    ports: 64,
                    ..RouterConfig::default()
                },
                workload: WorkloadSpec::Mix {
                    target_load: 0.6,
                    groups: vec![
                        MixGroup {
                            class: TrafficClass::CbrHigh,
                            rate_bps: 150e6,
                            weight: 1.0,
                        },
                        MixGroup {
                            class: TrafficClass::CbrMedium,
                            rate_bps: 60e6,
                            weight: 1.0,
                        },
                    ],
                    ramp: None,
                    churn: None,
                },
                warmup_cycles: 1_000,
                run: RunLength::Cycles(1_000 + WIDE_CYCLES),
                seed,
                ..SimConfig::default()
            };
            let mut sweep = SweepSpec::coa_vs_wfa(base, vec![0.6, 0.7]);
            sweep.seeds = ensemble_seeds(seed, WIDE_SEEDS);
            (sweep.configs(), None)
        }
        "wimax_observed" => {
            let spec = workload_lang::WorkloadSpec::parse(WIMAX_PACK).map_err(|e| e.to_string())?;
            let mut pack = spec.compile(Fidelity::Quick).map_err(|e| e.to_string())?;
            pack.sweep.base.seed = seed;
            pack.sweep.seeds = ensemble_seeds(seed, spec.seed_count(Fidelity::Quick));
            let points = pack
                .sweep
                .configs()
                .into_iter()
                .map(|c| c.with_telemetry(TelemetrySpec::default()))
                .collect();
            (points, Some(pack))
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    let representative = representative(&points);
    Ok(Plan {
        points,
        pack,
        representative,
    })
}

/// The highest-load COA point (first such point on ties).
fn representative(points: &[SimConfig]) -> usize {
    let mut best = 0;
    for (i, p) in points.iter().enumerate() {
        let load = p.workload.target_load();
        let top = points[best].workload.target_load();
        if p.arbiter == ArbiterKind::Coa && (points[best].arbiter != ArbiterKind::Coa || load > top)
        {
            best = i;
        }
    }
    best
}

/// The class whose delay `qos_delay_us` reads: the highest reserved
/// class present (VBR points report mean frame delay instead).
pub fn qos_delay_us(r: &mmr_core::experiment::ExperimentResult) -> f64 {
    let m = &r.summary.metrics;
    if matches!(r.config.workload, WorkloadSpec::Vbr { .. }) {
        return m.mean_frame_delay_us;
    }
    m.class(TrafficClass::CbrHigh)
        .map(|c| c.mean_delay_us)
        .unwrap_or(0.0)
}

/// Short human label of a point: arbiter, load, injection, ports.
pub fn label(cfg: &SimConfig) -> String {
    let traffic = match &cfg.workload {
        WorkloadSpec::Cbr { .. } => "cbr".to_string(),
        WorkloadSpec::Vbr { injection, .. } => format!("vbr-{}", injection.label()),
        WorkloadSpec::Mix { .. } => "mix".to_string(),
    };
    format!(
        "{}/{}/{}p/load {:.2}/seed {:#x}",
        cfg.arbiter.label(),
        traffic,
        cfg.router.ports,
        cfg.workload.target_load(),
        cfg.seed
    )
}

/// Flit-cycle budget of a point (upper bound for run-until-drained).
pub fn cycle_budget(cfg: &SimConfig) -> u64 {
    match cfg.run {
        RunLength::Cycles(n) | RunLength::UntilDrained { max_cycles: n } => n,
    }
}

/// One row of the no-simulation listing.
#[derive(Debug, Clone, PartialEq)]
pub struct ListedPoint {
    /// Point label.
    pub label: String,
    /// Connections the CAC admitted.
    pub connections: usize,
    /// Flit-cycle budget.
    pub cycles: u64,
    /// Warm-up flit cycles.
    pub warmup: u64,
}

/// Parse every pack and build every point's input without simulating:
/// a broken workload fails here, fast.
pub fn list(workload: &'static str, seed: u64) -> Result<Vec<ListedPoint>, String> {
    let plan = plan(workload, seed)?;
    Ok(plan
        .points
        .iter()
        .map(|cfg| ListedPoint {
            label: label(cfg),
            connections: build_workload(cfg).len(),
            cycles: cycle_budget(cfg),
            warmup: cfg.warmup_cycles,
        })
        .collect())
}
