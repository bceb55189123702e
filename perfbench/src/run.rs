//! One pass of a workload: every point through the decomposed
//! build → run → report path, then (for a pack) claims and dashboard.
//!
//! The decomposed path mirrors `mmr_core::experiment::run_experiment`
//! call for call, so each layer boundary can be timed from outside; the
//! benchmark's tests prove it returns the same `ExperimentResult` and RNG
//! stream position, traced or not.

use crate::checks::{self, PointEvidence};
use crate::metrics::median;
use crate::trace::{self, LayerCounts, SteppedRouter, TimedPriority, TimedScheduler, Tracer};
use crate::workloads::{self, Plan};
use mmr_bench::overview::{render_overview, validate_overview};
use mmr_core::config::{EngineMode, RunLength, SimConfig};
use mmr_core::experiment::{build_router, build_workload, ExperimentResult};
use mmr_core::scenarios::Fidelity;
use mmr_core::sweep::group_points;
use mmr_router::router::MmrRouter;
use mmr_sim::engine::{RunOutcome, Runner, StopCondition};
use mmr_traffic::workload::AdmissionTally;

/// Everything one point produced.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The simulated result.
    pub result: ExperimentResult,
    /// Arbiter RNG stream position after the run.
    pub rng_fingerprint: u64,
    /// Engine accounting.
    pub outcome: RunOutcome,
    /// Seconds in `build_workload` (traffic generation and CAC).
    pub build_workload_s: f64,
    /// Seconds in router construction (and telemetry arming).
    pub build_router_s: f64,
    /// Seconds in the engine's run loop.
    pub run_s: f64,
    /// Seconds assembling the summary (observatory report included).
    pub summary_s: f64,
    /// Seconds in the observatory's report alone (0 when disarmed).
    pub observatory_report_s: f64,
    /// Seconds serializing the result to JSON.
    pub serialize_s: f64,
    /// Serialized result size in bytes.
    pub result_bytes: usize,
    /// Digest of the serialized result and RNG fingerprint.
    pub digest: u64,
    /// Failed output checks (empty when correct).
    pub failures: Vec<String>,
    /// Wrapper counts (traced points only).
    pub layers: Option<LayerCounts>,
}

/// A point set up and ready for its first cycle.
struct BuiltPoint {
    router: MmrRouter,
    achieved_load: f64,
    connections: usize,
    admission: AdmissionTally,
    build_workload_s: f64,
    build_router_s: f64,
}

/// Set a point up: `build_workload`, then the router (with the arbiter
/// and priority function wrapped when `traced`) and its telemetry.
fn build_point(cfg: &SimConfig, traced: bool, tr: &mut Tracer, point: usize) -> BuiltPoint {
    let p = Some(point);
    let (workload, build_workload_s) = tr.span("build_workload", p, |_| build_workload(cfg));
    let achieved_load = workload.mean_load();
    let connections = workload.len();
    let admission = workload.admission;
    let (router, build_router_s) = tr.span("build_router", p, |_| {
        let mut router = if traced {
            MmrRouter::new(
                cfg.router,
                workload,
                Box::new(TimedScheduler::new(
                    cfg.arbiter.instantiate(cfg.router.ports),
                )),
                Box::new(TimedPriority::new(cfg.priority.instantiate())),
                cfg.seed,
            )
        } else {
            build_router(cfg, workload)
        };
        if let Some(t) = &cfg.telemetry {
            router.set_telemetry(t.to_config());
        }
        router
    });
    BuiltPoint {
        router,
        achieved_load,
        connections,
        admission,
        build_workload_s,
        build_router_s,
    }
}

/// Run one point through the decomposed path.  With `traced`, the arbiter
/// and priority function are wrapped before `MmrRouter::new` and every
/// step is timed.
pub fn run_point(cfg: &SimConfig, traced: bool, tr: &mut Tracer, point: usize) -> PointRun {
    assert!(
        cfg.fault.is_none() && cfg.fabric.is_none(),
        "benchmark points are single-router and fault-free"
    );
    let p = Some(point);
    let BuiltPoint {
        mut router,
        achieved_load,
        connections,
        admission,
        build_workload_s,
        build_router_s,
    } = build_point(cfg, traced, tr, point);

    let stop = match cfg.run {
        RunLength::Cycles(n) => StopCondition::Cycles(n),
        RunLength::UntilDrained { max_cycles } => StopCondition::ModelDoneOrCycles(max_cycles),
    };
    let runner = Runner::new(cfg.warmup_cycles, stop);
    if traced {
        trace::begin_point(cfg.router.ports);
    }
    let ((outcome, backlog_at_start), run_s) = tr.span("run", p, |_| {
        if traced {
            drive(&runner, cfg, SteppedRouter::<true>::new(&mut router))
        } else {
            drive(&runner, cfg, SteppedRouter::<false>::new(&mut router))
        }
    });
    let layers = traced.then(trace::end_point);

    let ((result, observatory_report_s), summary_s) = tr.span("summary", p, |tr| {
        let summary = router.summary();
        let (telemetry, report_s) = match cfg.telemetry {
            Some(_) => {
                let (t, s) = tr.span("observatory_report", p, |_| router.telemetry_report());
                (Some(t), s)
            }
            None => (None, 0.0),
        };
        let result = ExperimentResult {
            config: cfg.clone(),
            achieved_load,
            connections,
            admission,
            executed_cycles: outcome.executed,
            drained: router.drained(),
            summary,
            telemetry,
        };
        (result, report_s)
    });
    let (json, serialize_s) = tr.span("serialize", p, |_| {
        serde_json::to_string(&result).expect("ExperimentResult serializes")
    });
    let ((rng_fingerprint, digest, failures), _) = tr.span("check", p, |_| {
        let rng_fingerprint = router.rng_fingerprint();
        let digest = checks::digest(&json, rng_fingerprint);
        let evidence = PointEvidence {
            backlog_at_start,
            credits_consistent: router.credits_consistent(),
        };
        (
            rng_fingerprint,
            digest,
            checks::check_point(&result, &evidence),
        )
    });
    tr.span("drop", p, |_| drop(router));
    PointRun {
        result,
        rng_fingerprint,
        outcome,
        build_workload_s,
        build_router_s,
        run_s,
        summary_s,
        observatory_report_s,
        serialize_s,
        result_bytes: json.len(),
        digest,
        failures,
        layers,
    }
}

fn drive<const TIMED: bool>(
    runner: &Runner,
    cfg: &SimConfig,
    mut model: SteppedRouter<'_, TIMED>,
) -> (RunOutcome, u64) {
    let outcome = match cfg.engine_mode() {
        EngineMode::EventHorizon => runner.run_horizon(&mut model),
        EngineMode::CycleByCycle => runner.run(&mut model),
    };
    (outcome, model.backlog_at_start)
}

/// One pass over a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Seconds for the whole workload.
    pub wall_s: f64,
    /// Seconds compiling the workload definition (pack parse and
    /// compile for `wimax_observed`).
    pub compile_s: f64,
    /// Whether the workload compiled a pack.
    pub has_pack: bool,
    /// Digest over every point's digest, in order.
    pub digest: u64,
    /// Per-point records, in plan order.
    pub points: Vec<PointRun>,
    /// Seconds evaluating pack claims (0 without a pack).
    pub claims_s: f64,
    /// Seconds rendering the dashboard (0 without a pack).
    pub dashboard_s: f64,
    /// Failures that are not tied to one point (recorded digest, claims,
    /// dashboard); any fails every point of the pass.
    pub workload_failures: Vec<String>,
}

impl Pass {
    /// Set-up seconds: compile plus every point's builds.
    pub fn setup_s(&self) -> f64 {
        self.compile_s
            + self
                .points
                .iter()
                .map(|p| p.build_workload_s + p.build_router_s)
                .sum::<f64>()
    }

    /// Seconds inside the engine's run loop, over all points.
    pub fn run_s(&self) -> f64 {
        self.points.iter().map(|p| p.run_s).sum()
    }

    /// What a run keeps of this pass once its results are no longer
    /// needed.
    pub fn record(&self) -> PassRecord {
        PassRecord {
            wall_s: self.wall_s,
            setup_s: self.setup_s(),
            run_s: self.run_s(),
            executed: self.points.iter().map(|p| p.outcome.executed).sum(),
            delivered: self
                .points
                .iter()
                .map(|p| p.result.summary.delivered_flits)
                .sum(),
            digests: self.points.iter().map(|p| p.digest).collect(),
            point_failures: self.points.iter().map(|p| p.failures.clone()).collect(),
            workload_failures: self.workload_failures.clone(),
        }
    }
}

/// The host times, point digests and check failures of one pass, without
/// its simulated results.  A run keeps the full [`Pass`] only for its
/// first pass, so its memory high-water mark does not grow with the
/// number of passes that fit into `--seconds`.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// Seconds for the whole workload.
    pub wall_s: f64,
    /// Set-up seconds (see [`Pass::setup_s`]).
    pub setup_s: f64,
    /// Seconds inside the engine's run loop, over all points.
    pub run_s: f64,
    /// Flit cycles executed, over all points.
    pub executed: u64,
    /// Flits delivered in the measurement windows, over all points.
    pub delivered: u64,
    /// Point digests, in plan order.
    pub digests: Vec<u64>,
    /// Failed per-point checks, in plan order.
    pub point_failures: Vec<Vec<String>>,
    /// Failures not tied to one point; any fails every point of the pass.
    pub workload_failures: Vec<String>,
}

/// Run the whole workload once.
pub fn run_pass(
    workload: &'static str,
    seed: u64,
    traced: bool,
    tr: &mut Tracer,
) -> Result<Pass, String> {
    let (pass, wall_s) = tr.span("workload", None, |tr| -> Result<Pass, String> {
        let (plan, compile_s) = tr.span("compile", None, |_| workloads::plan(workload, seed));
        let plan: Plan = plan?;
        let mut points = Vec::with_capacity(plan.points.len());
        for (i, cfg) in plan.points.iter().enumerate() {
            let (run, _) = tr.span("point", Some(i), |tr| run_point(cfg, traced, tr, i));
            points.push(run);
        }
        let digest = checks::pass_digest(points.iter().map(|p| p.digest));
        let mut pass = Pass {
            wall_s: 0.0,
            compile_s,
            has_pack: plan.pack.is_some(),
            digest,
            points,
            claims_s: 0.0,
            dashboard_s: 0.0,
            workload_failures: Vec::new(),
        };
        if let Some(want) = checks::recorded_digest(workload, seed) {
            if want != digest {
                pass.workload_failures
                    .push(format!("pass digest {digest:016x} != recorded {want:016x}"));
            }
        }
        if let Some(pack) = &plan.pack {
            let rep = &pass.points[plan.representative].result;
            let scenario = format!("{} @ load {}", pack.name, rep.config.workload.target_load());
            let (html, dashboard_s) =
                tr.span("dashboard", None, |_| render_overview(&scenario, rep, &[]));
            pass.dashboard_s = dashboard_s;
            match html.map(|h| validate_overview(&h)) {
                Some(Ok(())) => {}
                Some(Err(e)) => pass.workload_failures.push(format!("dashboard: {e}")),
                None => pass
                    .workload_failures
                    .push("dashboard: no observatory data".to_string()),
            }
            let results: Vec<ExperimentResult> =
                pass.points.iter().map(|p| p.result.clone()).collect();
            let (report, claims_s) = tr.span("claims", None, |_| {
                pack.evaluate(&group_points(&pack.sweep, results), Fidelity::Quick)
            });
            pass.claims_s = claims_s;
            for c in report.failed() {
                pass.workload_failures.push(format!(
                    "claim {}: median {} vs threshold {}",
                    c.id, c.median, c.threshold
                ));
            }
        }
        Ok(pass)
    });
    let mut pass = pass?;
    pass.wall_s = wall_s;
    Ok(pass)
}

/// Set the whole workload up once without simulating: compile it, then
/// build every point's workload and router.  Returns the set-up seconds,
/// measured as a pass measures them.
pub fn setup_only(workload: &'static str, seed: u64) -> Result<f64, String> {
    let mut tr = Tracer::new(false);
    let (plan, compile_s) = tr.span("compile", None, |_| workloads::plan(workload, seed));
    let mut setup_s = compile_s;
    for (i, cfg) in plan?.points.iter().enumerate() {
        let built = build_point(cfg, false, &mut tr, i);
        setup_s += built.build_workload_s + built.build_router_s;
    }
    Ok(setup_s)
}

/// Disarmed/armed pairs the observatory pricing alternates, so one slow
/// stretch of the host cannot land on only one side.
const OBSERVATORY_PAIRS: usize = 3;

/// Armed-versus-disarmed cost of the QoS observatory on one point.
#[derive(Debug, Clone, Copy)]
pub struct ObservatoryCost {
    /// Median over pairs of the armed mean step time over the disarmed
    /// one, as a percentage overhead.
    pub overhead_pct: f64,
    /// Median seconds the armed point's observatory report took.
    pub report_s: f64,
}

/// Price the observatory on the workload's representative point.
pub fn observatory_cost(workload: &'static str, seed: u64) -> Result<ObservatoryCost, String> {
    let plan = workloads::plan(workload, seed)?;
    let cfg = &plan.points[plan.representative];
    let mut tr = Tracer::new(false);
    let mean_step = |run: &PointRun| {
        let l = run.layers.as_ref().expect("traced point has layer counts");
        l.step_ns.mean()
    };
    let disarmed = SimConfig {
        telemetry: None,
        ..cfg.clone()
    };
    let armed = cfg.with_telemetry(cfg.telemetry.unwrap_or_default());
    let mut ratios = Vec::with_capacity(OBSERVATORY_PAIRS);
    let mut report_s = Vec::with_capacity(OBSERVATORY_PAIRS);
    for _ in 0..OBSERVATORY_PAIRS {
        let d = run_point(&disarmed, true, &mut tr, 0);
        let a = run_point(&armed, true, &mut tr, 0);
        ratios.push(mean_step(&a) / mean_step(&d));
        report_s.push(a.observatory_report_s);
    }
    Ok(ObservatoryCost {
        overhead_pct: (median(&ratios) - 1.0) * 100.0,
        report_s: median(&report_s),
    })
}
