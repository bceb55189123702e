//! The benchmark's own tests: tracing changes nothing, every workload's
//! inputs build, and the output checks can fail.

use mmr_core::experiment::{run_experiment, ExperimentResult};
use mmr_perfbench::checks::{self, PointEvidence};
use mmr_perfbench::measure::tally;
use mmr_perfbench::metrics::span_table;
use mmr_perfbench::run::{run_pass, run_point};
use mmr_perfbench::trace::Tracer;
use mmr_perfbench::workloads::{self, DEFAULT_SEEDS, WORKLOADS};

/// The point of a workload with the smallest cycle budget, then the
/// fewest connections.
fn smallest_point(workload: &'static str) -> mmr_core::config::SimConfig {
    let plan = workloads::plan(workload, 1).expect("workload plans");
    plan.points
        .iter()
        .min_by_key(|c| {
            (
                workloads::cycle_budget(c),
                mmr_core::experiment::build_workload(c).len(),
            )
        })
        .expect("workload has points")
        .clone()
}

#[test]
fn tracing_changes_nothing_on_the_smallest_point_of_each_workload() {
    for w in WORKLOADS {
        let cfg = smallest_point(w);
        let reference = run_experiment(&cfg);
        let plain = run_point(&cfg, false, &mut Tracer::new(false), 0);
        let traced = run_point(&cfg, true, &mut Tracer::new(true), 0);
        assert_eq!(plain.result, reference, "{w}: decomposed path differs");
        assert_eq!(traced.result, reference, "{w}: traced path differs");
        assert_eq!(
            plain.rng_fingerprint, traced.rng_fingerprint,
            "{w}: tracing moved the arbiter RNG stream"
        );
        assert_eq!(plain.digest, traced.digest, "{w}");
        assert!(plain.failures.is_empty(), "{w}: {:?}", plain.failures);
        assert!(traced.failures.is_empty(), "{w}: {:?}", traced.failures);
        let layers = traced.layers.expect("traced point has layer counts");
        assert!(
            layers.step_ns.count() > 0 && layers.arbiter_ns.count() > 0,
            "{w}"
        );
        assert!(
            layers.priority_calls > 0 && layers.priority_samples > 0,
            "{w}"
        );
        assert!(layers.wrapper_ns > 0, "{w}: no wrapper bookkeeping timed");
        assert!(
            plain.layers.is_none(),
            "{w}: untraced point recorded layers"
        );
    }
}

#[test]
fn listing_builds_every_input_without_simulating() {
    for w in WORKLOADS {
        let points = workloads::list(w, 1).expect("workload lists");
        assert!(!points.is_empty(), "{w}");
        for p in &points {
            assert!(p.connections > 0, "{w}: {} admits nothing", p.label);
            assert!(p.cycles > p.warmup, "{w}: {} measures nothing", p.label);
        }
    }
    assert_eq!(workloads::lookup("wimax_observed"), Some("wimax_observed"));
    assert!(workloads::lookup("nope").is_none());
    assert!(workloads::plan("nope", 1).is_err());
}

#[test]
fn every_default_seed_has_a_recorded_digest() {
    for w in WORKLOADS {
        for seed in DEFAULT_SEEDS {
            assert!(
                checks::recorded_digest(w, seed).is_some(),
                "{w} seed {seed} has no recorded digest"
            );
        }
        assert!(checks::recorded_digest(w, 1_000_003).is_none());
    }
}

#[test]
fn a_traced_pass_matches_the_recorded_digests_and_closes() {
    let mut tracer = Tracer::new(true);
    let pass = run_pass("fig5_cbr", 1, true, &mut tracer).expect("pass runs");
    let points = pass.points.len();
    assert_eq!(
        tally(&[pass.record()]),
        (points, 0),
        "{:?}",
        pass.workload_failures
    );
    assert_eq!(Some(pass.digest), checks::recorded_digest("fig5_cbr", 1));
    let (table, closure) = span_table(tracer.spans(), 0.95);
    assert!(closure.is_empty(), "{closure:?}");
    for name in [
        "workload",
        "compile",
        "point",
        "build_workload",
        "build_router",
        "run",
    ] {
        assert!(table.contains_key(name), "missing span {name}");
    }
    let points = points as u64;
    assert!(table["point"].count == points && table["run"].count == points);
}

#[test]
fn the_wimax_pass_evaluates_claims_and_renders_the_dashboard() {
    let pass = run_pass("wimax_observed", 1, false, &mut Tracer::new(false)).expect("pass runs");
    assert!(pass.has_pack);
    assert!(
        pass.workload_failures.is_empty(),
        "{:?}",
        pass.workload_failures
    );
    assert!(pass.claims_s > 0.0 && pass.dashboard_s > 0.0);
    assert!(pass.points.iter().all(|p| p.result.telemetry.is_some()));
}

/// Evidence under which `r` passes every check: the backlog at
/// measurement start that makes flit conservation hold.
fn evidence(r: &ExperimentResult) -> PointEvidence {
    let s = &r.summary;
    PointEvidence {
        backlog_at_start: s.delivered_flits + s.backlog_flits as u64 + s.faults.lost_flits()
            - s.generated_flits,
        credits_consistent: true,
    }
}

#[test]
fn output_checks_fail_on_broken_results() {
    let cfg = smallest_point("fig5_cbr");
    let r = run_experiment(&cfg);
    assert!(checks::check_point(&r, &evidence(&r)).is_empty());

    let mut leaky = r.clone();
    leaky.summary.generated_flits += 1;
    let f = checks::check_point(&leaky, &evidence(&r));
    assert!(f.iter().any(|m| m.contains("conservation")), "{f:?}");

    let mut ev = evidence(&r);
    ev.credits_consistent = false;
    assert_eq!(checks::check_point(&r, &ev).len(), 1);

    let vbr = smallest_point("vbr_mpeg");
    let mut undrained = run_experiment(&vbr);
    assert!(checks::check_point(&undrained, &evidence(&undrained)).is_empty());
    undrained.drained = false;
    let f = checks::check_point(&undrained, &evidence(&undrained));
    assert!(f.iter().any(|m| m.contains("drain")), "{f:?}");
}

#[test]
fn digest_tracks_every_byte_and_the_rng_stream() {
    let base = checks::digest("{\"a\": 1}", 5);
    assert_eq!(base, checks::digest("{\"a\": 1}", 5));
    assert_ne!(base, checks::digest("{\"a\": 2}", 5));
    assert_ne!(base, checks::digest("{\"a\": 1}", 6));
    assert_ne!(checks::pass_digest([1, 2]), checks::pass_digest([2, 1]));
}

#[test]
fn tally_fails_every_point_of_a_pass_with_a_workload_failure() {
    let pass = run_pass("wide64_fat", 1_000_003, false, &mut Tracer::new(false)).expect("runs");
    let points = pass.points.len();
    let good = pass.record();
    assert_eq!(tally(&[good.clone(), good.clone()]), (2 * points, 0));

    let mut wrong_digest = good.clone();
    wrong_digest
        .workload_failures
        .push("pass digest mismatch".into());
    assert_eq!(tally(&[good.clone(), wrong_digest]), (2 * points, points));

    let mut drifted = good.clone();
    drifted.digests[0] ^= 1;
    assert_eq!(tally(&[good.clone(), drifted]), (2 * points, 1));

    let mut leaky = good.clone();
    leaky.point_failures[1].push("flit conservation".into());
    assert_eq!(tally(&[leaky, good]), (2 * points, 1));
}
