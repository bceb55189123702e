//! Output checks behind `failed_frac`, and the result digests they
//! compare against.

use mmr_core::config::WorkloadSpec;
use mmr_core::experiment::ExperimentResult;

/// Pass digests recorded for the default seeds, one
/// `<workload> <seed> <digest>` line each.
const RECORDED: &str = include_str!("../digests.txt");

/// FNV-1a 64 over the serialized result, then the RNG fingerprint: equal
/// digests mean byte-identical results and identical arbiter draws.
pub fn digest(serialized: &str, rng_fingerprint: u64) -> u64 {
    fnv(serialized.bytes().chain(rng_fingerprint.to_le_bytes()))
}

/// Digest of a whole pass: the same hash over its point digests in order.
pub fn pass_digest(points: impl IntoIterator<Item = u64>) -> u64 {
    fnv(points.into_iter().flat_map(u64::to_le_bytes))
}

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The recorded pass digest of `workload` under `seed`, if `seed` is a
/// recorded one.
pub fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// What a point's checks need beyond the result itself.
#[derive(Debug, Clone, Copy)]
pub struct PointEvidence {
    /// Flits buffered when the measurement window opened.
    pub backlog_at_start: u64,
    /// Router credit counters agree with VC occupancy after the run.
    pub credits_consistent: bool,
}

/// Run every per-point output check; returns the failures, empty when
/// the point is correct.
pub fn check_point(r: &ExperimentResult, ev: &PointEvidence) -> Vec<String> {
    let mut failures = Vec::new();
    let s = &r.summary;
    let lost = s.faults.lost_flits();
    if s.generated_flits + ev.backlog_at_start != s.delivered_flits + s.backlog_flits as u64 + lost
    {
        failures.push(format!(
            "flit conservation: generated {} + backlog at start {} != delivered {} + backlog {} + lost {}",
            s.generated_flits, ev.backlog_at_start, s.delivered_flits, s.backlog_flits, lost
        ));
    }
    if !ev.credits_consistent {
        failures.push("credits inconsistent with VC occupancy".to_string());
    }
    if matches!(r.config.workload, WorkloadSpec::Vbr { .. }) && !r.drained {
        failures.push("VBR workload did not drain".to_string());
    }
    if s.delivered_flits == 0 {
        failures.push("nothing delivered".to_string());
    }
    failures
}
