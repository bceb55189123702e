//! Layered benchmark of the MMR simulator.
//!
//! Four workloads run through the public API of `mmr-core`,
//! `mmr-traffic`, `mmr-router`, `mmr-arbiter` and `mmr-sim`; see
//! `README.md` for the workloads, the metrics and what each should move.

pub mod checks;
pub mod host;
pub mod measure;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod workloads;
