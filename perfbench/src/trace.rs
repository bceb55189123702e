//! Outside-in tracing: spans recorded around the benchmark's calls into
//! each layer, plus delegating wrappers that time the per-call layers
//! (router step, arbiter kernel, link priority) without any code inside
//! the simulator.
//!
//! Per-call timings go into one log-bucketed histogram per point, never
//! one span per call.  The wrappers' own bookkeeping inside a step (the
//! arbiter wrapper's candidate scan, the priority wrapper's timed bursts)
//! is timed too and taken out of the step it ran in, so the step, self
//! and share figures are the program's.  The arbiter and priority wrappers are moved into
//! the router, so they record into a thread-local that the benchmark
//! drains after each point; every point runs on the benchmark's thread.

use mmr_arbiter::candidate::{CandidateSet, Priority};
use mmr_arbiter::matching::Matching;
use mmr_arbiter::priority::LinkPriority;
use mmr_arbiter::scheduler::{KernelStats, SwitchScheduler};
use mmr_router::router::MmrRouter;
use mmr_sim::engine::CycleModel;
use mmr_sim::rng::SimRng;
use mmr_sim::stats::LogHistogram;
use mmr_sim::time::FlitCycle;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Sub-bucket bits of the per-call histograms (≤ 3 % quantile error).
const HIST_BITS: u32 = 5;
/// One link-priority call in this many is timed.
pub const PRIORITY_SAMPLE_EVERY: u64 = 64;
/// A timed priority sample repeats the (pure) call this many times so the
/// clock's own cost is amortised.
const PRIORITY_BURST: u32 = 32;
/// The router backlog is sampled every this many steps.
const BACKLOG_SAMPLE_EVERY: u64 = 64;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span covers (`workload`, `point`, `run`, …).
    pub name: &'static str,
    /// Point index shared by every span of one point (`None` above it).
    pub point: Option<usize>,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.  Disabled, it still times each call (the
/// untraced run needs set-up and run-loop times) but records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span and return its result and duration in
    /// seconds.  Spans opened inside `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        point: Option<usize>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let idx = if self.enabled {
            let idx = self.spans.len();
            self.spans.push(Span {
                name,
                point,
                parent: self.open.last().copied(),
                start_ns: ns_between(self.origin, start),
                end_ns: 0,
            });
            self.open.push(idx);
            Some(idx)
        } else {
            None
        };
        let out = f(self);
        let end = Instant::now();
        if let Some(idx) = idx {
            self.open.pop();
            self.spans[idx].end_ns = ns_between(self.origin, end);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

/// Per-point counts and timings gathered by the wrappers.
#[derive(Debug, Clone)]
pub struct LayerCounts {
    /// Router ports of the point (for the per-port budget).
    pub ports: usize,
    /// Nanoseconds per executed `CycleModel::step`, net of the wrappers'
    /// bookkeeping inside it.
    pub step_ns: LogHistogram,
    /// Nanoseconds per `SwitchScheduler::schedule_into`.
    pub arbiter_ns: LogHistogram,
    /// Candidates offered across all arbiter calls.
    pub candidates: u64,
    /// Inputs that offered at least one candidate, summed over calls.
    pub offering_inputs: u64,
    /// Grants returned across all arbiter calls.
    pub grants: u64,
    /// `LinkPriority::priority` calls.
    pub priority_calls: u64,
    /// Timed priority calls (each a burst of repeats).
    pub priority_samples: u64,
    /// Summed per-call nanoseconds of the timed samples.
    pub priority_sample_ns: f64,
    /// Sum of sampled router backlogs (flits).
    pub backlog_sum: u64,
    /// Backlog samples taken.
    pub backlog_samples: u64,
    /// Nanoseconds of wrapper bookkeeping taken out of the steps.
    pub wrapper_ns: u64,
    /// Wrapper bookkeeping inside the step now running, not yet taken out.
    open_wrapper_ns: u64,
}

impl LayerCounts {
    /// Empty counts for a router with `ports` ports.
    pub fn new(ports: usize) -> Self {
        LayerCounts {
            ports,
            step_ns: LogHistogram::new(HIST_BITS),
            arbiter_ns: LogHistogram::new(HIST_BITS),
            candidates: 0,
            offering_inputs: 0,
            grants: 0,
            priority_calls: 0,
            priority_samples: 0,
            priority_sample_ns: 0.0,
            backlog_sum: 0,
            backlog_samples: 0,
            wrapper_ns: 0,
            open_wrapper_ns: 0,
        }
    }

    /// Mean nanoseconds per priority call over the timed samples.
    pub fn priority_ns_per_call(&self) -> f64 {
        if self.priority_samples == 0 {
            0.0
        } else {
            self.priority_sample_ns / self.priority_samples as f64
        }
    }

    /// Estimated total nanoseconds spent in priority calls.
    pub fn priority_total_ns(&self) -> f64 {
        self.priority_calls as f64 * self.priority_ns_per_call()
    }

    /// Fold another point's counts into these.
    pub fn merge(&mut self, o: &LayerCounts) {
        self.step_ns.merge(&o.step_ns);
        self.arbiter_ns.merge(&o.arbiter_ns);
        self.candidates += o.candidates;
        self.offering_inputs += o.offering_inputs;
        self.grants += o.grants;
        self.priority_calls += o.priority_calls;
        self.priority_samples += o.priority_samples;
        self.priority_sample_ns += o.priority_sample_ns;
        self.backlog_sum += o.backlog_sum;
        self.backlog_samples += o.backlog_samples;
        self.wrapper_ns += o.wrapper_ns;
    }
}

thread_local! {
    static KERNELS: RefCell<Option<LayerCounts>> = const { RefCell::new(None) };
}

/// Start collecting wrapper counts for a point on this thread.
pub fn begin_point(ports: usize) {
    KERNELS.with(|k| *k.borrow_mut() = Some(LayerCounts::new(ports)));
}

/// Stop collecting and return the point's wrapper counts.
pub fn end_point() -> LayerCounts {
    KERNELS
        .with(|k| k.borrow_mut().take())
        .expect("end_point follows begin_point on the same thread")
}

fn with_counts(f: impl FnOnce(&mut LayerCounts)) {
    KERNELS.with(|k| {
        if let Some(c) = k.borrow_mut().as_mut() {
            f(c)
        }
    });
}

/// Delegating `SwitchScheduler` that times every `schedule_into` call and
/// counts candidates offered and grants made.  The count is timed as
/// wrapper bookkeeping.
pub struct TimedScheduler {
    inner: Box<dyn SwitchScheduler>,
}

impl TimedScheduler {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn SwitchScheduler>) -> Self {
        TimedScheduler { inner }
    }
}

impl SwitchScheduler for TimedScheduler {
    fn schedule_into(&mut self, candidates: &CandidateSet, rng: &mut SimRng, out: &mut Matching) {
        let start = Instant::now();
        self.inner.schedule_into(candidates, rng, out);
        let done = Instant::now();
        let offering = (0..candidates.ports())
            .filter(|&i| candidates.output_mask(i).iter().any(|&w| w != 0))
            .count() as u64;
        let offered = candidates.len() as u64;
        let grants = out.size() as u64;
        with_counts(|c| {
            c.arbiter_ns.record(ns_between(start, done));
            c.candidates += offered;
            c.offering_inputs += offering;
            c.grants += grants;
            c.open_wrapper_ns += done.elapsed().as_nanos() as u64;
        });
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn set_probe_enabled(&mut self, enabled: bool) {
        self.inner.set_probe_enabled(enabled)
    }

    fn kernel_stats(&self) -> KernelStats {
        self.inner.kernel_stats()
    }
}

/// Delegating `LinkPriority` that counts every call and times one in
/// [`PRIORITY_SAMPLE_EVERY`] as a burst of repeats of the same pure call.
/// The burst is timed as wrapper bookkeeping.
pub struct TimedPriority {
    inner: Box<dyn LinkPriority>,
}

impl TimedPriority {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn LinkPriority>) -> Self {
        TimedPriority { inner }
    }
}

impl LinkPriority for TimedPriority {
    fn priority(&self, reserved_slots: u64, iat_rc: f64, waited_rc: u64) -> Priority {
        let mut sample = false;
        with_counts(|c| {
            c.priority_calls += 1;
            sample = c.priority_calls.is_multiple_of(PRIORITY_SAMPLE_EVERY);
        });
        if sample {
            let start = Instant::now();
            for _ in 0..PRIORITY_BURST {
                black_box(self.inner.priority(
                    black_box(reserved_slots),
                    black_box(iat_rc),
                    black_box(waited_rc),
                ));
            }
            let per_call = start.elapsed().as_nanos() as f64 / PRIORITY_BURST as f64;
            with_counts(|c| {
                c.priority_samples += 1;
                c.priority_sample_ns += per_call;
                c.open_wrapper_ns += start.elapsed().as_nanos() as u64;
            });
        }
        self.inner.priority(reserved_slots, iat_rc, waited_rc)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The router as the engine steps it.  Always records the backlog when
/// measurement starts (the flit-conservation check needs it); with
/// `TIMED` it also times every step, net of the wrappers' bookkeeping
/// inside it, and samples the backlog.
pub struct SteppedRouter<'a, const TIMED: bool> {
    router: &'a mut MmrRouter,
    /// Flits buffered when the measurement window opened.
    pub backlog_at_start: u64,
    steps: u64,
}

impl<'a, const TIMED: bool> SteppedRouter<'a, TIMED> {
    /// Wrap `router` for one run.
    pub fn new(router: &'a mut MmrRouter) -> Self {
        SteppedRouter {
            router,
            backlog_at_start: 0,
            steps: 0,
        }
    }
}

impl<const TIMED: bool> CycleModel for SteppedRouter<'_, TIMED> {
    #[inline]
    fn step(&mut self, now: FlitCycle, measuring: bool) {
        if !TIMED {
            return self.router.step(now, measuring);
        }
        let start = Instant::now();
        self.router.step(now, measuring);
        let ns = start.elapsed().as_nanos() as u64;
        self.steps += 1;
        let backlog = self
            .steps
            .is_multiple_of(BACKLOG_SAMPLE_EVERY)
            .then(|| self.router.backlog());
        with_counts(|c| {
            let bookkeeping = std::mem::take(&mut c.open_wrapper_ns);
            c.wrapper_ns += bookkeeping;
            c.step_ns.record(ns.saturating_sub(bookkeeping));
            if let Some(b) = backlog {
                c.backlog_sum += b as u64;
                c.backlog_samples += 1;
            }
        });
    }

    fn on_measurement_start(&mut self, now: FlitCycle) {
        self.backlog_at_start = self.router.backlog() as u64;
        self.router.on_measurement_start(now)
    }

    #[inline]
    fn is_done(&self, now: FlitCycle) -> bool {
        self.router.is_done(now)
    }

    #[inline]
    fn next_event(&self, now: FlitCycle) -> FlitCycle {
        self.router.next_event(now)
    }

    #[inline]
    fn skip_quiescent(&mut self, from: FlitCycle, n: u64, measuring: bool) {
        self.router.skip_quiescent(from, n, measuring)
    }
}
