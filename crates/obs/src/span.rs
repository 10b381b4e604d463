//! Phase timing: clocks, spans, and the pipeline phase-span set.
//!
//! Durations are accumulated as **integer microseconds** into
//! [`Unit::Micros`](crate::Unit::Micros) counters, so finishing a span is
//! one atomic add — no floats, no locks, no allocation. Encoders convert
//! to seconds at exposition time, which is why the phase metrics are
//! named `…_seconds_total` despite the integer cells underneath.

use crate::registry::{Counter, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic time source, abstracted so span arithmetic is testable
/// without sleeping.
pub trait Clock {
    /// Microseconds elapsed since an arbitrary fixed origin. Must be
    /// monotonically non-decreasing.
    fn now_micros(&self) -> u64;
}

/// The production clock: wraps [`Instant`], so it is monotonic and immune
/// to wall-clock steps (NTP, suspend).
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_micros(&self) -> u64 {
        let micros = self.origin.elapsed().as_micros();
        u64::try_from(micros).unwrap_or(u64::MAX)
    }
}

/// A hand-cranked clock for tests: time only moves when
/// [`advance`](ManualClock::advance) is called.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A clock starting at 0 µs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves time forward by `micros`.
    pub fn advance(&self, micros: u64) {
        self.now.fetch_add(micros, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_micros(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

/// A live measurement: started at construction, recorded into its
/// duration/runs counters when [`finish`](Span::finish)ed or dropped.
///
/// Dropping without calling `finish` still records — a span on a path
/// that early-returns with `?` is measured, not lost.
pub struct Span<'a> {
    clock: &'a dyn Clock,
    started_micros: u64,
    duration_micros: Counter,
    runs: Counter,
    finished: bool,
}

impl<'a> Span<'a> {
    /// Starts a span against explicit counters. Most callers go through
    /// [`PhaseSpans::span`] instead.
    pub fn start(clock: &'a dyn Clock, duration_micros: Counter, runs: Counter) -> Self {
        Self {
            clock,
            started_micros: clock.now_micros(),
            duration_micros,
            runs,
            finished: false,
        }
    }

    /// Stops the span and records elapsed time; returns the elapsed
    /// microseconds.
    pub fn finish(mut self) -> u64 {
        self.record()
    }

    fn record(&mut self) -> u64 {
        if self.finished {
            return 0;
        }
        self.finished = true;
        let elapsed = self.clock.now_micros().saturating_sub(self.started_micros);
        self.duration_micros.add(elapsed);
        self.runs.inc();
        elapsed
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.record();
    }
}

/// The named pipeline phases of a `mine` run, in execution order.
///
/// These strings are the `phase` label values on the phase metrics, and
/// the contract surface for `docs/OBSERVABILITY.md` (covered by the same
/// drift test as metric names).
pub const PHASES: [&str; 6] = [
    "load",
    "index_build",
    "enumeration",
    "postprocess",
    "store_write",
    "report",
];

/// Per-phase timing instruments for the mining pipeline.
///
/// Registers, for every phase in [`PHASES`]:
///
/// * `regcluster_phase_duration_seconds_total{phase=…}` — cumulative time
///   spent in the phase (exported in seconds);
/// * `regcluster_phase_runs_total{phase=…}` — how many spans completed.
///
/// Handles are resolved once at construction; starting and finishing a
/// span afterwards performs no registry lookups.
pub struct PhaseSpans {
    duration: Vec<Counter>,
    runs: Vec<Counter>,
}

/// Name of the per-phase cumulative duration metric.
pub const PHASE_DURATION_METRIC: &str = "regcluster_phase_duration_seconds_total";
/// Name of the per-phase completed-span counter.
pub const PHASE_RUNS_METRIC: &str = "regcluster_phase_runs_total";

impl PhaseSpans {
    /// Registers the phase instruments in `registry` and returns the
    /// pre-resolved handle set.
    pub fn new(registry: &MetricsRegistry) -> Self {
        let mut duration = Vec::with_capacity(PHASES.len());
        let mut runs = Vec::with_capacity(PHASES.len());
        for phase in PHASES {
            duration.push(registry.counter_micros(
                PHASE_DURATION_METRIC,
                "Cumulative wall-clock time spent in each mining pipeline phase, in seconds.",
                &[("phase", phase)],
            ));
            runs.push(registry.counter(
                PHASE_RUNS_METRIC,
                "Completed timing spans per mining pipeline phase.",
                &[("phase", phase)],
            ));
        }
        Self { duration, runs }
    }

    /// Starts a span for `phase` (a name from [`PHASES`]).
    ///
    /// # Panics
    ///
    /// Panics if `phase` is not one of [`PHASES`] — phase names are a
    /// closed, documented set, not free-form strings.
    pub fn span<'a>(&self, clock: &'a dyn Clock, phase: &str) -> Span<'a> {
        let idx = PHASES
            .iter()
            .position(|p| *p == phase)
            .unwrap_or_else(|| panic!("unknown phase {phase:?}; expected one of {PHASES:?}"));
        Span::start(clock, self.duration[idx].clone(), self.runs[idx].clone())
    }

    /// Times `f` under a span for `phase` and returns its result.
    pub fn time<R>(&self, clock: &dyn Clock, phase: &str, f: impl FnOnce() -> R) -> R {
        let span = self.span(clock, phase);
        let result = f();
        span.finish();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_elapsed_micros() {
        let registry = MetricsRegistry::new();
        let clock = ManualClock::new();
        let spans = PhaseSpans::new(&registry);
        let span = spans.span(&clock, "load");
        clock.advance(1_500_000);
        assert_eq!(span.finish(), 1_500_000);
        let duration = registry.counter_micros(
            PHASE_DURATION_METRIC,
            "Cumulative wall-clock time spent in each mining pipeline phase, in seconds.",
            &[("phase", "load")],
        );
        assert_eq!(duration.get(), 1_500_000);
    }

    #[test]
    fn drop_records_once() {
        let registry = MetricsRegistry::new();
        let clock = ManualClock::new();
        let spans = PhaseSpans::new(&registry);
        {
            let _span = spans.span(&clock, "enumeration");
            clock.advance(250);
        } // dropped without finish()
        let runs = registry.counter(
            PHASE_RUNS_METRIC,
            "Completed timing spans per mining pipeline phase.",
            &[("phase", "enumeration")],
        );
        assert_eq!(runs.get(), 1, "drop records exactly one run");
    }

    #[test]
    fn time_helper_returns_value() {
        let registry = MetricsRegistry::new();
        let clock = ManualClock::new();
        let spans = PhaseSpans::new(&registry);
        let out = spans.time(&clock, "postprocess", || {
            clock.advance(42);
            7
        });
        assert_eq!(out, 7);
    }

    #[test]
    #[should_panic(expected = "unknown phase")]
    fn unknown_phase_panics() {
        let registry = MetricsRegistry::new();
        let clock = ManualClock::new();
        let spans = PhaseSpans::new(&registry);
        let _ = spans.span(&clock, "warp_drive");
    }

    #[test]
    fn monotonic_clock_advances() {
        let clock = MonotonicClock::new();
        let a = clock.now_micros();
        let b = clock.now_micros();
        assert!(b >= a);
    }
}
