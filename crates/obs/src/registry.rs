//! The metrics registry: named counters and fixed-bucket histograms.
//!
//! Registration is the slow path — it takes a lock, validates names, and
//! allocates the instrument cell. Everything after registration is the fast
//! path: handles are `Arc`s straight to the atomic cells, so recording is a
//! relaxed atomic read-modify-write with **no lock, no lookup and no
//! allocation**. Hot-path users (the mining observer, the HTTP workers)
//! therefore pre-register every instrument they will ever touch and keep
//! the handles; see DESIGN.md §9 for why this is load-bearing for the
//! zero-allocation enumeration budget.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// How a metric's raw `u64` cell is interpreted at exposition time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// The value is a plain count and is exported verbatim.
    Count,
    /// The value is a duration in **microseconds**, accumulated as an
    /// integer so updates stay a single atomic add; encoders divide by
    /// 10⁶ and export **seconds**, per Prometheus convention. Metrics
    /// with this unit should be named `…_seconds_total`.
    Micros,
}

/// The exposition type of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing counter.
    Counter,
    /// Fixed-bucket histogram (cumulative `le` buckets on exposition).
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A clonable handle to a registered counter.
///
/// All operations are relaxed atomics on one shared cell: safe from any
/// thread, free of locks and allocation. Clones observe the same cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Whether this is the last handle on the cell: the registry that
    /// exported it, and every other clone, has been dropped.
    pub fn is_sole_handle(&self) -> bool {
        Arc::strong_count(&self.cell) == 1
    }
}

/// Shared state of a registered histogram.
#[derive(Debug)]
pub(crate) struct HistogramCell {
    /// Ascending upper bounds; an implicit `+Inf` bucket follows.
    pub(crate) bounds: Box<[f64]>,
    /// Per-bucket observation counts, `bounds.len() + 1` cells — **not**
    /// cumulative; encoders accumulate. The last cell is the overflow
    /// (`+Inf`) bucket.
    pub(crate) buckets: Box<[AtomicU64]>,
    /// Sum of all observed values, stored as `f64` bits and updated by
    /// compare-exchange so `observe` never locks.
    pub(crate) sum_bits: AtomicU64,
}

/// A clonable handle to a registered fixed-bucket histogram.
///
/// [`observe`](Histogram::observe) touches one bucket cell and the sum
/// cell — no locks, no allocation. Clones observe the same cells.
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: f64) {
        // Linear scan: bucket lists are small (≤ ~20) and the scan is
        // branch-predictable, beating a binary search at this size.
        let mut idx = self.cell.bounds.len();
        for (i, bound) in self.cell.bounds.iter().enumerate() {
            if value <= *bound {
                idx = i;
                break;
            }
        }
        self.cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.cell.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + value).to_bits();
            match self.cell.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.cell
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.cell.sum_bits.load(Ordering::Relaxed))
    }
}

/// One registered series: a concrete (name, label set) pair bound to its
/// instrument cell.
pub(crate) struct Series {
    pub(crate) labels: Vec<(String, String)>,
    pub(crate) instrument: Instrument,
}

/// The cell behind a series.
pub(crate) enum Instrument {
    /// Counter cell.
    Counter(Arc<AtomicU64>),
    /// Histogram cell.
    Histogram(Arc<HistogramCell>),
}

/// A metric family: every series sharing one name, help text, kind and
/// unit. Prometheus requires `# HELP`/`# TYPE` once per name, so the
/// registry groups series this way at registration time.
pub(crate) struct Family {
    pub(crate) name: String,
    pub(crate) help: String,
    pub(crate) kind: MetricKind,
    pub(crate) unit: Unit,
    pub(crate) series: Vec<Series>,
}

/// A registry of metric families.
///
/// Thread-safe: registration serializes on an internal mutex, recording
/// through the returned handles is lock-free. Registering the same
/// `(name, labels)` pair twice returns a handle to the **same** cell, so
/// independent components may idempotently declare the instruments they
/// share.
///
/// # Panics
///
/// Registration panics on programmer error — invalid metric/label names,
/// re-registering a name with a different kind/help/unit, or non-ascending
/// histogram bounds. These are wiring bugs, caught by any test that
/// touches the instrumented path; they cannot be triggered by production
/// data.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-acquires) a counter with [`Unit::Count`].
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.counter_with_unit(name, help, labels, Unit::Count)
    }

    /// Registers (or re-acquires) a counter whose cell accumulates
    /// **microseconds** and is exported as seconds (see [`Unit::Micros`]).
    pub fn counter_micros(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.counter_with_unit(name, help, labels, Unit::Micros)
    }

    fn counter_with_unit(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        unit: Unit,
    ) -> Counter {
        let mut families = self.lock();
        let family = resolve_family(&mut families, name, help, MetricKind::Counter, unit);
        let labels = owned_labels(labels);
        if let Some(series) = family.series.iter().find(|s| s.labels == labels) {
            match &series.instrument {
                Instrument::Counter(cell) => {
                    return Counter {
                        cell: Arc::clone(cell),
                    }
                }
                Instrument::Histogram(_) => unreachable!("family kind is Counter"),
            }
        }
        let cell = Arc::new(AtomicU64::new(0));
        family.series.push(Series {
            labels,
            instrument: Instrument::Counter(Arc::clone(&cell)),
        });
        Counter { cell }
    }

    /// Registers (or re-acquires) a histogram with the given ascending
    /// bucket upper bounds (an implicit `+Inf` bucket is always added).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name:?}: bucket bounds must be strictly ascending, got {bounds:?}"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram {name:?}: bucket bounds must be finite (the +Inf bucket is implicit)"
        );
        let mut families = self.lock();
        let family = resolve_family(
            &mut families,
            name,
            help,
            MetricKind::Histogram,
            Unit::Count,
        );
        let labels = owned_labels(labels);
        if let Some(series) = family.series.iter().find(|s| s.labels == labels) {
            match &series.instrument {
                Instrument::Histogram(cell) => {
                    assert!(
                        cell.bounds.iter().copied().eq(bounds.iter().copied()),
                        "histogram {name:?} re-registered with different buckets"
                    );
                    return Histogram {
                        cell: Arc::clone(cell),
                    };
                }
                Instrument::Counter(_) => unreachable!("family kind is Histogram"),
            }
        }
        let cell = Arc::new(HistogramCell {
            bounds: bounds.into(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        });
        family.series.push(Series {
            labels,
            instrument: Instrument::Histogram(Arc::clone(&cell)),
        });
        Histogram { cell }
    }

    /// Every registered metric name, in registration order. This is the
    /// contract surface of the documentation drift test: each name listed
    /// here must appear in `docs/OBSERVABILITY.md`.
    pub fn metric_names(&self) -> Vec<String> {
        self.lock().iter().map(|f| f.name.clone()).collect()
    }

    /// Runs `f` over the registered families (internal exposition hook).
    pub(crate) fn with_families<R>(&self, f: impl FnOnce(&[Family]) -> R) -> R {
        f(&self.lock())
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Family>> {
        self.families.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Finds or creates the family for `name`, enforcing one kind/help/unit
/// per name.
fn resolve_family<'a>(
    families: &'a mut Vec<Family>,
    name: &str,
    help: &str,
    kind: MetricKind,
    unit: Unit,
) -> &'a mut Family {
    assert!(
        valid_metric_name(name),
        "invalid metric name {name:?}: want [a-zA-Z_:][a-zA-Z0-9_:]*"
    );
    if let Some(idx) = families.iter().position(|f| f.name == name) {
        let family = &families[idx];
        assert!(
            family.kind == kind && family.unit == unit && family.help == help,
            "metric {name:?} re-registered with different kind, unit or help"
        );
        return &mut families[idx];
    }
    families.push(Family {
        name: name.to_string(),
        help: help.to_string(),
        kind,
        unit,
        series: Vec::new(),
    });
    families.last_mut().expect("just pushed")
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    for (key, _) in labels {
        assert!(
            valid_label_name(key),
            "invalid label name {key:?}: want [a-zA-Z_][a-zA-Z0-9_]*"
        );
    }
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_one_cell() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("requests_total", "Requests.", &[("route", "/x")]);
        let b = registry.counter("requests_total", "Requests.", &[("route", "/x")]);
        let other = registry.counter("requests_total", "Requests.", &[("route", "/y")]);
        a.inc();
        b.add(2);
        other.inc();
        assert_eq!(a.get(), 3, "same (name, labels) → same cell");
        assert_eq!(other.get(), 1, "different labels → different cell");
        assert_eq!(registry.metric_names(), vec!["requests_total"]);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat", "Latency.", &[], &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(1.0); // on the bound → lower bucket (le semantics)
        h.observe(5.0);
        h.observe(100.0); // overflow bucket
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 106.5).abs() < 1e-9);
        let again = registry.histogram("lat", "Latency.", &[], &[1.0, 10.0]);
        assert_eq!(again.count(), 4, "re-registration re-acquires the cell");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("n_total", "N.", &[]);
        let h = registry.histogram("v", "V.", &[], &[8.0]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..1024 {
                        c.inc();
                        h.observe(f64::from(i % 16));
                    }
                });
            }
        });
        assert_eq!(c.get(), 4096);
        assert_eq!(h.count(), 4096);
        assert!((h.sum() - 4.0 * 1024.0 * 7.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("m", "M.", &[]);
        let _ = registry.histogram("m", "M.", &[], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_buckets_panic() {
        let registry = MetricsRegistry::new();
        let _ = registry.histogram("m", "M.", &[], &[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("9lives", "M.", &[]);
    }
}
