//! In-memory spans for the traced run.
//!
//! Every traced op is a root span; the calls the benchmark makes into
//! each layer are its child spans. Spans are kept in memory while the run
//! measures and written out as JSON lines when it ends. A span's self
//! time is its duration minus the part of it its children cover; what the
//! children of a root leave uncovered is the op's `unattributed_ms`.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are microseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Shared by every span of one op.
    pub op: u64,
    /// Unique within the run.
    pub id: u32,
    /// The span that made this call; `None` for an op's root.
    pub parent: Option<u32>,
    /// Layer and step, e.g. `core.enumerate`.
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    next_op: AtomicU64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(0),
            next_op: AtomicU64::new(0),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("no span writer panics").push(span);
    }

    /// Opens the root span of a new op.
    pub fn root(&self, name: &'static str) -> Root<'_> {
        Root {
            tracer: self,
            op: self.next_op.fetch_add(1, Ordering::Relaxed),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            start_us: self.now_us(),
        }
    }

    /// Every span recorded so far, in the order they ended.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span writer panics").clone()
    }
}

/// An open root span; its [`Scope`] times the op's layer calls.
pub struct Root<'a> {
    tracer: &'a Tracer,
    op: u64,
    id: u32,
    name: &'static str,
    start_us: f64,
}

impl<'a> Root<'a> {
    /// A scope whose spans are children of this root.
    pub fn scope(&self) -> Scope<'a> {
        Scope {
            tracer: Some(self.tracer),
            op: self.op,
            parent: self.id,
        }
    }

    /// Closes the root span and returns its duration in milliseconds.
    pub fn finish(self) -> f64 {
        let end_us = self.tracer.now_us();
        self.tracer.push(Span {
            op: self.op,
            id: self.id,
            parent: None,
            name: self.name,
            start_us: self.start_us,
            end_us,
        });
        (end_us - self.start_us) / 1e3
    }
}

/// Where a layer call's span goes: under an open root, or nowhere when
/// the op runs untraced.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    tracer: Option<&'a Tracer>,
    op: u64,
    parent: u32,
}

impl Scope<'static> {
    /// A scope that records nothing.
    pub const OFF: Scope<'static> = Scope {
        tracer: None,
        op: 0,
        parent: 0,
    };
}

impl<'a> Scope<'a> {
    /// Runs `f`, recording it as a span named `name` when tracing.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let step = self.begin(name);
        let out = f();
        step.end();
        out
    }

    /// Opens a span named `name`, for a step that cannot be one closure.
    pub fn begin(&self, name: &'static str) -> Step<'a> {
        let open = self.tracer.map(|tracer| {
            (
                tracer,
                tracer.next_id.fetch_add(1, Ordering::Relaxed),
                tracer.now_us(),
            )
        });
        Step {
            scope: *self,
            name,
            open,
        }
    }
}

/// A span opened by [`Scope::begin`].
pub struct Step<'a> {
    scope: Scope<'a>,
    name: &'static str,
    open: Option<(&'a Tracer, u32, f64)>,
}

impl Step<'_> {
    /// Closes the span.
    pub fn end(self) {
        if let Some((tracer, id, start_us)) = self.open {
            tracer.push(Span {
                op: self.scope.op,
                id,
                parent: Some(self.scope.parent),
                name: self.name,
                start_us,
                end_us: tracer.now_us(),
            });
        }
    }
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Self time in milliseconds of every span, in the order of `spans`: the
/// part of the span that none of its children cover. Children are clipped
/// to the parent and overlapping children count once.
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut children: HashMap<(u64, u32), Vec<(f64, f64)>> = HashMap::new();
    for c in spans {
        if let Some(parent) = c.parent {
            children
                .entry((c.op, parent))
                .or_default()
                .push((c.start_us, c.end_us));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered: Vec<(f64, f64)> = children
                .get(&(span.op, span.id))
                .into_iter()
                .flatten()
                .map(|&(s, e)| (s.max(span.start_us), e.min(span.end_us)))
                .filter(|(s, e)| e > s)
                .collect();
            covered.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut union_us = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (s, e) in covered {
                let s = s.max(reach);
                if e > s {
                    union_us += e - s;
                    reach = e;
                }
            }
            span.ms() - union_us / 1e3
        })
        .collect()
}

/// For every root span named `root`: the milliseconds its layer spans
/// leave unaccounted for.
pub fn unattributed_ms(spans: &[Span], root: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(self_times_ms(spans))
        .filter(|(s, _)| s.parent.is_none() && s.name == root)
        .map(|(_, own)| own)
        .collect()
}

/// Writes one JSON object per span to `path`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, own) in spans.iter().zip(self_times_ms(spans)) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"op\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"self_ms\":{own:.4}}}",
            s.op, s.id, s.name, s.start_us, s.end_us,
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, id: u32, parent: Option<u32>, start_us: f64, end_us: f64) -> Span {
        Span {
            op,
            id,
            parent,
            name: if parent.is_none() { "op" } else { "step" },
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_times_and_the_remainder_account_for_the_op() {
        // A 10 ms op with steps at [1, 4] and [5, 9] ms: 3 ms unattributed.
        let spans = vec![
            span(0, 0, None, 0.0, 10_000.0),
            span(0, 1, Some(0), 1_000.0, 4_000.0),
            span(0, 2, Some(0), 5_000.0, 9_000.0),
            // Another op's step never counts toward this one.
            span(1, 3, Some(0), 0.0, 10_000.0),
        ];
        let rest = unattributed_ms(&spans, "op");
        assert_eq!(rest.len(), 1);
        assert!((rest[0] - 3.0).abs() < 1e-9);
        let selves = self_times_ms(&spans);
        assert!((selves[1] + selves[2] + rest[0] - spans[0].ms()).abs() < 1e-9);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two workers overlap on [2, 6] ms; one runs past the op's end.
        let spans = vec![
            span(0, 0, None, 0.0, 8_000.0),
            span(0, 1, Some(0), 1_000.0, 6_000.0),
            span(0, 2, Some(0), 2_000.0, 12_000.0),
        ];
        assert!((unattributed_ms(&spans, "op")[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn an_untraced_scope_records_nothing_and_a_root_holds_its_steps() {
        assert_eq!(Scope::OFF.time("x", || 7), 7);
        let tracer = Tracer::new();
        let root = tracer.root("op");
        let scope = root.scope();
        scope.time("step", || ());
        let ms = root.finish();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[0].op, spans[1].op);
        assert!(ms >= 0.0 && self_times_ms(&spans)[1] <= ms);
    }
}
