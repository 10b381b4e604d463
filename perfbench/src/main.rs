//! End-to-end benchmark of regcluster's mine, serve and cluster paths,
//! with a traced run that breaks each op down by layer.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mine-deep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Scratch files live in
//! `.bench_work/` under the current directory and are removed on exit;
//! a traced run leaves its spans in `.bench_out/`. See
//! `perfbench/README.md` for the workloads and metrics.

mod cluster;
mod inputs;
mod mine;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use regcluster_store::ClusterStore;

use crate::inputs::Spec;
use crate::mine::{Input, Pipeline};
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::stats::{median, tail, Tally};
use crate::trace::Tracer;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MineDeep,
    MineWide,
    ServeMixed,
    Cluster2w,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::MineDeep,
        Workload::MineWide,
        Workload::ServeMixed,
        Workload::Cluster2w,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::MineDeep => "mine-deep",
            Workload::MineWide => "mine-wide",
            Workload::ServeMixed => "serve-mixed",
            Workload::Cluster2w => "cluster-2w",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <mine-deep|mine-wide|serve-mixed|cluster-2w> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(bad)?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    let result = if args.trace {
        traced(&args, &work)
    } else {
        untraced(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match result.and_then(|r| r.to_json()) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Ops a sequential loop runs however short `--seconds` is.
const MIN_OPS: usize = 3;
/// Requests each client sends when a traced run measures the serving
/// layers outside the serving workload: enough for a p99 with ten
/// samples beyond it.
const LAYER_REQUESTS: usize = 1500;

/// Runs `setup` [`SETUP_REPS`] times, each in a fresh directory under
/// `work`, keeps the last fixture and returns the median seconds.
fn repeated_setup<T>(
    work: &Path,
    mut setup: impl FnMut(&Path) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut kept: Option<(T, PathBuf)> = None;
    let mut secs = Vec::new();
    for i in 0..SETUP_REPS {
        let dir = work.join(format!("setup-{i}"));
        let started = Instant::now();
        let fixture = setup(&dir)?;
        secs.push(started.elapsed().as_secs_f64());
        if let Some((old, old_dir)) = kept.replace((fixture, dir)) {
            drop(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    let (fixture, _) = kept.expect("at least one set-up ran");
    Ok((fixture, median(&secs).expect("set-up times recorded")))
}

/// Runs `op` back to back until `length` has passed and at least
/// `min_ops` ran. Returns the tally and the loop's wall seconds.
fn sequential(
    length: Duration,
    min_ops: usize,
    mut op: impl FnMut() -> (f64, Result<(), String>),
) -> (Tally, f64) {
    let started = Instant::now();
    let mut tally = Tally::default();
    while (tally.attempted as usize) < min_ops || started.elapsed() < length {
        let (ms, outcome) = op();
        tally.record(ms, outcome);
    }
    (tally, started.elapsed().as_secs_f64())
}

/// Fails the run unless the warm-up op succeeded.
fn warm_up((_, outcome): (f64, Result<(), String>)) -> Result<(), String> {
    outcome.map_err(|e| format!("warm-up op: {e}"))
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// One cluster op as a sequential-loop outcome.
fn cluster_outcome(input: &Input, dir: &Path) -> (f64, Result<(), String>) {
    match cluster::op(input, dir, None) {
        Ok(observed) => (observed.op_ms, Ok(())),
        Err(e) => (0.0, Err(e)),
    }
}

/// The untraced run: set-up, one warm-up op, then ops for `--seconds`.
fn untraced(args: &Args, work: &Path) -> Result<Report, String> {
    let (seed, length) = (args.seed, args.seconds);
    let spec = || Spec::for_workload(args.workload, seed);
    let (tally, wall_s, setup_s, setup_rss_mb) = match args.workload {
        Workload::MineDeep | Workload::MineWide => {
            let (input, setup_s) = repeated_setup(work, |dir| Input::setup(spec(), dir))?;
            let setup_rss_mb = peak_rss_mb()?;
            let out = work.join("op.rcs");
            warm_up(input.cli_mine(&out))?;
            let (tally, wall_s) = sequential(length, MIN_OPS, || input.cli_mine(&out));
            (tally, wall_s, setup_s, setup_rss_mb)
        }
        Workload::ServeMixed => {
            let ((_input, fixture), setup_s) =
                repeated_setup(work, |dir| serve::Fixture::setup(seed, dir))?;
            let setup_rss_mb = peak_rss_mb()?;
            // Warm-up: one pass over a slice of the mix.
            let warm = serve::closed_loop(fixture.port, &fixture.mix, Instant::now(), 64, None);
            if warm.tally.failed > 0 {
                return Err("warm-up requests failed".into());
            }
            let load = serve::closed_loop(
                fixture.port,
                &fixture.mix,
                Instant::now() + length,
                MIN_OPS,
                None,
            );
            (load.tally, load.wall_s, setup_s, setup_rss_mb)
        }
        Workload::Cluster2w => {
            let (input, setup_s) = repeated_setup(work, |dir| Input::setup(spec(), dir))?;
            let setup_rss_mb = peak_rss_mb()?;
            let dir = work.join("cluster");
            warm_up(cluster_outcome(&input, &dir))?;
            let (tally, wall_s) = sequential(length, 2, || cluster_outcome(&input, &dir));
            (tally, wall_s, setup_s, setup_rss_mb)
        }
    };
    let mut sorted = tally.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| sorted.get((q * sorted.len() as f64) as usize).copied();
    eprintln!(
        "perfbench: {}: {} ops, {} failed ({:.4} of attempted), {:.2} s measured; \
         op ms min {:?} p10 {:?} p50 {:?} p90 {:?} max {:?}; peak RSS after set-up {setup_rss_mb:.2} MB",
        args.workload.name(),
        tally.attempted,
        tally.failed,
        tally.failed_share(),
        wall_s,
        sorted.first(),
        at(0.1),
        at(0.5),
        at(0.9),
        sorted.last()
    );
    let mut report = Report::new(&END_TO_END);
    report.count(&tally);
    report.set(
        "op_p50_ms",
        median(&tally.latencies_ms).ok_or("no op succeeded")?,
    );
    report.set(
        "ops_per_s",
        (tally.attempted - tally.failed) as f64 / wall_s,
    );
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mb()?);
    Ok(report)
}

/// One layer-by-layer mine under `root`, checked against the reference;
/// a successful run's counts go to `last`.
fn traced_pipeline(
    input: &Input,
    out: &Path,
    root: trace::Root<'_>,
    last: &mut Option<Pipeline>,
) -> (f64, Result<(), String>) {
    let run = input.pipeline(out, root.scope());
    let ms = root.finish();
    let outcome = run.and_then(|p| {
        *last = Some(p);
        input.check(out)
    });
    (ms, outcome)
}

/// Median of `samples`, or an error naming `what`.
fn med(samples: &[f64], what: &str) -> Result<f64, String> {
    median(samples).ok_or_else(|| format!("{what} has no samples"))
}

/// The traced run. The workload's own op runs untraced for half of
/// `--seconds` and traced for the other half, which gives the tracing
/// overhead. Every layer the own op does not reach is then measured on
/// the workload's input, so each traced run reports every per-layer
/// metric.
fn traced(args: &Args, work: &Path) -> Result<Report, String> {
    let (seed, half) = (args.seed, args.seconds / 2);
    let tracer = Tracer::new();
    let mut checked = Tally::default();
    let setup_dir = work.join("setup");
    let (input, mut serving) = match args.workload {
        Workload::ServeMixed => {
            let (input, fixture) = serve::Fixture::setup(seed, &setup_dir)?;
            (input, Some(fixture))
        }
        w => (Input::setup(Spec::for_workload(w, seed), &setup_dir)?, None),
    };
    let out = work.join("op.rcs");
    let cluster_dir = work.join("cluster");

    // The workload's own op, untraced then traced.
    let mut cli_ms = Vec::new();
    let mut pipeline: Option<Pipeline> = None;
    let mut traced_load = None;
    let mut observed = None;
    let (untraced_ms, traced_ms, root) = match args.workload {
        Workload::MineDeep | Workload::MineWide => {
            warm_up(input.cli_mine(&out))?;
            let (plain, _) = sequential(half, MIN_OPS, || input.cli_mine(&out));
            cli_ms = plain.latencies_ms.clone();
            checked.merge(plain.clone());
            let (with_spans, _) = sequential(half, MIN_OPS, || {
                traced_pipeline(&input, &out, tracer.root("mine.op"), &mut pipeline)
            });
            checked.merge(with_spans.clone());
            (plain.latencies_ms, with_spans.latencies_ms, "mine.op")
        }
        Workload::ServeMixed => {
            let fixture = serving.as_ref().expect("serving workload has a server");
            serve::closed_loop(fixture.port, &fixture.mix, Instant::now(), 64, None);
            let plain = serve::closed_loop(
                fixture.port,
                &fixture.mix,
                Instant::now() + half,
                MIN_OPS,
                None,
            );
            let with_spans = serve::closed_loop(
                fixture.port,
                &fixture.mix,
                Instant::now() + half,
                LAYER_REQUESTS,
                Some(&tracer),
            );
            checked.merge(plain.tally.clone());
            checked.merge(with_spans.tally.clone());
            let times = (
                plain.tally.latencies_ms,
                with_spans.tally.latencies_ms.clone(),
                "serve.request",
            );
            traced_load = Some(with_spans);
            times
        }
        Workload::Cluster2w => {
            warm_up(cluster_outcome(&input, &cluster_dir))?;
            let (plain, _) = sequential(half, 1, || cluster_outcome(&input, &cluster_dir));
            checked.merge(plain.clone());
            let mut with_spans = Tally::default();
            match cluster::op(&input, &cluster_dir, Some(&tracer)) {
                Ok(o) => {
                    with_spans.record(o.op_ms, Ok(()));
                    observed = Some(o);
                }
                Err(e) => with_spans.record(0.0, Err(e)),
            }
            checked.merge(with_spans.clone());
            (plain.latencies_ms, with_spans.latencies_ms, "cluster.op")
        }
    };
    let untraced_p50 = med(&untraced_ms, "untraced op")?;
    let traced_p50 = med(&traced_ms, "traced op")?;

    // The layers the own op did not reach, on this workload's input.
    if pipeline.is_none() {
        let (runs, _) = sequential(Duration::ZERO, MIN_OPS, || {
            traced_pipeline(&input, &out, tracer.root("mine.layers"), &mut pipeline)
        });
        checked.merge(runs);
    }
    if cli_ms.is_empty() {
        let (runs, _) = sequential(Duration::ZERO, MIN_OPS, || input.cli_mine(&out));
        cli_ms = runs.latencies_ms.clone();
        checked.merge(runs);
    }
    let mut open_ms = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let store = ClusterStore::open(&input.reference_path)
            .map_err(|e| format!("open reference store: {e}"))?;
        open_ms.push(started.elapsed().as_secs_f64() * 1e3);
        drop(store);
    }
    if serving.is_none() {
        let store = ClusterStore::open(&input.reference_path)
            .map_err(|e| format!("open reference store: {e}"))?;
        serving = Some(serve::Fixture::start(Arc::new(store), seed)?);
    }
    let fixture = serving.as_ref().expect("a server was started");
    let mut query_us = Vec::new();
    for req in &fixture.mix {
        let started = Instant::now();
        let answer = serve::answer(&fixture.store, req.kind, &req.target);
        query_us.push(started.elapsed().as_secs_f64() * 1e6);
        checked.record(
            0.0,
            match answer {
                Ok(body) if body == req.expected => Ok(()),
                _ => Err(format!("in-process answer to {} changed", req.target)),
            },
        );
    }
    let load = match traced_load {
        Some(load) => load,
        None => {
            let load = serve::closed_loop(
                fixture.port,
                &fixture.mix,
                Instant::now(),
                LAYER_REQUESTS,
                Some(&tracer),
            );
            checked.merge(load.tally.clone());
            load
        }
    };
    drop(serving);
    let merge_ms = match cluster::merge(&input, &work.join("merge")) {
        Ok(ms) => {
            checked.record(ms, Ok(()));
            ms
        }
        Err(e) => {
            checked.record(0.0, Err(e));
            0.0
        }
    };
    let observed = match observed {
        Some(o) => o,
        None => cluster::op(&input, &cluster_dir, Some(&tracer))?,
    };

    // Per-layer metrics from the spans and the counts.
    let spans = tracer.spans();
    let span_ms = |name: &str| med(&trace::durations_ms(&spans, name), name);
    let pipeline = pipeline.ok_or("no layer-by-layer mine succeeded")?;
    let single_node_ms = med(&cli_ms, "single-node mine")?;
    let query_p50_us = med(&query_us, "in-process query")?;
    let kind_us = |k: serve::Kind| -> Result<f64, String> {
        Ok(med(&load.by_kind[k as usize], "request kind")? * 1e3)
    };
    let mut r = Report::new(&PER_LAYER);
    r.count(&checked);
    r.set("matrix.load_ms", span_ms("matrix.load")?);
    r.set("core.index_build_ms", span_ms("core.index_build")?);
    r.set("core.fingerprint_ms", span_ms("core.fingerprint")?);
    let enumerate_ms = span_ms("core.enumerate")?;
    r.set("core.enumerate_ms", enumerate_ms);
    r.set("core.nodes", pipeline.nodes as f64);
    r.set("core.clusters", pipeline.clusters as f64);
    r.set(
        "core.ns_per_node",
        enumerate_ms * 1e6 / pipeline.nodes.max(1) as f64,
    );
    r.set("core.postprocess_ms", span_ms("core.postprocess")?);
    r.set("core.teardown_ms", span_ms("core.teardown")?);
    r.set("store.write_ms", span_ms("store.write")?);
    r.set("store.seal_ms", span_ms("store.seal")?);
    r.set("store.bytes", pipeline.bytes as f64);
    r.set("store.open_ms", med(&open_ms, "store open")?);
    r.set("store.query_us", query_p50_us);
    r.set("store.merge_ms", merge_ms);
    r.set("serve.gene_p50_us", kind_us(serve::Kind::Gene)?);
    r.set("serve.cond_top_p50_us", kind_us(serve::Kind::CondTop)?);
    r.set("serve.by_id_p50_us", kind_us(serve::Kind::ById)?);
    r.set(
        "serve.p99_us",
        tail(&load.tally.latencies_ms, 0.99).ok_or("too few requests for a p99")? * 1e3,
    );
    r.set(
        "serve.socket_us",
        med(&load.tally.latencies_ms, "requests")? * 1e3 - query_p50_us,
    );
    r.set("cluster.single_node_ms", single_node_ms);
    r.set("cluster.overhead_ms", observed.op_ms - single_node_ms);
    r.set("cluster.worker_ms", med(&observed.worker_ms, "workers")?);
    r.set("cluster.leases_granted", observed.leases_granted);
    r.set("cluster.renewals", observed.renewals);
    r.set("cluster.reassignments", observed.reassignments);
    r.set(
        "trace.overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
    );
    r.set(
        "trace.unattributed_ms",
        med(&trace::unattributed_ms(&spans, root), "unattributed")?,
    );

    let path = PathBuf::from(".bench_out").join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    trace::write_jsonl(&spans, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
    summarize(&spans, root);
    eprintln!(
        "perfbench: {} spans written to {}",
        spans.len(),
        path.display()
    );
    Ok(r)
}

/// Prints, per span name, the count and the median total and self
/// milliseconds, then the own op's median unattributed remainder.
fn summarize(spans: &[trace::Span], root: &str) {
    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let selves = trace::self_times_ms(spans);
    eprintln!(
        "{:<26} {:>7} {:>12} {:>12}",
        "span", "count", "median ms", "self ms"
    );
    for name in names {
        let of: Vec<(&trace::Span, f64)> = spans
            .iter()
            .zip(selves.iter().copied())
            .filter(|(s, _)| s.name == name)
            .collect();
        let total: Vec<f64> = of.iter().map(|(s, _)| s.ms()).collect();
        let own: Vec<f64> = of.iter().map(|(_, own)| *own).collect();
        eprintln!(
            "{name:<26} {:>7} {:>12.4} {:>12.4}",
            of.len(),
            median(&total).unwrap_or(0.0),
            median(&own).unwrap_or(0.0)
        );
    }
    let rest = trace::unattributed_ms(spans, root);
    eprintln!(
        "{root}: median unattributed {:.4} ms over {} ops",
        median(&rest).unwrap_or(0.0),
        rest.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_name_a_workload_seed_length_and_trace_flag() {
        let a = args(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::ServeMixed);
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (7, Duration::from_secs(10), true)
        );
        assert!(args(&["--workload", "mine-deep", "--seed", "1", "--seconds", "5"]).is_err());
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "mine-deep",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
    }
}
