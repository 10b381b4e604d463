//! End-to-end mining benchmarks: the paper's running example, a mid-sized
//! synthetic workload, and the thread-scaling ablation of the work-stealing
//! engine against the old static root split.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use regcluster_bench::mine_static_roots;
use regcluster_core::{mine, MineRequest, Miner, MiningParams};
use regcluster_datagen::{generate, running_example, SyntheticConfig};

fn bench_running_example(c: &mut Criterion) {
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).expect("valid");
    c.bench_function("mine_running_example", |b| {
        b.iter(|| black_box(mine(&m, &params).expect("mining succeeds")));
    });
}

fn bench_synthetic(c: &mut Criterion) {
    let mut group = c.benchmark_group("mine_synthetic");
    group.sample_size(10);
    for n_genes in [500usize, 1500, 3000] {
        let cfg = SyntheticConfig {
            n_genes,
            ..SyntheticConfig::default()
        };
        let data = generate(&cfg).expect("feasible");
        let min_g = ((0.01 * n_genes as f64) as usize).max(2);
        let params = MiningParams::new(min_g, 6, 0.1, 0.01).expect("valid");
        group.bench_with_input(BenchmarkId::from_parameter(n_genes), &n_genes, |b, _| {
            b.iter(|| black_box(mine(&data.matrix, &params).expect("mining succeeds")));
        });
    }
    group.finish();
}

/// Thread-scaling ablation on a Figure-7-scale workload, one benchmark per
/// (split × thread count) point, each timed from the model build:
///
/// * `stealing/N` — the work-stealing engine, which re-balances subtrees
///   spilled from busy workers at any enumeration depth;
/// * `static/N` — the old static root split, emulated by
///   [`mine_static_roots`]: workers take whole root subtrees, so speedup is
///   bounded by the largest one.
fn bench_thread_scaling(c: &mut Criterion) {
    let cfg = SyntheticConfig {
        n_genes: 3000,
        ..SyntheticConfig::default()
    };
    let data = generate(&cfg).expect("feasible");
    let params = MiningParams::new(30, 6, 0.1, 0.01).expect("valid");
    let mut group = c.benchmark_group("thread_scaling_3000");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("stealing", threads), &threads, |b, &n| {
            b.iter(|| {
                let miner = Miner::new(&data.matrix, &params).expect("valid");
                let request = MineRequest::new(&miner).threads(n);
                black_box(request.collect().expect("mining succeeds"))
            });
        });
        group.bench_with_input(BenchmarkId::new("static", threads), &threads, |b, &n| {
            b.iter(|| {
                let miner = Miner::new(&data.matrix, &params).expect("valid");
                black_box(mine_static_roots(&miner, &params, n))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_running_example,
    bench_synthetic,
    bench_thread_scaling
);
criterion_main!(benches);
