//! Ablations over the design choices README's Algorithms and Performance
//! sections describe:
//!
//! * parallel brute force thread sweep (extension);
//! * block-wise open-file budget sweep (I/O re-read cost vs budget);
//! * SPIDER's shared-cursor improvement vs the plain single-pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ind_bench::datasets::bench_scale;
use ind_core::{
    generate_candidates, memory_export, run_blockwise, run_brute_force_parallel, run_single_pass,
    run_spider, BlockwiseConfig, PretestConfig, RunMetrics,
};

fn thread_sweep(c: &mut Criterion) {
    let db = bench_scale::pdb();
    let (profiles, provider) = memory_export(&db);
    let mut gen = RunMetrics::new();
    let candidates = generate_candidates(&profiles, &PretestConfig::default(), &mut gen);
    let mut group = c.benchmark_group("ablation_bf_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                let mut m = RunMetrics::new();
                run_brute_force_parallel(&provider, &candidates, t, &mut m)
                    .expect("bf")
                    .len()
            })
        });
    }
    group.finish();
}

fn blockwise_budget_sweep(c: &mut Criterion) {
    let db = bench_scale::pdb();
    let (profiles, provider) = memory_export(&db);
    let mut gen = RunMetrics::new();
    let candidates = generate_candidates(&profiles, &PretestConfig::default(), &mut gen);
    let mut group = c.benchmark_group("ablation_blockwise_budget");
    group.sample_size(10);
    for budget in [4usize, 16, 64, 256] {
        group.bench_with_input(
            BenchmarkId::from_parameter(budget),
            &budget,
            |b, &budget| {
                b.iter(|| {
                    let mut m = RunMetrics::new();
                    run_blockwise(
                        &provider,
                        &candidates,
                        &BlockwiseConfig {
                            max_open_files: budget,
                        },
                        &mut m,
                    )
                    .expect("bw")
                    .len()
                })
            },
        );
    }
    group.finish();
}

fn single_pass_vs_spider(c: &mut Criterion) {
    let db = bench_scale::pdb();
    let (profiles, provider) = memory_export(&db);
    let mut gen = RunMetrics::new();
    let candidates = generate_candidates(&profiles, &PretestConfig::default(), &mut gen);
    let mut group = c.benchmark_group("ablation_singlepass_vs_spider");
    group.sample_size(10);
    group.bench_function("single_pass", |b| {
        b.iter(|| {
            let mut m = RunMetrics::new();
            run_single_pass(&provider, &candidates, &mut m)
                .expect("sp")
                .len()
        })
    });
    group.bench_function("spider", |b| {
        b.iter(|| {
            let mut m = RunMetrics::new();
            run_spider(&provider, &candidates, &mut m)
                .expect("spider")
                .len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    thread_sweep,
    blockwise_budget_sweep,
    single_pass_vs_spider
);
criterion_main!(benches);
