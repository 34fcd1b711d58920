//! Criterion micro-benchmarks for Algorithm 1 (frequent phrase mining):
//! throughput vs corpus size, minimum support, pruning ablation, and the
//! sequential/parallel counting paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use topmine_phrase::{FrequentPhraseMiner, MinerConfig};
use topmine_synth::{generate, Profile};

fn bench_mining_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg1_mining_vs_corpus_size");
    group.sample_size(10);
    for scale in [0.02f64, 0.04, 0.08] {
        let synth = generate(Profile::DblpTitles, scale, 42);
        let tokens = synth.corpus.n_tokens() as u64;
        group.throughput(Throughput::Elements(tokens));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{tokens}tok")),
            &synth.corpus,
            |b, corpus| {
                b.iter(|| FrequentPhraseMiner::new(5).mine(corpus));
            },
        );
    }
    group.finish();
}

fn bench_mining_min_support(c: &mut Criterion) {
    let synth = generate(Profile::DblpTitles, 0.05, 42);
    let mut group = c.benchmark_group("alg1_mining_vs_min_support");
    group.sample_size(10);
    for eps in [2u64, 5, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(eps), &eps, |b, &eps| {
            b.iter(|| FrequentPhraseMiner::new(eps).mine(&synth.corpus));
        });
    }
    group.finish();
}

fn bench_pruning_ablation(c: &mut Criterion) {
    let synth = generate(Profile::DblpAbstracts, 0.03, 42);
    let mut group = c.benchmark_group("alg1_data_antimonotonicity");
    group.sample_size(10);
    for (label, disable) in [("pruning_on", false), ("pruning_off", true)] {
        group.bench_function(label, |b| {
            let cfg = MinerConfig {
                min_support: 5,
                disable_doc_pruning: disable,
                ..MinerConfig::default()
            };
            b.iter(|| FrequentPhraseMiner::with_config(cfg.clone()).mine(&synth.corpus));
        });
    }
    group.finish();
}

fn bench_parallel_counting(c: &mut Criterion) {
    let synth = generate(Profile::DblpAbstracts, 0.05, 42);
    let mut group = c.benchmark_group("alg1_threads");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let cfg = MinerConfig {
                    min_support: 5,
                    n_threads: threads,
                    ..MinerConfig::default()
                };
                b.iter(|| FrequentPhraseMiner::with_config(cfg.clone()).mine(&synth.corpus));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mining_scaling,
    bench_mining_min_support,
    bench_pruning_ablation,
    bench_parallel_counting
);
criterion_main!(benches);
