//! Criterion micro-benchmarks for the collapsed Gibbs samplers.
//!
//! Reproduces the paper's §7.4 observation: "PhraseLDA often runs in
//! shorter time than LDA ... we sample a topic once for an entire
//! multi-word phrase, while LDA samples a topic for each word" — the
//! per-sweep cost of PhraseLDA over a segmented corpus is below LDA's on
//! the identical token stream.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use topmine_lda::kernel::{clique_posterior, CliqueScratch, CountsView, TrainView};
use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::Segmenter;
use topmine_synth::{generate, Profile};

fn bench_sweep_cost(c: &mut Criterion) {
    let synth = generate(Profile::DblpAbstracts, 0.04, 3);
    let corpus = &synth.corpus;
    let (_, seg) = Segmenter::with_params(5, 4.0).segment(corpus);
    let cfg = TopicModelConfig {
        n_topics: 10,
        alpha: 5.0,
        beta: 0.01,
        seed: 1,
        optimize_every: 0,
        burn_in: 0,
        n_threads: 1,
    };
    let mut group = c.benchmark_group("gibbs_sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(corpus.n_tokens() as u64));
    group.bench_function("phrase_lda", |b| {
        let mut model = PhraseLda::new(GroupedDocs::from_segmentation(corpus, &seg), cfg.clone());
        model.run(5); // settle caches/counts
        b.iter(|| model.step());
    });
    group.bench_function("lda", |b| {
        let mut model = PhraseLda::new(GroupedDocs::unigrams(corpus), cfg.clone());
        model.run(5);
        b.iter(|| model.step());
    });
    group.finish();
}

fn bench_perplexity_and_hyperopt(c: &mut Criterion) {
    let synth = generate(Profile::Conf20, 0.05, 3);
    let corpus = &synth.corpus;
    let cfg = TopicModelConfig {
        n_topics: 7,
        alpha: 5.0,
        beta: 0.01,
        seed: 1,
        optimize_every: 0,
        burn_in: 0,
        n_threads: 1,
    };
    let mut model = PhraseLda::new(GroupedDocs::unigrams(corpus), cfg);
    model.run(10);
    let mut group = c.benchmark_group("gibbs_auxiliary");
    group.sample_size(10);
    group.bench_function("perplexity", |b| b.iter(|| model.perplexity()));
    group.bench_function("minka_alpha_update", |b| {
        b.iter_batched(
            || model.clone(),
            |mut m| m.optimize_alpha(1),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// The shared kernel vs the historical per-topic loop on long cliques.
///
/// The pre-kernel sampler recomputed the within-clique multiplicity scan
/// once per topic — an O(K·s²) linear `seen` probe per clique. The kernel
/// computes multiplicities once (O(s), hash-map for long cliques) and runs
/// token-major, so long cliques cost O(K·s + s). This benchmark pins the
/// win on a 64-token clique with a repetitive vocabulary.
fn bench_long_clique_posterior(c: &mut Criterion) {
    let k = 10usize;
    let v = 500usize;
    let clique_len = 64usize;
    let n_wk: Vec<u32> = (0..v * k).map(|i| (i % 7) as u32).collect();
    let n_k: Vec<u64> = (0..k).map(|t| 300 + 40 * t as u64).collect();
    let alpha = vec![0.5f64; k];
    let doc_ndk: Vec<u32> = (0..k as u32).collect();
    let beta = 0.01;
    let v_beta = beta * v as f64;
    // Repetitive tokens: multiplicities matter, as in a long phrase clique.
    let tokens: Vec<u32> = (0..clique_len).map(|i| (i % 12) as u32).collect();

    let mut group = c.benchmark_group("clique_kernel");
    group.throughput(Throughput::Elements(clique_len as u64));
    group.bench_function("kernel_long_clique", |b| {
        let view = TrainView::new(&n_wk, &n_k, k, beta, v_beta);
        let mut scratch = CliqueScratch::default();
        let mut weights = vec![0.0f64; k];
        b.iter(|| {
            clique_posterior(&view, &alpha, &doc_ndk, &tokens, &mut scratch, &mut weights);
            weights[0]
        });
    });
    group.bench_function("naive_per_topic_rescan", |b| {
        // The pre-kernel shape: per topic, walk the clique and probe a
        // linear `seen` list for the multiplicity.
        let view = TrainView::new(&n_wk, &n_k, k, beta, v_beta);
        let mut weights = vec![0.0f64; k];
        let mut seen: Vec<(u32, u32)> = Vec::with_capacity(8);
        b.iter(|| {
            for (t, slot) in weights.iter_mut().enumerate() {
                let mut w_t = 1.0f64;
                seen.clear();
                for (j, &w) in tokens.iter().enumerate() {
                    let m = match seen.iter_mut().find(|(sw, _)| *sw == w) {
                        Some((_, c)) => {
                            let m = *c;
                            *c += 1;
                            m
                        }
                        None => {
                            seen.push((w, 1));
                            0
                        }
                    };
                    w_t *= (alpha[t] + doc_ndk[t] as f64 + j as f64) * view.word_numerator(w, t, m)
                        / view.word_denominator(t, j as u32);
                }
                *slot = w_t;
            }
            weights[0]
        });
    });
    group.finish();
}

/// The singleton-clique fast path against the general clique path.
///
/// After segmentation most cliques are unigrams, so `clique_posterior`
/// short-circuits s = 1: no multiplicity pass, no `fill(1.0)` pre-pass, no
/// rescale check — one flat multiply-divide per topic, bit-identical to
/// the general loop. The "general_path_shape" case replicates the general
/// loop's operations for s = 1 as the historical reference.
fn bench_singleton_clique(c: &mut Criterion) {
    let k = 10usize;
    let v = 500usize;
    let n_wk: Vec<u32> = (0..v * k).map(|i| (i % 7) as u32).collect();
    let n_k: Vec<u64> = (0..k).map(|t| 300 + 40 * t as u64).collect();
    let alpha = vec![0.5f64; k];
    let doc_ndk: Vec<u32> = (0..k as u32).collect();
    let beta = 0.01;
    let v_beta = beta * v as f64;
    let tokens: Vec<u32> = vec![17];

    let mut group = c.benchmark_group("singleton_clique");
    group.bench_function("fast_path", |b| {
        let view = TrainView::new(&n_wk, &n_k, k, beta, v_beta);
        let mut scratch = CliqueScratch::default();
        let mut weights = vec![0.0f64; k];
        b.iter(|| {
            clique_posterior(&view, &alpha, &doc_ndk, &tokens, &mut scratch, &mut weights);
            weights[0]
        });
    });
    group.bench_function("general_path_shape", |b| {
        // The pre-fast-path shape at s = 1: multiplicity scan, fill(1.0),
        // then the token-major product loop.
        let view = TrainView::new(&n_wk, &n_k, k, beta, v_beta);
        let mut weights = vec![0.0f64; k];
        let mut seen: Vec<(u32, u32)> = Vec::with_capacity(4);
        let mut mult: Vec<u32> = Vec::with_capacity(4);
        b.iter(|| {
            mult.clear();
            seen.clear();
            for &w in &tokens {
                let m = match seen.iter_mut().find(|(sw, _)| *sw == w) {
                    Some((_, c)) => {
                        let m = *c;
                        *c += 1;
                        m
                    }
                    None => {
                        seen.push((w, 1));
                        0
                    }
                };
                mult.push(m);
            }
            weights.fill(1.0);
            for (j, &w) in tokens.iter().enumerate() {
                let jf = j as f64;
                for (t, slot) in weights.iter_mut().enumerate() {
                    let num_doc = alpha[t] + doc_ndk[t] as f64 + jf;
                    *slot *= num_doc * view.word_numerator(w, t, mult[j])
                        / view.word_denominator(t, j as u32);
                }
            }
            weights[0]
        });
    });
    group.finish();
}

/// The bucketed O(K_active) singleton draw against the dense O(K) draw it
/// replaces, at the V = 100k / K = 32 shape the fit benchmark gates.
///
/// State mirrors a mid-sweep document: the sampled word is active in one
/// topic (the common case when the vocabulary dwarfs the corpus), the
/// document in ~half the topics, and two topics are dirty since the last
/// alias rebuild. Only the draw is timed — count maintenance is identical
/// between the kernels and excluded from both sides.
fn bench_sparse_kernel(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use topmine_lda::kernel::{sample_clique, sample_singleton_sparse, DocBucket, SmoothingBucket};

    let k = 32usize;
    let v = 100_000usize;
    let beta = 0.01;
    let v_beta = beta * v as f64;
    let alpha = vec![50.0 / k as f64; k];
    let mut rng = StdRng::seed_from_u64(0x51a7);
    let n_k: Vec<u64> = (0..k).map(|_| 300 + rng.gen_range(0..100u64)).collect();
    // The word appears once in the corpus: one active topic.
    let hot_topic = 11usize;
    let mut word_row = vec![0u32; k];
    word_row[hot_topic] = 1;
    let word_nz: Vec<u16> = vec![hot_topic as u16];
    // A 48-token document over K = 32: roughly half the topics active.
    let mut doc_ndk = vec![0u32; k];
    for _ in 0..48 {
        doc_ndk[rng.gen_range(0..k)] += 1;
    }
    let doc_nz: Vec<u16> = (0..k as u16).filter(|&t| doc_ndk[t as usize] > 0).collect();

    let mut smoothing = SmoothingBucket::default();
    smoothing.rebuild(&alpha, beta, v_beta, &n_k);
    let mut n_k_moved = n_k.clone();
    n_k_moved[3] += 2;
    n_k_moved[19] -= 1;
    smoothing.mark_dirty(3, alpha[3], beta, 1.0 / (v_beta + n_k_moved[3] as f64));
    smoothing.mark_dirty(19, alpha[19], beta, 1.0 / (v_beta + n_k_moved[19] as f64));
    let mut doc = DocBucket::default();
    doc.begin_doc(&doc_nz, &doc_ndk, &n_k_moved, beta, v_beta, k);

    let mut group = c.benchmark_group("sparse_kernel");
    group.throughput(Throughput::Elements(1));
    group.bench_function("singleton_sparse", |b| {
        let mut draw_rng = StdRng::seed_from_u64(7);
        let mut q_buf = Vec::new();
        b.iter(|| {
            sample_singleton_sparse(
                &mut draw_rng,
                &alpha,
                v_beta,
                &word_row,
                &word_nz,
                &doc_ndk,
                &doc_nz,
                &n_k_moved,
                &doc,
                &smoothing,
                &mut q_buf,
            )
        });
    });
    group.bench_function("singleton_dense", |b| {
        let view = TrainView::new(&word_row, &n_k_moved, k, beta, v_beta);
        let mut scratch = CliqueScratch::default();
        let mut cum = vec![0.0f64; k];
        let tokens = vec![0u32]; // word 0 of the single-row table
        let mut draw_rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            sample_clique(
                &mut draw_rng,
                &view,
                &alpha,
                &doc_ndk,
                &tokens,
                &mut scratch,
                &mut cum,
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sweep_cost,
    bench_perplexity_and_hyperopt,
    bench_long_clique_posterior,
    bench_singleton_clique,
    bench_sparse_kernel
);
criterion_main!(benches);
