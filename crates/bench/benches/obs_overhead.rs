//! A/B gate proving the training telemetry is near-zero-cost on the
//! singleton-draw hot path.
//!
//! The sweep's instrumented form calls [`sample_singleton_sparse_split`]
//! (the raw kernel plus a bucket tag derived from the already-drawn
//! uniform) and bumps one field of a stack-local [`DrawSplit`] per draw —
//! exactly what the sampler's `update_doc` does. The uninstrumented
//! form is the plain [`sample_singleton_sparse`] wrapper. Both consume the
//! identical RNG stream, so the A/B difference is purely the tag + tally.
//!
//! `cargo bench --bench obs_overhead` times long draw loops min-of-N
//! interleaved, prints the measurement, and fails when the instrumented
//! path is more than [`MAX_OVERHEAD_PCT`] slower than the raw one.
//! Min-of-N because on a shared runner the minimum is the least noisy
//! location statistic — any scheduler interference only inflates samples.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use topmine_lda::kernel::{
    sample_singleton_sparse, sample_singleton_sparse_split, DocBucket, SingletonBucket,
    SmoothingBucket,
};
use topmine_lda::DrawSplit;

/// The most the instrumented draw may exceed the raw one by, in percent.
/// Measured overhead: ~+0.5% on quiet hardware; −3.6% to +2.0% on a shared
/// 2-vCPU VM (12 runs, each passing on its first attempt).
const MAX_OVERHEAD_PCT: f64 = 2.0;

/// Mid-sweep sampling state at a V = 100k / K = 32 shape: the word active
/// in one topic (the common case when the vocabulary dwarfs the corpus),
/// the document in ~half, two topics dirty since the last alias rebuild.
struct DrawState {
    alpha: Vec<f64>,
    v_beta: f64,
    word_row: Vec<u32>,
    word_nz: Vec<u16>,
    doc_ndk: Vec<u32>,
    doc_nz: Vec<u16>,
    n_k: Vec<u64>,
    doc: DocBucket,
    smoothing: SmoothingBucket,
}

fn draw_state() -> DrawState {
    use rand::Rng;
    let k = 32usize;
    let v = 100_000usize;
    let beta = 0.01;
    let v_beta = beta * v as f64;
    let alpha = vec![50.0 / k as f64; k];
    let mut rng = StdRng::seed_from_u64(0x51a7);
    let n_k: Vec<u64> = (0..k).map(|_| 300 + rng.gen_range(0..100u64)).collect();
    let hot_topic = 11usize;
    let mut word_row = vec![0u32; k];
    word_row[hot_topic] = 1;
    let word_nz: Vec<u16> = vec![hot_topic as u16];
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

    DrawState {
        alpha,
        v_beta,
        word_row,
        word_nz,
        doc_ndk,
        doc_nz,
        n_k: n_k_moved,
        doc,
        smoothing,
    }
}

/// `draws` raw singleton draws; returns the topic sum as a sink.
fn run_raw(state: &DrawState, rng: &mut StdRng, q_buf: &mut Vec<f64>, draws: usize) -> usize {
    let mut sink = 0usize;
    for _ in 0..draws {
        sink = sink.wrapping_add(sample_singleton_sparse(
            rng,
            &state.alpha,
            state.v_beta,
            &state.word_row,
            &state.word_nz,
            &state.doc_ndk,
            &state.doc_nz,
            &state.n_k,
            &state.doc,
            &state.smoothing,
            q_buf,
        ));
    }
    sink
}

/// The instrumented form: split kernel + per-draw `DrawSplit` tally, as in
/// the sweep loops.
fn run_instrumented(
    state: &DrawState,
    rng: &mut StdRng,
    q_buf: &mut Vec<f64>,
    draws: usize,
) -> (usize, DrawSplit) {
    let mut sink = 0usize;
    let mut split = DrawSplit::default();
    for _ in 0..draws {
        let (t, bucket) = sample_singleton_sparse_split(
            rng,
            &state.alpha,
            state.v_beta,
            &state.word_row,
            &state.word_nz,
            &state.doc_ndk,
            &state.doc_nz,
            &state.n_k,
            &state.doc,
            &state.smoothing,
            q_buf,
        );
        match bucket {
            SingletonBucket::TopicWord => split.topic_word += 1,
            SingletonBucket::Doc => split.doc += 1,
            SingletonBucket::Smoothing => split.smoothing += 1,
        }
        sink = sink.wrapping_add(t);
    }
    (sink, split)
}

/// One interleaved min-of-N measurement; returns the overhead percent of
/// instrumented over raw.
fn measure_overhead_pct(state: &DrawState) -> f64 {
    const DRAWS: usize = 1_000_000;
    const ROUNDS: usize = 21;
    let mut raw_best = f64::INFINITY;
    let mut instr_best = f64::INFINITY;
    let mut q_buf = Vec::new();
    // Interleaved rounds so frequency drift and scheduler noise hit both
    // sides alike; one untimed warm-up round each. Many short windows: on
    // a shared runner interference comes in whole timeslices, so the min
    // just needs one clean window per side.
    let mut rng = StdRng::seed_from_u64(7);
    black_box(run_raw(state, &mut rng, &mut q_buf, DRAWS));
    black_box(run_instrumented(state, &mut rng, &mut q_buf, DRAWS));
    for _ in 0..ROUNDS {
        let mut rng = StdRng::seed_from_u64(7);
        let start = Instant::now();
        black_box(run_raw(state, &mut rng, &mut q_buf, DRAWS));
        raw_best = raw_best.min(start.elapsed().as_secs_f64());

        let mut rng = StdRng::seed_from_u64(7);
        let start = Instant::now();
        black_box(run_instrumented(state, &mut rng, &mut q_buf, DRAWS));
        instr_best = instr_best.min(start.elapsed().as_secs_f64());
    }
    let overhead_pct = (instr_best / raw_best - 1.0) * 100.0;
    println!(
        "obs overhead gate: raw {raw_best:.4}s vs instrumented {instr_best:.4}s \
         over {DRAWS} draws ({overhead_pct:+.2}%)"
    );
    overhead_pct
}

/// Up to three independent attempts: a genuine regression fails every
/// attempt, while a scheduler-noise spike fails at most one.
fn main() {
    let state = draw_state();
    const ATTEMPTS: usize = 3;
    let mut worst = f64::NEG_INFINITY;
    for attempt in 1..=ATTEMPTS {
        let overhead_pct = measure_overhead_pct(&state);
        worst = worst.max(overhead_pct);
        if overhead_pct <= MAX_OVERHEAD_PCT {
            println!(
                "obs overhead gate passed: {overhead_pct:+.2}% <= {MAX_OVERHEAD_PCT}% \
                 (attempt {attempt}/{ATTEMPTS})"
            );
            return;
        }
    }
    panic!(
        "telemetry overhead regression: instrumented singleton draw is {worst:.2}% \
         slower than raw in all {ATTEMPTS} attempts (allowed {MAX_OVERHEAD_PCT}%)"
    );
}
