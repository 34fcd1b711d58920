//! The parallel-training contract, enforced:
//!
//! 1. `n_threads == 1` is the **exact recorded chain** for its kernel
//!    version — a digest guards every z assignment, perplexity, and
//!    optimized hyperparameter bit-for-bit. It was recorded once at the
//!    `KERNEL_VERSION = 2` bump (see `kernel::KERNEL_VERSION` for the
//!    re-record policy).
//! 2. Any `n_threads ≥ 2` produces **one** chain: identical z, counts, φ,
//!    and perplexity at 2, 3, and 7 threads (property-tested over seeds,
//!    topic counts, and groupings), pinned by its own recorded digest. Its
//!    barrier merge carries exactly the (document, word, topic) cells each
//!    sweep moved, checked against counts rebuilt from z.
//! 3. The parallel chain is a *different* (snapshot-sweep, Newman et al.
//!    2009) approximation than the sequential one — it must still mix and
//!    keep its count tables consistent.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topmine_lda::{GroupedDoc, GroupedDocs, PhraseLda, TopicModelConfig, KERNEL_VERSION};

// ---------------------------------------------------------------------------
// 1. Sequential chain guard
// ---------------------------------------------------------------------------

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The frozen corpus the digest below was recorded on. Self-contained
/// (no rand/synth) so it can never drift with a dependency.
fn guard_docs() -> GroupedDocs {
    frozen_docs(30)
}

/// The first `n_docs` documents of the frozen guard stream: every prefix
/// is the same, so `frozen_docs(30)` is `guard_docs()` at any length.
fn frozen_docs(n_docs: usize) -> GroupedDocs {
    let mut s = 0xD1CEu64;
    let mut docs = Vec::new();
    for _ in 0..n_docs {
        let len = 20 + (splitmix(&mut s) % 40) as usize;
        let tokens: Vec<u32> = (0..len).map(|_| (splitmix(&mut s) % 40) as u32).collect();
        let mut group_ends = Vec::new();
        let mut pos = 0usize;
        while pos < len {
            let g = (1 + (splitmix(&mut s) % 5) as usize).min(len - pos);
            pos += g;
            group_ends.push(pos as u32);
        }
        docs.push(GroupedDoc { tokens, group_ends });
    }
    GroupedDocs {
        docs,
        vocab_size: 40,
    }
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn chain_digest(m: &PhraseLda) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in 0..m.docs().n_docs() {
        for g in 0..m.docs().docs[d].n_groups() {
            fnv(&mut h, &m.topic_of_group(d, g).to_le_bytes());
        }
    }
    fnv(&mut h, &m.perplexity().to_bits().to_le_bytes());
    for &a in m.alpha() {
        fnv(&mut h, &a.to_bits().to_le_bytes());
    }
    fnv(&mut h, &m.beta().to_bits().to_le_bytes());
    h
}

/// Recorded once at the `KERNEL_VERSION = 2` bump: 30 sweeps on
/// `guard_docs()` with hyperparameter optimization on, singleton cliques
/// drawn by the sparse bucketed kernel. Re-record only on a documented
/// `KERNEL_VERSION` bump (see `topmine_lda::kernel`).
const SPARSE_SEQUENTIAL_CHAIN_DIGEST: u64 = 0x7508_108e_3e16_e477;
const SPARSE_SEQUENTIAL_PERPLEXITY: f64 = 36.41142721749446;

fn digest_cfg() -> TopicModelConfig {
    TopicModelConfig {
        n_topics: 6,
        alpha: 2.0,
        beta: 0.05,
        seed: 42,
        optimize_every: 10,
        burn_in: 5,
        n_threads: 1,
    }
}

#[test]
fn sparse_sequential_chain_matches_recorded_digest() {
    assert_eq!(
        KERNEL_VERSION, 2,
        "KERNEL_VERSION moved — re-record the sparse digest below and document the bump"
    );
    let mut m = PhraseLda::new(guard_docs(), digest_cfg());
    m.run(30);
    assert!(
        (m.perplexity() - SPARSE_SEQUENTIAL_PERPLEXITY).abs() < 1e-12,
        "sparse sequential perplexity drifted: got {:.15}",
        m.perplexity()
    );
    assert_eq!(
        chain_digest(&m),
        SPARSE_SEQUENTIAL_CHAIN_DIGEST,
        "sparse sequential chain digest drifted: got {:#018x}",
        chain_digest(&m)
    );
}

// ---------------------------------------------------------------------------
// 2. Cross-thread-count bit-identity
// ---------------------------------------------------------------------------

/// The parallel chain on the same frozen corpus and config: 30 sweeps at
/// any `n_threads ≥ 2`. Pins the chain itself, not just its equality
/// across thread counts, so a rework of the sweep's bookkeeping cannot
/// move it unnoticed.
const PARALLEL_CHAIN_DIGEST: u64 = 0x904c_dfea_07c6_12be;
const PARALLEL_PERPLEXITY: f64 = 36.730_250_053_285_715;

#[test]
fn parallel_chain_matches_recorded_digest() {
    for threads in [2usize, 3, 7] {
        let mut m = PhraseLda::new(
            guard_docs(),
            TopicModelConfig {
                n_threads: threads,
                ..digest_cfg()
            },
        );
        m.run(30);
        assert!(
            (m.perplexity() - PARALLEL_PERPLEXITY).abs() < 1e-12,
            "threads={threads}: parallel perplexity drifted: got {:.17}",
            m.perplexity()
        );
        assert_eq!(
            chain_digest(&m),
            PARALLEL_CHAIN_DIGEST,
            "threads={threads}: parallel chain digest drifted: got {:#018x}",
            chain_digest(&m)
        );
    }
}

/// The parallel chain on a corpus of three full 32-document blocks plus a
/// partial one (109 documents), so the sweep's work queue hands out
/// several blocks to every worker. Recorded on the static-shard sweep the
/// block queue replaced: both sample the same chain.
const MULTI_BLOCK_CHAIN_DIGEST: u64 = 0xcce4_4c30_1cba_4eb7;
const MULTI_BLOCK_PERPLEXITY: f64 = 38.907_878_762_388_99;

#[test]
fn multi_block_parallel_chain_matches_recorded_digest() {
    for threads in [2usize, 3, 7] {
        let mut m = PhraseLda::new(
            frozen_docs(109),
            TopicModelConfig {
                n_threads: threads,
                ..digest_cfg()
            },
        );
        m.run(30);
        assert!(
            (m.perplexity() - MULTI_BLOCK_PERPLEXITY).abs() < 1e-12,
            "threads={threads}: multi-block perplexity drifted: got {:.17}",
            m.perplexity()
        );
        assert_eq!(
            chain_digest(&m),
            MULTI_BLOCK_CHAIN_DIGEST,
            "threads={threads}: multi-block chain digest drifted: got {:#018x}",
            chain_digest(&m)
        );
    }
}

/// A frozen corpus wide enough in K for the sequential sweep's alias
/// rebuild to fire (it needs more than `max(K / 8, 16)` dirty topics,
/// which K = 6 never reaches): 300 documents of 8–47 tokens over 400
/// words, every seventh document empty, cliques of 1–4 tokens.
fn wide_docs() -> GroupedDocs {
    let mut s = 0x0057_1DE5u64;
    let mut docs = Vec::new();
    for d in 0..300 {
        if d % 7 == 0 {
            docs.push(GroupedDoc::default());
            continue;
        }
        let len = 8 + (splitmix(&mut s) % 40) as usize;
        let tokens: Vec<u32> = (0..len).map(|_| (splitmix(&mut s) % 400) as u32).collect();
        let mut group_ends = Vec::new();
        let mut pos = 0usize;
        while pos < len {
            pos += (1 + (splitmix(&mut s) % 4) as usize).min(len - pos);
            group_ends.push(pos as u32);
        }
        docs.push(GroupedDoc { tokens, group_ends });
    }
    GroupedDocs {
        docs,
        vocab_size: 400,
    }
}

/// What a fit on `wide_docs()` pins: the chain digest, the perplexity
/// bits, the draw split and the barrier merge volume.
#[derive(Debug, PartialEq, Eq)]
struct WidePin {
    k: usize,
    threads: usize,
    digest: u64,
    perplexity_bits: u64,
    /// `[topic_word, doc, smoothing, dense]`.
    draws: [u64; 4],
    merge_delta_entries: u64,
}

/// 25 sweeps on `wide_docs()` at α = 0.5, β = 0.05, hyperparameter
/// optimization every 5 sweeps from sweep 5, recorded before the two sweep
/// schedules shared one per-document update.
const WIDE_PINS: [WidePin; 4] = [
    WidePin {
        k: 64,
        threads: 1,
        digest: 0x2853_7e48_5f92_0ee8,
        perplexity_bits: 0x4069_abf6_4939_0eca,
        draws: [8_363, 11_864, 748, 54_025],
        merge_delta_entries: 0,
    },
    WidePin {
        k: 64,
        threads: 2,
        digest: 0x4e68_385e_d6c1_6ab2,
        perplexity_bits: 0x406a_f4f5_8ed2_4ac1,
        draws: [7_743, 12_467, 765, 54_025],
        merge_delta_entries: 62_923,
    },
    WidePin {
        k: 200,
        threads: 1,
        digest: 0x84e2_b31d_97d2_54ee,
        perplexity_bits: 0x4063_2add_2a81_3885,
        draws: [5_087, 13_773, 2_115, 54_025],
        merge_delta_entries: 0,
    },
    WidePin {
        k: 200,
        threads: 2,
        digest: 0xe563_6699_4058_2505,
        perplexity_bits: 0x4063_e6fc_522d_c0ae,
        draws: [5_037, 13_779, 2_159, 54_025],
        merge_delta_entries: 75_170,
    },
];

#[test]
fn wide_topic_chains_match_recorded_pins() {
    let docs = wide_docs();
    for pin in &WIDE_PINS {
        let mut m = PhraseLda::new(
            docs.clone(),
            TopicModelConfig {
                n_topics: pin.k,
                alpha: 0.5,
                beta: 0.05,
                seed: 1406,
                optimize_every: 5,
                burn_in: 5,
                n_threads: pin.threads,
            },
        );
        m.run(25);
        let stats = m.sweep_stats();
        let got = WidePin {
            k: pin.k,
            threads: pin.threads,
            digest: chain_digest(&m),
            perplexity_bits: m.perplexity().to_bits(),
            draws: [
                stats.draws.topic_word,
                stats.draws.doc,
                stats.draws.smoothing,
                stats.draws.dense,
            ],
            merge_delta_entries: stats.merge_delta_entries,
        };
        assert_eq!(&got, pin, "K = {} at T = {}", pin.k, pin.threads);
    }
}

/// Random grouped corpus: `n_docs` docs over `vocab` words, group lengths
/// in `1..=max_group`.
fn random_docs(seed: u64, n_docs: usize, vocab: u32, max_group: usize) -> GroupedDocs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut docs = Vec::new();
    for _ in 0..n_docs {
        let len = rng.gen_range(8..40usize);
        let tokens: Vec<u32> = (0..len).map(|_| rng.gen_range(0..vocab)).collect();
        let mut group_ends = Vec::new();
        let mut pos = 0usize;
        while pos < len {
            pos += rng.gen_range(1..=max_group).min(len - pos);
            group_ends.push(pos as u32);
        }
        docs.push(GroupedDoc { tokens, group_ends });
    }
    GroupedDocs {
        docs,
        vocab_size: vocab as usize,
    }
}

fn fit(docs: &GroupedDocs, k: usize, seed: u64, threads: usize, sweeps: usize) -> PhraseLda {
    let mut m = PhraseLda::new(
        docs.clone(),
        TopicModelConfig {
            n_topics: k,
            alpha: 0.7,
            beta: 0.02,
            seed,
            optimize_every: 7,
            burn_in: 3,
            n_threads: threads,
        },
    );
    m.run(sweeps);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// lda_threads ∈ {2, 3, 7}: identical perplexity, z-assignments, and φ
    /// — the thread count must be invisible in the sampled chain. Corpora
    /// run from one document to several 32-document blocks plus a partial
    /// one, so the work queue hands some workers many blocks and others
    /// none.
    #[test]
    fn parallel_chain_is_identical_at_2_3_and_7_threads(
        corpus_seed in 0u64..1_000_000,
        chain_seed in 0u64..1_000_000,
        k in 2usize..7,
        max_group in 1usize..6,
        sweeps in 1usize..12,
        n_docs in 1usize..=103,
    ) {
        let docs = random_docs(corpus_seed, n_docs, 25, max_group);
        let base = fit(&docs, k, chain_seed, 2, sweeps);
        let base_phi = base.phi();
        let base_pp = base.perplexity();
        for threads in [3usize, 7] {
            let m = fit(&docs, k, chain_seed, threads, sweeps);
            for d in 0..docs.n_docs() {
                for g in 0..docs.docs[d].n_groups() {
                    prop_assert_eq!(base.topic_of_group(d, g), m.topic_of_group(d, g));
                }
            }
            prop_assert_eq!(&base_phi, &m.phi());
            prop_assert_eq!(base_pp.to_bits(), m.perplexity().to_bits());
            prop_assert_eq!(base.counts(), m.counts());
        }
        base.check_counts().map_err(TestCaseError::fail)?;
    }
}

/// Per-document `(word, topic) → token count`, rebuilt from the current
/// assignments alone.
fn doc_cells(m: &PhraseLda) -> Vec<std::collections::BTreeMap<(u32, u16), u32>> {
    let docs = m.docs();
    (0..docs.n_docs())
        .map(|d| {
            let mut cells = std::collections::BTreeMap::new();
            for (g, (s, e)) in docs.docs[d].group_ranges().enumerate() {
                let t = m.topic_of_group(d, g);
                for &w in &docs.docs[d].tokens[s..e] {
                    *cells.entry((w, t)).or_insert(0) += 1;
                }
            }
            cells
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Each parallel sweep merges exactly one `N_wk` delta entry per
    /// (document, word, topic) cell whose count the sweep changed: no cell
    /// emitted twice, no zero delta emitted. Checked sweep by sweep against
    /// counts rebuilt from z before and after, on documents with repeated
    /// words and multi-token cliques, over one block, several blocks and a
    /// partial one.
    #[test]
    fn merge_emits_exactly_the_cells_each_document_moved(
        corpus_seed in 0u64..1_000_000,
        chain_seed in 0u64..1_000_000,
        k in 2usize..6,
        max_group in 2usize..6,
        n_docs in 1usize..=103,
    ) {
        let docs = random_docs(corpus_seed, n_docs, 9, max_group);
        for threads in [2usize, 3, 7] {
            let mut m = PhraseLda::new(
                docs.clone(),
                TopicModelConfig {
                    n_topics: k,
                    alpha: 0.7,
                    beta: 0.02,
                    seed: chain_seed,
                    optimize_every: 0,
                    burn_in: 0,
                    n_threads: threads,
                },
            );
            for sweep in 0..4 {
                let before = doc_cells(&m);
                let stats = m.sweep_stats();
                m.step();
                let after = doc_cells(&m);
                let moved: usize = before
                    .iter()
                    .zip(&after)
                    .map(|(b, a)| {
                        let changed_or_gone = b.iter().filter(|(c, n)| a.get(c) != Some(n)).count();
                        let new = a.keys().filter(|c| !b.contains_key(c)).count();
                        changed_or_gone + new
                    })
                    .sum();
                prop_assert_eq!(
                    m.sweep_stats().since(&stats).merge_delta_entries,
                    moved as u64,
                    "threads={} sweep={}",
                    threads,
                    sweep
                );
            }
            m.check_counts().map_err(TestCaseError::fail)?;
        }
    }
}

#[test]
fn parallel_and_sequential_start_from_the_same_state() {
    // Initialization is sequential in both modes: before any sweep the two
    // models are indistinguishable; they diverge only through the
    // documented snapshot-sweep approximation.
    let docs = random_docs(5, 10, 20, 4);
    let seq = fit(&docs, 4, 9, 1, 0);
    let par = fit(&docs, 4, 9, 8, 0);
    assert_eq!(seq.counts(), par.counts());
    assert_eq!(seq.perplexity().to_bits(), par.perplexity().to_bits());
    for d in 0..docs.n_docs() {
        for g in 0..docs.docs[d].n_groups() {
            assert_eq!(seq.topic_of_group(d, g), par.topic_of_group(d, g));
        }
    }
}

#[test]
fn more_threads_than_documents_is_fine() {
    let docs = random_docs(11, 3, 15, 3);
    let a = fit(&docs, 3, 1, 2, 6);
    let b = fit(&docs, 3, 1, 64, 6);
    assert_eq!(a.perplexity().to_bits(), b.perplexity().to_bits());
    a.check_counts().unwrap();
}

// ---------------------------------------------------------------------------
// 3. The parallel approximation still behaves like a Gibbs chain
// ---------------------------------------------------------------------------

#[test]
fn parallel_chain_mixes_and_reduces_perplexity() {
    let docs = random_docs(21, 24, 30, 4);
    let mut m = PhraseLda::new(
        docs,
        TopicModelConfig {
            n_topics: 4,
            alpha: 0.5,
            beta: 0.01,
            seed: 3,
            optimize_every: 0,
            burn_in: 0,
            n_threads: 4,
        },
    );
    let before = m.perplexity();
    m.run(40);
    m.check_counts().unwrap();
    assert!(
        m.perplexity() < before,
        "parallel chain failed to mix: {before} -> {}",
        m.perplexity()
    );
}

#[test]
fn very_long_cliques_train_without_degenerating() {
    // Regression companion to the kernel's 200-token underflow test, end
    // to end: documents whose single clique spans 200 tokens used to give
    // an all-zero posterior and uniform draws; now the chain must
    // concentrate each document's clique on a dominant topic.
    let mut docs = Vec::new();
    for d in 0..12 {
        let base = if d % 2 == 0 { 0u32 } else { 10 };
        let tokens: Vec<u32> = (0..200).map(|i| base + (i % 10) as u32).collect();
        docs.push(GroupedDoc {
            tokens,
            group_ends: vec![200],
        });
    }
    let docs = GroupedDocs {
        docs,
        vocab_size: 20,
    };
    for threads in [1usize, 3] {
        let mut m = PhraseLda::new(
            docs.clone(),
            TopicModelConfig {
                n_topics: 2,
                alpha: 0.5,
                beta: 0.01,
                seed: 17,
                optimize_every: 0,
                burn_in: 0,
                n_threads: threads,
            },
        );
        m.run(30);
        m.check_counts().unwrap();
        // Even/odd docs use disjoint vocabularies; with working posteriors
        // the two groups of documents separate into the two topics. Under
        // the old uniform-fallback behavior assignments stay random coin
        // flips and this split is essentially never clean.
        let even: Vec<u16> = (0..12).step_by(2).map(|d| m.topic_of_group(d, 0)).collect();
        let odd: Vec<u16> = (1..12).step_by(2).map(|d| m.topic_of_group(d, 0)).collect();
        assert!(
            even.iter().all(|&t| t == even[0]) && odd.iter().all(|&t| t == odd[0]),
            "threads={threads}: even={even:?} odd={odd:?}"
        );
        assert_ne!(even[0], odd[0], "threads={threads}");
    }
}
