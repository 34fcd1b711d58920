//! Pinned outputs of Algorithms 1 and 2 on two benchmark-shaped corpora.
//!
//! For a `DblpTitles` and a `DblpAbstracts` corpus this test mines and
//! segments at 1, 2 and 7 threads and checks two digests against values
//! recorded before phrase counts moved onto dense lexicon node ids:
//!
//! * every span of every document, in document order;
//! * the count the mined lexicon gives for every contiguous window of up
//!   to [`MAX_WINDOW`] tokens of every document (chunk boundaries
//!   ignored, so unseen phrases are asked for too).
//!
//! A change to the miner, the lexicon or Algorithm 2 that moves a single
//! span or count changes a digest.

use topmine_corpus::Corpus;
use topmine_phrase::{MinerConfig, Segmenter, SegmenterConfig};
use topmine_synth::{generate, Profile};

const MAX_WINDOW: usize = 6;

/// `(profile, scale, corpus seed, ε, α, span digest, count digest)`.
const PINNED: [(Profile, f64, u64, u64, f64, u64, u64); 2] = [
    (
        Profile::DblpTitles,
        0.5,
        11,
        3,
        3.0,
        0x5358_e7d0_9f28_835d,
        0x8e22_a1d0_e57b_fc7e,
    ),
    (
        Profile::DblpAbstracts,
        0.2,
        12,
        3,
        3.0,
        0x140e_b142_1c21_5d6d,
        0xec64_448b_9b3c_f4ba,
    ),
];

/// Order-sensitive 64-bit fold (splitmix64 finalizer over `state ^ x`).
fn mix(state: u64, x: u64) -> u64 {
    let mut z = (state ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn segmenter(min_support: u64, alpha: f64, n_threads: usize) -> Segmenter {
    Segmenter::new(SegmenterConfig {
        miner: MinerConfig {
            min_support,
            n_threads,
            ..MinerConfig::default()
        },
        alpha,
        n_threads,
    })
}

/// `(span digest, count digest, multi-word spans)` of one mine and
/// segmentation of `corpus`.
fn digests(corpus: &Corpus, min_support: u64, alpha: f64, n_threads: usize) -> (u64, u64, usize) {
    let segmenter = segmenter(min_support, alpha, n_threads);
    let (stats, _) = segmenter.mine(corpus);
    let seg = segmenter.segment_with_stats(corpus, &stats);
    seg.validate(corpus).unwrap();
    let mut spans = 0u64;
    for (d, doc) in seg.docs.iter().enumerate() {
        spans = mix(spans, d as u64);
        for &(s, e) in &doc.spans {
            spans = mix(spans, (u64::from(s) << 32) | u64::from(e));
        }
    }
    let mut counts = 0u64;
    for doc in &corpus.docs {
        for start in 0..doc.tokens.len() {
            let end = doc.tokens.len().min(start + MAX_WINDOW);
            for stop in start + 1..=end {
                counts = mix(counts, stats.count(&doc.tokens[start..stop]));
            }
        }
    }
    (spans, counts, seg.n_multiword())
}

#[test]
fn spans_and_lexicon_counts_match_the_pinned_digests() {
    for (profile, scale, seed, min_support, alpha, want_spans, want_counts) in PINNED {
        let corpus = generate(profile, scale, seed).corpus;
        for n_threads in [1usize, 2, 7] {
            let (spans, counts, multiword) = digests(&corpus, min_support, alpha, n_threads);
            assert!(multiword > 0, "{profile:?}: nothing merged");
            assert_eq!(
                (spans, counts),
                (want_spans, want_counts),
                "{profile:?} at {n_threads} threads: got span digest {spans:#018x}, \
                 count digest {counts:#018x}"
            );
        }
    }
}
