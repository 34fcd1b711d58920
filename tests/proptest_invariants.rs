//! Property-based tests of the core invariants, across crates.
//!
//! These complement the per-module unit tests with randomized inputs:
//! Apriori counting vs. a naive reference, the partition invariant of the
//! segmenter, Gibbs count conservation, stemmer stability, and the
//! statistics helpers.

use proptest::prelude::*;
use topmine_corpus::{porter_stem, Corpus, Document, Vocab};
use topmine_lda::{GroupedDoc, GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::{
    miner::naive_frequent_phrases, significance, FrequentPhraseMiner, MinerConfig, Segmenter,
};
use topmine_util::{z_scores, TopK};

/// Strategy: a small corpus of token-id documents with chunking.
fn arb_corpus(max_vocab: u32) -> impl Strategy<Value = Corpus> {
    let doc = prop::collection::vec(prop::collection::vec(0..max_vocab, 1..12), 1..4);
    prop::collection::vec(doc, 1..24).prop_map(move |docs| {
        let mut vocab = Vocab::new();
        for i in 0..max_vocab {
            vocab.intern(&format!("w{i}"));
        }
        Corpus {
            vocab,
            docs: docs.into_iter().map(Document::from_chunks).collect(),
            provenance: None,
            unstem: None,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 1's lexicon equals the naive quadratic reference on
    /// arbitrary input, at 1, 2, 3 and 7 threads.
    #[test]
    fn miner_matches_naive_reference(corpus in arb_corpus(6), eps in 1u64..5) {
        let naive = naive_frequent_phrases(&corpus, eps, 64);
        for threads in [1usize, 2, 3, 7] {
            let stats = FrequentPhraseMiner::with_config(MinerConfig {
                min_support: eps,
                n_threads: threads,
                ..MinerConfig::default()
            }).mine(&corpus);
            let ngrams: Vec<(Vec<u32>, u64)> = stats
                .phrases()
                .into_iter()
                .filter(|(p, _)| p.len() > 1)
                .collect();
            prop_assert_eq!(&ngrams, &naive, "{} threads", threads);
            stats.check_downward_closure().map_err(TestCaseError::fail)?;
        }
    }

    /// Parallel counting is exactly equivalent to sequential.
    #[test]
    fn miner_parallel_equals_sequential(corpus in arb_corpus(5)) {
        let seq = FrequentPhraseMiner::new(2).mine(&corpus);
        let par = FrequentPhraseMiner::with_config(MinerConfig {
            min_support: 2,
            n_threads: 3,
            ..MinerConfig::default()
        }).mine(&corpus);
        prop_assert_eq!(seq.unigram_counts(), par.unigram_counts());
        prop_assert_eq!(seq, par);
    }

    /// The segmenter always produces a valid partition (covers every token,
    /// never crosses chunks), for any α and support.
    #[test]
    fn segmentation_is_always_a_partition(
        corpus in arb_corpus(6),
        eps in 1u64..4,
        alpha in -2.0f64..30.0,
    ) {
        let (_, seg) = Segmenter::with_params(eps, alpha).segment(&corpus);
        seg.validate(&corpus).map_err(TestCaseError::fail)?;
        // Rectified counts sum to the number of phrase instances.
        let counts = seg.phrase_counts(&corpus);
        prop_assert_eq!(counts.values().sum::<u64>() as usize, seg.n_phrases());
    }

    /// Every multi-word phrase the segmenter produces was frequent.
    #[test]
    fn segmented_phrases_are_frequent(corpus in arb_corpus(4), eps in 2u64..4) {
        let (stats, seg) = Segmenter::with_params(eps, 0.1).segment(&corpus);
        for (doc, sdoc) in corpus.docs.iter().zip(&seg.docs) {
            for &(s, e) in &sdoc.spans {
                if e - s >= 2 {
                    let phrase = &doc.tokens[s as usize..e as usize];
                    prop_assert!(
                        stats.count(phrase) >= eps,
                        "segmented infrequent phrase {:?}", phrase
                    );
                }
            }
        }
    }

    /// Gibbs sweeps conserve the count tables for arbitrary groupings.
    #[test]
    fn gibbs_counts_conserved(
        docs in prop::collection::vec(
            prop::collection::vec(0u32..8, 1..20),
            1..10,
        ),
        k in 1usize..5,
        sweeps in 1usize..4,
    ) {
        let gdocs = GroupedDocs {
            docs: docs.into_iter().map(|tokens| {
                // Group ends at every third token (ragged final group).
                let n = tokens.len() as u32;
                let mut ends: Vec<u32> = (1..=n / 3).map(|g| g * 3).collect();
                if ends.last().copied() != Some(n) {
                    ends.push(n);
                }
                GroupedDoc { tokens, group_ends: ends }
            }).collect(),
            vocab_size: 8,
        };
        gdocs.validate().map_err(TestCaseError::fail)?;
        let mut model = PhraseLda::new(gdocs, TopicModelConfig {
            n_topics: k,
            alpha: 0.5,
            beta: 0.05,
            seed: 7,
            optimize_every: 0,
            burn_in: 0,
            n_threads: 1,
        });
        model.run(sweeps);
        model.check_counts().map_err(TestCaseError::fail)?;
        // φ and θ stay proper distributions.
        for row in model.phi() {
            let sum: f64 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    /// Significance is monotone in the observed count and symmetric in the
    /// constituent counts.
    #[test]
    fn significance_properties(
        f12 in 1u64..500,
        f1 in 1u64..10_000,
        f2 in 1u64..10_000,
    ) {
        let l = 1_000_000u64;
        let s = significance(f12, f1, f2, l);
        prop_assert!(s.is_finite());
        // Symmetric up to float rounding (the null mean multiplies the two
        // probabilities in argument order).
        let swapped = significance(f12, f2, f1, l);
        prop_assert!((s - swapped).abs() <= 1e-9 * s.abs().max(1.0), "{s} vs {swapped}");
        let s_more = significance(f12 + 50, f1, f2, l);
        prop_assert!(s_more > s);
    }

    /// The stemmer never panics, never grows a word, and stabilizes after
    /// two applications (our vocabulary-interning requirement).
    #[test]
    fn stemmer_is_safe_and_stable(word in "[a-z]{1,15}") {
        let once = porter_stem(&word);
        prop_assert!(once.len() <= word.len());
        let twice = porter_stem(&once);
        let thrice = porter_stem(&twice);
        prop_assert_eq!(twice, thrice);
    }

    /// TopK returns exactly the k best-scoring items, in order.
    #[test]
    fn topk_matches_full_sort(scores in prop::collection::vec(-100i32..100, 0..60), k in 0usize..12) {
        let mut tk = TopK::new(k);
        for (i, &s) in scores.iter().enumerate() {
            tk.push(s as f64, i);
        }
        let got: Vec<f64> = tk.into_sorted_vec().into_iter().map(|(s, _)| s).collect();
        let mut expect: Vec<f64> = scores.iter().map(|&s| s as f64).collect();
        expect.sort_by(|a, b| b.partial_cmp(a).unwrap());
        expect.truncate(k);
        prop_assert_eq!(got, expect);
    }

    /// z-scores are invariant to affine transformations of the input.
    #[test]
    fn z_scores_affine_invariant(
        values in prop::collection::vec(-50.0f64..50.0, 2..20),
        shift in -10.0f64..10.0,
        scale in 0.1f64..10.0,
    ) {
        let a = z_scores(&values);
        let transformed: Vec<f64> = values.iter().map(|v| v * scale + shift).collect();
        let b = z_scores(&transformed);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }
}
