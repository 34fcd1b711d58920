//! The node-id mining contract, enforced: the lexicon
//! [`FrequentPhraseMiner::mine`] fills holds exactly the frequent phrases
//! and counts of the quadratic enumerate-everything oracle
//! ([`naive_frequent_phrases`]) on every configuration, at 1 thread (every
//! pass inline) and at 2, 3 and 7 (the work queue, partitioned counting
//! and the key-sharded merge).
//!
//! The comparison is exact: frequency is anti-monotone, so every
//! occurrence of a frequent n-gram sits on positions Algorithm 1 keeps
//! active and is counted, and the oracle's count of each surviving n-gram
//! is the miner's. Under a length cap `L` the oracle enumerates up to `L`;
//! uncapped (`L = 0`) it enumerates every length.
//!
//! Property-tested over corpus shape, `min_support`, `max_phrase_len` caps,
//! and the `disable_doc_pruning` ablation knob, with thread counts
//! {1, 2, 3, 7} like `parallel_determinism.rs` does for the sampler.

use proptest::prelude::*;
use topmine_corpus::{Corpus, Document, Vocab};
use topmine_phrase::miner::naive_frequent_phrases;
use topmine_phrase::{FrequentPhraseMiner, MinerConfig};

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic corpus with a small vocabulary (heavy repetition → deep
/// levels), variable chunking, and occasional empty chunks/documents.
fn random_corpus(seed: u64, n_docs: usize, vocab_size: u64) -> Corpus {
    let mut s = seed;
    let mut vocab = Vocab::new();
    for i in 0..vocab_size {
        vocab.intern(&format!("w{i}"));
    }
    let mut docs = Vec::new();
    for _ in 0..n_docs {
        let n_chunks = (splitmix(&mut s) % 4) as usize; // may be 0: empty doc
        let mut chunks: Vec<Vec<u32>> = Vec::new();
        for _ in 0..n_chunks {
            let len = (splitmix(&mut s) % 13) as usize; // may be 0: empty chunk
            chunks.push(
                (0..len)
                    .map(|_| (splitmix(&mut s) % vocab_size) as u32)
                    .collect(),
            );
        }
        docs.push(Document::from_chunks(chunks.iter().map(Vec::as_slice)));
    }
    Corpus {
        vocab,
        docs,
        provenance: None,
        unstem: None,
    }
}

/// Mine `corpus` under `config` at thread counts {1, 2, 3, 7} and assert
/// the result equals the oracle: the frequent n-grams of
/// [`naive_frequent_phrases`] (up to the length cap, every length when
/// uncapped), plus unigram counts, `total_tokens` and `max_len` computed
/// directly from the tokens.
fn assert_matches_oracle(corpus: &Corpus, config: &MinerConfig) -> Result<(), TestCaseError> {
    let cap = if config.max_phrase_len == 0 {
        usize::MAX
    } else {
        config.max_phrase_len
    };
    let naive = naive_frequent_phrases(corpus, config.min_support, cap);
    let max_len = naive.iter().map(|(p, _)| p.len()).max().unwrap_or(1);
    let mut unigrams = vec![0u64; corpus.vocab.len()];
    for doc in &corpus.docs {
        for &t in &doc.tokens {
            unigrams[t as usize] += 1;
        }
    }
    let total_tokens: u64 = unigrams.iter().sum();

    for threads in [1usize, 2, 3, 7] {
        let config = MinerConfig {
            n_threads: threads,
            ..config.clone()
        };
        let (stats, tel) =
            FrequentPhraseMiner::with_config(config.clone()).mine_with_telemetry(corpus);
        let ngrams: Vec<(Vec<u32>, u64)> = stats
            .phrases()
            .into_iter()
            .filter(|(p, _)| p.len() > 1)
            .collect();
        prop_assert_eq!(
            &ngrams,
            &naive,
            "lexicon n-grams diverged at {} threads (cfg {:?})",
            threads,
            config
        );
        // Every frequent n-gram is found by its count, and nothing else is
        // counted: the lexicon's phrases are the frequent unigrams' nodes
        // plus the n-grams above.
        for (phrase, count) in &naive {
            prop_assert_eq!(stats.count(phrase), *count);
        }
        prop_assert_eq!(stats.n_frequent_ngrams(), naive.len());
        prop_assert_eq!(
            stats.unigram_counts(),
            &unigrams[..],
            "unigrams diverged at {} threads",
            threads
        );
        prop_assert_eq!(stats.total_tokens, total_tokens);
        prop_assert_eq!(stats.max_len(), max_len);
        prop_assert_eq!(stats.min_support, config.min_support);
        // Telemetry must agree with the result it describes.
        prop_assert_eq!(tel.frequent(), naive.len() as u64);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The mining contract: prefix-id mining ≡ the reference at thread
    /// counts {1, 2, 3, 7}, across support thresholds, length caps, and the
    /// doc-pruning ablation. The reference is [`naive_frequent_phrases`],
    /// which enumerates every window without Algorithm 1's pruning; it
    /// replaced the seed-era hashmap miner the test is named after.
    #[test]
    fn prefix_engine_equals_legacy_engine(
        corpus_seed in 0u64..1_000_000,
        n_docs in 1usize..48,
        vocab_size in 2u64..9,
        min_support in 1u64..7,
        max_phrase_len in 0usize..6,
        prune_flag in 0u32..2,
    ) {
        let corpus = random_corpus(corpus_seed, n_docs, vocab_size);
        let config = MinerConfig {
            min_support,
            max_phrase_len,
            n_threads: 1,
            disable_doc_pruning: prune_flag == 1,
        };
        assert_matches_oracle(&corpus, &config)?;
    }

    /// The miner at 1, 2, 3 and 7 threads against the reference with no
    /// length cap, on very small vocabularies where phrases grow long.
    #[test]
    fn both_engines_match_naive_reference(
        corpus_seed in 0u64..1_000_000,
        n_docs in 1usize..32,
        vocab_size in 2u64..6,
        min_support in 2u64..6,
    ) {
        let corpus = random_corpus(corpus_seed, n_docs, vocab_size);
        let config = MinerConfig {
            min_support,
            ..MinerConfig::default()
        };
        assert_matches_oracle(&corpus, &config)?;
    }
}
