//! Algorithm 2 against an independent oracle: [`construct_chunk`] (a
//! max-heap with lazy invalidation over lexicon node ids) must take
//! exactly the merges of a naive reference that rescans every adjacent
//! pair each round and merges the most significant one, leftmost on ties,
//! while its score is at least α — never a pair whose concatenation was
//! never seen, whatever α.
//!
//! Chunks are short (≤ 14 tokens) over a vocabulary of ≤ 4 words, and the
//! counts are small, so equal scores — and with them the tie-break — come
//! up often. The reference reads its own count table; `construct_chunk`
//! reads a lexicon built from that table, in which a phrase whose prefix
//! has count 0 hangs below an implied node. Both the final partition and
//! the merge sequence (spans and scores) must agree.

use proptest::prelude::*;
use std::collections::HashMap;
use topmine_phrase::{construct_chunk, significance, MergeTrace, PhraseStats};

const ALPHAS: [f64; 7] = [f64::NEG_INFINITY, -1.0, 0.0, 1.0, 2.0, 3.0, 5.0];

/// A count table of its own, so the oracle shares no code with the
/// lexicon.
struct Counts {
    counts: HashMap<Vec<u32>, u64>,
    total: u64,
}

impl Counts {
    fn count(&self, phrase: &[u32]) -> u64 {
        self.counts.get(phrase).copied().unwrap_or(0)
    }

    /// The lexicon holding this table's nonzero counts over a vocabulary
    /// of `vocab` words.
    fn lexicon(&self, vocab: u32) -> PhraseStats {
        let unigrams = (0..vocab).map(|w| self.count(&[w])).collect();
        let mut lexicon = PhraseStats::new(unigrams, self.total, 1);
        for (phrase, &count) in &self.counts {
            if phrase.len() > 1 && count > 0 {
                lexicon.insert(phrase, count).unwrap();
            }
        }
        lexicon
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Small counts for every contiguous sub-phrase of `tokens`: unigrams
/// 1..=4, longer phrases 0..=3 (0 = never seen), a pure function of the
/// phrase and `seed`.
fn counts_for(tokens: &[u32], seed: u64, total: u64) -> Counts {
    let mut counts = HashMap::new();
    for start in 0..tokens.len() {
        for end in start + 1..=tokens.len() {
            let phrase = tokens[start..end].to_vec();
            let mut h = seed;
            for &w in &phrase {
                h = splitmix(h ^ u64::from(w));
            }
            let count = if phrase.len() == 1 { 1 + h % 4 } else { h % 4 };
            counts.insert(phrase, count);
        }
    }
    Counts { counts, total }
}

/// One merge: left span, right span (chunk-relative), score.
type Merge = ((u32, u32), (u32, u32), f64);

/// The reference: every round, score every adjacent pair of the current
/// partition whose concatenation has a count and merge the best one (the
/// leftmost among equal best scores) if it reaches `alpha`.
fn naive_construct(tokens: &[u32], counts: &Counts, alpha: f64) -> (Vec<(u32, u32)>, Vec<Merge>) {
    let mut spans: Vec<(u32, u32)> = (0..tokens.len() as u32).map(|i| (i, i + 1)).collect();
    let mut merges = Vec::new();
    let slice = |(s, e): (u32, u32)| &tokens[s as usize..e as usize];
    loop {
        let mut best: Option<(f64, usize)> = None;
        for j in 0..spans.len().saturating_sub(1) {
            let (a, b) = (spans[j], spans[j + 1]);
            let f12 = counts.count(slice((a.0, b.1)));
            if f12 == 0 {
                continue;
            }
            let sig = significance(
                f12,
                counts.count(slice(a)),
                counts.count(slice(b)),
                counts.total,
            );
            // Strictly greater: an equal score later in the chunk loses.
            if best.is_none_or(|(s, _)| sig > s) {
                best = Some((sig, j));
            }
        }
        match best {
            Some((sig, j)) if sig >= alpha => {
                let (a, b) = (spans[j], spans[j + 1]);
                merges.push((a, b, sig));
                spans[j] = (a.0, b.1);
                spans.remove(j + 1);
            }
            _ => return (spans, merges),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn construct_chunk_matches_the_naive_reference(
        vocab in 1u32..5,
        len in 0usize..15,
        draws in prop::collection::vec(0u64..u64::MAX, 15),
        alpha_idx in 0usize..7,
        total in 8u64..40,
        seeds in prop::collection::vec(0u64..u64::MAX, 10),
    ) {
        let alpha = ALPHAS[alpha_idx];
        let tokens: Vec<u32> = draws[..len].iter().map(|&d| (d % u64::from(vocab)) as u32).collect();
        // Ten count tables per chunk: 20 000 chunks over the run.
        for &seed in &seeds {
            let counts = counts_for(&tokens, seed, total);
            let (want_spans, want_merges) = naive_construct(&tokens, &counts, alpha);
            let lexicon = counts.lexicon(vocab);
            let mut trace = MergeTrace::new();
            let got = construct_chunk(&tokens, &lexicon, alpha, Some(&mut trace));
            let got_merges: Vec<Merge> = trace
                .iter()
                .map(|m| (m.left, m.right, m.significance))
                .collect();
            prop_assert_eq!(
                &got_merges, &want_merges,
                "merge sequence of {:?} at alpha {} (seed {})", tokens, alpha, seed
            );
            prop_assert_eq!(
                &got.spans, &want_spans,
                "partition of {:?} at alpha {} (seed {})", tokens, alpha, seed
            );
        }
    }
}
