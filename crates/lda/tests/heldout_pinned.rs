//! Held-out perplexity, pinned bit for bit.
//!
//! `PhraseLda::heldout_perplexity` folds in the observed half of each
//! held-out document with the kernel's fold-in chain (`kernel::fold_in`)
//! and scores the other half against φ from the training counts. The
//! values below were recorded before that chain moved into the kernel, so
//! any change to the chain's RNG consumption, its draw or the scoring
//! arithmetic shows here as a different bit pattern.

use topmine_lda::{FoldIn, GroupedDoc, GroupedDocs, PhraseLda, TopicModelConfig};

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 40 documents of 20–59 tokens over 40 words, in groups of 1–5 tokens.
/// Self-contained, so it can never drift with a dependency.
fn docs() -> GroupedDocs {
    let mut s = 0xD1CEu64;
    let mut docs = Vec::new();
    for _ in 0..40 {
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

/// 30 training documents, 30 sweeps with hyperparameter optimization, then
/// 15 fold-in sweeps over each of the 10 held-out documents.
fn heldout(fold_in: FoldIn) -> f64 {
    let (train, held) = docs().split_heldout(4);
    let mut m = PhraseLda::new(
        train,
        TopicModelConfig {
            n_topics: 6,
            alpha: 2.0,
            beta: 0.05,
            seed: 42,
            optimize_every: 10,
            burn_in: 5,
            n_threads: 1,
        },
    );
    m.run(30);
    m.heldout_perplexity(&held, 15, 7, fold_in)
}

const GROUPS_BITS: u64 = 0x4044_8353_a0c4_9ffc;
const TOKENS_BITS: u64 = 0x4045_a8d0_9301_7a6e;

#[test]
fn heldout_perplexity_matches_its_recorded_bits() {
    for (fold_in, want) in [(FoldIn::Groups, GROUPS_BITS), (FoldIn::Tokens, TOKENS_BITS)] {
        let got = heldout(fold_in);
        assert_eq!(
            got.to_bits(),
            want,
            "{fold_in:?}: held-out perplexity {got} has bits {:#018x}",
            got.to_bits()
        );
    }
}
