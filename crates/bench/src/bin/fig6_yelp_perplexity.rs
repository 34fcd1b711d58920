//! **Figure 6** — Yelp reviews: held-out perplexity of PhraseLDA vs. LDA
//! over Gibbs iterations. The paper reports PhraseLDA "significantly better
//! than LDA, demonstrating 45 bits lower perplexity" on Yelp.
//!
//! Protocol: 10% of documents are held out; both models train on the rest
//! (hyperparameter optimization on, as the paper does for its perplexity
//! runs). At regular intervals both models score *the same* unseen tokens
//! by document completion: θ is folded in from the even-indexed segments
//! and the odd-indexed segments are scored (see
//! `PhraseLda::heldout_perplexity`).

use topmine_bench::{banner, iters, scale, seed_for};
use topmine_synth::Profile;

fn main() {
    banner(
        "Figure 6: Yelp held-out perplexity, PhraseLDA vs LDA over Gibbs iterations",
        "PhraseLDA tracks clearly below LDA on Yelp (≈45 'bits' lower in the paper's units)",
    );
    // Yelp's short, noisy reviews are the regime where the clique constraint
    // pays off; the synthetic corpus reproduces the paper's direction when
    // per-document evidence is scarce relative to the topical vocabulary,
    // hence the 0.25 factor (see EXPERIMENTS.md for the sensitivity sweep).
    perplexity_curve::run(
        Profile::YelpReviews,
        10,
        seed_for("fig6"),
        scale() * 0.25,
        iters(400),
    );
}

/// Shared implementation for Figures 6 and 7 (fig7 has its own copy of the
/// call with the DBLP profile).
pub mod perplexity_curve {
    use topmine_lda::{FoldIn, GroupedDocs, PhraseLda, TopicModelConfig};
    use topmine_phrase::Segmenter;
    use topmine_synth::{generate, Profile};
    use topmine_util::Table;

    pub fn run(profile: Profile, k: usize, seed: u64, scale: f64, total_iters: usize) {
        let synth = generate(profile, scale, seed);
        let corpus = &synth.corpus;
        let min_support = topmine::ToPMineConfig::support_for_corpus(corpus);
        let (_, seg) = Segmenter::with_params(min_support, 3.0).segment(corpus);
        eprintln!(
            "corpus: {} docs, {} tokens, vocab {}; segmentation: {} phrases ({} multi-word)",
            corpus.n_docs(),
            corpus.n_tokens(),
            corpus.vocab_size(),
            seg.n_phrases(),
            seg.n_multiword()
        );

        // One doc partition shared by both models; both score the same
        // held-out tokens under the same (segmentation) grouping.
        let grouped = GroupedDocs::from_segmentation(corpus, &seg);
        let (train_seg, held) = grouped.split_heldout(5);
        // LDA trains on the same documents, ungrouped.
        let train_lda = GroupedDocs {
            docs: train_seg
                .docs
                .iter()
                .map(|d| topmine_lda::GroupedDoc {
                    tokens: d.tokens.clone(),
                    group_ends: (1..=d.tokens.len() as u32).collect(),
                })
                .collect(),
            vocab_size: train_seg.vocab_size,
        };

        let report_every = (total_iters / 20).max(1);
        let alpha0 = std::env::var("TOPMINE_DOC_ALPHA")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(50.0 / k as f64);
        let opt_every = std::env::var("TOPMINE_OPT")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(10);
        let cfg = TopicModelConfig {
            n_topics: k,
            alpha: alpha0,
            beta: 0.01,
            seed,
            // The paper: "we use hyperparameter optimization for our ...
            // perplexity calculations".
            optimize_every: opt_every,
            burn_in: 20,
            n_threads: 1,
        };
        let phrase_fold = match std::env::var("TOPMINE_FOLD").as_deref() {
            Ok("tokens") => FoldIn::Tokens,
            _ => FoldIn::Groups,
        };

        let mut phrase_curve = Vec::new();
        let mut lda_curve = Vec::new();
        // Each model folds in under its own inference assumption (clique vs
        // token), scoring the identical unseen tokens. Fold-in is a short
        // stochastic chain, so each point averages three fold seeds.
        let eval = |m: &PhraseLda, fold| {
            (0..3)
                .map(|r| m.heldout_perplexity(&held, 15, seed ^ (0xbeef + r), fold))
                .sum::<f64>()
                / 3.0
        };
        let mut phrase_lda = PhraseLda::new(train_seg, cfg.clone());
        phrase_lda.run_with(total_iters, |i, m| {
            if i % report_every == 0 || i == total_iters {
                phrase_curve.push((i, eval(m, phrase_fold)));
            }
        });
        let mut lda = PhraseLda::new(train_lda, cfg);
        lda.run_with(total_iters, |i, m| {
            if i % report_every == 0 || i == total_iters {
                lda_curve.push((i, eval(m, FoldIn::Tokens)));
            }
        });

        let mut table = Table::new(["iteration", "PhraseLDA", "LDA"]);
        for ((i, pp), (_, lp)) in phrase_curve.iter().zip(&lda_curve) {
            table.row([i.to_string(), format!("{pp:.2}"), format!("{lp:.2}")]);
        }
        println!("\n{}", table.to_tsv());
        let (pf, lf) = (phrase_curve.last().unwrap().1, lda_curve.last().unwrap().1);
        println!(
            "final held-out perplexity: PhraseLDA {pf:.2} vs LDA {lf:.2} (gap {:+.2})",
            lf - pf
        );
    }
}
