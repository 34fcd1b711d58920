//! **Figure 7** — DBLP abstracts: held-out perplexity of PhraseLDA vs. LDA
//! over Gibbs iterations. The paper reports "comparable perplexity to LDA"
//! on this corpus (same protocol as Figure 6; see `fig6_yelp_perplexity`).

use topmine_bench::{banner, iters, scale, seed_for};
use topmine_lda::{FoldIn, GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::Segmenter;
use topmine_synth::{generate, Profile};
use topmine_util::Table;

fn main() {
    banner(
        "Figure 7: DBLP-abstracts held-out perplexity, PhraseLDA vs LDA over Gibbs iterations",
        "PhraseLDA demonstrates comparable perplexity to LDA on DBLP abstracts",
    );
    let seed = seed_for("fig7");
    let synth = generate(Profile::DblpAbstracts, scale(), seed);
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

    let k = 10;
    let total_iters = iters(400);
    let grouped = GroupedDocs::from_segmentation(corpus, &seg);
    let (train_seg, held) = grouped.split_heldout(5);
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
    let cfg = TopicModelConfig {
        n_topics: k,
        alpha: 50.0 / k as f64,
        beta: 0.01,
        seed,
        optimize_every: 25,
        burn_in: 50,
        n_threads: 1,
    };

    let mut phrase_curve = Vec::new();
    let mut lda_curve = Vec::new();
    // Three fold-in seeds averaged per point, as in the Figure 6 binary.
    let eval = |m: &PhraseLda, fold: FoldIn| {
        (0..3)
            .map(|r| m.heldout_perplexity(&held, 15, seed ^ (0xbeef + r), fold))
            .sum::<f64>()
            / 3.0
    };
    let mut phrase_lda = PhraseLda::new(train_seg, cfg.clone());
    phrase_lda.run_with(total_iters, |i, m| {
        if i % report_every == 0 || i == total_iters {
            phrase_curve.push((i, eval(m, FoldIn::Groups)));
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
        "final held-out perplexity: PhraseLDA {pf:.2} vs LDA {lf:.2} (gap {:+.2}; paper shape: comparable)",
        lf - pf
    );
}
