//! **Figure 8** — decomposition of ToPMine's runtime into phrase mining and
//! PhraseLDA as the number of documents grows (DBLP abstracts). The paper
//! shows (log scale) that both scale linearly and that with 10 topics and
//! 2000 iterations the topic-modeling portion is consistently ~40× the
//! phrase mining.

use topmine::{ToPMine, ToPMineConfig};
use topmine_bench::{banner, iters, scale, seed_for};
use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_synth::{generator, Profile};
use topmine_util::Table;

fn main() {
    banner(
        "Figure 8: runtime decomposition, phrase mining vs PhraseLDA, vs #documents",
        "both components scale linearly; topic modeling is consistently ~40x phrase mining (k=10, 2000 iters)",
    );
    let seed = seed_for("fig8");
    let k = 10;
    let gibbs_iters = iters(400); // paper: 2000
    let base = scale();

    let mut table = Table::new([
        "n_docs",
        "n_tokens",
        "phrase_mining_s",
        "phrase_lda_s",
        "ratio",
    ]);
    // Sweep document counts the way the paper's x-axis does (0.5e4..4e4,
    // scaled down by default).
    for step in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let gen = generator(Profile::DblpAbstracts, base * step);
        let synth = gen.generate(seed);
        let corpus = &synth.corpus;

        let cfg = ToPMineConfig {
            min_support: ToPMineConfig::support_for_corpus(corpus),
            significance_alpha: 4.0,
            n_topics: k,
            iterations: 0, // time the two phases separately below
            seed,
            ..ToPMineConfig::default()
        };
        let t0 = std::time::Instant::now();
        let (_, seg) = ToPMine::new(cfg).mine_only(corpus);
        let mining_s = t0.elapsed().as_secs_f64();

        let t1 = std::time::Instant::now();
        let mut model = PhraseLda::new(
            GroupedDocs::from_segmentation(corpus, &seg),
            TopicModelConfig {
                n_topics: k,
                alpha: 50.0 / k as f64,
                beta: 0.01,
                seed,
                optimize_every: 0,
                burn_in: 0,
                n_threads: 1,
            },
        );
        model.run(gibbs_iters);
        let lda_s = t1.elapsed().as_secs_f64();

        table.row([
            corpus.n_docs().to_string(),
            corpus.n_tokens().to_string(),
            format!("{mining_s:.3}"),
            format!("{lda_s:.3}"),
            format!("{:.1}x", lda_s / mining_s.max(1e-9)),
        ]);
        eprintln!(
            "  {} docs: mining {mining_s:.3}s, PhraseLDA({gibbs_iters} iters) {lda_s:.3}s",
            corpus.n_docs()
        );
    }
    println!("\n{}", table.to_aligned());
    println!("(paper Figure 8 is this table on a log y-axis; at the paper's 2000 iterations the ratio approaches ~40x)");
}
