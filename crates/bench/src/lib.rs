//! Shared plumbing for the experiment binaries (one per paper table/figure).
//!
//! Every binary honors two environment variables so the same code serves a
//! quick smoke run and a full reproduction:
//!
//! * `TOPMINE_SCALE` — multiplies synthetic corpus document counts
//!   (default 0.2; `1.0` is the reproduction size of
//!   [`topmine_synth::profile_config`]).
//! * `TOPMINE_ITERS` — overrides Gibbs sweep counts (default per binary;
//!   the paper used 1000-3000).
//!
//! A value that is not a finite number greater than zero (an integer for
//! `TOPMINE_ITERS`) is ignored, as if the variable were unset.

use std::io::Write as _;
use std::str::FromStr;
use topmine_lda::{FoldIn, GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::Segmenter;
use topmine_synth::Profile;
use topmine_util::Table;

/// A knob's value: `Some` only for a finite number greater than zero.
fn parse_knob<T: FromStr + Copy + Into<f64>>(raw: Option<&str>) -> Option<T> {
    let value = raw?.parse::<T>().ok()?;
    let as_f64: f64 = value.into();
    (as_f64.is_finite() && as_f64 > 0.0).then_some(value)
}

fn knob<T: FromStr + Copy + Into<f64>>(name: &str) -> Option<T> {
    parse_knob(std::env::var(name).ok().as_deref())
}

/// Corpus scale factor from `TOPMINE_SCALE` (default 0.2).
pub fn scale() -> f64 {
    knob("TOPMINE_SCALE").unwrap_or(0.2)
}

/// Gibbs iteration count from `TOPMINE_ITERS`, else `default`.
pub fn iters(default: usize) -> usize {
    knob::<u32>("TOPMINE_ITERS").map_or(default, |n| n as usize)
}

/// Standard experiment banner: what artifact is being regenerated and with
/// which knob values, so transcripts are self-describing.
pub fn banner(artifact: &str, paper_claim: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "================================================================"
    );
    let _ = writeln!(out, "Reproducing: {artifact}");
    let _ = writeln!(out, "Paper claim: {paper_claim}");
    let _ = writeln!(
        out,
        "Knobs: TOPMINE_SCALE={} TOPMINE_ITERS={}",
        scale(),
        knob::<u32>("TOPMINE_ITERS").map_or("(default)".to_string(), |n| n.to_string())
    );
    let _ = writeln!(
        out,
        "================================================================"
    );
}

/// A fixed seed namespace so every binary is reproducible but distinct.
pub fn seed_for(artifact: &str) -> u64 {
    // FNV-1a over the artifact name.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in artifact.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Run ToPMine on a synthetic profile and return the generated corpus plus
/// the fitted model — the shared core of the topic-table binaries
/// (Tables 1, 4, 5, 6).
pub fn fit_topmine_on_profile(
    profile: topmine_synth::Profile,
    corpus_scale: f64,
    iterations: usize,
    seed: u64,
) -> (topmine_synth::SynthCorpus, topmine::ToPMineModel) {
    let synth = topmine_synth::generate(profile, corpus_scale, seed);
    let cfg = topmine::ToPMineConfig {
        min_support: topmine::ToPMineConfig::support_for_corpus(&synth.corpus),
        // With near-zero independence expectation sig ≈ sqrt(f12), so α
        // controls the minimum segmented-phrase count (~α²). 3.0 suits the
        // scaled-down default corpora; the paper's Figure 1 uses 5.
        significance_alpha: 3.0,
        n_topics: synth.n_topics,
        iterations,
        optimize_every: 50,
        burn_in: iterations / 4,
        seed,
        ..topmine::ToPMineConfig::default()
    };
    let model = topmine::ToPMine::new(cfg).fit(&synth.corpus);
    (synth, model)
}

/// Print a fitted model as a paper-style topic table (1-grams block above
/// n-grams block) and return the rendered string.
pub fn print_topic_table(
    synth: &topmine_synth::SynthCorpus,
    model: &topmine::ToPMineModel,
    n_rows: usize,
) -> String {
    let summaries = model.summarize(&synth.corpus, n_rows, n_rows);
    let rendered = topmine_lda::render_topic_table(&summaries, n_rows);
    println!("{rendered}");
    rendered
}

/// Figures 6–7: held-out perplexity of PhraseLDA against LDA over Gibbs
/// sweeps on a synthetic `profile` corpus at `corpus_scale`, with K = `k`,
/// α and β starting at 50/K and 0.01 and optimized every `optimize_every`
/// sweeps after `burn_in` (the paper optimizes hyperparameters for its
/// perplexity runs).
///
/// Every fifth document is held out; both models train on the rest, over
/// the same tokens. About 20 times over the run, each scores *the same*
/// unseen tokens by document completion under its own inference assumption
/// (clique vs token): θ is folded in from the even-indexed segments and the
/// odd-indexed segments are scored (see `PhraseLda::heldout_perplexity`).
/// Fold-in is a short stochastic chain, so each point averages three fold
/// seeds.
///
/// Prints the corpus to stderr and the curve table to stdout, and returns
/// the final held-out perplexities `(PhraseLDA, LDA)`.
pub fn perplexity_curve(
    profile: Profile,
    k: usize,
    seed: u64,
    corpus_scale: f64,
    sweeps: usize,
    optimize_every: usize,
    burn_in: usize,
) -> (f64, f64) {
    let synth = topmine_synth::generate(profile, corpus_scale, seed);
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

    let (train_phrase, held) = GroupedDocs::from_segmentation(corpus, &seg).split_heldout(5);
    let (train_lda, _) = GroupedDocs::unigrams(corpus).split_heldout(5);
    let cfg = TopicModelConfig {
        n_topics: k,
        alpha: 50.0 / k as f64,
        beta: 0.01,
        seed,
        optimize_every,
        burn_in,
        n_threads: 1,
    };
    let report_every = (sweeps / 20).max(1);
    let curve = |train: GroupedDocs, fold: FoldIn| {
        let mut points = Vec::new();
        PhraseLda::new(train, cfg.clone()).run_with(sweeps, |i, m| {
            if i % report_every == 0 || i == sweeps {
                let pp = (0..3)
                    .map(|r| m.heldout_perplexity(&held, 15, seed ^ (0xbeef + r), fold))
                    .sum::<f64>()
                    / 3.0;
                points.push((i, pp));
            }
        });
        points
    };
    let phrase_curve = curve(train_phrase, FoldIn::Groups);
    let lda_curve = curve(train_lda, FoldIn::Tokens);

    let mut table = Table::new(["iteration", "PhraseLDA", "LDA"]);
    for ((i, pp), (_, lp)) in phrase_curve.iter().zip(&lda_curve) {
        table.row([i.to_string(), format!("{pp:.2}"), format!("{lp:.2}")]);
    }
    println!("\n{}", table.to_tsv());
    let last = |c: &[(usize, f64)]| c.last().expect("a run of at least one sweep").1;
    (last(&phrase_curve), last(&lda_curve))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(seed_for("fig6"), seed_for("fig6"));
        assert_ne!(seed_for("fig6"), seed_for("fig7"));
    }

    #[test]
    fn knobs_accept_only_finite_values_above_zero() {
        for bad in ["0", "-1", "inf", "-inf", "nan", "NaN", "", "abc", "0.2x"] {
            assert_eq!(parse_knob::<f64>(Some(bad)), None, "{bad:?}");
        }
        for bad in ["0", "-3", "2.5", "1e3", "inf", "nan", "abc"] {
            assert_eq!(parse_knob::<u32>(Some(bad)), None, "{bad:?}");
        }
        assert_eq!(parse_knob::<f64>(None), None);
        assert_eq!(parse_knob::<u32>(None), None);
        assert_eq!(parse_knob::<f64>(Some("0.05")), Some(0.05));
        assert_eq!(parse_knob::<u32>(Some("20")), Some(20));
    }
}
