//! **Ablations** — the design choices DESIGN.md §5 calls out, each isolated:
//!
//! (a) punctuation chunking on/off — candidate growth and runtime;
//! (b) data-antimonotonicity document pruning on/off — runtime only
//!     (results must be identical);
//! (c) significance threshold α sweep — partition granularity;
//! (d) minimum support sweep — precision/recall of planted phrases;
//! (e) hyperparameter optimization on/off — perplexity;
//! (f) clique potential on/off — PhraseLDA vs LDA on identical tokens
//!     (phrase-quality of the topical assignment);
//! (g) Eq. 1 significance vs plain PMI as the collocation measure —
//!     planted precision of the top-ranked bigrams (the free-rider /
//!     rare-coincidence argument of §4.2.1).

use topmine_bench::{banner, iters, scale, seed_for};
use topmine_corpus::{Corpus, Document};
use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::{FrequentPhraseMiner, MinerConfig, Segmentation, Segmenter, SegmenterConfig};
use topmine_synth::{generate, Profile, SynthCorpus};
use topmine_util::{FxHashSet, Table};

fn main() {
    banner(
        "Ablations: chunking, doc pruning, alpha, min-support, hyperopt, clique potential",
        "each isolates one design choice of the ToPMine framework",
    );
    let seed = seed_for("ablations");
    let synth = generate(Profile::DblpAbstracts, scale() * 0.5, seed);
    eprintln!(
        "corpus: {} docs, {} tokens, vocab {}",
        synth.corpus.n_docs(),
        synth.corpus.n_tokens(),
        synth.corpus.vocab_size()
    );

    ablation_chunking(&synth);
    ablation_doc_pruning(&synth);
    ablation_alpha(&synth);
    ablation_min_support(&synth);
    // (e) and (f) fit PhraseLDA on the same ε/α partition — mine and
    // segment once, share the result.
    let seg = Segmenter::with_params(support(&synth.corpus), 4.0)
        .segment(&synth.corpus)
        .1;
    ablation_hyperopt(&synth, &seg, seed);
    ablation_clique_potential(&synth, &seg, seed);
    ablation_scoring_measure(&synth);
}

fn support(corpus: &Corpus) -> u64 {
    topmine::ToPMineConfig::support_for_corpus(corpus)
}

/// (a) Merge every document into a single chunk to disable punctuation
/// chunking; compare candidate counts and wall time.
fn ablation_chunking(synth: &SynthCorpus) {
    println!("\n--- (a) punctuation chunking ---");
    let eps = support(&synth.corpus);
    let unchunked = Corpus {
        vocab: synth.corpus.vocab.clone(),
        docs: synth
            .corpus
            .docs
            .iter()
            .map(|d| Document::single_chunk(d.tokens.clone()))
            .collect(),
        provenance: None,
        unstem: None,
    };
    let mut table = Table::new(["variant", "frequent n-grams", "max len", "mine time (s)"]);
    for (label, corpus) in [
        ("chunked (paper)", &synth.corpus),
        ("unchunked", &unchunked),
    ] {
        let t = std::time::Instant::now();
        let stats = FrequentPhraseMiner::new(eps).mine(corpus);
        table.row([
            label.to_string(),
            stats.n_frequent_ngrams().to_string(),
            stats.max_len().to_string(),
            format!("{:.3}", t.elapsed().as_secs_f64()),
        ]);
    }
    println!("{}", table.to_aligned());
    println!("(chunking bounds candidates per chunk; unchunked admits cross-punctuation n-grams)");
}

/// (b) Data antimonotonicity: identical output, different time.
fn ablation_doc_pruning(synth: &SynthCorpus) {
    println!("\n--- (b) data-antimonotonicity document pruning ---");
    let eps = support(&synth.corpus);
    let mut table = Table::new(["variant", "frequent n-grams", "mine time (s)"]);
    let mut results = Vec::new();
    for (label, disable) in [("pruning on (paper)", false), ("pruning off", true)] {
        let t = std::time::Instant::now();
        let stats = FrequentPhraseMiner::with_config(MinerConfig {
            min_support: eps,
            disable_doc_pruning: disable,
            ..MinerConfig::default()
        })
        .mine(&synth.corpus);
        table.row([
            label.to_string(),
            stats.n_frequent_ngrams().to_string(),
            format!("{:.3}", t.elapsed().as_secs_f64()),
        ]);
        results.push(stats);
    }
    println!("{}", table.to_aligned());
    println!(
        "(results identical: {})",
        if results[0] == results[1] {
            "yes"
        } else {
            "NO — BUG"
        }
    );
}

/// (c) α sweep: partition granularity.
fn ablation_alpha(synth: &SynthCorpus) {
    println!("\n--- (c) significance threshold α sweep ---");
    let eps = support(&synth.corpus);
    let stats = FrequentPhraseMiner::new(eps).mine(&synth.corpus);
    let mut table = Table::new([
        "alpha",
        "phrases",
        "multi-word",
        "avg len",
        "planted precision",
    ]);
    for alpha in [0.5, 2.0, 5.0, 10.0, 25.0] {
        let seg = Segmenter::new(SegmenterConfig {
            miner: MinerConfig {
                min_support: eps,
                ..MinerConfig::default()
            },
            alpha,
            n_threads: 1,
        })
        .segment_with_stats(&synth.corpus, &stats);
        let counts = seg.phrase_counts(&synth.corpus);
        let multi: u64 = counts
            .iter()
            .filter(|(p, _)| p.len() > 1)
            .map(|(_, c)| *c)
            .sum();
        let planted: u64 = counts
            .iter()
            .filter(|(p, _)| p.len() > 1 && synth.truth.is_planted(p))
            .map(|(_, c)| *c)
            .sum();
        let total_tokens: u64 = counts.iter().map(|(p, c)| p.len() as u64 * *c).sum();
        table.row([
            format!("{alpha}"),
            seg.n_phrases().to_string(),
            seg.n_multiword().to_string(),
            format!("{:.2}", total_tokens as f64 / seg.n_phrases().max(1) as f64),
            format!("{:.3}", planted as f64 / multi.max(1) as f64),
        ]);
    }
    println!("{}", table.to_aligned());
    println!("(low α over-merges, high α under-merges; precision peaks in between)");
}

/// (d) Minimum support sweep: precision/recall of planted phrase types.
fn ablation_min_support(synth: &SynthCorpus) {
    println!("\n--- (d) minimum support sweep ---");
    let planted: FxHashSet<&[u32]> = synth
        .truth
        .phrase_lexicon
        .iter()
        .map(|p| p.as_ref())
        .collect();
    let mut table = Table::new(["min support", "frequent n-grams", "precision", "recall"]);
    for eps in [2u64, 5, 10, 25, 50] {
        let stats = FrequentPhraseMiner::new(eps).mine(&synth.corpus);
        // A mined n-gram is "correct" if it is a planted phrase or a
        // contiguous sub-phrase of one (sub-phrases necessarily co-occur).
        let mut hits = 0usize;
        let ngrams: Vec<Vec<u32>> = stats
            .phrases()
            .into_iter()
            .filter(|(p, _)| p.len() > 1)
            .map(|(p, _)| p)
            .collect();
        for p in &ngrams {
            let sub_of_planted = planted
                .iter()
                .any(|pl| pl.len() >= p.len() && pl.windows(p.len()).any(|w| w == p.as_slice()));
            if sub_of_planted {
                hits += 1;
            }
        }
        let found: usize = planted.iter().filter(|p| stats.count(p) > 0).count();
        table.row([
            eps.to_string(),
            stats.n_frequent_ngrams().to_string(),
            format!(
                "{:.3}",
                hits as f64 / stats.n_frequent_ngrams().max(1) as f64
            ),
            format!("{:.3}", found as f64 / planted.len().max(1) as f64),
        ]);
    }
    println!("{}", table.to_aligned());
    println!("(the paper's trade-off: 'The larger minimum support is, the more precision and the less recall is expected')");
}

/// (e) Hyperparameter optimization on/off.
fn ablation_hyperopt(synth: &SynthCorpus, seg: &Segmentation, seed: u64) {
    println!("\n--- (e) hyperparameter optimization (Minka fixed point) ---");
    let sweeps = iters(150);
    let mut table = Table::new(["variant", "perplexity", "alpha sum", "beta"]);
    for (label, optimize_every) in [
        ("fixed hyperparameters", 0usize),
        ("optimized (paper §5.3)", 25),
    ] {
        let mut m = PhraseLda::new(
            GroupedDocs::from_segmentation(&synth.corpus, seg),
            TopicModelConfig {
                n_topics: synth.n_topics,
                alpha: 50.0 / synth.n_topics as f64,
                beta: 0.01,
                seed,
                optimize_every,
                burn_in: 25,
                n_threads: 1,
            },
        );
        m.run(sweeps);
        table.row([
            label.to_string(),
            format!("{:.2}", m.perplexity()),
            format!("{:.3}", m.alpha().iter().sum::<f64>()),
            format!("{:.4}", m.beta()),
        ]);
    }
    println!("{}", table.to_aligned());
}

/// (f) The clique potential itself: PhraseLDA vs plain LDA on the very same
/// token stream — what fraction of planted phrase instances end up with all
/// tokens in one topic?
fn ablation_clique_potential(synth: &SynthCorpus, seg: &Segmentation, seed: u64) {
    println!(
        "\n--- (f) clique potential: PhraseLDA vs LDA topic agreement within planted phrases ---"
    );
    let sweeps = iters(150);
    let cfg = TopicModelConfig {
        n_topics: synth.n_topics,
        alpha: 50.0 / synth.n_topics as f64,
        beta: 0.01,
        seed,
        optimize_every: 0,
        burn_in: 0,
        n_threads: 1,
    };
    let mut phrase_lda = PhraseLda::new(
        GroupedDocs::from_segmentation(&synth.corpus, seg),
        cfg.clone(),
    );
    phrase_lda.run(sweeps);
    let mut lda = PhraseLda::new(GroupedDocs::unigrams(&synth.corpus), cfg);
    lda.run(sweeps);

    // For LDA (singleton groups), group index == token index; measure how
    // often a planted span is topic-uniform.
    let agreement = |model: &PhraseLda, singleton: bool| -> f64 {
        let mut uniform = 0usize;
        let mut total = 0usize;
        for (d, spans) in synth.truth.phrase_spans.iter().enumerate() {
            for &(s, e) in spans {
                if e - s < 2 {
                    continue;
                }
                total += 1;
                if singleton {
                    let first = model.topic_of_group(d, s as usize);
                    if (s + 1..e).all(|i| model.topic_of_group(d, i as usize) == first) {
                        uniform += 1;
                    }
                } else {
                    // Under PhraseLDA, find the groups covering the span via
                    // the segmentation: uniform iff one group covers it or
                    // all covering groups share a topic.
                    let doc = &seg.docs[d];
                    let mut topics = FxHashSet::default();
                    for (g, &(gs, ge)) in doc.spans.iter().enumerate() {
                        if ge > s && gs < e {
                            topics.insert(model.topic_of_group(d, g));
                        }
                    }
                    if topics.len() <= 1 {
                        uniform += 1;
                    }
                }
            }
        }
        uniform as f64 / total.max(1) as f64
    };

    let mut table = Table::new(["model", "perplexity", "planted-phrase topic agreement"]);
    table.row([
        "PhraseLDA (clique potential)".to_string(),
        format!("{:.2}", phrase_lda.perplexity()),
        format!("{:.3}", agreement(&phrase_lda, false)),
    ]);
    table.row([
        "LDA (no potential)".to_string(),
        format!("{:.2}", lda.perplexity()),
        format!("{:.3}", agreement(&lda, true)),
    ]);
    println!("{}", table.to_aligned());
    println!("(the paper's motivation: under bag-of-words, 'tokens in the same phrase can be assigned to different latent topics')");
}

/// (g) Rank every frequent bigram by Eq. 1 significance vs plain PMI and
/// measure planted precision among the top 100 of each: PMI is dominated by
/// rare coincidences, Eq. 1 by attested collocations.
fn ablation_scoring_measure(synth: &SynthCorpus) {
    use topmine_phrase::{significance, significance_pmi, FrequentPhraseMiner};
    use topmine_util::TopK;
    println!("\n--- (g) collocation measure: Eq. 1 significance vs PMI ---");
    let eps = support(&synth.corpus);
    let stats = FrequentPhraseMiner::new(eps).mine(&synth.corpus);
    let l = stats.total_tokens;
    let mut by_sig = TopK::new(100);
    let mut by_pmi = TopK::new(100);
    // Lexicographic order, so equal scores rank the same on every run.
    let phrases = stats.phrases();
    let bigrams = phrases
        .iter()
        .filter(|(p, _)| p.len() == 2)
        .map(|(p, c)| (p.as_slice(), *c));
    for (p, c) in bigrams {
        let (f1, f2) = (stats.count(&p[..1]), stats.count(&p[1..]));
        by_sig.push(significance(c, f1, f2, l), p);
        by_pmi.push(significance_pmi(c, f1, f2, l), p);
    }
    // A bigram is "real" when it is planted or a contiguous sub-phrase of a
    // planted collocation (sub-phrases of trigrams are genuine collocations
    // too). Also report the evidence behind each ranking: median corpus
    // count of the top bigrams — PMI's preference for rare pairs is visible
    // there even when the synthetic corpus contains few pure coincidences.
    let planted_sub = |p: &[u32]| {
        synth
            .truth
            .phrase_lexicon
            .iter()
            .any(|pl| pl.len() >= p.len() && pl.windows(p.len()).any(|w| w == p))
    };
    let summarize = |top: TopK<&[u32]>| {
        let items = top.into_sorted_vec();
        let n = items.len().max(1);
        let hits = items.iter().filter(|(_, p)| planted_sub(p)).count();
        let mut counts: Vec<u64> = items.iter().map(|(_, p)| stats.count(p)).collect();
        counts.sort_unstable();
        let median = counts.get(counts.len() / 2).copied().unwrap_or(0);
        (hits as f64 / n as f64, median)
    };
    let (sig_p, sig_med) = summarize(by_sig);
    let (pmi_p, pmi_med) = summarize(by_pmi);
    let mut table = Table::new(["measure", "real-collocation precision@100", "median count"]);
    table.row([
        "Eq. 1 significance (paper)".to_string(),
        format!("{sig_p:.3}"),
        sig_med.to_string(),
    ]);
    table.row([
        "plain PMI".to_string(),
        format!("{pmi_p:.3}"),
        pmi_med.to_string(),
    ]);
    println!("{}", table.to_aligned());
    println!(
        "(PMI tops out on the rarest pairs — low median count — while Eq. 1 ranks by evidence;          on real corpora the rare tail is noise, which is the §4.2.1 argument)"
    );
}
