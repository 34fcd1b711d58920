//! The ToPMine pipeline: mine → segment → PhraseLDA.

use topmine_corpus::Corpus;
use topmine_lda::{GroupedDocs, PhraseLda, SweepTelemetry, TopicModelConfig, TopicSummary};
use topmine_phrase::{
    MinerConfig, MiningTelemetry, PhraseStats, Segmentation, Segmenter, SegmenterConfig,
};
use topmine_util::Stopwatch;

/// All knobs of the framework, with the paper's defaults.
#[derive(Debug, Clone)]
pub struct ToPMineConfig {
    /// Minimum support ε for frequent phrase mining. The paper sets "a
    /// minimum support that grows linearly with corpus size"; callers can
    /// use [`ToPMineConfig::support_for_corpus`] for that policy.
    pub min_support: u64,
    /// Significance threshold α for phrase construction (Figure 1 uses 5).
    pub significance_alpha: f64,
    /// Hard cap on mined phrase length (0 = unbounded).
    pub max_phrase_len: usize,
    /// Number of topics K.
    pub n_topics: usize,
    /// Gibbs sweeps for PhraseLDA.
    pub iterations: usize,
    /// Initial symmetric document-topic hyperparameter; 0.0 = use 50/K.
    pub doc_topic_alpha: f64,
    /// Symmetric topic-word hyperparameter β.
    pub topic_word_beta: f64,
    /// Optimize hyperparameters every N sweeps (0 = off, as in the paper's
    /// timed runs; the user studies enable it).
    pub optimize_every: usize,
    /// Sweeps before the first hyperparameter update.
    pub burn_in: usize,
    /// Worker threads for mining and segmentation.
    pub n_threads: usize,
    /// Worker threads for Algorithm 1 (every pass of the frequent-phrase
    /// miner, its merge included); `0` follows `n_threads`. Setting it
    /// apart lets the miner run, or be timed, at its own thread count.
    pub mine_threads: usize,
    /// Worker threads for the PhraseLDA Gibbs sweeps. `1` runs the exact
    /// sequential chain; `T ≥ 2` runs parallel snapshot sweeps that
    /// are bit-identical for every `T ≥ 2` (see `topmine_lda::sampler`).
    pub lda_threads: usize,
    /// RNG seed (initialization + sampling).
    pub seed: u64,
    /// Print periodic per-sweep telemetry (sweep rate, singleton-draw
    /// bucket split, merge-delta volume) to stderr during the fit.
    pub progress: bool,
}

impl Default for ToPMineConfig {
    fn default() -> Self {
        Self {
            min_support: 5,
            significance_alpha: 5.0,
            max_phrase_len: 0,
            n_topics: 10,
            iterations: 500,
            doc_topic_alpha: 0.0,
            topic_word_beta: 0.01,
            optimize_every: 0,
            burn_in: 50,
            n_threads: 1,
            mine_threads: 0,
            lda_threads: 1,
            seed: 1,
            progress: false,
        }
    }
}

impl ToPMineConfig {
    /// The paper's guidance: minimum support growing linearly with corpus
    /// size (here: 5 per million tokens, floored at 3).
    pub fn support_for_corpus(corpus: &Corpus) -> u64 {
        ((corpus.n_tokens() as f64 / 1_000_000.0 * 5.0).round() as u64).max(3)
    }

    /// The Algorithm 1 counting thread count actually used: `mine_threads`
    /// when set, else `n_threads`.
    pub fn resolved_mine_threads(&self) -> usize {
        if self.mine_threads > 0 {
            self.mine_threads
        } else {
            self.n_threads
        }
    }

    fn topic_model_config(&self) -> TopicModelConfig {
        TopicModelConfig {
            n_topics: self.n_topics,
            alpha: if self.doc_topic_alpha > 0.0 {
                self.doc_topic_alpha
            } else {
                50.0 / self.n_topics as f64
            },
            beta: self.topic_word_beta,
            seed: self.seed,
            optimize_every: self.optimize_every,
            burn_in: self.burn_in,
            n_threads: self.lda_threads,
        }
    }

    fn segmenter_config(&self) -> SegmenterConfig {
        SegmenterConfig {
            miner: MinerConfig {
                min_support: self.min_support,
                max_phrase_len: self.max_phrase_len,
                n_threads: self.resolved_mine_threads(),
                disable_doc_pruning: false,
            },
            alpha: self.significance_alpha,
            n_threads: self.n_threads,
        }
    }
}

/// Wall-clock decomposition of a run (paper Figure 8 separates exactly
/// these two components).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTiming {
    /// Frequent phrase mining + segmentation, in seconds.
    pub phrase_mining_secs: f64,
    /// PhraseLDA Gibbs sampling, in seconds.
    pub topic_modeling_secs: f64,
}

impl RunTiming {
    pub fn total_secs(&self) -> f64 {
        self.phrase_mining_secs + self.topic_modeling_secs
    }
}

/// A fitted ToPMine model.
#[derive(Debug)]
pub struct ToPMineModel {
    /// Aggregate phrase statistics from Algorithm 1.
    pub stats: PhraseStats,
    /// The bag-of-phrases partition from Algorithm 2.
    pub segmentation: Segmentation,
    /// The trained PhraseLDA sampler.
    pub model: PhraseLda,
    /// Wall-clock decomposition of the fit.
    pub timing: RunTiming,
}

impl ToPMineModel {
    /// Freeze the fitted model into a serving artifact: the mined phrase
    /// lexicon is kept as is, φ/α/β are captured as point estimates, and
    /// `options` records the preprocessing contract unseen text will be
    /// held to. See `topmine_serve` for inference and the query server.
    pub fn freeze(
        &self,
        corpus: &Corpus,
        options: &topmine_corpus::CorpusOptions,
    ) -> topmine_serve::FrozenModel {
        topmine_serve::FrozenModel::freeze(
            corpus,
            &self.stats,
            self.segmentation.alpha,
            &self.model,
            options,
        )
    }

    /// Topic summaries: top unigrams by φ, top phrases by topical frequency.
    pub fn summarize(
        &self,
        corpus: &Corpus,
        n_unigrams: usize,
        n_phrases: usize,
    ) -> Vec<TopicSummary> {
        topmine_lda::summarize_topics(&self.model, corpus, n_unigrams, n_phrases)
    }

    /// Training perplexity of the current Gibbs state.
    pub fn perplexity(&self) -> f64 {
        self.model.perplexity()
    }
}

/// Stderr rendering of the per-level Algorithm 1 telemetry behind
/// `--progress`. Printed after the mine completes — the counters are
/// collected unconditionally (a few updates per level, well inside the <2%
/// instrumentation-overhead budget), so reporting adds no work to the
/// counting hot loop.
fn report_mining(tel: &MiningTelemetry) {
    for l in &tel.levels {
        eprintln!(
            "[topmine] mine level {}: {} candidates, {} frequent, {} docs active, \
             largest counting partition {} slots ({:.1} ms)",
            l.level,
            l.candidates,
            l.frequent,
            l.docs_out,
            l.max_part_slots,
            l.nanos as f64 / 1e6,
        );
    }
    eprintln!(
        "[topmine] mining done: {} frequent phrases, {} occurrences counted ({:.1} ms)",
        tel.frequent(),
        tel.occurrences(),
        tel.total_nanos as f64 / 1e6,
    );
}

/// Stderr telemetry printer behind `--progress`: every tenth sweep (and
/// the final one), report the window's sweep rate, the singleton-draw
/// bucket split, and the parallel merge-delta volume from the shared
/// [`SweepTelemetry`].
struct ProgressReporter {
    window_start: std::time::Instant,
    window_stats: SweepTelemetry,
}

impl ProgressReporter {
    fn new() -> Self {
        Self {
            window_start: std::time::Instant::now(),
            window_stats: SweepTelemetry::default(),
        }
    }

    fn report(&mut self, sweep: usize, iters: usize, model: &PhraseLda) {
        if !sweep.is_multiple_of(10) && sweep != iters {
            return;
        }
        let stats = model.sweep_stats();
        let d = stats.since(&self.window_stats);
        let secs = self.window_start.elapsed().as_secs_f64();
        let rate = if secs > 0.0 {
            d.sweeps as f64 / secs
        } else {
            0.0
        };
        let total = d.draws.total();
        let pct = |n: u64| {
            if total == 0 {
                0.0
            } else {
                n as f64 * 100.0 / total as f64
            }
        };
        eprintln!(
            "[topmine] sweep {sweep}/{iters}  {rate:.2} sweeps/s  \
             draws q/r/s/dense {:.1}/{:.1}/{:.1}/{:.1}%  merge-delta {}",
            pct(d.draws.topic_word),
            pct(d.draws.doc),
            pct(d.draws.smoothing),
            pct(d.draws.dense),
            d.merge_delta_entries,
        );
        self.window_stats = stats;
        self.window_start = std::time::Instant::now();
    }
}

/// The framework entry point.
#[derive(Debug, Clone, Default)]
pub struct ToPMine {
    config: ToPMineConfig,
}

impl ToPMine {
    pub fn new(config: ToPMineConfig) -> Self {
        Self { config }
    }

    pub fn config(&self) -> &ToPMineConfig {
        &self.config
    }

    /// Run the full pipeline on a preprocessed corpus.
    pub fn fit(&self, corpus: &Corpus) -> ToPMineModel {
        self.fit_with(corpus, |_, _| {})
    }

    /// Run the full pipeline, reporting `(sweep, &sampler)` after every
    /// Gibbs sweep (perplexity-curve experiments hook in here).
    pub fn fit_with<F: FnMut(usize, &PhraseLda)>(
        &self,
        corpus: &Corpus,
        mut callback: F,
    ) -> ToPMineModel {
        let mut sw = Stopwatch::new();
        let segmenter = Segmenter::new(self.config.segmenter_config());
        let (stats, mining_tel) = segmenter.mine(corpus);
        if self.config.progress {
            report_mining(&mining_tel);
        }
        let segmentation = segmenter.segment_with_stats(corpus, &stats);
        let mining = sw.lap("phrase-mining");

        let grouped = GroupedDocs::from_segmentation(corpus, &segmentation);
        let mut model = PhraseLda::new(grouped, self.config.topic_model_config());
        let iters = self.config.iterations;
        let mut reporter = self.config.progress.then(ProgressReporter::new);
        model.run_with(iters, |sweep, m| {
            callback(sweep, m);
            if let Some(r) = &mut reporter {
                r.report(sweep, iters, m);
            }
        });
        let modeling = sw.lap("topic-modeling");

        ToPMineModel {
            stats,
            segmentation,
            model,
            timing: RunTiming {
                phrase_mining_secs: mining.as_secs_f64(),
                topic_modeling_secs: modeling.as_secs_f64(),
            },
        }
    }

    /// Phrase mining + segmentation only (no topic model) — used by the
    /// runtime-decomposition experiments.
    pub fn mine_only(&self, corpus: &Corpus) -> (PhraseStats, Segmentation) {
        Segmenter::new(self.config.segmenter_config()).segment(corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topmine_synth::{generate, Profile};

    fn small_synth() -> (Corpus, usize) {
        let s = generate(Profile::Conf20, 0.05, 7);
        let k = s.n_topics;
        (s.corpus, k)
    }

    fn quick_config(k: usize) -> ToPMineConfig {
        ToPMineConfig {
            min_support: 5,
            significance_alpha: 3.0,
            n_topics: k,
            iterations: 40,
            seed: 3,
            ..ToPMineConfig::default()
        }
    }

    #[test]
    fn end_to_end_fit_produces_consistent_model() {
        let (corpus, k) = small_synth();
        let model = ToPMine::new(quick_config(k)).fit(&corpus);
        model.segmentation.validate(&corpus).unwrap();
        model.model.check_counts().unwrap();
        assert_eq!(model.model.n_topics(), k);
        assert!(model.perplexity().is_finite());
        assert!(model.timing.phrase_mining_secs >= 0.0);
        assert!(model.timing.total_secs() > 0.0);
        // The synthetic corpus plants plenty of collocations: the
        // segmentation must find multi-word phrases.
        assert!(model.segmentation.n_multiword() > 100);
    }

    #[test]
    fn summaries_cover_all_topics_with_phrases() {
        let (corpus, k) = small_synth();
        let model = ToPMine::new(quick_config(k)).fit(&corpus);
        let summaries = model.summarize(&corpus, 10, 10);
        assert_eq!(summaries.len(), k);
        let with_phrases = summaries
            .iter()
            .filter(|s| !s.top_phrases.is_empty())
            .count();
        assert!(
            with_phrases >= k - 1,
            "{with_phrases}/{k} topics have phrases"
        );
    }

    #[test]
    fn fit_with_callback_sees_every_sweep() {
        let (corpus, k) = small_synth();
        let mut cfg = quick_config(k);
        cfg.iterations = 7;
        let mut sweeps = Vec::new();
        let _ = ToPMine::new(cfg).fit_with(&corpus, |i, _| sweeps.push(i));
        assert_eq!(sweeps, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn deterministic_given_seed() {
        let (corpus, k) = small_synth();
        let a = ToPMine::new(quick_config(k)).fit(&corpus);
        let b = ToPMine::new(quick_config(k)).fit(&corpus);
        assert_eq!(a.perplexity(), b.perplexity());
        assert_eq!(a.segmentation.n_phrases(), b.segmentation.n_phrases());
    }

    #[test]
    fn lda_thread_count_does_not_change_the_fit() {
        // The parallel-training contract surfaces end to end: any
        // lda_threads >= 2 fits the identical model.
        let (corpus, k) = small_synth();
        let mut cfg = quick_config(k);
        cfg.iterations = 15;
        cfg.lda_threads = 2;
        let a = ToPMine::new(cfg.clone()).fit(&corpus);
        cfg.lda_threads = 4;
        let b = ToPMine::new(cfg).fit(&corpus);
        assert_eq!(a.perplexity(), b.perplexity());
        assert_eq!(a.model.phi(), b.model.phi());
        a.model.check_counts().unwrap();
    }

    #[test]
    fn support_policy_scales_with_corpus() {
        let (corpus, _) = small_synth();
        let s = ToPMineConfig::support_for_corpus(&corpus);
        assert!(s >= 3);
    }

    #[test]
    fn mine_only_matches_fit_segmentation() {
        let (corpus, k) = small_synth();
        let tm = ToPMine::new(quick_config(k));
        let (_, seg_a) = tm.mine_only(&corpus);
        let model = tm.fit(&corpus);
        assert_eq!(seg_a.n_phrases(), model.segmentation.n_phrases());
    }
}
