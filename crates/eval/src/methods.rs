//! Uniform driver for the six methods of the paper's evaluation:
//! PD-LDA, Turbo Topics, TNG, LDA, KERT, ToPMine (§7.1, Table 3 order).
//!
//! Each method runs with a comparable Gibbs budget and returns the common
//! `TopicSummary` interchange format plus wall-clock seconds — the inputs
//! of Figures 3-5 and Table 3.

use topmine::{ToPMine, ToPMineConfig};
use topmine_baselines::{
    KertConfig, KertModel, PdLdaConfig, PdLdaModel, TngConfig, TngModel, TurboConfig, TurboModel,
};
use topmine_corpus::Corpus;
use topmine_lda::{PhraseLda, TopicModelConfig, TopicSummary};

/// Method identifiers, in the paper's Table 3 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    PdLda,
    TurboTopics,
    Tng,
    Lda,
    Kert,
    ToPMine,
}

impl Method {
    pub const ALL: [Method; 6] = [
        Method::PdLda,
        Method::TurboTopics,
        Method::Tng,
        Method::Lda,
        Method::Kert,
        Method::ToPMine,
    ];

    /// The phrase-producing methods compared in the user studies
    /// (Figures 3-5 exclude plain LDA, which has no phrases).
    pub const PHRASE_METHODS: [Method; 5] = [
        Method::PdLda,
        Method::ToPMine,
        Method::Kert,
        Method::Tng,
        Method::TurboTopics,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Method::PdLda => "PDLDA",
            Method::TurboTopics => "Turbo Topics",
            Method::Tng => "TNG",
            Method::Lda => "LDA",
            Method::Kert => "KERT",
            Method::ToPMine => "ToPMine",
        }
    }
}

/// Shared run parameters.
#[derive(Debug, Clone)]
pub struct MethodRunConfig {
    pub n_topics: usize,
    /// Gibbs sweeps (applies to every sampling method, per the paper's
    /// "we set the number of iterations to 1000").
    pub iterations: usize,
    /// ToPMine phrase-mining minimum support.
    pub min_support: u64,
    /// ToPMine significance threshold α.
    pub significance_alpha: f64,
    pub seed: u64,
    /// Items per topic requested from summaries.
    pub n_unigrams: usize,
    pub n_phrases: usize,
    /// KERT candidate budget (models the 40GB memory ceiling).
    pub kert_max_candidates: usize,
    /// Optimize hyperparameters during sampling (Minka fixed point) for the
    /// methods that support it (ToPMine/PhraseLDA, LDA, and the LDA inside
    /// KERT and Turbo Topics). The paper enables this for its user studies
    /// and perplexity runs, and disables it for the timed runs of Table 3.
    /// TNG and PD-LDA keep their own fixed priors — the paper's §7.2 notes
    /// their "many hyperparameters ... and the difficulty in tuning them".
    pub optimize_hyperparams: bool,
}

impl Default for MethodRunConfig {
    fn default() -> Self {
        Self {
            n_topics: 5,
            iterations: 200,
            min_support: 5,
            significance_alpha: 4.0,
            seed: 1,
            n_unigrams: 10,
            n_phrases: 10,
            kert_max_candidates: 20_000_000,
            optimize_hyperparams: true,
        }
    }
}

/// Outcome of running one method.
#[derive(Debug)]
pub struct MethodRun {
    pub method: Method,
    pub summaries: Vec<TopicSummary>,
    pub runtime_secs: f64,
    /// Set when the method failed the way the paper reports (KERT memory).
    pub failure: Option<String>,
}

/// Run `method` on `corpus`, measuring wall-clock time.
pub fn run_method(method: Method, corpus: &Corpus, cfg: &MethodRunConfig) -> MethodRun {
    let start = std::time::Instant::now();
    let (summaries, failure) = match method {
        Method::ToPMine => {
            let model = ToPMine::new(ToPMineConfig {
                min_support: cfg.min_support,
                significance_alpha: cfg.significance_alpha,
                n_topics: cfg.n_topics,
                iterations: cfg.iterations,
                optimize_every: if cfg.optimize_hyperparams { 25 } else { 0 },
                burn_in: cfg.iterations / 4,
                n_threads: 1,
                seed: cfg.seed,
                ..ToPMineConfig::default()
            })
            .fit(corpus);
            (model.summarize(corpus, cfg.n_unigrams, cfg.n_phrases), None)
        }
        Method::Lda => {
            let mut model = PhraseLda::lda(
                corpus,
                TopicModelConfig {
                    n_topics: cfg.n_topics,
                    alpha: 50.0 / cfg.n_topics as f64,
                    beta: 0.01,
                    seed: cfg.seed,
                    optimize_every: if cfg.optimize_hyperparams { 25 } else { 0 },
                    burn_in: cfg.iterations / 4,
                    n_threads: 1,
                },
            );
            model.run(cfg.iterations);
            (
                topmine_lda::summarize_topics(&model, corpus, cfg.n_unigrams, cfg.n_phrases),
                None,
            )
        }
        Method::Tng => {
            let model = TngModel::fit(
                corpus,
                TngConfig {
                    iterations: cfg.iterations,
                    seed: cfg.seed,
                    ..TngConfig::new(cfg.n_topics)
                },
            );
            (model.summarize(corpus, cfg.n_unigrams, cfg.n_phrases), None)
        }
        Method::Kert => {
            match KertModel::fit(
                corpus,
                KertConfig {
                    lda_iterations: cfg.iterations,
                    min_support: cfg.min_support as u32,
                    max_candidates: cfg.kert_max_candidates,
                    optimize_hyperparams: cfg.optimize_hyperparams,
                    seed: cfg.seed,
                    ..KertConfig::new(cfg.n_topics)
                },
            ) {
                Ok(model) => (model.summarize(corpus, cfg.n_unigrams, cfg.n_phrases), None),
                Err(e) => (Vec::new(), Some(e.to_string())),
            }
        }
        Method::TurboTopics => {
            let model = TurboModel::fit(
                corpus,
                TurboConfig {
                    lda_iterations: cfg.iterations,
                    optimize_hyperparams: cfg.optimize_hyperparams,
                    seed: cfg.seed,
                    ..TurboConfig::new(cfg.n_topics)
                },
            );
            (model.summarize(corpus, cfg.n_unigrams, cfg.n_phrases), None)
        }
        Method::PdLda => {
            let model = PdLdaModel::fit(
                corpus,
                PdLdaConfig {
                    iterations: cfg.iterations,
                    seed: cfg.seed,
                    ..PdLdaConfig::new(cfg.n_topics)
                },
            );
            (model.summarize(corpus, cfg.n_unigrams, cfg.n_phrases), None)
        }
    };
    MethodRun {
        method,
        summaries,
        runtime_secs: start.elapsed().as_secs_f64(),
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topmine_synth::{generate, Profile};

    #[test]
    fn all_phrase_methods_produce_summaries() {
        let s = generate(Profile::Conf20, 0.015, 23);
        let cfg = MethodRunConfig {
            n_topics: s.n_topics,
            iterations: 15,
            min_support: 4,
            significance_alpha: 3.0,
            seed: 2,
            ..MethodRunConfig::default()
        };
        for m in Method::PHRASE_METHODS {
            let run = run_method(m, &s.corpus, &cfg);
            assert!(
                run.failure.is_none(),
                "{} failed: {:?}",
                m.name(),
                run.failure
            );
            assert_eq!(run.summaries.len(), s.n_topics, "{}", m.name());
            assert!(run.runtime_secs > 0.0);
        }
    }

    #[test]
    fn lda_summaries_have_unigrams_but_no_phrases() {
        let s = generate(Profile::Conf20, 0.01, 23);
        let run = run_method(
            Method::Lda,
            &s.corpus,
            &MethodRunConfig {
                n_topics: s.n_topics,
                iterations: 10,
                ..MethodRunConfig::default()
            },
        );
        assert!(run.summaries.iter().all(|t| t.top_phrases.is_empty()));
        assert!(run.summaries.iter().all(|t| !t.top_unigrams.is_empty()));
    }

    #[test]
    fn method_names_match_paper_labels() {
        assert_eq!(Method::ToPMine.name(), "ToPMine");
        assert_eq!(Method::PdLda.name(), "PDLDA");
        assert_eq!(Method::ALL.len(), 6);
        assert_eq!(Method::PHRASE_METHODS.len(), 5);
    }
}
