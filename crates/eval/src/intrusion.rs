//! The phrase intrusion task (paper §7.2, Figure 3), after Chang et al.'s
//! "Reading Tea Leaves".
//!
//! Each question shows 4 phrases: 3 drawn from the top-10 of one topic and
//! 1 intruder from the top phrases of a *different* topic; raters must spot
//! the intruder. The paper used 20 questions × 3 human annotators per
//! method; here annotators are simulated: an annotator picks
//! the phrase with the lowest mean document-co-occurrence (NPMI) with the
//! other three, perturbed by annotator-specific noise, and may abstain when
//! the margin is too small ("unable to make a choice").

use crate::cooccur::{phrase_ids, CooccurrenceIndex};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use topmine_corpus::Corpus;
use topmine_lda::TopicSummary;

/// Intrusion task configuration, defaulting to the paper's protocol.
#[derive(Debug, Clone)]
pub struct IntrusionConfig {
    /// Questions sampled per method (paper: 20).
    pub n_questions: usize,
    /// Simulated annotators per question (paper: 3).
    pub n_annotators: usize,
    /// Phrases considered "top" of a topic (paper: top 10).
    pub top_n: usize,
    /// Std-dev of annotator noise added to each candidate's score.
    pub annotator_noise: f64,
    /// Abstain when the gap between the two lowest scores is below this.
    pub abstain_margin: f64,
    pub seed: u64,
}

impl Default for IntrusionConfig {
    fn default() -> Self {
        Self {
            n_questions: 20,
            n_annotators: 3,
            top_n: 10,
            annotator_noise: 0.05,
            abstain_margin: 0.005,
            seed: 1,
        }
    }
}

/// One generated question.
#[derive(Debug, Clone)]
pub struct IntrusionQuestion {
    /// Four phrases (id sequences); `intruder` indexes into them.
    pub options: Vec<Vec<u32>>,
    pub intruder: usize,
    /// The topic the 3 non-intruders came from (for reporting).
    pub topic: usize,
}

/// Result of the task for one method.
#[derive(Debug, Clone)]
pub struct IntrusionResult {
    pub n_questions: usize,
    /// Correct answers per annotator, averaged → the paper's y-axis
    /// ("Avg. # of correct answers" out of `n_questions`).
    pub avg_correct: f64,
    /// Abstentions averaged over annotators.
    pub avg_abstained: f64,
}

/// Build intrusion questions from a method's topic summaries. Topics with
/// fewer than 3 top phrases are skipped; returns fewer than `n_questions`
/// questions only if the method produced too little material (itself a
/// signal — TNG/PD-LDA often do).
pub fn build_questions(
    corpus: &Corpus,
    summaries: &[TopicSummary],
    cfg: &IntrusionConfig,
    rng: &mut StdRng,
) -> Vec<IntrusionQuestion> {
    // Usable phrase pools per topic (parsed back to ids).
    let pools: Vec<Vec<Vec<u32>>> = summaries
        .iter()
        .map(|s| {
            s.top_phrases
                .iter()
                .take(cfg.top_n)
                .filter_map(|(p, _)| phrase_ids(corpus, p))
                .collect()
        })
        .collect();
    let viable: Vec<usize> = (0..pools.len()).filter(|&t| pools[t].len() >= 3).collect();
    if viable.len() < 2 {
        return Vec::new();
    }
    let mut questions = Vec::with_capacity(cfg.n_questions);
    for _ in 0..cfg.n_questions {
        let &topic = viable.choose(rng).expect("non-empty");
        let mut other;
        loop {
            other = *viable.choose(rng).expect("non-empty");
            if other != topic {
                break;
            }
        }
        let mut own: Vec<&Vec<u32>> = pools[topic].iter().collect();
        own.shuffle(rng);
        let intruder_phrase = pools[other].choose(rng).expect("pool has >= 3");
        let mut options: Vec<Vec<u32>> = own.into_iter().take(3).cloned().collect();
        let intruder = rng.gen_range(0..=options.len());
        options.insert(intruder, intruder_phrase.clone());
        questions.push(IntrusionQuestion {
            options,
            intruder,
            topic,
        });
    }
    questions
}

/// Run simulated annotators over the questions.
pub fn run_annotators(
    corpus: &Corpus,
    index: &CooccurrenceIndex,
    questions: &[IntrusionQuestion],
    cfg: &IntrusionConfig,
    rng: &mut StdRng,
) -> IntrusionResult {
    let mut correct_per_annotator = vec![0usize; cfg.n_annotators];
    let mut abstain_per_annotator = vec![0usize; cfg.n_annotators];
    for q in questions {
        // Score each option: mean word-backed NPMI with the other three
        // (computed once, noise differs per annotator). The backoff keeps
        // the score informative on short-document corpora where whole
        // phrases almost never share a document.
        let base: Vec<f64> = (0..q.options.len())
            .map(|i| {
                let mut total = 0.0;
                let mut n = 0;
                for j in 0..q.options.len() {
                    if i != j {
                        total += index.npmi_backoff(corpus, &q.options[i], &q.options[j]);
                        n += 1;
                    }
                }
                total / n as f64
            })
            .collect();
        for a in 0..cfg.n_annotators {
            let noisy: Vec<f64> = base
                .iter()
                .map(|s| s + gaussian(rng) * cfg.annotator_noise)
                .collect();
            // Lowest mean co-occurrence = suspected intruder.
            let mut order: Vec<usize> = (0..noisy.len()).collect();
            order.sort_by(|&x, &y| {
                noisy[x]
                    .partial_cmp(&noisy[y])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let margin = noisy[order[1]] - noisy[order[0]];
            if margin < cfg.abstain_margin {
                abstain_per_annotator[a] += 1;
                continue;
            }
            if order[0] == q.intruder {
                correct_per_annotator[a] += 1;
            }
        }
    }
    let n_ann = cfg.n_annotators as f64;
    IntrusionResult {
        n_questions: questions.len(),
        avg_correct: correct_per_annotator.iter().sum::<usize>() as f64 / n_ann,
        avg_abstained: abstain_per_annotator.iter().sum::<usize>() as f64 / n_ann,
    }
}

/// Full task for one method.
pub fn intrusion_task(
    corpus: &Corpus,
    index: &CooccurrenceIndex,
    summaries: &[TopicSummary],
    cfg: &IntrusionConfig,
) -> IntrusionResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let questions = build_questions(corpus, summaries, cfg, &mut rng);
    run_annotators(corpus, index, &questions, cfg, &mut rng)
}

/// One standard normal (Box–Muller).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use topmine_corpus::{Document, Vocab};

    /// Corpus with two crisply separated topics: words 0-3 vs 4-7, plus
    /// summaries listing phrases from each.
    fn setup() -> (Corpus, Vec<TopicSummary>) {
        let mut vocab = Vocab::new();
        for w in ["a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3"] {
            vocab.intern(w);
        }
        let mut docs = Vec::new();
        for i in 0..60 {
            if i % 2 == 0 {
                docs.push(Document::single_chunk(vec![0, 1, 2, 3, 0, 1]));
            } else {
                docs.push(Document::single_chunk(vec![4, 5, 6, 7, 4, 5]));
            }
        }
        let corpus = Corpus {
            vocab,
            docs,
            provenance: None,
            unstem: None,
        };
        let mk = |t: usize, words: [&str; 4]| TopicSummary {
            topic: t,
            top_unigrams: vec![],
            top_phrases: words.iter().map(|w| (w.to_string(), 10u64)).collect(),
        };
        let summaries = vec![
            mk(0, ["a0 a1", "a1 a2", "a2 a3", "a0 a1 a2"]),
            mk(1, ["b0 b1", "b1 b2", "b2 b3", "b0 b1 b2"]),
        ];
        (corpus, summaries)
    }

    #[test]
    fn well_separated_topics_score_high() {
        let (corpus, summaries) = setup();
        let index = CooccurrenceIndex::new(&corpus);
        let cfg = IntrusionConfig {
            n_questions: 20,
            seed: 3,
            ..IntrusionConfig::default()
        };
        let res = intrusion_task(&corpus, &index, &summaries, &cfg);
        assert_eq!(res.n_questions, 20);
        assert!(
            res.avg_correct > 17.0,
            "separable topics should be near-perfect, got {}",
            res.avg_correct
        );
    }

    #[test]
    fn identical_topics_score_near_chance() {
        let (corpus, mut summaries) = setup();
        // Make both "topics" list the same phrases: intruders are
        // indistinguishable.
        summaries[1] = TopicSummary {
            topic: 1,
            top_unigrams: vec![],
            top_phrases: summaries[0].top_phrases.clone(),
        };
        let index = CooccurrenceIndex::new(&corpus);
        let cfg = IntrusionConfig {
            n_questions: 40,
            annotator_noise: 0.1,
            seed: 5,
            ..IntrusionConfig::default()
        };
        let res = intrusion_task(&corpus, &index, &summaries, &cfg);
        // Chance is 25%; allow noise but demand it is far from the
        // separable case relative to the question count.
        let rate = res.avg_correct / res.n_questions as f64;
        assert!(rate < 0.6, "indistinguishable topics scored {rate}");
    }

    #[test]
    fn too_few_phrases_yields_no_questions() {
        let (corpus, mut summaries) = setup();
        summaries[0].top_phrases.truncate(2);
        summaries[1].top_phrases.truncate(1);
        let mut rng = StdRng::seed_from_u64(1);
        let qs = build_questions(&corpus, &summaries, &IntrusionConfig::default(), &mut rng);
        assert!(qs.is_empty());
    }

    #[test]
    fn questions_have_four_options_with_valid_intruder() {
        let (corpus, summaries) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let qs = build_questions(&corpus, &summaries, &IntrusionConfig::default(), &mut rng);
        assert_eq!(qs.len(), 20);
        for q in &qs {
            assert_eq!(q.options.len(), 4);
            assert!(q.intruder < 4);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (corpus, summaries) = setup();
        let index = CooccurrenceIndex::new(&corpus);
        let cfg = IntrusionConfig {
            seed: 11,
            ..IntrusionConfig::default()
        };
        let a = intrusion_task(&corpus, &index, &summaries, &cfg);
        let b = intrusion_task(&corpus, &index, &summaries, &cfg);
        assert_eq!(a.avg_correct, b.avg_correct);
    }
}
