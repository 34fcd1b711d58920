//! Turbo Topics (Blei & Lafferty 2009), the paper's reference \[2\]:
//! "Visualizing topics with multi-word expressions" — a post-process to LDA
//! that grows significant n-grams with a back-off language model and
//! permutation tests.
//!
//! Per topic: consider adjacent unit pairs whose tokens are both assigned
//! the topic; score each pair with Dunning's log-likelihood-ratio statistic
//! G² against independence; assess significance with a *permutation test*
//! (shuffle the successor slots, take the null distribution of the max
//! statistic); merge all occurrences of significant pairs into single units
//! and recurse. The permutation test over every topic's adjacency table is
//! what makes Turbo Topics "computationally intensive" (paper Table 3 shows
//! it as the slowest method alongside PD-LDA); the cost scales with
//! `permutations × adjacency slots × merge rounds`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use topmine_corpus::Corpus;
use topmine_lda::{PhraseLda, TopicModelConfig, TopicSummary};
use topmine_util::{FxHashMap, TopK};

/// Turbo Topics configuration.
#[derive(Debug, Clone)]
pub struct TurboConfig {
    pub n_topics: usize,
    pub lda_iterations: usize,
    /// Number of permutations per significance test round.
    pub permutations: usize,
    /// Null-distribution quantile a pair must beat (0.95 in the original).
    pub quantile: f64,
    /// Minimum pair count to be considered at all.
    pub min_count: u32,
    /// Maximum merge rounds (phrases up to 2^rounds words).
    pub max_rounds: usize,
    /// Optimize the underlying LDA's hyperparameters (Minka fixed point),
    /// as the paper does for its user-study runs.
    pub optimize_hyperparams: bool,
    pub seed: u64,
}

impl Default for TurboConfig {
    fn default() -> Self {
        Self {
            n_topics: 10,
            lda_iterations: 200,
            permutations: 40,
            quantile: 0.95,
            min_count: 3,
            max_rounds: 3,
            optimize_hyperparams: false,
            seed: 1,
        }
    }
}

impl TurboConfig {
    pub fn new(n_topics: usize) -> Self {
        Self {
            n_topics,
            ..Self::default()
        }
    }
}

/// An adjacent pair of unit keys (left token sequence, right token sequence).
type UnitPair = (Box<[u32]>, Box<[u32]>);

/// A unit: a token span within a document that currently acts as one word.
#[derive(Debug, Clone, Copy)]
struct Unit {
    start: u32,
    end: u32,
    topic: u16,
}

/// A fitted Turbo Topics model.
#[derive(Debug)]
pub struct TurboModel {
    cfg: TurboConfig,
    lda: PhraseLda,
    /// Discovered phrases per topic with their occurrence counts.
    phrases: Vec<Vec<(Vec<u32>, u64)>>,
}

impl TurboModel {
    pub fn fit(corpus: &Corpus, cfg: TurboConfig) -> Self {
        let k = cfg.n_topics;
        let mut lda = PhraseLda::lda(
            corpus,
            TopicModelConfig {
                n_topics: k,
                alpha: 50.0 / k as f64,
                beta: 0.01,
                seed: cfg.seed,
                optimize_every: if cfg.optimize_hyperparams { 25 } else { 0 },
                burn_in: cfg.lda_iterations / 4,
                n_threads: 1,
            },
        );
        lda.run(cfg.lda_iterations);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7457_b0b0);

        // Initial units: one per token, labeled with its sampled topic.
        let mut units: Vec<Vec<Unit>> = (0..corpus.n_docs())
            .map(|d| {
                let doc = &corpus.docs[d];
                (0..doc.n_tokens())
                    .map(|i| Unit {
                        start: i as u32,
                        end: i as u32 + 1,
                        topic: lda.topic_of_group(d, i),
                    })
                    .collect()
            })
            .collect();

        for _round in 0..cfg.max_rounds {
            let mut merged_any = false;
            for t in 0..k as u16 {
                let significant = significant_pairs(corpus, &units, t, &cfg, &mut rng);
                if significant.is_empty() {
                    continue;
                }
                merged_any |= merge_pairs(corpus, &mut units, t, &significant);
            }
            if !merged_any {
                break;
            }
        }

        // Collect multi-word units per topic.
        let mut tf: FxHashMap<topmine_lda::viz::PhraseTopic, u64> = FxHashMap::default();
        for (d, doc_units) in units.iter().enumerate() {
            let doc = &corpus.docs[d];
            for u in doc_units {
                if u.end - u.start >= 2 {
                    let key = (
                        doc.tokens[u.start as usize..u.end as usize]
                            .to_vec()
                            .into_boxed_slice(),
                        u.topic,
                    );
                    *tf.entry(key).or_insert(0) += 1;
                }
            }
        }
        let mut phrases: Vec<Vec<(Vec<u32>, u64)>> = vec![Vec::new(); k];
        let mut entries: Vec<(&topmine_lda::viz::PhraseTopic, &u64)> = tf.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        for ((p, t), &c) in entries {
            phrases[*t as usize].push((p.to_vec(), c));
        }
        for list in &mut phrases {
            list.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        }

        Self { cfg, lda, phrases }
    }

    pub fn n_topics(&self) -> usize {
        self.cfg.n_topics
    }

    pub fn summarize(
        &self,
        corpus: &Corpus,
        n_unigrams: usize,
        n_phrases: usize,
    ) -> Vec<TopicSummary> {
        let phi = self.lda.phi();
        (0..self.cfg.n_topics)
            .map(|t| {
                let mut uni = TopK::new(n_unigrams);
                for (w, &p) in phi[t].iter().enumerate() {
                    uni.push(p, w as u32);
                }
                TopicSummary {
                    topic: t,
                    top_unigrams: uni
                        .into_sorted_vec()
                        .into_iter()
                        .map(|(p, w)| (corpus.display_word(w).to_string(), p))
                        .collect(),
                    top_phrases: self.phrases[t]
                        .iter()
                        .take(n_phrases)
                        .map(|(p, c)| (corpus.render_phrase(p), *c))
                        .collect(),
                }
            })
            .collect()
    }
}

/// Dunning's G² log-likelihood-ratio for a 2×2 contingency table.
fn g2(k11: f64, k12: f64, k21: f64, k22: f64) -> f64 {
    let n = k11 + k12 + k21 + k22;
    let ll = |k: f64, total: f64| if k > 0.0 { k * (k / total).ln() } else { 0.0 };
    let row1 = k11 + k12;
    let row2 = k21 + k22;
    let col1 = k11 + k21;
    let col2 = k12 + k22;
    2.0 * (ll(k11, 1.0) + ll(k12, 1.0) + ll(k21, 1.0) + ll(k22, 1.0)
        - ll(row1, 1.0)
        - ll(row2, 1.0)
        - ll(col1, 1.0)
        - ll(col2, 1.0)
        + ll(n, 1.0))
}

/// Adjacency slots for topic `t`: every (left unit key, right unit key)
/// where both units carry topic `t` and sit adjacently inside one chunk.
fn adjacency_slots(corpus: &Corpus, units: &[Vec<Unit>], t: u16) -> (Vec<UnitPair>, usize) {
    let mut slots = Vec::new();
    for (d, doc_units) in units.iter().enumerate() {
        let doc = &corpus.docs[d];
        let limits: Vec<usize> = doc.chunk_ends.iter().map(|&e| e as usize).collect();
        for w in doc_units.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a.topic != t || b.topic != t {
                continue;
            }
            // Same chunk?
            let chunk_end = limits
                .iter()
                .find(|&&e| e > a.start as usize)
                .copied()
                .unwrap_or(doc.n_tokens());
            if (b.end as usize) > chunk_end {
                continue;
            }
            slots.push((
                doc.tokens[a.start as usize..a.end as usize]
                    .to_vec()
                    .into_boxed_slice(),
                doc.tokens[b.start as usize..b.end as usize]
                    .to_vec()
                    .into_boxed_slice(),
            ));
        }
    }
    let n = slots.len();
    (slots, n)
}

/// Observed pair statistics and the permutation-test threshold; returns the
/// set of significant (left, right) unit-key pairs.
fn significant_pairs(
    corpus: &Corpus,
    units: &[Vec<Unit>],
    t: u16,
    cfg: &TurboConfig,
    rng: &mut StdRng,
) -> Vec<UnitPair> {
    let (slots, n) = adjacency_slots(corpus, units, t);
    if n < cfg.min_count as usize * 2 {
        return Vec::new();
    }
    let lefts: Vec<&[u32]> = slots.iter().map(|(a, _)| a.as_ref()).collect();
    let mut rights: Vec<&[u32]> = slots.iter().map(|(_, b)| b.as_ref()).collect();

    type ScoredPairs = Vec<((Box<[u32]>, Box<[u32]>), f64)>;
    let max_stat = |lefts: &[&[u32]], rights: &[&[u32]], min_count: u32| -> (f64, ScoredPairs) {
        let mut pair_counts: FxHashMap<(&[u32], &[u32]), u32> = FxHashMap::default();
        let mut left_counts: FxHashMap<&[u32], u32> = FxHashMap::default();
        let mut right_counts: FxHashMap<&[u32], u32> = FxHashMap::default();
        for (l, r) in lefts.iter().zip(rights) {
            *pair_counts.entry((l, r)).or_insert(0) += 1;
            *left_counts.entry(l).or_insert(0) += 1;
            *right_counts.entry(r).or_insert(0) += 1;
        }
        let n = lefts.len() as f64;
        let mut best = 0.0f64;
        let mut scored = Vec::new();
        for (&(l, r), &c) in &pair_counts {
            if c < min_count {
                continue;
            }
            let cl = left_counts[l] as f64;
            let cr = right_counts[r] as f64;
            let k11 = c as f64;
            let k12 = cl - k11;
            let k21 = cr - k11;
            let k22 = n - cl - cr + k11;
            // Only over-represented pairs count as collocations.
            if k11 * n <= cl * cr {
                continue;
            }
            let s = g2(k11, k12, k21, k22.max(0.0));
            best = best.max(s);
            scored.push((
                (l.to_vec().into_boxed_slice(), r.to_vec().into_boxed_slice()),
                s,
            ));
        }
        (best, scored)
    };

    let (_, observed) = max_stat(&lefts, &rights, cfg.min_count);
    if observed.is_empty() {
        return Vec::new();
    }

    // Null distribution of the max statistic under successor permutation.
    let mut null_max: Vec<f64> = Vec::with_capacity(cfg.permutations);
    for _ in 0..cfg.permutations {
        rights.shuffle(rng);
        let (m, _) = max_stat(&lefts, &rights, cfg.min_count);
        null_max.push(m);
    }
    null_max.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((cfg.quantile * cfg.permutations as f64).floor() as usize)
        .min(null_max.len().saturating_sub(1));
    let threshold = null_max.get(idx).copied().unwrap_or(f64::INFINITY);

    observed
        .into_iter()
        .filter(|(_, s)| *s > threshold)
        .map(|(pair, _)| pair)
        .collect()
}

/// Merge every adjacent occurrence of the given significant pairs (topic
/// `t`); returns whether anything merged.
fn merge_pairs(corpus: &Corpus, units: &mut [Vec<Unit>], t: u16, significant: &[UnitPair]) -> bool {
    use topmine_util::FxHashSet;
    let sig: FxHashSet<(&[u32], &[u32])> = significant
        .iter()
        .map(|(a, b)| (a.as_ref(), b.as_ref()))
        .collect();
    let mut merged_any = false;
    for (d, doc_units) in units.iter_mut().enumerate() {
        let doc = &corpus.docs[d];
        let limits: Vec<usize> = doc.chunk_ends.iter().map(|&e| e as usize).collect();
        let mut out: Vec<Unit> = Vec::with_capacity(doc_units.len());
        let mut i = 0;
        while i < doc_units.len() {
            if i + 1 < doc_units.len() {
                let (a, b) = (doc_units[i], doc_units[i + 1]);
                let chunk_end = limits
                    .iter()
                    .find(|&&e| e > a.start as usize)
                    .copied()
                    .unwrap_or(doc.n_tokens());
                if a.topic == t
                    && b.topic == t
                    && (b.end as usize) <= chunk_end
                    && sig.contains(&(
                        &doc.tokens[a.start as usize..a.end as usize],
                        &doc.tokens[b.start as usize..b.end as usize],
                    ))
                {
                    out.push(Unit {
                        start: a.start,
                        end: b.end,
                        topic: t,
                    });
                    merged_any = true;
                    i += 2;
                    continue;
                }
            }
            out.push(doc_units[i]);
            i += 1;
        }
        *doc_units = out;
    }
    merged_any
}

#[cfg(test)]
mod tests {
    use super::*;
    use topmine_synth::{generate, Profile};

    #[test]
    fn g2_is_zero_under_independence_and_grows_with_association() {
        // Perfect independence: k11/k12 == k21/k22.
        assert!(g2(10.0, 90.0, 10.0, 90.0).abs() < 1e-9);
        // Strong association.
        let strong = g2(50.0, 5.0, 5.0, 940.0);
        let weak = g2(12.0, 43.0, 43.0, 902.0);
        assert!(strong > weak);
        assert!(strong > 100.0);
    }

    #[test]
    fn finds_planted_collocations() {
        let s = generate(Profile::Conf20, 0.03, 19);
        let model = TurboModel::fit(
            &s.corpus,
            TurboConfig {
                lda_iterations: 40,
                permutations: 20,
                seed: 4,
                ..TurboConfig::new(s.n_topics)
            },
        );
        let summaries = model.summarize(&s.corpus, 10, 10);
        let n_phrases: usize = summaries.iter().map(|s| s.top_phrases.len()).sum();
        assert!(n_phrases > 0, "turbo topics found no phrases");
        // At least one discovered phrase should be a planted collocation.
        let planted_hit = summaries.iter().flat_map(|s| &s.top_phrases).any(|(p, _)| {
            let ids: Option<Vec<u32>> = p.split(' ').map(|w| s.corpus.vocab.id(w)).collect();
            ids.map(|ids| s.truth.is_planted(&ids)).unwrap_or(false)
        });
        assert!(planted_hit, "no planted phrase discovered");
    }

    #[test]
    fn deterministic_given_seed() {
        let s = generate(Profile::Conf20, 0.015, 2);
        let cfg = TurboConfig {
            lda_iterations: 15,
            permutations: 10,
            seed: 7,
            ..TurboConfig::new(s.n_topics)
        };
        let a = TurboModel::fit(&s.corpus, cfg.clone());
        let b = TurboModel::fit(&s.corpus, cfg);
        assert_eq!(a.phrases, b.phrases);
    }
}
