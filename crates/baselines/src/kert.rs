//! KERT (Danilevsky et al., SDM 2014), the paper's reference \[6\]: topical
//! key-phrase extraction as a *post-process* to LDA.
//!
//! Pipeline: run LDA; for each topic, form one transaction per document
//! (the set of that document's words assigned to the topic); mine frequent
//! word *itemsets* (unconstrained — no contiguity requirement, unlike
//! ToPMine); rank candidates by the four KERT heuristics (coverage, purity,
//! phraseness, completeness).
//!
//! Two behaviours of the original matter for the reproduction and are kept:
//!
//! * **Memory blow-up on long documents** (Table 3's `NA` cells): itemset
//!   mining over big transactions is exponential; the miner tracks its
//!   candidate budget and reports exhaustion instead of thrashing.
//! * **Word-order artifacts** (paper §7.2): KERT outputs word *sets*; we
//!   render them ordered by within-topic frequency, which reproduces the
//!   "key topical unigrams appended to common phrases" artifact the paper
//!   blames for KERT's low phrase-quality scores.

use topmine_corpus::Corpus;
use topmine_lda::{PhraseLda, TopicModelConfig, TopicSummary};
use topmine_util::{FxHashMap, FxHashSet, TopK};

/// KERT configuration.
#[derive(Debug, Clone)]
pub struct KertConfig {
    pub n_topics: usize,
    /// LDA sweeps before pattern mining.
    pub lda_iterations: usize,
    /// Minimum itemset support (documents).
    pub min_support: u32,
    /// Largest itemset size mined.
    pub max_pattern_len: usize,
    /// Candidate budget across all topics; exceeding it aborts mining
    /// (models the original's >40GB memory failures in the paper's Table 3).
    pub max_candidates: usize,
    /// Completeness filter: drop a pattern if some superpattern retains at
    /// least this fraction of its support.
    pub completeness_ratio: f64,
    /// Optimize the underlying LDA's hyperparameters (Minka fixed point),
    /// as the paper does for its user-study runs.
    pub optimize_hyperparams: bool,
    pub seed: u64,
}

impl Default for KertConfig {
    fn default() -> Self {
        Self {
            n_topics: 10,
            lda_iterations: 200,
            min_support: 5,
            max_pattern_len: 4,
            max_candidates: 2_000_000,
            completeness_ratio: 0.8,
            optimize_hyperparams: false,
            seed: 1,
        }
    }
}

impl KertConfig {
    pub fn new(n_topics: usize) -> Self {
        Self {
            n_topics,
            ..Self::default()
        }
    }
}

/// Errors surfaced by the KERT pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KertError {
    /// The itemset candidate space exceeded the configured budget — the
    /// reproduction of the paper's "exceeded memory constraints (greater
    /// than 40GB)" cells.
    CandidateBudgetExceeded { budget: usize },
}

impl std::fmt::Display for KertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KertError::CandidateBudgetExceeded { budget } => {
                write!(
                    f,
                    "KERT itemset mining exceeded candidate budget ({budget})"
                )
            }
        }
    }
}

impl std::error::Error for KertError {}

/// A fitted KERT model.
#[derive(Debug)]
pub struct KertModel {
    cfg: KertConfig,
    lda: PhraseLda,
    /// Ranked patterns per topic: (words in display order, score, support).
    patterns: Vec<Vec<(Vec<u32>, f64, u32)>>,
}

/// Itemset key: sorted word ids.
type Itemset = Box<[u32]>;

impl KertModel {
    /// Run the full KERT pipeline.
    pub fn fit(corpus: &Corpus, cfg: KertConfig) -> Result<Self, KertError> {
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

        // Transactions: per topic, per doc, the set of words assigned there.
        let mut transactions: Vec<Vec<Vec<u32>>> = vec![Vec::new(); k];
        for d in 0..corpus.n_docs() {
            let doc = &lda.docs().docs[d];
            let mut per_topic: Vec<FxHashSet<u32>> = vec![FxHashSet::default(); k];
            for (g, (s, e)) in doc.group_ranges().enumerate() {
                let t = lda.topic_of_group(d, g) as usize;
                for i in s..e {
                    per_topic[t].insert(doc.tokens[i]);
                }
            }
            for (t, set) in per_topic.into_iter().enumerate() {
                if !set.is_empty() {
                    let mut items: Vec<u32> = set.into_iter().collect();
                    items.sort_unstable();
                    transactions[t].push(items);
                }
            }
        }

        // Frequent itemsets per topic (Apriori over sorted transactions).
        let mut budget = cfg.max_candidates;
        let mut topic_itemsets: Vec<FxHashMap<Itemset, u32>> = Vec::with_capacity(k);
        for txns in &transactions {
            let sets = mine_itemsets(txns, cfg.min_support, cfg.max_pattern_len, &mut budget)
                .ok_or(KertError::CandidateBudgetExceeded {
                    budget: cfg.max_candidates,
                })?;
            topic_itemsets.push(sets);
        }

        // Rank with the four KERT heuristics.
        let total_support_per_set: FxHashMap<Itemset, u32> = {
            // Support of each itemset summed across topics (for purity).
            let mut m: FxHashMap<Itemset, u32> = FxHashMap::default();
            for sets in &topic_itemsets {
                for (is, &c) in sets {
                    *m.entry(is.clone()).or_insert(0) += c;
                }
            }
            m
        };

        let mut patterns = Vec::with_capacity(k);
        for t in 0..k {
            let sets = &topic_itemsets[t];
            let n_txns = transactions[t].len().max(1) as f64;
            // Word frequency within topic (for display ordering + phraseness).
            let mut word_freq: FxHashMap<u32, u32> = FxHashMap::default();
            for txn in &transactions[t] {
                for &w in txn {
                    *word_freq.entry(w).or_insert(0) += 1;
                }
            }
            // Completeness (KERT's fourth heuristic): a pattern is dropped
            // when an *immediate* superpattern retains most of its support.
            // Marking subsets from each superset is O(n.len), versus the
            // naive all-pairs scan that is quadratic in the (potentially
            // hundreds of thousands of) frequent itemsets.
            let mut subsumed_sets: FxHashSet<Itemset> = FxHashSet::default();
            for (is, &sup) in sets {
                if is.len() < 3 {
                    continue;
                }
                for skip in 0..is.len() {
                    let sub: Itemset = is
                        .iter()
                        .enumerate()
                        .filter(|(idx, _)| *idx != skip)
                        .map(|(_, &w)| w)
                        .collect();
                    if let Some(&sub_sup) = sets.get(&sub) {
                        if sup as f64 >= cfg.completeness_ratio * sub_sup as f64 {
                            subsumed_sets.insert(sub);
                        }
                    }
                }
            }
            let mut ranked: Vec<(Vec<u32>, f64, u32)> = Vec::new();
            for (is, &sup) in sets {
                if is.len() < 2 || subsumed_sets.contains(is) {
                    continue;
                }
                let coverage = sup as f64 / n_txns;
                let total = total_support_per_set.get(is).copied().unwrap_or(sup).max(1);
                let purity = sup as f64 / total as f64;
                // Phraseness: log ratio of joint support to independence.
                let indep: f64 = is
                    .iter()
                    .map(|w| word_freq.get(w).copied().unwrap_or(1) as f64 / n_txns)
                    .product();
                let phraseness = (coverage / indep.max(1e-12)).ln().max(0.0);
                let score = coverage * purity * (1.0 + phraseness);
                // Display order: within-topic frequency descending — the
                // original's set-not-sequence artifact.
                let mut display: Vec<u32> = is.to_vec();
                display.sort_by_key(|w| std::cmp::Reverse(word_freq.get(w).copied().unwrap_or(0)));
                ranked.push((display, score, sup));
            }
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            patterns.push(ranked);
        }

        Ok(Self { cfg, lda, patterns })
    }

    pub fn n_topics(&self) -> usize {
        self.cfg.n_topics
    }

    /// Per-topic summaries in the common interchange format.
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
                    top_phrases: self.patterns[t]
                        .iter()
                        .take(n_phrases)
                        .map(|(words, _, sup)| (corpus.render_phrase(words), u64::from(*sup)))
                        .collect(),
                }
            })
            .collect()
    }
}

/// Frequent itemset mining over set-transactions, Eclat-style: every
/// itemset carries its transaction-id list; a candidate's support is the
/// intersection of its generating parents' tid-lists. Exact Apriori
/// semantics (support = number of transactions containing the set) at a
/// fraction of the naive counting cost. Returns `None` when the shared
/// candidate `budget` (the memory-ceiling stand-in) is exhausted.
fn mine_itemsets(
    txns: &[Vec<u32>],
    min_support: u32,
    max_len: usize,
    budget: &mut usize,
) -> Option<FxHashMap<Itemset, u32>> {
    let mut out: FxHashMap<Itemset, u32> = FxHashMap::default();
    // Level 1: tid-lists per item.
    let mut tid_lists: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    for (tid, txn) in txns.iter().enumerate() {
        for &w in txn {
            tid_lists.entry(w).or_default().push(tid as u32);
        }
    }
    // `level`: sorted (itemset, tids) pairs of the current length.
    let mut level: Vec<(Itemset, Vec<u32>)> = {
        let mut frequent: Vec<(Itemset, Vec<u32>)> = tid_lists
            .into_iter()
            .filter(|(_, tids)| tids.len() as u32 >= min_support)
            .map(|(w, tids)| (vec![w].into_boxed_slice(), tids))
            .collect();
        frequent.sort_by(|a, b| a.0.cmp(&b.0));
        for (is, tids) in &frequent {
            out.insert(is.clone(), tids.len() as u32);
        }
        frequent
    };

    let mut len = 2usize;
    while !level.is_empty() && len <= max_len {
        let prev: FxHashSet<&Itemset> = level.iter().map(|(is, _)| is).collect();
        let mut next: Vec<(Itemset, Vec<u32>)> = Vec::new();
        for i in 0..level.len() {
            for j in i + 1..level.len() {
                let (a, b) = (&level[i], &level[j]);
                if a.0[..a.0.len() - 1] != b.0[..b.0.len() - 1] {
                    // Sorted order: once prefixes diverge, no later j matches.
                    break;
                }
                let mut c: Vec<u32> = a.0.to_vec();
                c.push(b.0[b.0.len() - 1]);
                // Apriori prune: all (len-1)-subsets must be frequent.
                let all_frequent = (0..c.len()).all(|skip| {
                    let sub: Itemset = c
                        .iter()
                        .enumerate()
                        .filter(|(idx, _)| *idx != skip)
                        .map(|(_, &w)| w)
                        .collect();
                    prev.contains(&sub)
                });
                if !all_frequent {
                    continue;
                }
                if *budget == 0 {
                    return None;
                }
                *budget -= 1;
                let tids = intersect_sorted(&a.1, &b.1);
                if tids.len() as u32 >= min_support {
                    out.insert(c.clone().into_boxed_slice(), tids.len() as u32);
                    next.push((c.into_boxed_slice(), tids));
                }
            }
        }
        next.sort_by(|a, b| a.0.cmp(&b.0));
        level = next;
        len += 1;
    }
    Some(out)
}

/// Intersection of two sorted tid lists.
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Is sorted `needle` a subset of sorted `haystack`? (test oracle for the
/// tid-list counting path)
#[cfg(test)]
fn is_subset(needle: &[u32], haystack: &[u32]) -> bool {
    let mut h = haystack.iter();
    'outer: for &n in needle {
        for &x in h.by_ref() {
            match x.cmp(&n) {
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Less => {}
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use topmine_synth::{generate, Profile};

    #[test]
    fn itemset_miner_counts_correctly() {
        let txns = vec![
            vec![1, 2, 3],
            vec![1, 2],
            vec![1, 2, 3],
            vec![2, 3],
            vec![1, 3],
        ];
        let mut budget = 10_000;
        let sets = mine_itemsets(&txns, 2, 3, &mut budget).unwrap();
        assert_eq!(sets[&vec![1u32, 2].into_boxed_slice()], 3);
        assert_eq!(sets[&vec![1u32, 2, 3].into_boxed_slice()], 2);
        assert_eq!(sets[&vec![2u32, 3].into_boxed_slice()], 3);
        assert_eq!(sets[&vec![1u32].into_boxed_slice()], 4);
    }

    #[test]
    fn budget_exhaustion_reports_na() {
        // Dense transactions explode the candidate space.
        let txns: Vec<Vec<u32>> = (0..30).map(|_| (0..40u32).collect()).collect();
        let mut budget = 50;
        assert!(mine_itemsets(&txns, 2, 4, &mut budget).is_none());
    }

    #[test]
    fn subset_check() {
        assert!(is_subset(&[1, 3], &[1, 2, 3, 4]));
        assert!(!is_subset(&[1, 5], &[1, 2, 3, 4]));
        assert!(is_subset(&[], &[1]));
        assert!(!is_subset(&[1], &[]));
    }

    #[test]
    fn fit_on_synthetic_corpus_extracts_patterns() {
        let s = generate(Profile::Conf20, 0.02, 3);
        let model = KertModel::fit(
            &s.corpus,
            KertConfig {
                lda_iterations: 30,
                min_support: 3,
                seed: 2,
                ..KertConfig::new(s.n_topics)
            },
        )
        .expect("budget is generous");
        let summaries = model.summarize(&s.corpus, 10, 10);
        assert_eq!(summaries.len(), s.n_topics);
        let total: usize = summaries.iter().map(|s| s.top_phrases.len()).sum();
        assert!(total > 0, "KERT extracted no patterns");
    }

    #[test]
    fn long_documents_blow_the_budget() {
        let s = generate(Profile::DblpAbstracts, 0.02, 3);
        let result = KertModel::fit(
            &s.corpus,
            KertConfig {
                lda_iterations: 5,
                min_support: 3,
                max_candidates: 2_000, // deliberately tiny budget
                seed: 2,
                ..KertConfig::new(s.n_topics)
            },
        );
        assert!(matches!(
            result,
            Err(KertError::CandidateBudgetExceeded { .. })
        ));
    }
}

#[cfg(test)]
mod eclat_oracle_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Tid-list counting must agree with naive subset counting.
    #[test]
    fn eclat_counts_match_naive_subset_counts() {
        let mut rng = StdRng::seed_from_u64(8);
        let txns: Vec<Vec<u32>> = (0..60)
            .map(|_| {
                let mut t: Vec<u32> = (0..12u32).filter(|_| rng.gen_bool(0.4)).collect();
                t.dedup();
                t
            })
            .collect();
        let mut budget = 1_000_000;
        let sets = mine_itemsets(&txns, 3, 4, &mut budget).unwrap();
        for (is, &support) in &sets {
            let naive = txns.iter().filter(|t| is_subset(is, t)).count() as u32;
            assert_eq!(support, naive, "support mismatch for {is:?}");
        }
        assert!(!sets.is_empty());
    }
}
