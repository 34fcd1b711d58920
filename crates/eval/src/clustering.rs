//! Topic-recovery metrics against planted ground truth.
//!
//! The synthetic corpora know each token's true topic, which lets the
//! reproduction quantify what the paper could only eyeball: how well each
//! model's inferred topics align with the planted ones. Standard clustering
//! agreement measures over the (planted topic, inferred topic) contingency
//! table: **purity** and **normalized mutual information** (NMI).

/// A contingency table between two labelings (rows = planted topics,
/// columns = inferred topics), accumulated one token at a time.
#[derive(Debug, Clone)]
pub struct Contingency {
    counts: Vec<u64>,
    n_rows: usize,
    n_cols: usize,
    total: u64,
}

impl Contingency {
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        Self {
            counts: vec![0; n_rows * n_cols],
            n_rows,
            n_cols,
            total: 0,
        }
    }

    /// Record one item with planted label `row` and inferred label `col`.
    pub fn add(&mut self, row: usize, col: usize) {
        assert!(row < self.n_rows && col < self.n_cols, "label out of range");
        self.counts[row * self.n_cols + col] += 1;
        self.total += 1;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    fn row_sums(&self) -> Vec<u64> {
        (0..self.n_rows)
            .map(|r| {
                self.counts[r * self.n_cols..(r + 1) * self.n_cols]
                    .iter()
                    .sum()
            })
            .collect()
    }

    fn col_sums(&self) -> Vec<u64> {
        (0..self.n_cols)
            .map(|c| {
                (0..self.n_rows)
                    .map(|r| self.counts[r * self.n_cols + c])
                    .sum()
            })
            .collect()
    }

    /// Purity: every inferred topic votes for its majority planted topic;
    /// the fraction of items covered by those majorities. 1.0 = perfect,
    /// `max(row share)` ≈ chance for degenerate single-cluster outputs.
    pub fn purity(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let matched: u64 = (0..self.n_cols)
            .map(|c| {
                (0..self.n_rows)
                    .map(|r| self.counts[r * self.n_cols + c])
                    .max()
                    .unwrap_or(0)
            })
            .sum();
        matched as f64 / self.total as f64
    }

    /// Normalized mutual information: `I(R; C) / sqrt(H(R) H(C))`, in
    /// [0, 1]; robust to the number of clusters (unlike purity, it punishes
    /// shattering every item into its own topic).
    pub fn nmi(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        let rows = self.row_sums();
        let cols = self.col_sums();
        let h = |sums: &[u64]| -> f64 {
            sums.iter()
                .filter(|&&s| s > 0)
                .map(|&s| {
                    let p = s as f64 / n;
                    -p * p.ln()
                })
                .sum()
        };
        let h_r = h(&rows);
        let h_c = h(&cols);
        if h_r == 0.0 || h_c == 0.0 {
            // One side is a single cluster: MI is 0, normalize to 0 (no
            // information) unless both are single clusters (trivially 1).
            return if h_r == 0.0 && h_c == 0.0 { 1.0 } else { 0.0 };
        }
        let mut mi = 0.0;
        for (r, &row_sum) in rows.iter().enumerate() {
            for (c, &col_sum) in cols.iter().enumerate() {
                let joint = self.counts[r * self.n_cols + c];
                if joint == 0 {
                    continue;
                }
                let p_joint = joint as f64 / n;
                let p_r = row_sum as f64 / n;
                let p_c = col_sum as f64 / n;
                mi += p_joint * (p_joint / (p_r * p_c)).ln();
            }
        }
        (mi / (h_r * h_c).sqrt()).clamp(0.0, 1.0)
    }
}

/// Score a fitted PhraseLDA model against planted token topics: returns
/// `(purity, nmi)` over all non-background tokens.
pub fn score_topic_recovery(
    model: &topmine_lda::PhraseLda,
    truth: &topmine_synth::GroundTruth,
) -> (f64, f64) {
    let n_planted = truth.n_topics();
    let mut table = Contingency::new(n_planted, model.n_topics());
    for d in 0..model.docs().n_docs() {
        let doc = &model.docs().docs[d];
        for (g, (s, e)) in doc.group_ranges().enumerate() {
            let inferred = model.topic_of_group(d, g) as usize;
            for i in s..e {
                if !truth.token_is_background[d][i] {
                    table.add(truth.token_topics[d][i] as usize, inferred);
                }
            }
        }
    }
    (table.purity(), table.nmi())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_agreement_scores_one() {
        let mut t = Contingency::new(3, 3);
        for r in 0..3 {
            for _ in 0..10 {
                t.add(r, r);
            }
        }
        assert_eq!(t.purity(), 1.0);
        assert!((t.nmi() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn label_permutation_is_irrelevant() {
        let mut t = Contingency::new(2, 2);
        for _ in 0..10 {
            t.add(0, 1);
            t.add(1, 0);
        }
        assert_eq!(t.purity(), 1.0);
        assert!((t.nmi() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn independent_labels_score_near_zero_nmi() {
        let mut t = Contingency::new(2, 2);
        for _ in 0..25 {
            t.add(0, 0);
            t.add(0, 1);
            t.add(1, 0);
            t.add(1, 1);
        }
        assert!(t.nmi() < 1e-9, "nmi = {}", t.nmi());
        assert!((t.purity() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn single_cluster_output_has_zero_nmi_but_majority_purity() {
        let mut t = Contingency::new(2, 3);
        for _ in 0..30 {
            t.add(0, 1);
        }
        for _ in 0..10 {
            t.add(1, 1);
        }
        assert_eq!(t.nmi(), 0.0);
        assert!((t.purity() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn shattering_hurts_nmi_not_purity() {
        // Every item its own inferred topic: purity 1, NMI << 1.
        let mut t = Contingency::new(2, 20);
        for i in 0..20 {
            t.add(i % 2, i);
        }
        assert_eq!(t.purity(), 1.0);
        assert!(t.nmi() < 0.7, "nmi = {}", t.nmi());
    }

    #[test]
    fn empty_table_scores_zero() {
        let t = Contingency::new(2, 2);
        assert_eq!(t.purity(), 0.0);
        assert_eq!(t.nmi(), 0.0);
    }

    #[test]
    fn recovery_on_synthetic_corpus_beats_chance() {
        use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
        use topmine_synth::{generate, Profile};
        let s = generate(Profile::Conf20, 0.04, 99);
        let mut m = PhraseLda::new(
            GroupedDocs::unigrams(&s.corpus),
            TopicModelConfig {
                n_topics: s.n_topics,
                alpha: 0.3,
                beta: 0.01,
                seed: 9,
                optimize_every: 0,
                burn_in: 0,
                n_threads: 1,
            },
        );
        m.run(100);
        let (purity, nmi) = score_topic_recovery(&m, &s.truth);
        assert!(purity > 1.5 / s.n_topics as f64, "purity {purity}");
        assert!(nmi > 0.1, "nmi {nmi}");
    }
}
