//! Shared training telemetry structs.
//!
//! `topmine_lda`'s sampler accumulates one [`SweepTelemetry`] per model and
//! the benches / `--progress` reporting consume it, so the struct lives
//! here rather than as private sampler plumbing.

/// How singleton-token draws were resolved, by kernel path.
///
/// For the sparse SparseLDA-style kernel this is the bucket split of the
/// stratified draw — topic-word (q), document (r), smoothing (s) — which
/// directly explains the kernel's speedup: the cheap q/r buckets absorb
/// almost all of the probability mass. `dense` counts singleton draws that
/// went through the dense Eq. 7 scan instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrawSplit {
    pub topic_word: u64,
    pub doc: u64,
    pub smoothing: u64,
    pub dense: u64,
}

impl DrawSplit {
    pub fn total(&self) -> u64 {
        self.topic_word + self.doc + self.smoothing + self.dense
    }

    pub fn merge(&mut self, other: &DrawSplit) {
        self.topic_word += other.topic_word;
        self.doc += other.doc;
        self.smoothing += other.smoothing;
        self.dense += other.dense;
    }
}

/// Cumulative per-model Gibbs sweep telemetry.
///
/// All fields are monotone counters over the model's lifetime; use
/// [`SweepTelemetry::since`] to get the delta for a window (e.g. one
/// sweep, for trace events).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepTelemetry {
    /// Total sweeps completed (sequential + parallel).
    pub sweeps: u64,
    /// Sweeps that ran the parallel path.
    pub parallel_sweeps: u64,
    /// Sparse `N_wk` delta entries the parallel path's barrier merges
    /// applied: one per (document, word, topic) cell a sweep changed.
    pub merge_delta_entries: u64,
    /// Nanoseconds spent in the parallel path's barrier merges (the
    /// benchmark reports it as `lda.snapshot_s`).
    pub snapshot_nanos: u64,
    /// Nanoseconds spent inside sweeps (excludes perplexity and
    /// hyperparameter optimization).
    pub sweep_nanos: u64,
    /// Singleton-draw resolution split.
    pub draws: DrawSplit,
}

impl SweepTelemetry {
    /// Field-wise saturating difference `self - earlier`, for windowed
    /// reporting.
    pub fn since(&self, earlier: &SweepTelemetry) -> SweepTelemetry {
        SweepTelemetry {
            sweeps: self.sweeps.saturating_sub(earlier.sweeps),
            parallel_sweeps: self.parallel_sweeps.saturating_sub(earlier.parallel_sweeps),
            merge_delta_entries: self
                .merge_delta_entries
                .saturating_sub(earlier.merge_delta_entries),
            snapshot_nanos: self.snapshot_nanos.saturating_sub(earlier.snapshot_nanos),
            sweep_nanos: self.sweep_nanos.saturating_sub(earlier.sweep_nanos),
            draws: DrawSplit {
                topic_word: self
                    .draws
                    .topic_word
                    .saturating_sub(earlier.draws.topic_word),
                doc: self.draws.doc.saturating_sub(earlier.draws.doc),
                smoothing: self.draws.smoothing.saturating_sub(earlier.draws.smoothing),
                dense: self.draws.dense.saturating_sub(earlier.draws.dense),
            },
        }
    }

    /// Average sweep rate over the recorded sweep time.
    pub fn sweeps_per_sec(&self) -> f64 {
        if self.sweep_nanos == 0 {
            0.0
        } else {
            self.sweeps as f64 / (self.sweep_nanos as f64 / 1e9)
        }
    }
}

/// One level of the Algorithm 1 frequent-phrase miner: the counting pass
/// for candidates of length `level` and the prune that follows it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MiningLevel {
    /// Candidate phrase length n (level 2 = bigrams).
    pub level: u32,
    /// Distinct candidate keys counted at this level.
    pub candidates: u64,
    /// Candidates that met minimum support.
    pub frequent: u64,
    /// Window occurrences counted (table probes in the hot loop).
    pub occurrences: u64,
    /// Documents entering the level's counting pass.
    pub docs_in: u64,
    /// Documents still active after the level's prune (data
    /// antimonotonicity drop).
    pub docs_out: u64,
    /// Wall time of the level (count + merge + prune).
    pub nanos: u64,
    /// Slots of the largest counting partition (`U64Map`) any worker
    /// held at the level, the merge tables included: 16 bytes a slot.
    pub max_part_slots: u64,
}

/// Per-run telemetry of the Algorithm 1 miner, one entry per level.
///
/// Collection cost is a handful of counter updates per *level* (not per
/// occurrence), so it stays far inside the <2% instrumentation-overhead
/// budget and is always on; `--progress` renders it, and perfbench reports
/// it as its `miner.*` metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MiningTelemetry {
    pub levels: Vec<MiningLevel>,
    /// Wall time of the whole mine (unigram pass included).
    pub total_nanos: u64,
}

impl MiningTelemetry {
    /// Total window occurrences counted across all levels.
    pub fn occurrences(&self) -> u64 {
        self.levels.iter().map(|l| l.occurrences).sum()
    }

    /// Total distinct candidates across all levels.
    pub fn candidates(&self) -> u64 {
        self.levels.iter().map(|l| l.candidates).sum()
    }

    /// Total frequent phrases (length >= 2) across all levels.
    pub fn frequent(&self) -> u64 {
        self.levels.iter().map(|l| l.frequent).sum()
    }

    /// Documents dropped by data antimonotonicity, summed over levels.
    pub fn docs_dropped(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.docs_in.saturating_sub(l.docs_out))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_split_totals_and_merges() {
        let mut a = DrawSplit {
            topic_word: 5,
            doc: 3,
            smoothing: 1,
            dense: 0,
        };
        let b = DrawSplit {
            topic_word: 1,
            doc: 1,
            smoothing: 1,
            dense: 7,
        };
        a.merge(&b);
        assert_eq!(a.total(), 19);
        assert_eq!(a.dense, 7);
    }

    #[test]
    fn since_is_field_wise_delta() {
        let earlier = SweepTelemetry {
            sweeps: 10,
            sweep_nanos: 1_000,
            ..Default::default()
        };
        let later = SweepTelemetry {
            sweeps: 13,
            sweep_nanos: 4_000,
            ..Default::default()
        };
        let d = later.since(&earlier);
        assert_eq!(d.sweeps, 3);
        assert_eq!(d.sweep_nanos, 3_000);
    }

    #[test]
    fn sweeps_per_sec() {
        let t = SweepTelemetry {
            sweeps: 2,
            sweep_nanos: 500_000_000,
            ..Default::default()
        };
        assert!((t.sweeps_per_sec() - 4.0).abs() < 1e-12);
        assert_eq!(SweepTelemetry::default().sweeps_per_sec(), 0.0);
    }
}
