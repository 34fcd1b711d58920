//! Shared substrate for the ToPMine reproduction.
//!
//! This crate deliberately has **zero dependencies**. It provides the small,
//! hot building blocks every other crate leans on:
//!
//! * [`fx`] — a fast, non-cryptographic hasher (Fx-style multiply-xor) plus
//!   `HashMap`/`HashSet` type aliases keyed with it. Phrase mining hashes
//!   millions of small integer-sequence keys; SipHash would dominate the
//!   profile (see the Rust perf-book guidance on hashing).
//! * [`stats`] — means, variances, z-score standardization (the evaluation
//!   protocol of the paper's §7.2 standardizes per-expert scores to z-scores),
//!   and a numerically-stable running-moments accumulator.
//! * [`par`] — the one scheduler for data-parallel passes: units of work
//!   (blocks of [`par::DOC_BLOCK`] documents) go to whichever scoped worker
//!   is free next. Mining, segmentation, Gibbs sweeps and batch inference
//!   all run through it.
//! * [`topk`] — bounded top-k selection used for topic visualization.
//! * [`table`] — plain-text/markdown/TSV table writers for experiment output.
//! * [`timing`] — stopwatch helpers for the runtime experiments (Figure 8,
//!   Table 3).

pub mod fx;
pub mod par;
pub mod stats;
pub mod table;
pub mod timing;
pub mod topk;

pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use stats::{mean, population_std, z_scores, RunningStats};
pub use table::Table;
pub use timing::Stopwatch;
pub use topk::TopK;
