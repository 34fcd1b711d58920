//! Evaluation harness for the paper's §7 experiments.
//!
//! * [`cooccur`] — document co-occurrence / NPMI statistics, the automatic
//!   surrogate for human judgment.
//! * [`intrusion`] — the phrase intrusion task (Figure 3) with simulated
//!   annotators.
//! * [`coherence`] — topical coherence scores (Figure 4).
//! * [`quality`] — phrase quality against the planted lexicon (Figure 5).
//! * [`raters`] — the five-expert z-score standardization protocol of §7.2.
//! * [`methods`] — a uniform driver running all six methods (Table 3).
//! * [`clustering`] — purity/NMI topic-recovery scores against the planted
//!   ground truth (beyond the paper: an objective recovery metric).
//!
//! Human raters are simulated (see [`intrusion`] and [`raters`]); what the
//! harness reproduces is the *ranking behaviour* of the paper's figures.

pub mod clustering;
pub mod coherence;
pub mod cooccur;
pub mod intrusion;
pub mod methods;
pub mod quality;
pub mod raters;

pub use clustering::{score_topic_recovery, Contingency};
pub use cooccur::{phrase_ids, CooccurrenceIndex};
pub use intrusion::{intrusion_task, IntrusionConfig, IntrusionResult};
pub use methods::{run_method, Method, MethodRun, MethodRunConfig};
pub use raters::{run_panel, PanelConfig, PanelScore};
