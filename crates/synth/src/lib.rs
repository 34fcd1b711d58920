//! Synthetic corpora with planted topical phrases.
//!
//! The paper evaluates on six proprietary/large corpora (DBLP titles and
//! abstracts, 20Conf, TREC AP news, ACL abstracts, Yelp reviews) that are
//! not redistributable. This crate substitutes for them with a generative
//! simulator ([`gen::CorpusGenerator`]) that
//! produces corpora from an LDA-like process with **planted multi-word
//! collocations**, plus per-dataset [`profiles`] matching each corpus'
//! shape (document length, phrase density, background noise, vocabulary
//! tail). Topic lexicons ([`lexicon`]) are seeded from the paper's own
//! result tables so expected outputs are directly comparable.
//!
//! The planted ground truth (topic per token, phrase spans, phrase lexicon)
//! also provides an *objective* oracle for the phrase-quality and coherence
//! evaluations that the paper sourced from human raters.

pub mod gen;
pub mod lexicon;
pub mod profiles;
pub mod random;

pub use gen::{CorpusGenerator, GeneratorConfig, GroundTruth, SynthCorpus};
pub use lexicon::{BackgroundSpec, TopicSpec};
pub use profiles::{generate, generator, profile_config, Profile};
