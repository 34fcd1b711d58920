//! Text substrate for the ToPMine reproduction (paper §7.1 preprocessing).
//!
//! The paper's pipeline preprocesses raw text before phrase mining:
//!
//! 1. lowercase + tokenize, splitting documents into *chunks* at
//!    phrase-invariant punctuation (commas, periods, semicolons, ...) — this
//!    is what makes the phrase miner effectively linear (§4.1);
//! 2. Porter-stem every token (Porter 1980, paper ref \[24\]);
//! 3. remove English stop words "for the mining and topic modeling steps";
//! 4. after mining and topic discovery, *unstem* and *reinsert stop words*
//!    for visualization ("rice bean" renders back to "rice and beans").
//!
//! This crate provides all four: [`tokenize`], [`stem`], [`stopwords`], a
//! compact id-based [`Vocab`], chunked [`Document`]s, and a [`Provenance`]
//! record of each document's original surface stream (as ids into one
//! corpus-wide table of surface forms) so spans can be rendered exactly as
//! the paper's tables do.

pub mod builder;
pub mod doc;
pub mod io;
pub mod stem;
pub mod stopwords;
pub mod tokenize;
pub mod vocab;

pub use builder::{corpus_from_texts, CorpusBuilder, CorpusOptions};
pub use doc::{Corpus, DocProvenance, Document, Provenance};
pub use stem::porter_stem;
pub use stopwords::StopwordSet;
pub use tokenize::for_each_token;
pub use vocab::Vocab;
