//! Phrase mining for ToPMine (paper §4).
//!
//! Two stages, exactly as the paper structures them:
//!
//! 1. **Frequent phrase mining** ([`miner`], paper Algorithm 1): collect
//!    aggregate counts `C(P)` of every contiguous phrase meeting a minimum
//!    support `ε`, using *position-based Apriori pruning* (active indices)
//!    and *data antimonotonicity* (documents that produce no frequent
//!    n-grams are dropped before level n+1).
//! 2. **Phrase construction / segmentation** ([`construction`], Algorithm 2):
//!    per document, greedily merge the adjacent pair of phrase instances with
//!    the highest **significance** ([`significance()`], Eq. 1) until no merge
//!    reaches the threshold `α`; the surviving pieces partition the document
//!    into a *bag of phrases*.
//!
//! Both stages share one data structure, the phrase lexicon
//! ([`counter`], [`PhraseStats`]): every phrase is a dense `u32` node
//! (nodes `0..V` are the unigrams), children are found through one packed
//! `parent << 32 | word` map, and counts sit in one vector indexed by
//! node. Algorithm 1 fills it level by level; Algorithm 2 keeps each
//! instance's node, so per candidate it pays `O(log m)` heap work plus
//! `|right|` child lookups, and hashes no phrase. Serving
//! (`topmine_serve`) segments against the same type.
//!
//! [`segmenter`] wires both stages over a whole corpus and produces the
//! [`Segmentation`] consumed by PhraseLDA.

pub mod construction;
pub mod counter;
pub mod miner;
pub mod prefix;
pub mod segmenter;
pub mod significance;

pub use construction::{
    construct_chunk, construct_chunk_into, ChunkPartition, ConstructScratch, MergeTrace,
    PhraseConstructor,
};
pub use counter::PhraseStats;
pub use miner::{FrequentPhraseMiner, MinerConfig};
pub use prefix::U64Map;
pub use segmenter::{Phrase, Segmentation, SegmentedDoc, Segmenter, SegmenterConfig};
pub use significance::{significance, significance_pmi};
pub use topmine_obs::{MiningLevel, MiningTelemetry};
