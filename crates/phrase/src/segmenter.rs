//! Corpus-level segmentation: Algorithm 1 + Algorithm 2 end to end.
//!
//! The [`Segmenter`] mines frequent phrases once, then partitions every
//! document into phrase instances. The resulting [`Segmentation`] is the
//! "bag of phrases" input to PhraseLDA (paper §5) and also yields the
//! *rectified* phrase counts used for topical-frequency visualization —
//! after segmentation, a quadratic pool of candidates has been reduced to at
//! most a linear number of attested instances (paper §4.2).
//!
//! Algorithm 2 runs per document, so segmentation is one pass on
//! [`topmine_util::par::for_each`]: blocks of [`DOC_BLOCK`] documents go to
//! whichever worker is free next, and each block writes its spans into the
//! preallocated output slots of its own documents. A document's spans
//! depend only on the document and the mined statistics, so the result is
//! the same at every thread count; one thread runs the pass inline.

use crate::construction::{ConstructScratch, PhraseConstructor};
use crate::counter::PhraseStats;
use crate::miner::{FrequentPhraseMiner, MinerConfig};
use topmine_corpus::Corpus;
use topmine_obs::MiningTelemetry;
use topmine_util::par::{self, DOC_BLOCK};
use topmine_util::FxHashMap;

/// A phrase *type*: its word ids, in order.
pub type Phrase = Box<[u32]>;

/// Configuration for the end-to-end segmenter.
#[derive(Debug, Clone)]
pub struct SegmenterConfig {
    /// Frequent-phrase-mining parameters (ε, threads, caps).
    pub miner: MinerConfig,
    /// Significance threshold α for Algorithm 2 (paper Figure 1 uses α = 5).
    pub alpha: f64,
    /// Worker threads for the per-document construction pass; `1` runs it
    /// inline on the calling thread.
    pub n_threads: usize,
}

impl Default for SegmenterConfig {
    fn default() -> Self {
        Self {
            miner: MinerConfig::default(),
            alpha: 5.0,
            n_threads: 1,
        }
    }
}

/// One segmented document: contiguous, exhaustive phrase spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentedDoc {
    /// Document-relative `[start, end)` spans, in order.
    pub spans: Vec<(u32, u32)>,
}

impl SegmentedDoc {
    pub fn n_phrases(&self) -> usize {
        self.spans.len()
    }

    pub fn n_multiword(&self) -> usize {
        self.spans.iter().filter(|(s, e)| e - s > 1).count()
    }
}

/// The corpus-wide segmentation result.
#[derive(Debug, Clone, Default)]
pub struct Segmentation {
    /// One entry per corpus document, parallel to `corpus.docs`.
    pub docs: Vec<SegmentedDoc>,
    /// The α used to produce this partition.
    pub alpha: f64,
}

impl Segmentation {
    /// Total number of phrase instances.
    pub fn n_phrases(&self) -> usize {
        self.docs.iter().map(SegmentedDoc::n_phrases).sum()
    }

    /// Number of multi-word phrase instances.
    pub fn n_multiword(&self) -> usize {
        self.docs.iter().map(SegmentedDoc::n_multiword).sum()
    }

    /// Rectified phrase-type counts: how often each phrase appears *as a
    /// segment* (not merely as a frequent pattern). This is what Eq. 8's
    /// topical frequency sums over.
    pub fn phrase_counts(&self, corpus: &Corpus) -> FxHashMap<Phrase, u64> {
        let mut counts: FxHashMap<Phrase, u64> = FxHashMap::default();
        for (doc, seg) in corpus.docs.iter().zip(&self.docs) {
            for &(s, e) in &seg.spans {
                let key = &doc.tokens[s as usize..e as usize];
                if let Some(c) = counts.get_mut(key) {
                    *c += 1;
                } else {
                    counts.insert(key.to_vec().into_boxed_slice(), 1);
                }
            }
        }
        counts
    }

    /// Check the partition invariant (paper Definition 1): for every
    /// document, the concatenation of spans equals the document, and no span
    /// crosses a chunk boundary.
    pub fn validate(&self, corpus: &Corpus) -> Result<(), String> {
        if self.docs.len() != corpus.docs.len() {
            return Err("segmentation/corpus length mismatch".into());
        }
        for (d, (doc, seg)) in corpus.docs.iter().zip(&self.docs).enumerate() {
            let mut pos = 0u32;
            for &(s, e) in &seg.spans {
                if s != pos {
                    return Err(format!("doc {d}: gap or overlap at token {pos}"));
                }
                if e <= s {
                    return Err(format!("doc {d}: empty span at {s}"));
                }
                pos = e;
            }
            if pos as usize != doc.n_tokens() {
                return Err(format!(
                    "doc {d}: partition covers {pos} of {} tokens",
                    doc.n_tokens()
                ));
            }
            // No span may cross a chunk boundary.
            let mut ends = doc.chunk_ends.iter().copied().peekable();
            for &(s, e) in &seg.spans {
                while let Some(&ce) = ends.peek() {
                    if ce <= s {
                        ends.next();
                    } else {
                        break;
                    }
                }
                if let Some(&ce) = ends.peek() {
                    if e > ce {
                        return Err(format!("doc {d}: span ({s},{e}) crosses chunk end {ce}"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// End-to-end phrase mining + segmentation.
///
/// ```
/// use topmine_corpus::corpus_from_texts;
/// use topmine_phrase::Segmenter;
///
/// let docs: Vec<String> = (0..20)
///     .map(|i| format!("support vector machines for task{}", i % 5))
///     .collect();
/// let corpus = corpus_from_texts(docs.iter().map(String::as_str));
/// let (stats, seg) = Segmenter::with_params(5, 3.0).segment(&corpus);
/// assert!(stats.n_frequent_ngrams() > 0);
/// assert!(seg.n_multiword() > 0);
/// seg.validate(&corpus).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct Segmenter {
    config: SegmenterConfig,
    miner: FrequentPhraseMiner,
}

impl Default for Segmenter {
    fn default() -> Self {
        Self::new(SegmenterConfig::default())
    }
}

impl Segmenter {
    pub fn new(config: SegmenterConfig) -> Self {
        // The miner is built once here, not cloned per segment() call.
        let miner = FrequentPhraseMiner::with_config(config.miner.clone());
        Self { config, miner }
    }

    /// Convenience constructor with the two parameters that matter most.
    pub fn with_params(min_support: u64, alpha: f64) -> Self {
        Self::new(SegmenterConfig {
            miner: MinerConfig {
                min_support,
                ..MinerConfig::default()
            },
            alpha,
            n_threads: 1,
        })
    }

    pub fn config(&self) -> &SegmenterConfig {
        &self.config
    }

    /// Run Algorithm 1 once, returning the phrase statistics and per-level
    /// mining telemetry. Callers that segment repeatedly (α sweeps, benches)
    /// should mine once here and then use [`Segmenter::segment_with_stats`].
    pub fn mine(&self, corpus: &Corpus) -> (PhraseStats, MiningTelemetry) {
        self.miner.mine_with_telemetry(corpus)
    }

    /// Mine frequent phrases, then segment every document.
    pub fn segment(&self, corpus: &Corpus) -> (PhraseStats, Segmentation) {
        let (stats, _) = self.mine(corpus);
        let seg = self.segment_with_stats(corpus, &stats);
        (stats, seg)
    }

    /// Segment using pre-mined statistics — the primary path for anything
    /// that already mined (or segments more than once: α sweeps, benches,
    /// ablations share one mining pass this way).
    pub fn segment_with_stats(&self, corpus: &Corpus, stats: &PhraseStats) -> Segmentation {
        let ctor = PhraseConstructor::new(self.config.alpha);
        let mut docs = vec![SegmentedDoc::default(); corpus.docs.len()];
        let mut scratch: Vec<ConstructScratch> = std::iter::repeat_with(Default::default)
            .take(self.config.n_threads.max(1))
            .collect();
        let blocks = corpus
            .docs
            .chunks(DOC_BLOCK)
            .zip(docs.chunks_mut(DOC_BLOCK));
        par::for_each(blocks, &mut scratch, |scratch, (block, out)| {
            for (doc, seg) in block.iter().zip(out) {
                seg.spans = ctor.construct_doc_with(doc, stats, scratch);
            }
        });
        let seg = Segmentation {
            docs,
            alpha: self.config.alpha,
        };
        debug_assert!(seg.validate(corpus).is_ok());
        seg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topmine_corpus::{corpus_from_texts, CorpusBuilder, CorpusOptions};

    /// A corpus where "support vector machine" is an overwhelming
    /// collocation and filler words are independent noise.
    fn svm_corpus() -> Corpus {
        // Vary the surrounding words so only "support vector machines" is a
        // consistent collocation (a fully repeated title would itself be
        // segmented as one long frequent phrase — correctly).
        let verbs = [
            "study", "analysis", "survey", "review", "critique", "history",
        ];
        let mut texts = Vec::new();
        for i in 0..30 {
            texts.push(format!(
                "{} of support vector machines for task{}",
                verbs[i % verbs.len()],
                i % 7
            ));
            texts.push(format!("filler{} text about results", i));
        }
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        corpus_from_texts(refs)
    }

    #[test]
    fn segments_collocation_as_one_phrase() {
        let corpus = svm_corpus();
        let (stats, seg) = Segmenter::with_params(5, 4.0).segment(&corpus);
        seg.validate(&corpus).unwrap();
        assert!(
            stats.count(&[
                corpus.vocab.id("support").unwrap(),
                corpus.vocab.id("vector").unwrap(),
                corpus.vocab.id("machin").unwrap()
            ]) >= 30
        );
        let counts = seg.phrase_counts(&corpus);
        let svm: Vec<u32> = ["support", "vector", "machin"]
            .iter()
            .map(|w| corpus.vocab.id(w).unwrap())
            .collect();
        assert!(
            counts.get(svm.as_slice()).copied().unwrap_or(0) >= 25,
            "svm should be segmented as one phrase: {:?}",
            counts
                .iter()
                .filter(|(p, _)| p.len() > 1)
                .map(|(p, c)| (corpus.vocab.render(p), *c))
                .collect::<Vec<_>>()
        );
        assert!(seg.n_multiword() >= 25);
    }

    #[test]
    fn high_alpha_means_all_singletons() {
        let corpus = svm_corpus();
        let (_, seg) = Segmenter::with_params(5, 1e12).segment(&corpus);
        seg.validate(&corpus).unwrap();
        assert_eq!(seg.n_multiword(), 0);
        assert_eq!(seg.n_phrases(), corpus.n_tokens());
    }

    #[test]
    fn phrase_counts_sum_to_phrase_instances() {
        let corpus = svm_corpus();
        let (_, seg) = Segmenter::with_params(4, 3.0).segment(&corpus);
        let counts = seg.phrase_counts(&corpus);
        let total: u64 = counts.values().sum();
        assert_eq!(total as usize, seg.n_phrases());
    }

    #[test]
    fn parallel_segmentation_matches_sequential() {
        // Two blocks (60 documents), and three documents — fewer than most
        // thread counts below — one of them empty.
        let mut b = CorpusBuilder::new(CorpusOptions::default());
        b.add_document("support vector machines for data");
        b.add_document("");
        b.add_document("support vector machines");
        for (corpus, min_support) in [(svm_corpus(), 4), (b.build(), 2)] {
            let (stats, _) = Segmenter::with_params(min_support, 3.0).mine(&corpus);
            // The reference: Algorithm 2 document by document, no scheduler.
            let ctor = PhraseConstructor::new(3.0);
            let mut scratch = ConstructScratch::default();
            let sequential: Vec<SegmentedDoc> = corpus
                .docs
                .iter()
                .map(|doc| SegmentedDoc {
                    spans: ctor.construct_doc_with(doc, &stats, &mut scratch),
                })
                .collect();
            for n_threads in [1usize, 2, 3, 7] {
                let seg = Segmenter::new(SegmenterConfig {
                    miner: MinerConfig {
                        min_support,
                        ..MinerConfig::default()
                    },
                    alpha: 3.0,
                    n_threads,
                })
                .segment_with_stats(&corpus, &stats);
                assert_eq!(seg.docs, sequential, "n_threads={n_threads}");
            }
        }
    }

    #[test]
    fn empty_documents_segment_to_nothing() {
        let mut b = CorpusBuilder::new(CorpusOptions::default());
        b.add_document("");
        b.add_document("data mining");
        let corpus = b.build();
        let (_, seg) = Segmenter::with_params(1, 100.0).segment(&corpus);
        assert!(seg.docs[0].spans.is_empty());
        assert_eq!(seg.docs[1].n_phrases(), 2);
        seg.validate(&corpus).unwrap();
    }

    #[test]
    fn validate_catches_corruption() {
        let corpus = svm_corpus();
        let (_, mut seg) = Segmenter::with_params(5, 4.0).segment(&corpus);
        seg.docs[0].spans.clear();
        assert!(seg.validate(&corpus).is_err());
    }

    #[test]
    fn example1_titles_segment_like_the_paper() {
        // Example 1: both titles contain the "frequent pattern" collocation;
        // with enough supporting corpus the segmenter groups it.
        let mut texts = vec![
            "Mining frequent patterns without candidate generation: a frequent pattern tree approach."
                .to_string(),
            "Frequent pattern mining: current status and future directions.".to_string(),
        ];
        for i in 0..20 {
            texts.push(format!("frequent pattern mining study number{i}"));
            texts.push(format!("unrelated title about networks {i}"));
        }
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let corpus = corpus_from_texts(refs);
        let (_, seg) = Segmenter::with_params(5, 3.0).segment(&corpus);
        seg.validate(&corpus).unwrap();
        let counts = seg.phrase_counts(&corpus);
        let fp: Vec<u32> = ["frequent", "pattern"]
            .iter()
            .map(|w| corpus.vocab.id(w).unwrap())
            .collect();
        // "frequent pattern" (or a superphrase containing it) dominates.
        let multi_with_fp: u64 = counts
            .iter()
            .filter(|(p, _)| p.len() >= 2 && p.windows(2).any(|w| w == fp.as_slice()))
            .map(|(_, c)| *c)
            .sum();
        assert!(multi_with_fp >= 20, "got {multi_with_fp}");
    }
}
