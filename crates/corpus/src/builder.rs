//! Building a [`Corpus`] from raw text (paper §7.1 preprocessing pipeline).
//!
//! Each distinct surface form is interned once, on first sight, and its
//! outcome cached: dropped (too short or a stop word) or the id of its
//! stemmed term. Every later occurrence costs one table lookup, so ingest
//! allocates per document and per distinct form, never per token.

use crate::doc::{Corpus, DocProvenance, Document, Provenance};
use crate::stem::porter_stem_in;
use crate::stopwords::StopwordSet;
use crate::vocab::Vocab;
use std::cmp::Reverse;
use std::collections::HashMap;

/// Preprocessing options.
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// Apply Porter stemming (paper: on).
    pub stem: bool,
    /// Remove English stop words from the mining stream (paper: on).
    pub remove_stopwords: bool,
    /// Keep surface provenance for unstemming / stop word reinsertion.
    pub keep_provenance: bool,
    /// Drop tokens shorter than this many characters (applied to the surface
    /// form; 1 keeps everything).
    pub min_token_len: usize,
    /// Custom stop word set; defaults to the built-in English list.
    pub stopwords: StopwordSet,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        Self {
            stem: true,
            remove_stopwords: true,
            keep_provenance: true,
            min_token_len: 1,
            stopwords: StopwordSet::english(),
        }
    }
}

impl CorpusOptions {
    /// Options matching the paper's preprocessing exactly.
    pub fn paper() -> Self {
        Self::default()
    }

    /// No stemming / no stop word removal / no provenance — raw id stream.
    /// Used by the synthetic generators, which emit already-clean tokens.
    pub fn raw() -> Self {
        Self {
            stem: false,
            remove_stopwords: false,
            keep_provenance: false,
            min_token_len: 1,
            stopwords: StopwordSet::none(),
        }
    }

    /// The mining term of one surface token: `None` when preprocessing
    /// drops it (shorter than `min_token_len` characters, or a stop word),
    /// else its Porter stem (written to `stem_buf`) or, without stemming,
    /// the token itself. Training and serving both map tokens through
    /// this one rule.
    pub fn term<'a>(&self, surface: &'a str, stem_buf: &'a mut Vec<u8>) -> Option<&'a str> {
        if surface.chars().count() < self.min_token_len {
            return None;
        }
        if self.remove_stopwords && self.stopwords.contains(surface) {
            return None;
        }
        let term = if self.stem {
            porter_stem_in(surface, stem_buf)
        } else {
            surface
        };
        (!term.is_empty()).then_some(term)
    }
}

/// Incremental corpus builder.
#[derive(Debug)]
pub struct CorpusBuilder {
    options: CorpusOptions,
    vocab: Vocab,
    docs: Vec<Document>,
    provenance: Vec<DocProvenance>,
    /// Distinct surface form -> surface id (dense, first-seen order). Keys
    /// come from the input text, so the map keeps std's seeded hasher.
    surface_ids: HashMap<Box<str>, u32>,
    /// Per surface id: its term id, or `None` if preprocessing drops it.
    surface_terms: Vec<Option<u32>>,
    /// Per surface id: occurrences in the mining stream, for unstemming.
    surface_counts: Vec<u32>,
    /// Buffers reused across documents.
    token_buf: String,
    stem_buf: Vec<u8>,
    doc: Document,
    doc_provenance: DocProvenance,
}

impl Default for CorpusBuilder {
    fn default() -> Self {
        Self::new(CorpusOptions::default())
    }
}

impl CorpusBuilder {
    pub fn new(options: CorpusOptions) -> Self {
        Self {
            options,
            vocab: Vocab::new(),
            docs: Vec::new(),
            provenance: Vec::new(),
            surface_ids: HashMap::new(),
            surface_terms: Vec::new(),
            surface_counts: Vec::new(),
            token_buf: String::new(),
            stem_buf: Vec::new(),
            doc: Document::default(),
            doc_provenance: DocProvenance::default(),
        }
    }

    /// Number of documents added so far.
    pub fn n_docs(&self) -> usize {
        self.docs.len()
    }

    /// Tokenize, stem, filter and append one document.
    pub fn add_document(&mut self, text: &str) -> &mut Self {
        let Self {
            options,
            vocab,
            surface_ids,
            surface_terms,
            surface_counts,
            token_buf,
            stem_buf,
            doc,
            doc_provenance: prov,
            ..
        } = self;
        let keep_provenance = options.keep_provenance;
        prov.surface.clear();
        prov.origin.clear();
        doc.fill_from_text(text, token_buf, |surface| {
            let id = match surface_ids.get(surface) {
                Some(&id) => id,
                None => {
                    let id = u32::try_from(surface_terms.len())
                        .expect("more distinct surface forms than u32 ids");
                    let term = options.term(surface, stem_buf).map(|t| vocab.intern(t));
                    surface_ids.insert(surface.into(), id);
                    surface_terms.push(term);
                    surface_counts.push(0);
                    id
                }
            };
            if keep_provenance {
                prov.surface.push(id);
            }
            let term = surface_terms[id as usize]?;
            surface_counts[id as usize] += 1;
            if keep_provenance {
                prov.origin.push(prov.surface.len() as u32 - 1);
            }
            Some(term)
        });
        // Clones are sized to their contents; the buffers keep capacity.
        self.docs.push(self.doc.clone());
        if keep_provenance {
            self.provenance.push(self.doc_provenance.clone());
        }
        self
    }

    /// Add many documents.
    pub fn add_documents<'a, I: IntoIterator<Item = &'a str>>(&mut self, texts: I) -> &mut Self {
        for t in texts {
            self.add_document(t);
        }
        self
    }

    /// Finish, producing the immutable [`Corpus`].
    pub fn build(self) -> Corpus {
        let mut surfaces = vec![String::new(); self.surface_terms.len()];
        for (surface, id) in self.surface_ids {
            surfaces[id as usize] = surface.into_string();
        }
        let unstem = self.options.stem.then(|| {
            // Most frequent surface form per term wins; ties break to the
            // lexicographically smallest form, for determinism.
            let key = |id: usize| (self.surface_counts[id], Reverse(&surfaces[id]));
            let mut best: Vec<Option<usize>> = vec![None; self.vocab.len()];
            for (id, term) in self.surface_terms.iter().enumerate() {
                let Some(term) = term else { continue };
                let slot = &mut best[*term as usize];
                if slot.is_none_or(|b| key(id) > key(b)) {
                    *slot = Some(id);
                }
            }
            best.iter()
                .map(|b| b.map_or_else(String::new, |id| surfaces[id].clone()))
                .collect()
        });
        let corpus = Corpus {
            vocab: self.vocab,
            docs: self.docs,
            provenance: self.options.keep_provenance.then_some(Provenance {
                surfaces,
                docs: self.provenance,
            }),
            unstem,
        };
        debug_assert!(corpus.validate().is_ok(), "built corpus must validate");
        corpus
    }
}

/// One-shot convenience: build a corpus from an iterator of texts with the
/// paper's default preprocessing.
pub fn corpus_from_texts<'a, I: IntoIterator<Item = &'a str>>(texts: I) -> Corpus {
    let mut b = CorpusBuilder::default();
    b.add_documents(texts);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwords_removed_but_surface_kept() {
        let mut b = CorpusBuilder::default();
        b.add_document("The mining of frequent patterns.");
        let c = b.build();
        // "the" and "of" are gone from the mining stream.
        let words: Vec<&str> = c.docs[0].tokens.iter().map(|&t| c.vocab.word(t)).collect();
        assert_eq!(words, vec!["mine", "frequent", "pattern"]);
        // But the full span renders with them reinserted and unstemmed.
        assert_eq!(c.render_span(0, 0, 3), "mining of frequent patterns");
    }

    #[test]
    fn chunks_follow_punctuation() {
        let mut b = CorpusBuilder::default();
        b.add_document("frequent patterns, candidate generation; tree approach");
        let c = b.build();
        assert_eq!(c.docs[0].n_chunks(), 3);
        c.validate().unwrap();
    }

    #[test]
    fn stopword_only_chunks_vanish() {
        let mut b = CorpusBuilder::default();
        b.add_document("data mining. and the of. query processing");
        let c = b.build();
        assert_eq!(c.docs[0].n_chunks(), 2);
        assert_eq!(c.docs[0].n_tokens(), 4);
    }

    #[test]
    fn unstemming_picks_most_frequent_surface() {
        let mut b = CorpusBuilder::default();
        b.add_document("mining mining mining mined");
        let c = b.build();
        let id = c.vocab.id("mine").unwrap();
        assert_eq!(c.display_word(id), "mining");
    }

    #[test]
    fn raw_options_skip_everything() {
        let mut b = CorpusBuilder::new(CorpusOptions::raw());
        b.add_document("the mining of patterns");
        let c = b.build();
        let words: Vec<&str> = c.docs[0].tokens.iter().map(|&t| c.vocab.word(t)).collect();
        assert_eq!(words, vec!["the", "mining", "of", "patterns"]);
        assert!(c.provenance.is_none());
        assert!(c.unstem.is_none());
    }

    #[test]
    fn empty_documents_are_kept_as_empty() {
        let mut b = CorpusBuilder::default();
        b.add_document("");
        b.add_document("the of and");
        let c = b.build();
        assert_eq!(c.n_docs(), 2);
        assert!(c.docs[0].is_empty());
        assert!(c.docs[1].is_empty());
        c.validate().unwrap();
    }

    #[test]
    fn min_token_len_filters() {
        let opts = CorpusOptions {
            min_token_len: 3,
            remove_stopwords: false,
            stem: false,
            ..CorpusOptions::default()
        };
        let mut b = CorpusBuilder::new(opts);
        b.add_document("an ox ate hay");
        let c = b.build();
        let words: Vec<&str> = c.docs[0].tokens.iter().map(|&t| c.vocab.word(t)).collect();
        assert_eq!(words, vec!["ate", "hay"]);
    }

    #[test]
    fn shared_vocab_across_documents() {
        let c = corpus_from_texts(["data mining", "mining algorithms"]);
        assert_eq!(c.n_docs(), 2);
        let mine = c.vocab.id("mine").unwrap();
        assert!(c.docs.iter().all(|d| d.tokens.contains(&mine)));
    }

    #[test]
    fn example1_title_segmentation_shape() {
        // Title 1 from the paper's Example 1 — after preprocessing the two
        // chunks around ':' survive with content words only.
        let c = corpus_from_texts([
            "Mining frequent patterns without candidate generation: a frequent pattern tree approach.",
        ]);
        let d = &c.docs[0];
        assert_eq!(d.n_chunks(), 2);
        let words: Vec<&str> = d.tokens.iter().map(|&t| c.vocab.word(t)).collect();
        // "without" and "a" are stop words; the rest stems as Porter dictates.
        assert_eq!(
            words,
            vec![
                "mine", "frequent", "pattern", "candid", "gener", "frequent", "pattern", "tree",
                "approach"
            ]
        );
    }
}
