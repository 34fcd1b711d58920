//! Documents, corpora, and surface-form provenance.
//!
//! A [`Document`] is the *mining stream*: stemmed, stop-word-filtered token
//! ids, partitioned into punctuation-delimited chunks (paper §4.1). The
//! optional [`Provenance`] keeps the original surface tokens and a map
//! from each mining token back to its surface position so visualization can
//! unstem and reinsert stop words (paper §7.1/§7.4), e.g. the mined phrase
//! `rice bean` renders as "rice and beans".

use crate::tokenize::for_each_token;
use crate::vocab::Vocab;
use topmine_util::FxHashMap;

/// One document of the mining stream.
#[derive(Debug, Default, Clone)]
pub struct Document {
    /// Token ids after preprocessing (lowercase, stem, stop-word removal).
    pub tokens: Vec<u32>,
    /// Exclusive end offsets of punctuation chunks, strictly increasing; the
    /// final entry equals `tokens.len()`. Empty iff `tokens` is empty.
    pub chunk_ends: Vec<u32>,
}

impl Document {
    /// Build from per-chunk token slices, dropping empty chunks.
    pub fn from_chunks<I, C>(chunks: I) -> Self
    where
        I: IntoIterator<Item = C>,
        C: AsRef<[u32]>,
    {
        let mut tokens = Vec::new();
        let mut chunk_ends = Vec::new();
        for chunk in chunks {
            let chunk = chunk.as_ref();
            if chunk.is_empty() {
                continue;
            }
            tokens.extend_from_slice(chunk);
            chunk_ends.push(tokens.len() as u32);
        }
        Self { tokens, chunk_ends }
    }

    /// Replace this document with the mining stream of `text`: tokenize it
    /// ([`for_each_token`], with `buf` as the lowercasing buffer), map each
    /// surface token through `term_id` (`None` drops the token) and close a
    /// chunk at every punctuation break that follows a kept token. The one
    /// text-to-stream path of the training builder and of serving.
    pub fn fill_from_text(
        &mut self,
        text: &str,
        buf: &mut String,
        mut term_id: impl FnMut(&str) -> Option<u32>,
    ) {
        self.tokens.clear();
        self.chunk_ends.clear();
        let mut open_chunk = 0;
        for_each_token(text, buf, |surface, chunk| {
            if chunk != open_chunk {
                self.end_chunk();
                open_chunk = chunk;
            }
            if let Some(id) = term_id(surface) {
                self.tokens.push(id);
            }
        });
        self.end_chunk();
    }

    /// End the open chunk; a chunk without tokens leaves no entry.
    fn end_chunk(&mut self) {
        let end = self.tokens.len() as u32;
        if end > self.chunk_ends.last().copied().unwrap_or(0) {
            self.chunk_ends.push(end);
        }
    }

    /// A single-chunk document (useful in tests and for titles).
    pub fn single_chunk(tokens: Vec<u32>) -> Self {
        let chunk_ends = if tokens.is_empty() {
            Vec::new()
        } else {
            vec![tokens.len() as u32]
        };
        Self { tokens, chunk_ends }
    }

    pub fn n_tokens(&self) -> usize {
        self.tokens.len()
    }

    pub fn n_chunks(&self) -> usize {
        self.chunk_ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Iterate `(start, end)` token ranges of each chunk.
    pub fn chunk_ranges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let ends = self.chunk_ends.iter().map(|&e| e as usize);
        let starts = std::iter::once(0).chain(self.chunk_ends.iter().map(|&e| e as usize));
        starts.zip(ends)
    }

    /// Iterate chunk token slices.
    pub fn chunks(&self) -> impl Iterator<Item = &[u32]> {
        self.chunk_ranges().map(move |(s, e)| &self.tokens[s..e])
    }

    /// Check structural invariants; used by tests and `debug_assert`s.
    pub fn validate(&self) -> Result<(), String> {
        if self.tokens.is_empty() {
            if !self.chunk_ends.is_empty() {
                return Err("empty doc with chunk ends".into());
            }
            return Ok(());
        }
        if self.chunk_ends.is_empty() {
            return Err("non-empty doc without chunk ends".into());
        }
        let mut prev = 0u32;
        for &e in &self.chunk_ends {
            if e <= prev {
                return Err(format!("chunk ends not strictly increasing at {e}"));
            }
            prev = e;
        }
        if *self.chunk_ends.last().expect("non-empty") as usize != self.tokens.len() {
            return Err("last chunk end != token count".into());
        }
        Ok(())
    }
}

/// Surface-form record for one document.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DocProvenance {
    /// All surface tokens (lowercased, *not* stemmed, stop words included),
    /// as ids into [`Provenance::surfaces`].
    pub surface: Vec<u32>,
    /// For mining token `i`, `origin[i]` is its index into `surface`.
    pub origin: Vec<u32>,
}

/// Surface provenance of a corpus: one table of the distinct surface forms,
/// and each document's surface stream as ids into it.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Every distinct surface form, indexed by surface id (first-seen order).
    pub surfaces: Vec<String>,
    /// Per-document records, parallel to `Corpus::docs`.
    pub docs: Vec<DocProvenance>,
}

impl Provenance {
    /// Render mining-token span `[start, end)` of document `d` as the
    /// original text slice: every surface token between the first and last
    /// mapped positions is included, which reinserts the stop words the
    /// miner skipped.
    pub fn render_span(&self, d: usize, start: usize, end: usize) -> String {
        let doc = &self.docs[d];
        if start >= end || end > doc.origin.len() {
            return String::new();
        }
        let s = doc.origin[start] as usize;
        let e = doc.origin[end - 1] as usize;
        let mut out = String::new();
        for (i, &id) in doc.surface[s..=e].iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&self.surfaces[id as usize]);
        }
        out
    }
}

/// A preprocessed corpus: the unit every algorithm in this reproduction
/// consumes (paper §2's `D` documents over a vocabulary of `V` words).
#[derive(Debug, Default, Clone)]
pub struct Corpus {
    pub vocab: Vocab,
    pub docs: Vec<Document>,
    /// Surface provenance (present when built with
    /// `CorpusOptions::keep_provenance`).
    pub provenance: Option<Provenance>,
    /// Most frequent surface form per stem id ("automatic unstemming",
    /// paper §7.4). Present when built from raw text with stemming on.
    pub unstem: Option<Vec<String>>,
}

impl Corpus {
    pub fn n_docs(&self) -> usize {
        self.docs.len()
    }

    /// Total mining tokens N = Σ N_d.
    pub fn n_tokens(&self) -> usize {
        self.docs.iter().map(Document::n_tokens).sum()
    }

    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// The preferred display string for a single word id (unstemmed when
    /// an unstemming table exists).
    pub fn display_word(&self, id: u32) -> &str {
        match &self.unstem {
            Some(table) if !table[id as usize].is_empty() => &table[id as usize],
            _ => self.vocab.word(id),
        }
    }

    /// Render a phrase *type* (sequence of word ids) for display.
    pub fn render_phrase(&self, ids: &[u32]) -> String {
        let mut s = String::new();
        for (i, &id) in ids.iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(self.display_word(id));
        }
        s
    }

    /// Render a phrase *instance* `[start, end)` of document `d`, using the
    /// surface stream (stop words reinserted) when provenance exists.
    pub fn render_span(&self, d: usize, start: usize, end: usize) -> String {
        if let Some(prov) = &self.provenance {
            prov.render_span(d, start, end)
        } else {
            self.render_phrase(&self.docs[d].tokens[start..end])
        }
    }

    /// Per-word corpus frequencies (length = vocab size).
    pub fn word_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.vocab.len()];
        for doc in &self.docs {
            for &t in &doc.tokens {
                counts[t as usize] += 1;
            }
        }
        counts
    }

    /// Document frequency per word (number of documents containing it).
    pub fn doc_frequencies(&self) -> Vec<u32> {
        let mut df = vec![0u32; self.vocab.len()];
        let mut seen: FxHashMap<u32, usize> = FxHashMap::default();
        for (d, doc) in self.docs.iter().enumerate() {
            for &t in &doc.tokens {
                if seen.insert(t, d) != Some(d) {
                    df[t as usize] += 1;
                }
            }
        }
        df
    }

    /// Validate all documents and provenance alignment.
    pub fn validate(&self) -> Result<(), String> {
        for (d, doc) in self.docs.iter().enumerate() {
            doc.validate().map_err(|e| format!("doc {d}: {e}"))?;
            for &t in &doc.tokens {
                if (t as usize) >= self.vocab.len() {
                    return Err(format!("doc {d}: token id {t} out of vocab"));
                }
            }
        }
        if let Some(prov) = &self.provenance {
            if prov.docs.len() != self.docs.len() {
                return Err("provenance length mismatch".into());
            }
            for (d, (doc, p)) in self.docs.iter().zip(&prov.docs).enumerate() {
                if p.origin.len() != doc.tokens.len() {
                    return Err(format!("doc {d}: origin map length mismatch"));
                }
                if p.origin.iter().any(|&o| o as usize >= p.surface.len()) {
                    return Err(format!("doc {d}: origin out of surface range"));
                }
                if p.surface
                    .iter()
                    .any(|&id| id as usize >= prov.surfaces.len())
                {
                    return Err(format!("doc {d}: surface id out of the surface table"));
                }
            }
        }
        if let Some(u) = &self.unstem {
            if u.len() != self.vocab.len() {
                return Err("unstem table length mismatch".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(chunks: &[&[u32]]) -> Document {
        Document::from_chunks(chunks.iter().copied())
    }

    #[test]
    fn from_chunks_drops_empty() {
        let d = doc(&[&[1, 2], &[], &[3]]);
        assert_eq!(d.n_chunks(), 2);
        assert_eq!(d.tokens, vec![1, 2, 3]);
        assert_eq!(d.chunk_ends, vec![2, 3]);
        d.validate().unwrap();
    }

    #[test]
    fn chunk_iteration() {
        let d = doc(&[&[1, 2], &[3, 4, 5]]);
        let chunks: Vec<&[u32]> = d.chunks().collect();
        assert_eq!(chunks, vec![&[1u32, 2][..], &[3u32, 4, 5][..]]);
        let ranges: Vec<(usize, usize)> = d.chunk_ranges().collect();
        assert_eq!(ranges, vec![(0, 2), (2, 5)]);
    }

    #[test]
    fn empty_document() {
        let d = Document::single_chunk(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.n_chunks(), 0);
        d.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_ends() {
        let d = Document {
            tokens: vec![1, 2, 3],
            chunk_ends: vec![2],
        };
        assert!(d.validate().is_err());
        let d = Document {
            tokens: vec![1, 2],
            chunk_ends: vec![2, 2],
        };
        assert!(d.validate().is_err());
    }

    #[test]
    fn corpus_counts() {
        let mut vocab = Vocab::new();
        let a = vocab.intern("a");
        let b = vocab.intern("b");
        let corpus = Corpus {
            vocab,
            docs: vec![
                Document::single_chunk(vec![a, b, a]),
                Document::single_chunk(vec![b]),
            ],
            provenance: None,
            unstem: None,
        };
        assert_eq!(corpus.n_docs(), 2);
        assert_eq!(corpus.n_tokens(), 4);
        assert_eq!(corpus.word_counts(), vec![2, 2]);
        assert_eq!(corpus.doc_frequencies(), vec![1, 2]);
        corpus.validate().unwrap();
    }

    #[test]
    fn provenance_render_reinserts_stopwords() {
        let p = Provenance {
            surfaces: vec!["rice".into(), "and".into(), "beans".into(), "today".into()],
            docs: vec![DocProvenance {
                surface: vec![0, 1, 2, 3, 1, 0],
                // mining stream = [rice, beans, today, rice] (stop word
                // "and" removed)
                origin: vec![0, 2, 3, 5],
            }],
        };
        assert_eq!(p.render_span(0, 0, 2), "rice and beans");
        assert_eq!(p.render_span(0, 1, 3), "beans today");
        assert_eq!(p.render_span(0, 2, 4), "today and rice");
        assert_eq!(p.render_span(0, 2, 2), "");
    }

    #[test]
    fn render_phrase_prefers_unstemmed() {
        let mut vocab = Vocab::new();
        let mine = vocab.intern("mine");
        let pattern = vocab.intern("pattern");
        let corpus = Corpus {
            vocab,
            docs: vec![],
            provenance: None,
            unstem: Some(vec!["mining".into(), "patterns".into()]),
        };
        assert_eq!(corpus.render_phrase(&[mine, pattern]), "mining patterns");
        assert_eq!(corpus.display_word(0), "mining");
    }
}
