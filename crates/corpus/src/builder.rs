//! Building a [`Corpus`] from raw text (paper §7.1 preprocessing pipeline).
//!
//! Ingest runs in two steps, on one worker or on several:
//!
//! 1. **Workers** tokenize documents. Each worker interns the surface forms
//!    it meets into its own table, under worker-local ids, and runs
//!    [`CorpusOptions::term`] once per form new to it; every later
//!    occurrence costs one table lookup, so ingest allocates per document
//!    and per distinct form, never per token. It writes documents and
//!    provenance in local ids, and notes the forms new to it, in the order
//!    it met them.
//! 2. **The merge** walks those notes in document order. Every form not
//!    seen before gets the next global surface id, and its term an id
//!    through [`Vocab::intern`]: exactly the first-seen order of one pass
//!    over the documents. The documents' local ids are then rewritten to
//!    global ones.
//!
//! So no id depends on which worker ran which document, and the corpus is
//! the same, bit for bit, at every worker count.
//! [`CorpusBuilder::add_document`] is the one-worker, one-document case;
//! [`crate::io::load_lines`] runs blocks of lines on `topmine_util::par`.

use crate::doc::{Corpus, DocProvenance, Document, Provenance};
use crate::io::Lines;
use crate::stem::porter_stem_in;
use crate::stopwords::StopwordSet;
use crate::vocab::Vocab;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::io;
use topmine_util::par;

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
///
/// Documents are tokenized on workers, each interning surface forms into
/// its own table, and the forms new to a worker are then merged in
/// document order (see the module docs). [`CorpusBuilder::new`] builds on
/// one worker, one document per [`CorpusBuilder::add_document`];
/// `io::load_lines` runs blocks of lines on several.
#[derive(Debug)]
pub struct CorpusBuilder {
    options: CorpusOptions,
    vocab: Vocab,
    docs: Vec<Document>,
    provenance: Vec<DocProvenance>,
    /// Surface forms given a global surface id so far.
    n_surfaces: usize,
    /// The workers' surface tables; `add_document` runs on the first.
    workers: Vec<Worker>,
    /// Per block of the last pass, what the merge reads; kept for the
    /// buffers' capacity.
    fresh: Vec<Fresh>,
}

/// The term id of a surface form that preprocessing drops. No token
/// carries it: a dropped form leaves only provenance.
const DROPPED: u32 = u32::MAX;

/// One worker's surface table and buffers.
#[derive(Debug, Default)]
struct Worker {
    /// This worker's index in `CorpusBuilder::workers`.
    index: usize,
    /// Distinct surface form -> local id (dense, in the order this worker
    /// met them). Keys come from the input text, so the map keeps std's
    /// seeded hasher.
    ids: HashMap<Box<str>, u32>,
    /// Per local id: occurrences in the mining stream, or `None` if
    /// preprocessing drops the form.
    counts: Vec<Option<u32>>,
    /// Per local id, once merged: its global surface id and its term id
    /// ([`DROPPED`] if none).
    global: Vec<(u32, u32)>,
    token_buf: String,
    stem_buf: Vec<u8>,
    doc: Document,
    prov: DocProvenance,
}

/// What the merge needs of one block of documents: the surface forms its
/// worker met there for the first time, in the order it met them, each
/// with its term.
#[derive(Debug, Default)]
struct Fresh {
    /// The worker that tokenized the block.
    worker: usize,
    /// The local id of the first of those forms; the rest follow in order.
    first: usize,
    /// Each form followed by its term (empty when preprocessing drops the
    /// form), back to back.
    text: String,
    /// Per form: where it ends in `text`, and where its term ends.
    ends: Vec<(usize, usize)>,
    /// The block's first line that is not UTF-8.
    error: Option<io::Error>,
}

impl Worker {
    /// Tokenize `text` into `doc` (and `prov`, when provenance is kept)
    /// in this worker's local surface ids, tokens included, noting forms
    /// new to this worker in `fresh`. [`CorpusOptions::term`] runs once
    /// per such form; every later occurrence costs one table lookup.
    fn tokenize(
        &mut self,
        options: &CorpusOptions,
        text: &str,
        fresh: &mut Fresh,
        doc: &mut Document,
        prov: Option<&mut DocProvenance>,
    ) {
        let Self {
            ids,
            counts,
            token_buf,
            stem_buf,
            doc: doc_buf,
            prov: prov_buf,
            ..
        } = self;
        let keep_provenance = prov.is_some();
        prov_buf.surface.clear();
        prov_buf.origin.clear();
        doc_buf.fill_from_text(text, token_buf, |surface| {
            let id = match ids.get(surface) {
                Some(&id) => id,
                None => {
                    let id = u32::try_from(counts.len())
                        .expect("more distinct surface forms than u32 ids");
                    fresh.text.push_str(surface);
                    let form_end = fresh.text.len();
                    let term = options.term(surface, stem_buf);
                    fresh.text.push_str(term.unwrap_or_default());
                    fresh.ends.push((form_end, fresh.text.len()));
                    counts.push(term.map(|_| 0));
                    ids.insert(surface.into(), id);
                    id
                }
            };
            if keep_provenance {
                prov_buf.surface.push(id);
            }
            *counts[id as usize].as_mut()? += 1;
            if keep_provenance {
                prov_buf.origin.push(prov_buf.surface.len() as u32 - 1);
            }
            Some(id)
        });
        // Clones are sized to their contents; the buffers keep capacity.
        *doc = doc_buf.clone();
        if let Some(prov) = prov {
            *prov = prov_buf.clone();
        }
    }

    /// Tokenize one document per line of the unit's lines into its
    /// slots, recording in its [`Fresh`] the forms new to this worker and
    /// the block's first line that is not UTF-8.
    fn tokenize_block(&mut self, options: &CorpusOptions, unit: Unit<'_, '_>) {
        let Unit {
            lines,
            docs,
            provs,
            fresh,
        } = unit;
        fresh.start(self);
        let mut docs = docs.iter_mut();
        let mut provs = provs.iter_mut();
        let read = lines.for_each(|line| {
            let doc = docs.next().expect("one document slot per line");
            self.tokenize(options, line, fresh, doc, provs.next());
        });
        fresh.error = read.err();
    }
}

/// One block of lines, the slots its documents (and provenance, when
/// kept) go to, and the record the merge reads.
struct Unit<'a, 'b> {
    lines: Lines<'a>,
    docs: &'b mut [Document],
    provs: &'b mut [DocProvenance],
    fresh: &'b mut Fresh,
}

impl Fresh {
    /// Empty, for a block that `worker` tokenizes next.
    fn start(&mut self, worker: &Worker) {
        self.worker = worker.index;
        self.first = worker.counts.len();
        self.text.clear();
        self.ends.clear();
        self.error = None;
    }
}

/// Rewrite documents tokenized by a worker from its local ids to global
/// ones: term ids in `tokens`, surface ids in provenance.
fn globalize(global: &[(u32, u32)], docs: &mut [Document], provs: &mut [DocProvenance]) {
    for doc in docs {
        for token in &mut doc.tokens {
            *token = global[*token as usize].1;
        }
    }
    for prov in provs {
        for surface in &mut prov.surface {
            *surface = global[*surface as usize].0;
        }
    }
}

/// `items` cut into consecutive slices of the given lengths.
fn split_lengths<T>(mut items: &mut [T], lengths: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    lengths
        .map(|n| {
            let (head, tail) = std::mem::take(&mut items).split_at_mut(n);
            items = tail;
            head
        })
        .collect()
}

impl Default for CorpusBuilder {
    fn default() -> Self {
        Self::new(CorpusOptions::default())
    }
}

impl CorpusBuilder {
    /// A builder on one worker.
    pub fn new(options: CorpusOptions) -> Self {
        Self::with_workers(options, 1)
    }

    /// A builder whose [`CorpusBuilder::add_lines`] runs on `n_workers`
    /// workers (at least one). The corpus does not depend on the count.
    pub(crate) fn with_workers(options: CorpusOptions, n_workers: usize) -> Self {
        Self {
            options,
            vocab: Vocab::new(),
            docs: Vec::new(),
            provenance: Vec::new(),
            n_surfaces: 0,
            workers: (0..n_workers.max(1))
                .map(|index| Worker {
                    index,
                    ..Worker::default()
                })
                .collect(),
            fresh: Vec::new(),
        }
    }

    /// Number of documents added so far.
    pub fn n_docs(&self) -> usize {
        self.docs.len()
    }

    /// Tokenize, stem, filter and append one document: the one-worker,
    /// one-document case of the block pass and merge that
    /// [`crate::io::load_lines`] runs.
    pub fn add_document(&mut self, text: &str) -> &mut Self {
        let mut doc = Document::default();
        let mut prov = DocProvenance::default();
        let keep_provenance = self.options.keep_provenance;
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.resize_with(1, Fresh::default);
        let worker = &mut self.workers[0];
        fresh[0].start(worker);
        worker.tokenize(
            &self.options,
            text,
            &mut fresh[0],
            &mut doc,
            keep_provenance.then_some(&mut prov),
        );
        self.merge(&fresh);
        self.fresh = fresh;
        globalize(
            &self.workers[0].global,
            std::slice::from_mut(&mut doc),
            std::slice::from_mut(&mut prov),
        );
        self.docs.push(doc);
        if keep_provenance {
            self.provenance.push(prov);
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

    /// Add one document per line of `lines`: cut into blocks of whole
    /// lines of about `block_bytes` each, tokenized on the workers
    /// ([`par::for_each`]), merged in file order, and rewritten to global
    /// ids on the workers. Returns the number of lines.
    ///
    /// The first line that is not UTF-8, in file order, fails with its
    /// [`io::ErrorKind::InvalidData`]; the builder is then unusable.
    pub(crate) fn add_lines(&mut self, lines: Lines<'_>, block_bytes: usize) -> io::Result<usize> {
        self.add_blocks(&lines.blocks(block_bytes), |workers, options, units| {
            par::for_each(units.into_iter(), workers, |worker, unit| {
                worker.tokenize_block(options, unit);
            });
        })
    }

    /// [`CorpusBuilder::add_lines`] on blocks already cut, each with its
    /// number of lines, with `run` tokenizing every unit on some worker
    /// (each worker taking its units in block order). Each block's
    /// documents are written straight into their slots of the corpus.
    fn add_blocks(
        &mut self,
        blocks: &[(Lines<'_>, usize)],
        run: impl FnOnce(&mut [Worker], &CorpusOptions, Vec<Unit<'_, '_>>),
    ) -> io::Result<usize> {
        let n_lines = blocks.iter().map(|(_, n)| n).sum::<usize>();
        let keep_provenance = self.options.keep_provenance;
        let doc_lengths = || blocks.iter().map(|&(_, n)| n);
        let prov_lengths = || doc_lengths().map(move |n| if keep_provenance { n } else { 0 });
        let base = self.docs.len();
        self.docs.resize_with(base + n_lines, Document::default);
        let prov_base = self.provenance.len();
        if keep_provenance {
            self.provenance
                .resize_with(prov_base + n_lines, DocProvenance::default);
        }
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.resize_with(blocks.len(), Fresh::default);

        let docs = split_lengths(&mut self.docs[base..], doc_lengths());
        let provs = split_lengths(&mut self.provenance[prov_base..], prov_lengths());
        let units = blocks
            .iter()
            .zip(docs.into_iter().zip(provs))
            .zip(&mut fresh)
            .map(|((&(lines, _), (docs, provs)), fresh)| Unit {
                lines,
                docs,
                provs,
                fresh,
            })
            .collect();
        run(&mut self.workers, &self.options, units);
        if let Some(e) = fresh.iter_mut().find_map(|f| f.error.take()) {
            return Err(e);
        }

        self.merge(&fresh);
        let docs = split_lengths(&mut self.docs[base..], doc_lengths());
        let provs = split_lengths(&mut self.provenance[prov_base..], prov_lengths());
        let workers = &self.workers;
        par::for_each(
            fresh.iter().zip(docs).zip(provs),
            &mut vec![(); workers.len()],
            |_, ((fresh, docs), provs)| globalize(&workers[fresh.worker].global, docs, provs),
        );
        self.fresh = fresh;
        Ok(n_lines)
    }

    /// Give every surface form in `fresh` (blocks in document order) its
    /// global surface id and term id: the ids it already has if another
    /// worker met it in an earlier block, else the next surface id and
    /// [`Vocab::intern`]'s id of its term. This hands out ids in the
    /// first-seen order of one pass over the documents, whichever worker
    /// ran which block.
    fn merge(&mut self, fresh: &[Fresh]) {
        for block in fresh {
            let (before, rest) = self.workers.split_at_mut(block.worker);
            let (worker, after) = rest
                .split_first_mut()
                .expect("a block's worker is one of the builder's");
            // The scheduler hands blocks out in order, so a worker's blocks
            // come up here in the order it ran them.
            debug_assert_eq!(worker.global.len(), block.first);
            let mut start = 0;
            for &(form_end, term_end) in &block.ends {
                let form = &block.text[start..form_end];
                let term = &block.text[form_end..term_end];
                start = term_end;
                let merged = before.iter().chain(&*after).find_map(|other| {
                    let &id = other.ids.get(form)?;
                    other.global.get(id as usize).copied()
                });
                let ids = merged.unwrap_or_else(|| {
                    let surface = u32::try_from(self.n_surfaces)
                        .expect("more distinct surface forms than u32 ids");
                    self.n_surfaces += 1;
                    let term = if term.is_empty() {
                        DROPPED
                    } else {
                        self.vocab.intern(term)
                    };
                    (surface, term)
                });
                worker.global.push(ids);
            }
        }
    }

    /// Finish, producing the immutable [`Corpus`].
    pub fn build(self) -> Corpus {
        // Each form's string moves out of the first worker table holding it.
        let mut surfaces = vec![String::new(); self.n_surfaces];
        let mut counts = vec![0u32; self.n_surfaces];
        let mut terms: Vec<Option<u32>> = vec![None; self.n_surfaces];
        for worker in self.workers {
            for (form, id) in worker.ids {
                let (surface, term) = worker.global[id as usize];
                let slot = &mut surfaces[surface as usize];
                if slot.is_empty() {
                    *slot = form.into_string();
                }
                if let Some(count) = worker.counts[id as usize] {
                    counts[surface as usize] += count;
                    terms[surface as usize] = Some(term);
                }
            }
        }
        let unstem = self.options.stem.then(|| {
            // Most frequent surface form per term wins; ties break to the
            // lexicographically smallest form, for determinism.
            let key = |id: usize| (counts[id], Reverse(&surfaces[id]));
            let mut best: Vec<Option<usize>> = vec![None; self.vocab.len()];
            for (id, term) in terms.iter().enumerate() {
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
pub(crate) mod tests {
    use super::*;

    /// The corpus built from `lines` one document at a time.
    pub(crate) fn one_by_one(options: &CorpusOptions, lines: &[&str]) -> Corpus {
        let mut b = CorpusBuilder::new(options.clone());
        b.add_documents(lines.iter().copied());
        b.build()
    }

    /// Field by field: vocabulary order, `tokens`, `chunk_ends`, the
    /// surface table, each document's surface ids and `origin`, `unstem`.
    pub(crate) fn assert_same_corpus(got: &Corpus, want: &Corpus, what: &str) {
        assert_eq!(got.vocab, want.vocab, "{what}: vocabulary");
        assert_eq!(got.n_docs(), want.n_docs(), "{what}: documents");
        for (d, (g, w)) in got.docs.iter().zip(&want.docs).enumerate() {
            assert_eq!(g.tokens, w.tokens, "{what}: doc {d} tokens");
            assert_eq!(g.chunk_ends, w.chunk_ends, "{what}: doc {d} chunk_ends");
        }
        assert_eq!(got.provenance, want.provenance, "{what}: provenance");
        assert_eq!(got.unstem, want.unstem, "{what}: unstem");
    }

    /// Build `text`, one line per block, on `n_workers` workers that run
    /// `(worker, block)` in the order listed.
    fn build_scheduled(
        text: &[u8],
        n_workers: usize,
        schedule: &[(usize, usize)],
    ) -> io::Result<Corpus> {
        let mut b = CorpusBuilder::with_workers(CorpusOptions::default(), n_workers);
        let blocks = Lines { text, first: 0 }.blocks(1);
        b.add_blocks(&blocks, |workers, options, units| {
            let mut units: Vec<Option<Unit>> = units.into_iter().map(Some).collect();
            for &(w, i) in schedule {
                let unit = units[i].take().expect("each block runs once");
                workers[w].tokenize_block(options, unit);
            }
        })?;
        Ok(b.build())
    }

    #[test]
    fn forms_get_ids_in_file_order_whichever_worker_finished_first() {
        // Worker 1 runs blocks 0 and 2 before worker 0 runs block 1, so
        // worker 1 meets "delta" before "gamma" (block 2) while the file
        // shows "gamma" first (block 1). Merging in completion order, or
        // worker by worker, would swap them.
        let lines = [
            "Alpha beta",
            "gamma delta, the",
            "delta gamma été",
            "été zeta alpha",
        ];
        let text = lines.join("\n") + "\n";
        let want = one_by_one(&CorpusOptions::default(), &lines);
        let words: Vec<&str> = want.vocab.iter().map(|(_, w)| w).collect();
        assert_eq!(words[2..4], ["gamma", "delta"]);
        for schedule in [
            [(1, 0), (1, 2), (0, 1), (0, 3)],
            [(1, 2), (1, 3), (0, 0), (0, 1)],
            [(0, 0), (0, 1), (0, 2), (0, 3)],
        ] {
            let got = build_scheduled(text.as_bytes(), 2, &schedule).unwrap();
            assert_same_corpus(&got, &want, &format!("{schedule:?}"));
        }
    }

    #[test]
    fn the_first_bad_line_in_file_order_fails_whichever_block_ran_first() {
        let text = b"fine\nbad \xff here\nfine\nworse \xc3\n";
        for schedule in [
            [(0, 0), (0, 1), (0, 2), (0, 3)],
            [(1, 2), (1, 3), (0, 0), (0, 1)],
            [(1, 3), (0, 0), (0, 1), (0, 2)],
        ] {
            let err = build_scheduled(text, 2, &schedule).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), "line 2, byte 5: invalid UTF-8");
        }
    }

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
