//! The frozen model: everything fold-in inference over unseen text needs,
//! captured from a fitted run. It is the one in-memory model of serving.
//!
//! A [`FrozenModel`] captures the three layers of a fitted ToPMine run:
//!
//! 1. the **preprocessing contract** — vocabulary, stemming/stop-word
//!    configuration — so unseen text is normalized exactly as the training
//!    corpus was;
//! 2. the **phrase lexicon** — the miner's own [`PhraseStats`], node ids
//!    and all — so unseen documents are segmented by the same Algorithm 2
//!    pass `topmine_phrase` runs in training;
//! 3. the **topic model point estimate** — φ, the asymmetric α vector and
//!    β — frozen for Eq. 7 fold-in.
//!
//! It is the fit's output ([`FrozenModel::freeze`]) and what every bundle
//! loads as: [`FrozenModel::load`] (and [`load_bundle`](crate::load_bundle))
//! reads a bundle of any shard count into one vocabulary, one unstem table,
//! one lexicon and one K × V φ, and keeps the bundle digest and the shard
//! starts as provenance. A fleet router holds the same type without φ,
//! which lives in the shard processes. [`FrozenModel::save`] writes the
//! one-shard bundle; [`ShardedModel`] cuts the model into more shards for
//! saving (see [`crate::sharded`] for the layout).

use crate::backend::{BackendError, ModelBackend};
use crate::io::{check_hyperparameters, data_err};
use crate::sharded::{shard_of, Manifest, ShardedModel};
use std::io;
use std::path::Path;
use std::time::Instant;
use topmine_corpus::{CorpusOptions, Document, StopwordSet, Vocab};
use topmine_lda::PhraseLda;
use topmine_phrase::{ConstructScratch, PhraseConstructor, PhraseStats};

/// The preprocessing contract unseen text is held to (a persistable subset
/// of `topmine_corpus::CorpusOptions` — the provenance switch is a training
/// concern and deliberately absent).
#[derive(Debug, Clone, PartialEq)]
pub struct PreprocessConfig {
    /// Porter-stem every token.
    pub stem: bool,
    /// Drop stop words from the inference stream.
    pub remove_stopwords: bool,
    /// Drop surface tokens shorter than this many characters.
    pub min_token_len: usize,
    /// The stop word list itself (sorted; empty when removal is off), so a
    /// bundle trained with a custom list reproduces it bit-for-bit.
    pub stopwords: Vec<String>,
}

impl PreprocessConfig {
    /// Capture the persistable parts of the training-side options.
    pub fn from_corpus_options(options: &topmine_corpus::CorpusOptions) -> Self {
        Self {
            stem: options.stem,
            remove_stopwords: options.remove_stopwords,
            min_token_len: options.min_token_len,
            stopwords: if options.remove_stopwords {
                options
                    .stopwords
                    .sorted_words()
                    .into_iter()
                    .map(str::to_string)
                    .collect()
            } else {
                Vec::new()
            },
        }
    }

    /// The training-side options this contract restores, provenance off:
    /// their [`CorpusOptions::term`] maps unseen tokens exactly as training
    /// mapped its own.
    pub(crate) fn corpus_options(&self) -> CorpusOptions {
        CorpusOptions {
            stem: self.stem,
            remove_stopwords: self.remove_stopwords,
            keep_provenance: false,
            min_token_len: self.min_token_len,
            stopwords: StopwordSet::from_words(self.stopwords.iter().map(String::as_str)),
        }
    }
}

impl Default for PreprocessConfig {
    /// The paper's preprocessing (mirrors `CorpusOptions::default`).
    fn default() -> Self {
        Self::from_corpus_options(&topmine_corpus::CorpusOptions::default())
    }
}

/// Bundle metadata: format version plus the training-corpus statistics that
/// size every downstream structure.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelHeader {
    pub n_topics: usize,
    pub vocab_size: usize,
    /// Documents in the training corpus.
    pub n_docs: usize,
    /// Tokens in the training corpus (the lexicon's `L`).
    pub n_tokens: u64,
    /// Significance threshold α the segmentation was (and will be) run with.
    pub seg_alpha: f64,
    /// Symmetric topic-word Dirichlet β.
    pub beta: f64,
}

/// A fitted ToPMine model frozen for inference.
#[derive(Debug, Clone)]
pub struct FrozenModel {
    pub header: ModelHeader,
    pub preprocess: PreprocessConfig,
    pub vocab: Vocab,
    /// Display table: most frequent surface form per stem id (empty string
    /// = fall back to the vocab word). Present iff training stemmed.
    pub unstem: Option<Vec<String>>,
    /// Every frequent phrase with its training count, plus every word's.
    pub lexicon: PhraseStats,
    /// Topic-word point estimate, `n_topics × vocab_size`; no rows in a
    /// fleet router's view, whose φ lives in the shard processes.
    pub phi: Vec<Vec<f64>>,
    /// Asymmetric document-topic Dirichlet, length `n_topics`.
    pub alpha: Vec<f64>,
    /// `preprocess` as options, for their term rule (not persisted
    /// separately).
    terms: CorpusOptions,
    /// Provenance: the digest of the bundle the model was loaded from
    /// (`None` if it never was) ...
    digest: Option<u64>,
    /// ... and that bundle's shard starts (`[0]` if it never was).
    shard_starts: Vec<u32>,
}

/// Equality of the model itself; where it was loaded from (digest, shard
/// starts) is not compared.
impl PartialEq for FrozenModel {
    fn eq(&self, other: &Self) -> bool {
        self.header == other.header
            && self.preprocess == other.preprocess
            && self.vocab == other.vocab
            && self.unstem == other.unstem
            && self.lexicon == other.lexicon
            && self.phi == other.phi
            && self.alpha == other.alpha
    }
}

/// A document preprocessed against a frozen vocabulary.
#[derive(Debug, Clone, Default)]
pub struct PreparedDoc {
    /// The inference stream: known-word ids with chunk structure.
    pub doc: Document,
    /// Surface tokens that survived filtering but are outside the frozen
    /// vocabulary (dropped from the stream).
    pub n_oov: usize,
}

impl FrozenModel {
    /// Freeze a fitted model. `stats` and `seg_alpha` are the mining-side
    /// outputs (Algorithm 1 counts and the Algorithm 2 threshold), `model`
    /// the trained sampler, `options` the preprocessing the corpus was
    /// built with.
    pub fn freeze(
        corpus: &topmine_corpus::Corpus,
        stats: &PhraseStats,
        seg_alpha: f64,
        model: &PhraseLda,
        options: &topmine_corpus::CorpusOptions,
    ) -> Self {
        assert_eq!(
            corpus.vocab.len(),
            model.vocab_size(),
            "corpus and sampler disagree on vocabulary size"
        );
        let preprocess = PreprocessConfig::from_corpus_options(options);
        let terms = preprocess.corpus_options();
        Self {
            header: ModelHeader {
                n_topics: model.n_topics(),
                vocab_size: model.vocab_size(),
                n_docs: corpus.n_docs(),
                n_tokens: corpus.n_tokens() as u64,
                seg_alpha,
                beta: model.beta(),
            },
            preprocess,
            vocab: corpus.vocab.clone(),
            unstem: corpus.unstem.clone(),
            lexicon: stats.clone(),
            phi: model.phi(),
            alpha: model.alpha().to_vec(),
            terms,
            digest: None,
            shard_starts: vec![0],
        }
    }

    /// Assemble a model from raw parts (tests, format converters). Shape
    /// invariants are checked.
    pub fn from_parts(
        header: ModelHeader,
        preprocess: PreprocessConfig,
        vocab: Vocab,
        unstem: Option<Vec<String>>,
        lexicon: PhraseStats,
        phi: Vec<Vec<f64>>,
        alpha: Vec<f64>,
    ) -> io::Result<Self> {
        let model = Self {
            terms: preprocess.corpus_options(),
            header,
            preprocess,
            vocab,
            unstem,
            lexicon,
            phi,
            alpha,
            digest: None,
            shard_starts: vec![0],
        };
        model.validate().map_err(data_err)?;
        Ok(model)
    }

    /// Load the bundle at `dir`, whatever its shard count, as one model:
    /// every `shard-K/` directory's vocabulary, unstem table, lexicon and φ
    /// columns read into place. The manifest's format line is checked
    /// first, then its digest, then each file against the digest the
    /// manifest recorded; every failure (missing or modified file, bad
    /// number, shape mismatch, a word listed twice) is an `io::Error`
    /// naming the file.
    pub fn load(dir: &Path) -> io::Result<Self> {
        Self::read(dir, true)
    }

    /// Load everything *except* φ: a fleet router's view, whose φ stays in
    /// the shard processes that own it.
    pub(crate) fn load_without_phi(dir: &Path) -> io::Result<Self> {
        Self::read(dir, false)
    }

    fn read(dir: &Path, with_phi: bool) -> io::Result<Self> {
        let Manifest {
            header,
            mut fields,
            boundaries,
        } = Manifest::read(dir)?;
        fields.preprocess.stopwords = header.read_stopwords()?;
        let rel = |i: usize, file: &str| format!("shard-{i}/{file}");
        let shards: Vec<(u32, u32)> = boundaries.windows(2).map(|w| (w[0], w[1])).collect();
        let mut words = Vec::new();
        for (i, &(lo, hi)) in shards.iter().enumerate() {
            header.read_vocab(&rel(i, "vocab.tsv"), lo, (hi - lo) as usize, |word| {
                words.push(word.to_string());
                Ok(())
            })?;
        }
        let vocab = Vocab::from_words(words).map_err(|(first, again)| {
            let file = rel(shard_of(&boundaries, again), "vocab.tsv");
            data_err(format!(
                "{file}: a word is listed twice, at ids {first} and {again}"
            ))
        })?;
        // The vocabulary files have vouched for `vocab_size`: the tables
        // below are sized by it.
        let v = vocab.len();
        let stemmed = header.lists(&rel(0, "unstem.tsv"));
        let mut unstem = stemmed.then(|| vec![String::new(); v]);
        let mut lexicon = PhraseStats::new(vec![0; v], 0, fields.min_support);
        for (i, &(lo, hi)) in shards.iter().enumerate() {
            let file = rel(i, "unstem.tsv");
            if header.lists(&file) != stemmed {
                let msg = format!("{file}: shard-0 and shard-{i} disagree on an unstem table");
                return Err(data_err(msg));
            }
            if let Some(table) = &mut unstem {
                header.read_unstem(&file, lo, &mut table[lo as usize..hi as usize])?;
            }
            let file = rel(i, "lexicon.tsv");
            let total = header.read_lexicon(&file, lo..hi, &mut lexicon)?;
            if i == 0 {
                lexicon.total_tokens = total;
            } else if total != lexicon.total_tokens {
                return Err(data_err(format!(
                    "{file}: total_tokens {total} disagrees with shard-0's {}",
                    lexicon.total_tokens
                )));
            }
        }
        let mut phi = Vec::new();
        if with_phi {
            // Each row is allocated once, at its full width when the φ
            // files on disk hold K × V values (a file too short for its
            // shard fails its read), so no shard's columns move again.
            let k = fields.header.n_topics;
            let files: Vec<String> = (0..shards.len()).map(|i| rel(i, "phi.bin")).collect();
            let on_disk: u64 = files.iter().map(|file| header.file_len(file)).sum();
            let width = usize::try_from(on_disk / 8 / k as u64).map_or(v, |w| w.min(v));
            phi = (0..k).map(|_| Vec::with_capacity(width)).collect();
            for (file, &(lo, hi)) in files.iter().zip(&shards) {
                header.read_phi(file, &mut phi, k, (hi - lo) as usize)?;
            }
        }
        let mut shard_starts = boundaries;
        shard_starts.pop();
        // Every table was sized by the files' own shapes and checked as it
        // was read, so the model needs no further validation.
        Ok(Self {
            terms: fields.preprocess.corpus_options(),
            header: fields.header,
            preprocess: fields.preprocess,
            vocab,
            unstem,
            lexicon,
            phi,
            alpha: fields.alpha,
            digest: Some(header.digest()),
            shard_starts,
        })
    }

    /// Structural invariants every assembled model satisfies.
    pub fn validate(&self) -> Result<(), String> {
        self.check_shapes()?;
        check_hyperparameters(&self.header, &self.alpha)
    }

    /// The shapes [`validate`](Self::validate) checks, without the
    /// hyperparameters' values: what a save needs to write every file.
    pub(crate) fn check_shapes(&self) -> Result<(), String> {
        let h = &self.header;
        if self.vocab.len() != h.vocab_size {
            return Err(format!(
                "vocab has {} words, header says {}",
                self.vocab.len(),
                h.vocab_size
            ));
        }
        if self.phi.len() != h.n_topics {
            return Err(format!(
                "phi has {} rows, header says {} topics",
                self.phi.len(),
                h.n_topics
            ));
        }
        if let Some(row) = self.phi.iter().find(|r| r.len() != h.vocab_size) {
            return Err(format!(
                "phi row has {} columns, header says vocab_size {}",
                row.len(),
                h.vocab_size
            ));
        }
        if self.alpha.len() != h.n_topics {
            return Err(format!(
                "alpha has {} entries, header says {} topics",
                self.alpha.len(),
                h.n_topics
            ));
        }
        if self.lexicon.vocab_size() != h.vocab_size {
            return Err(format!(
                "lexicon covers {} words, header says vocab_size {}",
                self.lexicon.vocab_size(),
                h.vocab_size
            ));
        }
        if let Some(u) = &self.unstem {
            if u.len() != h.vocab_size {
                return Err("unstem table length mismatch".into());
            }
        }
        Ok(())
    }

    pub fn n_topics(&self) -> usize {
        self.header.n_topics
    }

    pub fn vocab_size(&self) -> usize {
        self.header.vocab_size
    }

    /// Digest of the bundle this model was loaded from: the value on the
    /// last line of its `manifest.tsv`, which covers every byte of the
    /// model and is what the fleet handshake compares. `None` for a model
    /// that was never loaded from disk.
    pub fn bundle_digest(&self) -> Option<u64> {
        self.digest
    }

    /// The first word id of each shard of the bundle this model was loaded
    /// from, ascending from 0; `[0]` for a model never loaded from disk.
    pub fn shard_starts(&self) -> &[u32] {
        &self.shard_starts
    }

    /// Preferred display string for one word id (unstemmed when possible).
    pub fn display_word(&self, id: u32) -> &str {
        match &self.unstem {
            Some(table) if !table[id as usize].is_empty() => &table[id as usize],
            _ => self.vocab.word(id),
        }
    }

    /// Render a phrase of word ids for display.
    pub fn display_phrase(&self, ids: &[u32]) -> String {
        let mut s = String::new();
        for (i, &id) in ids.iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(self.display_word(id));
        }
        s
    }

    /// Normalize unseen text exactly as training preprocessing did:
    /// tokenize into chunks, filter by length and stop words, stem, then
    /// map through the *frozen* vocabulary. Out-of-vocabulary terms are
    /// dropped (and counted) — fold-in has no estimate for them.
    /// Tokenizing, chunking and the term rule are the training builder's
    /// own ([`Document::fill_from_text`], [`CorpusOptions::term`]).
    pub fn prepare(&self, text: &str) -> PreparedDoc {
        let mut doc = Document::default();
        let mut n_oov = 0usize;
        let mut stem_buf = Vec::new();
        doc.fill_from_text(text, &mut String::new(), |surface| {
            let id = self.vocab.id(self.terms.term(surface, &mut stem_buf)?);
            n_oov += usize::from(id.is_none());
            id
        });
        PreparedDoc { doc, n_oov }
    }

    /// Segment a prepared document against the frozen lexicon (Algorithm 2
    /// with the trained counts and threshold).
    pub fn segment(&self, doc: &Document) -> Vec<(u32, u32)> {
        self.segment_with(doc, &mut ConstructScratch::default())
    }

    /// [`segment`](Self::segment) on caller-held scratch, which a batch
    /// reuses from one document to the next.
    pub(crate) fn segment_with(
        &self,
        doc: &Document,
        scratch: &mut ConstructScratch,
    ) -> Vec<(u32, u32)> {
        PhraseConstructor::new(self.header.seg_alpha).construct_doc_with(
            doc,
            &self.lexicon,
            scratch,
        )
    }

    /// Write the model into `dir` as a one-shard bundle:
    /// `ShardedModel::from_frozen(self, 1)?.save(dir)`.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        ShardedModel::from_frozen(self, 1)?.save(dir)
    }
}

/// Copy `φ[·][c]` for each column `c` of `columns` out of the topic-major
/// rows `phi`, word-major: the K values of the j-th column land at
/// `j · K .. (j + 1) · K`. The in-memory model and a shard process gather
/// through here.
pub(crate) fn gather_word_major(
    phi: &[Vec<f64>],
    columns: impl ExactSizeIterator<Item = usize>,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(phi.len() * columns.len());
    for c in columns {
        out.extend(phi.iter().map(|row| row[c]));
    }
    out
}

/// The model in this process: every part of the contract is local, and the
/// φ gather copies the trained columns, which is bit-exact by construction.
impl ModelBackend for FrozenModel {
    fn local(&self) -> &FrozenModel {
        self
    }

    fn try_gather_phi_batch(
        &self,
        words: &[u32],
        _deadline: Option<Instant>,
    ) -> Result<Vec<f64>, BackendError> {
        Ok(gather_word_major(
            &self.phi,
            words.iter().map(|&w| w as usize),
        ))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::SHARDED_MODEL_FORMAT;
    use topmine_corpus::{corpus_from_texts, CorpusOptions};
    use topmine_lda::{GroupedDocs, TopicModelConfig};
    use topmine_phrase::Segmenter;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("topmine-frozen-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Fit a tiny but real model: mine + segment + a few Gibbs sweeps.
    pub(crate) fn tiny_model() -> FrozenModel {
        let texts: Vec<String> = (0..30)
            .flat_map(|i| {
                [
                    format!("mining frequent patterns in data streams {i}"),
                    format!("support vector machines for classification task {i}"),
                ]
            })
            .collect();
        let corpus = corpus_from_texts(texts.iter().map(String::as_str));
        let (stats, seg) = Segmenter::with_params(5, 2.0).segment(&corpus);
        let grouped = GroupedDocs::from_segmentation(&corpus, &seg);
        let mut model = topmine_lda::PhraseLda::new(grouped, TopicModelConfig::new(2).with_seed(9));
        model.run(30);
        FrozenModel::freeze(&corpus, &stats, 2.0, &model, &CorpusOptions::default())
    }

    #[test]
    fn freeze_captures_shapes() {
        let m = tiny_model();
        m.validate().unwrap();
        assert_eq!(m.n_topics(), 2);
        assert_eq!(m.phi.len(), 2);
        assert_eq!(m.phi[0].len(), m.vocab_size());
        assert!(m.lexicon.n_phrases() > 0);
        assert!(m.unstem.is_some());
        assert!(!m.preprocess.stopwords.is_empty());
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        // The save is the one-shard bundle: it loads back as the model,
        // with the bundle's digest as provenance.
        let dir = tmpdir("roundtrip");
        let m = tiny_model();
        m.save(&dir).unwrap();
        let loaded = FrozenModel::load(&dir).unwrap();
        assert_eq!(loaded, m);
        assert_eq!(loaded.shard_starts(), [0]);
        assert!(loaded.bundle_digest().is_some());
        assert_eq!(m.bundle_digest(), None);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn version_mismatch_is_a_clean_error() {
        let dir = tmpdir("version");
        let m = tiny_model();
        m.save(&dir).unwrap();
        // Another format tag on the manifest is refused naming both.
        let manifest = dir.join("manifest.tsv");
        let body = std::fs::read_to_string(&manifest).unwrap();
        let retired = body.replace(SHARDED_MODEL_FORMAT, "topmine-frozen-model/2");
        std::fs::write(&manifest, &retired).unwrap();
        let err = FrozenModel::load(&dir).unwrap_err().to_string();
        assert!(err.contains("topmine-frozen-model/2"), "{err}");
        assert!(err.contains(SHARDED_MODEL_FORMAT), "{err}");
        // A directory without a manifest (a bundle in the retired
        // `header.tsv` layout) is refused naming the manifest.
        std::fs::rename(&manifest, dir.join("header.tsv")).unwrap();
        let err = FrozenModel::load(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().starts_with("manifest.tsv: "), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_bundles_error_instead_of_panicking() {
        let dir = tmpdir("corrupt");
        let m = tiny_model();
        m.save(&dir).unwrap();
        let shard = dir.join("shard-0");
        std::fs::write(shard.join("lexicon.tsv"), "total_tokens\t10\n5\t1 x\n").unwrap();
        let err = FrozenModel::load(&dir).unwrap_err().to_string();
        assert!(err.contains("shard-0/lexicon.tsv line 2"), "{err}");
        // φ: a header that is not φ, then one well-formed value changed to
        // another (only the digest can tell).
        m.save(&dir).unwrap();
        std::fs::write(shard.join("phi.bin"), "topic\tw0\n0\tnope\n").unwrap();
        let err = FrozenModel::load(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shard-0/phi.bin"), "{err}");
        m.save(&dir).unwrap();
        let mut phi = std::fs::read(shard.join("phi.bin")).unwrap();
        let last = phi.len() - 1;
        phi[last] ^= 1;
        std::fs::write(shard.join("phi.bin"), phi).unwrap();
        let err = FrozenModel::load(&dir).unwrap_err().to_string();
        assert!(err.contains("shard-0/phi.bin: content digest"), "{err}");
        m.save(&dir).unwrap();
        std::fs::remove_file(shard.join("vocab.tsv")).unwrap();
        let err = FrozenModel::load(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shard-0/vocab.tsv"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn overwriting_a_bundle_drops_stale_optional_files() {
        let dir = tmpdir("overwrite");
        // First bundle: stemmed + stopwords → writes both optional files.
        tiny_model().save(&dir).unwrap();
        assert!(dir.join("shard-0/unstem.tsv").exists());
        assert!(dir.join("stopwords.txt").exists());
        // Second bundle into the same directory: raw preprocessing, so the
        // optional files must disappear, and the reload must reflect it.
        let texts: Vec<String> = (0..20).map(|i| format!("alpha beta gamma {i}")).collect();
        let mut builder = topmine_corpus::CorpusBuilder::new(CorpusOptions::raw());
        builder.add_documents(texts.iter().map(String::as_str));
        let corpus = builder.build();
        let (stats, seg) = Segmenter::with_params(3, 2.0).segment(&corpus);
        let grouped = GroupedDocs::from_segmentation(&corpus, &seg);
        let mut model = topmine_lda::PhraseLda::new(grouped, TopicModelConfig::new(2).with_seed(1));
        model.run(5);
        let raw = FrozenModel::freeze(&corpus, &stats, 2.0, &model, &CorpusOptions::raw());
        raw.save(&dir).unwrap();
        assert!(!dir.join("shard-0/unstem.tsv").exists());
        assert!(!dir.join("stopwords.txt").exists());
        let loaded = FrozenModel::load(&dir).unwrap();
        assert_eq!(loaded, raw);
        assert!(loaded.preprocess.stopwords.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn prepare_applies_frozen_preprocessing() {
        let m = tiny_model();
        let prepared = m.prepare("The support vector machines, for the data streams!");
        // Stop words removed, stems mapped through the frozen vocab; the
        // comma opens a new chunk.
        let words: Vec<&str> = prepared
            .doc
            .tokens
            .iter()
            .map(|&t| m.vocab.word(t))
            .collect();
        assert_eq!(words, vec!["support", "vector", "machin", "data", "stream"]);
        assert_eq!(prepared.doc.n_chunks(), 2);
        assert_eq!(prepared.n_oov, 0);
        // Unknown words are dropped and counted.
        let prepared = m.prepare("support quux vector");
        assert_eq!(prepared.n_oov, 1);
        assert_eq!(prepared.doc.n_tokens(), 2);
    }

    #[test]
    fn segment_finds_trained_phrases_in_unseen_text() {
        let m = tiny_model();
        let prepared = m.prepare("a study of support vector machines in practice");
        let spans = m.segment(&prepared.doc);
        // The trained collocation "support vector machin" segments as one
        // multi-word phrase.
        let svm: Vec<u32> = ["support", "vector", "machin"]
            .iter()
            .map(|w| m.vocab.id(w).unwrap())
            .collect();
        let found = spans
            .iter()
            .any(|&(s, e)| prepared.doc.tokens[s as usize..e as usize] == svm[..]);
        assert!(found, "spans: {spans:?}");
    }

    #[test]
    fn empty_text_prepares_to_empty_doc() {
        let m = tiny_model();
        let prepared = m.prepare("");
        assert!(prepared.doc.is_empty());
        assert!(m.segment(&prepared.doc).is_empty());
    }
}
