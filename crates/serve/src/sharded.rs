//! The sharded frozen model, and the one on-disk bundle layout: N
//! vocabulary-range shards composing one logical
//! [`FrozenModel`](crate::FrozenModel)-equivalent backend.
//!
//! The partitioning follows the parameter-server cut used by distributed
//! topic-model servers (LightLDA's vocabulary-sliced workers): the word-id
//! space `[0, V)` is split into `N` contiguous ranges, and shard `i` owns
//!
//! * the **vocabulary slice** for its range (word strings and the unstem
//!   display table), so term→id resolution scatters across shards;
//! * the **lexicon slice** on disk: every stored phrase whose *first* word
//!   falls in the range, in its `lexicon.tsv`;
//! * the **φ slice**: the `n_topics × range_width` block of trained
//!   topic-word columns.
//!
//! In memory the model holds one lexicon ([`PhraseStats`]), read from
//! every shard's `lexicon.tsv` and written back per shard in the same
//! lexicographic order, so segmentation walks the same node ids whatever
//! the shard count. Fold-in gathers each word's φ column from exactly one
//! shard: inference through a [`ShardedModel`] is **bit-identical** to the
//! in-memory [`FrozenModel`](crate::FrozenModel) at every shard count (the
//! proptest in `tests/sharded_equivalence.rs` is the acceptance bar).
//!
//! # On-disk layout
//!
//! ```text
//! bundle/
//!   manifest.tsv        versioned header: shapes, α, ε, shard ranges
//!   stopwords.txt       (present iff the contract removes stop words)
//!   shard-0/
//!     vocab.tsv         global id<TAB>word, dense over the shard range
//!     unstem.tsv        global id<TAB>surface (present iff training stemmed)
//!     lexicon.tsv       total_tokens line + count<TAB>ids (first word in range)
//!     phi.bin           n_topics × range_width little-endian f64 block
//!   shard-1/ …
//! ```
//!
//! Every bundle has this layout, [`SHARDED_MODEL_FORMAT`]: a default save
//! ([`FrozenModel::save`](crate::FrozenModel::save)) is the one-shard
//! case, written by the same private writer as [`ShardedModel::save`].
//! `manifest.tsv` is the versioned, self-digesting bundle header (the file
//! formats live in the crate's `io` module): it lists the digest of every
//! file above, so its own digest covers the whole model. Re-saving into a
//! directory removes stale `shard-K/` directories beyond the new count, so
//! a bundle directory holds exactly one model.

use crate::backend::ModelBackend;
use crate::frozen::{prepare_with, FrozenModel, ModelHeader, PreparedDoc, PreprocessConfig};
use crate::infer::{infer_doc, DocInference, InferConfig};
use crate::io::{
    check_hyperparameters, data_err, header_pairs, BundleWriter, Header, HeaderFields,
};
use std::io;
use std::path::Path;
use topmine_corpus::{CorpusOptions, Document};
use topmine_phrase::{PhraseConstructor, PhraseStats};
use topmine_util::FxHashMap;

/// Version tag on the first line of `manifest.tsv`.
pub const SHARDED_MODEL_FORMAT: &str = "topmine-sharded-model/2";

/// One vocabulary-range shard: the slice of the model owned by word ids
/// `[lo, hi)`.
#[derive(Debug, Clone)]
pub struct ModelShard {
    /// First owned word id.
    pub lo: u32,
    /// One past the last owned word id.
    pub hi: u32,
    /// Word strings, local index = global id − `lo`.
    pub(crate) words: Vec<String>,
    /// term → global id, the scatter target of vocabulary resolution.
    pub(crate) term_ids: FxHashMap<String, u32>,
    /// Display table slice (empty string = fall back to `words`); present
    /// iff training stemmed.
    pub(crate) unstem: Option<Vec<String>>,
    /// φ block, `n_topics` rows × `hi − lo` columns (empty in a router's
    /// phi-less local view — see [`ShardedModel::load_without_phi`]).
    pub(crate) phi: Vec<Vec<f64>>,
}

impl ModelShard {
    pub fn width(&self) -> usize {
        (self.hi - self.lo) as usize
    }
}

/// Structural equality over the persisted content (the derived `term_ids`
/// index is a function of `words` and deliberately not compared).
impl PartialEq for ModelShard {
    fn eq(&self, other: &Self) -> bool {
        self.lo == other.lo
            && self.hi == other.hi
            && self.words == other.words
            && self.unstem == other.unstem
            && self.phi == other.phi
    }
}

/// A fitted model partitioned into vocabulary-range shards.
#[derive(Debug, Clone)]
pub struct ShardedModel {
    pub header: ModelHeader,
    pub preprocess: PreprocessConfig,
    alpha: Vec<f64>,
    /// `preprocess` as options, for their term rule (not persisted
    /// separately).
    terms: CorpusOptions,
    /// The phrase lexicon of every shard, one node space.
    pub lexicon: PhraseStats,
    /// Range starts, length `n_shards + 1`; `boundaries[0] == 0`, last
    /// entry == `vocab_size`. Shard `i` owns `[boundaries[i],
    /// boundaries[i+1])`.
    boundaries: Vec<u32>,
    shards: Vec<ModelShard>,
    /// Digest of the bundle this model was loaded from (`None` if it was
    /// never loaded from disk); not part of equality.
    digest: Option<u64>,
}

impl PartialEq for ShardedModel {
    fn eq(&self, other: &Self) -> bool {
        self.header == other.header
            && self.preprocess == other.preprocess
            && self.alpha == other.alpha
            && self.lexicon == other.lexicon
            && self.boundaries == other.boundaries
            && self.shards == other.shards
    }
}

fn term_index(words: &[String], lo: u32) -> FxHashMap<String, u32> {
    words
        .iter()
        .enumerate()
        .map(|(i, w)| (w.clone(), lo + i as u32))
        .collect()
}

impl ShardedModel {
    /// Partition an in-memory frozen model into `n_shards` contiguous
    /// vocabulary ranges (near-equal widths; shards may be empty when
    /// `n_shards > vocab_size`). The composition serves bit-identically to
    /// the source model.
    pub fn from_frozen(model: &FrozenModel, n_shards: usize) -> io::Result<Self> {
        if n_shards == 0 {
            return Err(data_err("shard count must be at least 1"));
        }
        let v = model.vocab_size();
        let k = model.n_topics();
        let boundaries: Vec<u32> = (0..=n_shards).map(|i| (i * v / n_shards) as u32).collect();
        let shards: Vec<ModelShard> = boundaries
            .windows(2)
            .map(|w| {
                let (lo, hi) = (w[0], w[1]);
                let words: Vec<String> = (lo..hi)
                    .map(|id| model.vocab.word(id).to_string())
                    .collect();
                ModelShard {
                    lo,
                    hi,
                    term_ids: term_index(&words, lo),
                    words,
                    unstem: model
                        .unstem
                        .as_ref()
                        .map(|u| u[lo as usize..hi as usize].to_vec()),
                    phi: model
                        .phi
                        .iter()
                        .map(|row| row[lo as usize..hi as usize].to_vec())
                        .collect(),
                }
            })
            .collect();
        debug_assert!(shards.iter().all(|s| s.phi.len() == k));
        let sharded = Self {
            header: model.header.clone(),
            preprocess: model.preprocess.clone(),
            alpha: model.alpha.clone(),
            terms: model.preprocess.corpus_options(),
            lexicon: model.lexicon.clone(),
            boundaries,
            shards,
            digest: None,
        };
        sharded.validate().map_err(data_err)?;
        Ok(sharded)
    }

    /// The shard owning word id `w`. Panics on out-of-range ids (callers
    /// hold ids produced by [`ShardedModel::prepare`], which are always in
    /// range).
    fn shard_of(&self, w: u32) -> &ModelShard {
        &self.shards[self.owner_index(w)]
    }

    /// Index of the shard owning word id `w` (the router groups a batch
    /// gather into one frame per owner).
    pub(crate) fn owner_index(&self, w: u32) -> usize {
        self.boundaries.partition_point(|&b| b <= w) - 1
    }

    /// Range starts plus the trailing `vocab_size`, length `n_shards + 1`.
    pub(crate) fn boundaries(&self) -> &[u32] {
        &self.boundaries
    }

    /// Resolve a normalized term to its global word id — the scatter side
    /// of vocabulary lookup: each shard only knows its own slice, so the
    /// query fans out and the unique hit (ids are disjoint) is gathered.
    fn term_id(&self, term: &str) -> Option<u32> {
        self.shards
            .iter()
            .find_map(|s| s.term_ids.get(term).copied())
    }

    pub fn n_topics(&self) -> usize {
        self.header.n_topics
    }

    pub fn vocab_size(&self) -> usize {
        self.header.vocab_size
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn shards(&self) -> &[ModelShard] {
        &self.shards
    }

    /// Phrases with a count in the lexicon, over every shard.
    pub fn n_phrases(&self) -> usize {
        self.lexicon.n_phrases()
    }

    /// Structural invariants every loaded/assembled sharded model
    /// satisfies.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_with(true)
    }

    /// Like [`ShardedModel::validate`], but `with_phi = false` accepts the
    /// router's phi-less local view (φ lives in remote shard processes;
    /// every shard's block must then be absent, not merely misshapen).
    pub(crate) fn validate_with(&self, with_phi: bool) -> Result<(), String> {
        let h = &self.header;
        let k = h.n_topics;
        if self.shards.is_empty() {
            return Err("sharded model has no shards".into());
        }
        if self.boundaries.len() != self.shards.len() + 1 {
            return Err("boundary vector does not match shard count".into());
        }
        if self.boundaries[0] != 0 || *self.boundaries.last().unwrap() as usize != h.vocab_size {
            return Err(format!(
                "shard ranges must cover [0, {}), got {:?}",
                h.vocab_size, self.boundaries
            ));
        }
        if self.boundaries.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!(
                "shard ranges must be ascending: {:?}",
                self.boundaries
            ));
        }
        for (i, s) in self.shards.iter().enumerate() {
            if (s.lo, s.hi) != (self.boundaries[i], self.boundaries[i + 1]) {
                return Err(format!("shard {i} range disagrees with the manifest"));
            }
            if s.words.len() != s.width() {
                return Err(format!(
                    "shard {i} has {} words for a range of width {}",
                    s.words.len(),
                    s.width()
                ));
            }
            if with_phi {
                if s.phi.len() != k || s.phi.iter().any(|row| row.len() != s.width()) {
                    return Err(format!(
                        "shard {i} φ block is not {k} × {} as the manifest requires",
                        s.width()
                    ));
                }
            } else if !s.phi.is_empty() {
                return Err(format!("shard {i} carries φ in a phi-less view"));
            }
            if let Some(u) = &s.unstem {
                if u.len() != s.width() {
                    return Err(format!("shard {i} unstem table length mismatch"));
                }
            }
            if s.unstem.is_some() != self.shards[0].unstem.is_some() {
                return Err("shards disagree on unstem table presence".into());
            }
        }
        if self.lexicon.vocab_size() != h.vocab_size {
            return Err(format!(
                "lexicon covers {} words, header says vocab_size {}",
                self.lexicon.vocab_size(),
                h.vocab_size
            ));
        }
        if self.alpha.len() != k {
            return Err(format!(
                "alpha has {} entries, header says {k} topics",
                self.alpha.len()
            ));
        }
        check_hyperparameters(h, &self.alpha)
    }

    /// Infer topics for one unseen document with the configured seed.
    pub fn infer(&self, text: &str, config: &InferConfig) -> DocInference {
        infer_doc(self, text, config, config.seed)
    }

    /// Infer with an explicit seed (batch entry points pass
    /// [`InferConfig::seed_for_index`]).
    pub fn infer_seeded(&self, text: &str, config: &InferConfig, seed: u64) -> DocInference {
        infer_doc(self, text, config, seed)
    }

    // ----- persistence ------------------------------------------------------

    /// Write the bundle into `dir` (created if needed), one `shard-K/`
    /// directory per shard, with `manifest.tsv` last as the commit point.
    /// Stale `shard-K/` directories beyond the new shard count are
    /// removed, so re-saving with a different count leaves exactly this
    /// model on disk.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        let fields = HeaderFields {
            header: self.header.clone(),
            preprocess: self.preprocess.clone(),
            min_support: self.lexicon.min_support,
            alpha: self.alpha.clone(),
        };
        let shards = self.shards.iter().map(|s| ShardFiles {
            lo: s.lo,
            words: s.words.iter().map(String::as_str),
            unstem: s.unstem.as_deref(),
            lexicon: &self.lexicon,
            phi: &s.phi,
            width: s.width(),
        });
        save_bundle(dir, &fields, shards)
    }

    /// Load a bundle written by [`ShardedModel::save`]. The manifest's
    /// format line is checked first, then its digest, then each file
    /// against the digest the manifest recorded; every failure (missing or
    /// modified file, bad number, shape mismatch) is an `io::Error` naming
    /// the file.
    pub fn load(dir: &Path) -> io::Result<Self> {
        Self::load_with(dir, true)
    }

    /// Load everything *except* φ — the router's local view. Vocabulary,
    /// lexicons, and display tables are small; φ is the bulk of the bundle
    /// and stays in the shard processes that own it.
    pub(crate) fn load_without_phi(dir: &Path) -> io::Result<Self> {
        Self::load_with(dir, false)
    }

    fn load_with(dir: &Path, load_phi: bool) -> io::Result<Self> {
        let Manifest {
            header,
            mut fields,
            boundaries,
        } = Manifest::read(dir)?;
        fields.preprocess.stopwords = header.read_stopwords()?;
        let k = fields.header.n_topics;
        let rel = |i: usize, file: &str| format!("shard-{i}/{file}");
        let mut shards = Vec::with_capacity(boundaries.len() - 1);
        for (i, w) in boundaries.windows(2).enumerate() {
            let (lo, hi) = (w[0], w[1]);
            let width = (hi - lo) as usize;
            let mut words = Vec::new();
            header.read_vocab(&rel(i, "vocab.tsv"), lo, width, |word| {
                words.push(word.to_string());
                Ok(())
            })?;
            let term_ids = term_index(&words, lo);
            // A word listed twice keeps one id, so the index comes out short.
            if term_ids.len() != words.len() {
                let msg = format!("{}: a word is listed twice", rel(i, "vocab.tsv"));
                return Err(data_err(msg));
            }
            shards.push(ModelShard {
                lo,
                hi,
                term_ids,
                words,
                unstem: header.read_unstem(&rel(i, "unstem.tsv"), lo, width)?,
                phi: match load_phi {
                    true => header.read_phi(&rel(i, "phi.bin"), k, width)?,
                    false => Vec::new(),
                },
            });
        }
        // One lexicon from every shard's file, sized once the vocabulary
        // files have vouched for `vocab_size`.
        let mut lexicon =
            PhraseStats::new(vec![0; fields.header.vocab_size], 0, fields.min_support);
        for (i, s) in shards.iter().enumerate() {
            let file = rel(i, "lexicon.tsv");
            let total = header.read_lexicon(&file, s.lo..s.hi, &mut lexicon)?;
            if i == 0 {
                lexicon.total_tokens = total;
            } else if total != lexicon.total_tokens {
                return Err(data_err(format!(
                    "{file}: total_tokens {total} disagrees with shard-0's {}",
                    lexicon.total_tokens
                )));
            }
        }
        let model = Self {
            terms: fields.preprocess.corpus_options(),
            header: fields.header,
            preprocess: fields.preprocess,
            alpha: fields.alpha,
            lexicon,
            boundaries,
            shards,
            digest: Some(header.digest()),
        };
        model.validate_with(load_phi).map_err(data_err)?;
        Ok(model)
    }
}

/// What one `shard-K/` directory holds, borrowed from the model being
/// saved: each shard of a [`ShardedModel`], or a whole
/// [`FrozenModel`] as the one shard.
pub(crate) struct ShardFiles<'a, W> {
    /// First owned word id.
    pub(crate) lo: u32,
    /// The words of ids `lo..`, in id order.
    pub(crate) words: W,
    pub(crate) unstem: Option<&'a [String]>,
    /// The whole lexicon; the shard's file lists the phrases whose first
    /// word it owns.
    pub(crate) lexicon: &'a PhraseStats,
    /// `n_topics` rows of `width` values.
    pub(crate) phi: &'a [Vec<f64>],
    pub(crate) width: usize,
}

/// Write a bundle of `shards` into `dir` (created if needed):
/// `stopwords.txt`, each `shard-K/` directory recreated from scratch, then
/// `manifest.tsv` as the commit point, recording every file's digest. Only
/// cleanup follows the commit: `shard-K/` directories beyond the new count,
/// which a loader never reads, are removed.
pub(crate) fn save_bundle<'a, W: Iterator<Item = &'a str>>(
    dir: &Path,
    fields: &HeaderFields,
    shards: impl Iterator<Item = ShardFiles<'a, W>>,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut out = BundleWriter::new(dir);
    if fields.preprocess.stopwords.is_empty() {
        remove_if_present(&dir.join("stopwords.txt"))?;
    } else {
        out.stopwords("stopwords.txt", &fields.preprocess.stopwords)?;
    }
    let mut starts = Vec::new();
    for (i, shard) in shards.enumerate() {
        let shard_dir = dir.join(format!("shard-{i}"));
        // Recreated, so no stale file inside the shard directory survives.
        if shard_dir.exists() {
            std::fs::remove_dir_all(&shard_dir)?;
        }
        std::fs::create_dir_all(&shard_dir)?;
        let rel = |file: &str| format!("shard-{i}/{file}");
        out.vocab(&rel("vocab.tsv"), shard.lo, shard.words)?;
        if let Some(unstem) = shard.unstem {
            out.unstem(&rel("unstem.tsv"), shard.lo, unstem)?;
        }
        let owned = shard.lo..shard.lo + shard.width as u32;
        out.lexicon(&rel("lexicon.tsv"), shard.lexicon, owned)?;
        out.phi(&rel("phi.bin"), shard.phi, shard.width)?;
        starts.push(shard.lo);
    }
    // The shared bundle header plus the shard topology.
    let mut pairs = vec![("n_shards".to_string(), starts.len().to_string())];
    pairs.extend(header_pairs(fields));
    for (i, lo) in starts.iter().enumerate() {
        pairs.push((format!("shard{i}_start"), lo.to_string()));
    }
    out.commit("manifest.tsv", SHARDED_MODEL_FORMAT, &pairs)?;
    remove_stale_shards(dir, starts.len())
}

fn remove_if_present(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Remove `shard-K/` directories with `K >= keep`: stale remnants of a
/// bundle saved with more shards.
fn remove_stale_shards(dir: &Path, keep: usize) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(index) = name
            .to_str()
            .and_then(|n| n.strip_prefix("shard-"))
            .and_then(|k| k.parse::<usize>().ok())
        else {
            continue;
        };
        if index >= keep && entry.file_type()?.is_dir() {
            std::fs::remove_dir_all(entry.path())?;
        }
    }
    Ok(())
}

/// A verified `manifest.tsv`, parsed: the shared header fields plus the
/// shard topology. `pub(crate)` because a shard process
/// ([`crate::shard::ShardSlice`]) reads the manifest for topology and the
/// digest without assembling a model.
pub(crate) struct Manifest {
    /// The verified header, for reading the files it lists.
    pub(crate) header: Header,
    pub(crate) fields: HeaderFields,
    /// Range starts plus the trailing `vocab_size`, length `n_shards + 1`,
    /// starting at 0 and ascending.
    pub(crate) boundaries: Vec<u32>,
}

impl Manifest {
    pub(crate) fn read(dir: &Path) -> io::Result<Self> {
        let mut header = Header::read(dir, "manifest.tsv", SHARDED_MODEL_FORMAT)?;
        let n_shards: usize = header.take("n_shards")?;
        let fields = header.take_fields()?;
        let mut boundaries: Vec<u32> = header.take_vec(|i| format!("shard{i}_start"), n_shards)?;
        header.finish()?;
        boundaries.push(u32::try_from(fields.header.vocab_size).map_err(|_| {
            data_err(format!(
                "manifest.tsv: vocab_size {} exceeds the u32 word-id space",
                fields.header.vocab_size
            ))
        })?);
        // Ranges are checked before shard loading sizes anything by
        // `hi - lo` (a bad manifest must be an error, not an underflow).
        if boundaries[0] != 0 || boundaries.len() < 2 || boundaries.windows(2).any(|w| w[0] > w[1])
        {
            return Err(data_err(format!(
                "manifest.tsv: shard ranges must start at 0 and ascend to vocab_size {}: \
                 {boundaries:?}",
                fields.header.vocab_size
            )));
        }
        Ok(Self {
            header,
            fields,
            boundaries,
        })
    }
}

impl ModelBackend for ShardedModel {
    fn header(&self) -> &ModelHeader {
        &self.header
    }

    fn preprocess(&self) -> &PreprocessConfig {
        &self.preprocess
    }

    fn alpha(&self) -> &[f64] {
        &self.alpha
    }

    fn format_tag(&self) -> &'static str {
        SHARDED_MODEL_FORMAT
    }

    fn bundle_digest(&self) -> Option<u64> {
        self.digest
    }

    fn n_shards(&self) -> usize {
        self.shards.len()
    }

    fn n_lexicon_phrases(&self) -> usize {
        self.n_phrases()
    }

    fn prepare(&self, text: &str) -> PreparedDoc {
        prepare_with(&self.terms, |term| self.term_id(term), text)
    }

    fn segment(&self, doc: &Document) -> Vec<(u32, u32)> {
        PhraseConstructor::new(self.header.seg_alpha).construct_doc(doc, &self.lexicon)
    }

    /// Each word's K values come from its owning shard as one word-major
    /// row, so a batch needs no grouping by shard: the default
    /// [`gather_phi_batch`](ModelBackend::gather_phi_batch) delegates here.
    fn gather_phi(&self, words: &[u32]) -> Vec<f64> {
        crate::metrics::serve_metrics()
            .sharded_gather_columns
            .record(words.len() as u64);
        let mut out = Vec::with_capacity(self.header.n_topics * words.len());
        for &w in words {
            let shard = self.shard_of(w);
            let local = (w - shard.lo) as usize;
            out.extend(shard.phi.iter().map(|row| row[local]));
        }
        out
    }

    fn display_word(&self, id: u32) -> &str {
        let shard = self.shard_of(id);
        let local = (id - shard.lo) as usize;
        match &shard.unstem {
            Some(table) if !table[local].is_empty() => &table[local],
            _ => &shard.words[local],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::tests::tiny_model;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("topmine-sharded-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn from_frozen_partitions_everything_exactly_once() {
        let m = tiny_model();
        for n in [1usize, 2, 3, 7, 64] {
            let sharded = ShardedModel::from_frozen(&m, n).unwrap();
            assert_eq!(sharded.n_shards(), n);
            assert_eq!(sharded.n_phrases(), m.lexicon.n_phrases());
            assert_eq!(sharded.lexicon, m.lexicon);
            let total_words: usize = sharded.shards().iter().map(ModelShard::width).sum();
            assert_eq!(total_words, m.vocab_size());
            // φ gathers reproduce the trained columns bit-for-bit, word-major.
            let words: Vec<u32> = (0..m.vocab_size() as u32).collect();
            let gathered = ModelBackend::gather_phi(&sharded, &words);
            let k = m.n_topics();
            for t in 0..k {
                for (j, &w) in words.iter().enumerate() {
                    assert_eq!(gathered[j * k + t], m.phi[t][w as usize]);
                }
            }
            // Display falls back identically.
            for w in 0..m.vocab_size() as u32 {
                assert_eq!(ModelBackend::display_word(&sharded, w), m.display_word(w));
            }
        }
        assert!(ShardedModel::from_frozen(&m, 0).is_err());
    }

    #[test]
    fn batch_gather_matches_per_word_gather_bitwise() {
        let m = tiny_model();
        let v = m.vocab_size() as u32;
        for n in [1usize, 2, 3, 7] {
            let sharded = ShardedModel::from_frozen(&m, n).unwrap();
            // Unsorted, shard-straddling, and duplicate-free-but-unordered
            // word lists: the grouped traversal must scatter every column
            // back to its original position.
            let cases: Vec<Vec<u32>> = vec![
                vec![],
                vec![v - 1],
                (0..v).rev().collect(),
                (0..v).step_by(2).chain((1..v).step_by(3)).collect(),
            ];
            for words in cases {
                assert_eq!(
                    ModelBackend::gather_phi_batch(&sharded, &words),
                    ModelBackend::gather_phi(&sharded, &words),
                );
            }
        }
    }

    #[test]
    fn prepare_and_segment_match_the_monolith() {
        let m = tiny_model();
        let sharded = ShardedModel::from_frozen(&m, 3).unwrap();
        let text = "The support vector machines, for the data streams! quux";
        let a = m.prepare(text);
        let b = ModelBackend::prepare(&sharded, text);
        assert_eq!(a.doc.tokens, b.doc.tokens);
        assert_eq!(a.n_oov, b.n_oov);
        assert_eq!(m.segment(&a.doc), ModelBackend::segment(&sharded, &b.doc));
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let dir = tmpdir("roundtrip");
        let sharded = ShardedModel::from_frozen(&tiny_model(), 3).unwrap();
        sharded.save(&dir).unwrap();
        let loaded = ShardedModel::load(&dir).unwrap();
        assert_eq!(loaded, sharded);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn resave_with_fewer_shards_cleans_stale_directories() {
        let dir = tmpdir("resave");
        let m = tiny_model();
        ShardedModel::from_frozen(&m, 7)
            .unwrap()
            .save(&dir)
            .unwrap();
        assert!(dir.join("shard-6").exists());
        let two = ShardedModel::from_frozen(&m, 2).unwrap();
        two.save(&dir).unwrap();
        assert!(dir.join("shard-1").exists());
        for stale in 2..7 {
            assert!(
                !dir.join(format!("shard-{stale}")).exists(),
                "shard-{stale} must be cleaned up"
            );
        }
        assert_eq!(ShardedModel::load(&dir).unwrap(), two);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn version_mismatch_and_corruption_are_clean_errors() {
        let dir = tmpdir("corrupt");
        let sharded = ShardedModel::from_frozen(&tiny_model(), 2).unwrap();
        sharded.save(&dir).unwrap();
        let manifest = dir.join("manifest.tsv");
        let body = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(
            &manifest,
            body.replace(SHARDED_MODEL_FORMAT, "topmine-sharded-model/99"),
        )
        .unwrap();
        let err = ShardedModel::load(&dir).unwrap_err().to_string();
        assert!(err.contains("topmine-sharded-model/99"), "{err}");
        assert!(err.contains(SHARDED_MODEL_FORMAT), "{err}");
        sharded.save(&dir).unwrap();
        std::fs::remove_dir_all(dir.join("shard-1")).unwrap();
        assert!(ShardedModel::load(&dir).is_err());
        // Non-ascending ranges (vocab_size edited below a shard start) must
        // be a clean error before any shard sizes a buffer by `hi - lo`.
        sharded.save(&dir).unwrap();
        let body = std::fs::read_to_string(&manifest).unwrap();
        let vocab_size = sharded.vocab_size();
        std::fs::write(
            &manifest,
            body.replace(&format!("vocab_size\t{vocab_size}"), "vocab_size\t1"),
        )
        .unwrap();
        // The edit alone is caught by the manifest's digest; resealed, it
        // reaches the range check.
        let err = ShardedModel::load(&dir).unwrap_err().to_string();
        assert!(err.contains("manifest.tsv: content digest"), "{err}");
        crate::io::reseal(&manifest);
        let err = ShardedModel::load(&dir).unwrap_err().to_string();
        assert!(err.contains("ascend"), "{err}");
        // A word twice in one shard's vocabulary, under intact digests.
        let mut twice = sharded.clone();
        twice.shards[1].words[1] = twice.shards[1].words[0].clone();
        twice.save(&dir).unwrap();
        let err = ShardedModel::load(&dir).unwrap_err().to_string();
        assert!(
            err.contains("shard-1/vocab.tsv: a word is listed twice"),
            "{err}"
        );
        sharded.save(&dir).unwrap();
        std::fs::write(dir.join("shard-0").join("phi.bin"), "topic\tw0\n0\tnope\n").unwrap();
        let err = ShardedModel::load(&dir).unwrap_err().to_string();
        assert!(err.contains("shard-0/phi.bin"), "{err}");
        // The router's φ-less view does not read φ, so it still loads.
        assert!(ShardedModel::load_without_phi(&dir).is_ok());
        let _ = std::fs::remove_dir_all(dir);
    }
}
