//! The one on-disk bundle layout, and [`ShardedModel`]: a fitted model cut
//! into N vocabulary-range shards for saving.
//!
//! The partitioning follows the parameter-server cut used by distributed
//! topic-model servers (LightLDA's vocabulary-sliced workers): the word-id
//! space `[0, V)` is split into `N` contiguous ranges, and shard `i` owns
//!
//! * the **vocabulary slice** for its range (word strings and the unstem
//!   display table);
//! * the **lexicon slice**: every stored phrase whose *first* word falls
//!   in the range, in its `lexicon.tsv`;
//! * the **φ slice**: the `n_topics × range_width` block of trained
//!   topic-word columns, which one `topmine serve-shard` process serves
//!   ([`ShardSlice`](crate::ShardSlice)).
//!
//! A bundle of any shard count loads back as one
//! [`FrozenModel`](crate::FrozenModel): one vocabulary, one unstem table,
//! one lexicon and one K × V φ, each shard's files read into place, so
//! inference is the same code and **bit-identical** whatever the shard
//! count. The shards exist on disk and across processes, never as a second
//! model in memory.
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
//! ([`FrozenModel::save`](crate::FrozenModel::save)) is the one-shard cut.
//! `manifest.tsv` is the versioned, self-digesting bundle header (the file
//! formats live in the crate's `io` module): it lists the digest of every
//! file above, so its own digest covers the whole model. Re-saving into a
//! directory removes stale `shard-K/` directories beyond the new count, so
//! a bundle directory holds exactly one model.

use crate::frozen::FrozenModel;
use crate::io::{data_err, header_pairs, BundleWriter, Header, HeaderFields};
use std::io;
use std::ops::Range;
use std::path::Path;

/// Version tag on the first line of `manifest.tsv`.
pub const SHARDED_MODEL_FORMAT: &str = "topmine-sharded-model/2";

/// Index of the shard owning word id `w`, given the shards' ascending
/// first ids `starts` (a trailing `vocab_size` may follow them).
pub(crate) fn shard_of(starts: &[u32], w: u32) -> usize {
    starts.partition_point(|&s| s <= w) - 1
}

/// Each shard's word-id range, in shard order, given the shards' ascending
/// first ids `starts` over a vocabulary of `vocab_size` words.
pub(crate) fn shard_ranges(
    starts: &[u32],
    vocab_size: usize,
) -> impl Iterator<Item = Range<u32>> + '_ {
    let ends = starts[1..].iter().copied().chain([vocab_size as u32]);
    starts.iter().zip(ends).map(|(&lo, hi)| lo..hi)
}

/// A fitted model cut into vocabulary-range shards, borrowed: shard `i`
/// owns word ids `[starts[i], starts[i + 1])`, the last one up to
/// `vocab_size`. [`ShardedModel::save`] writes it as a bundle.
#[derive(Debug)]
pub struct ShardedModel<'a> {
    model: &'a FrozenModel,
    starts: Vec<u32>,
}

impl<'a> ShardedModel<'a> {
    /// Cut `model` into `n_shards` contiguous vocabulary ranges of
    /// near-equal width (shards may be empty when `n_shards >
    /// vocab_size`). The cut policy lives here alone: the loader accepts
    /// any ascending ranges. Refuses a model whose tables do not have the
    /// header's shapes, such as a fleet router's view, which holds no φ.
    pub fn from_frozen(model: &'a FrozenModel, n_shards: usize) -> io::Result<Self> {
        if n_shards == 0 {
            return Err(data_err("shard count must be at least 1"));
        }
        model.check_shapes().map_err(data_err)?;
        let v = model.vocab_size();
        let starts = (0..n_shards).map(|i| (i * v / n_shards) as u32).collect();
        Ok(Self { model, starts })
    }

    pub fn n_shards(&self) -> usize {
        self.starts.len()
    }

    /// The first word id of each shard, ascending from 0.
    pub fn shard_starts(&self) -> &[u32] {
        &self.starts
    }

    /// Write the bundle into `dir` (created if needed): `stopwords.txt`,
    /// each `shard-K/` directory recreated from scratch, then
    /// `manifest.tsv` as the commit point, recording every file's digest.
    /// Only cleanup follows the commit: `shard-K/` directories beyond the
    /// new count, which a loader never reads, are removed, so re-saving
    /// with a different count leaves exactly this model on disk.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        let m = self.model;
        std::fs::create_dir_all(dir)?;
        let mut out = BundleWriter::new(dir);
        if m.preprocess.stopwords.is_empty() {
            remove_if_present(&dir.join("stopwords.txt"))?;
        } else {
            out.stopwords("stopwords.txt", &m.preprocess.stopwords)?;
        }
        for (i, range) in shard_ranges(&self.starts, m.vocab_size()).enumerate() {
            let shard_dir = dir.join(format!("shard-{i}"));
            // Recreated, so no stale file inside the shard directory survives.
            if shard_dir.exists() {
                std::fs::remove_dir_all(&shard_dir)?;
            }
            std::fs::create_dir_all(&shard_dir)?;
            let rel = |file: &str| format!("shard-{i}/{file}");
            let cols = range.start as usize..range.end as usize;
            let words = range.clone().map(|id| m.vocab.word(id));
            out.vocab(&rel("vocab.tsv"), range.start, words)?;
            if let Some(unstem) = &m.unstem {
                out.unstem(&rel("unstem.tsv"), range.start, &unstem[cols.clone()])?;
            }
            out.lexicon(&rel("lexicon.tsv"), &m.lexicon, range)?;
            out.phi(&rel("phi.bin"), &m.phi, cols)?;
        }
        // The shared bundle header plus the shard topology.
        let fields = HeaderFields {
            header: m.header.clone(),
            preprocess: m.preprocess.clone(),
            min_support: m.lexicon.min_support,
            alpha: m.alpha.clone(),
        };
        let mut pairs = vec![("n_shards".to_string(), self.n_shards().to_string())];
        pairs.extend(header_pairs(&fields));
        for (i, lo) in self.starts.iter().enumerate() {
            pairs.push((format!("shard{i}_start"), lo.to_string()));
        }
        out.commit("manifest.tsv", SHARDED_MODEL_FORMAT, &pairs)?;
        remove_stale_shards(dir, self.n_shards())
    }
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
/// shard topology. The model loader and a shard process
/// ([`crate::shard::ShardSlice`], which reads the manifest for topology and
/// the digest without assembling a model) both start here.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ModelBackend;
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
        let dir = tmpdir("partition");
        for n in [1usize, 2, 3, 7, 64] {
            let sharded = ShardedModel::from_frozen(&m, n).unwrap();
            assert_eq!(sharded.n_shards(), n);
            let ranges: Vec<Range<u32>> =
                shard_ranges(sharded.shard_starts(), m.vocab_size()).collect();
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[n - 1].end as usize, m.vocab_size());
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
            // Saved and loaded, the cut is the model again, with the cut's
            // shard starts as provenance.
            sharded.save(&dir).unwrap();
            let loaded = FrozenModel::load(&dir).unwrap();
            assert_eq!(loaded, m);
            assert_eq!(loaded.shard_starts(), sharded.shard_starts());
            assert_eq!(ModelBackend::n_shards(&loaded), n);
            // φ gathers reproduce the trained columns bit-for-bit, word-major.
            let words: Vec<u32> = (0..m.vocab_size() as u32).collect();
            let gathered = loaded.gather_phi_batch(&words);
            let k = m.n_topics();
            for t in 0..k {
                for (j, &w) in words.iter().enumerate() {
                    assert_eq!(
                        gathered[j * k + t].to_bits(),
                        m.phi[t][w as usize].to_bits()
                    );
                }
            }
            // Display falls back identically.
            for w in 0..m.vocab_size() as u32 {
                assert_eq!(loaded.display_word(w), m.display_word(w));
            }
        }
        assert!(ShardedModel::from_frozen(&m, 0).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn prepare_and_segment_match_the_monolith() {
        let m = tiny_model();
        let dir = tmpdir("prepare");
        ShardedModel::from_frozen(&m, 3)
            .unwrap()
            .save(&dir)
            .unwrap();
        let sharded = FrozenModel::load(&dir).unwrap();
        let text = "The support vector machines, for the data streams! quux";
        let a = m.prepare(text);
        let b = sharded.prepare(text);
        assert_eq!(a.doc.tokens, b.doc.tokens);
        assert_eq!(a.n_oov, b.n_oov);
        assert_eq!(m.segment(&a.doc), sharded.segment(&b.doc));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let dir = tmpdir("roundtrip");
        let m = tiny_model();
        let sharded = ShardedModel::from_frozen(&m, 3).unwrap();
        sharded.save(&dir).unwrap();
        let loaded = FrozenModel::load(&dir).unwrap();
        assert_eq!(loaded, m);
        assert_eq!(loaded.shard_starts(), sharded.shard_starts());
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
        let loaded = FrozenModel::load(&dir).unwrap();
        assert_eq!(loaded, m);
        assert_eq!(loaded.shard_starts(), two.shard_starts());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn version_mismatch_and_corruption_are_clean_errors() {
        let dir = tmpdir("corrupt");
        let m = tiny_model();
        let sharded = ShardedModel::from_frozen(&m, 2).unwrap();
        sharded.save(&dir).unwrap();
        let manifest = dir.join("manifest.tsv");
        let body = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(
            &manifest,
            body.replace(SHARDED_MODEL_FORMAT, "topmine-sharded-model/99"),
        )
        .unwrap();
        let err = FrozenModel::load(&dir).unwrap_err().to_string();
        assert!(err.contains("topmine-sharded-model/99"), "{err}");
        assert!(err.contains(SHARDED_MODEL_FORMAT), "{err}");
        sharded.save(&dir).unwrap();
        std::fs::remove_dir_all(dir.join("shard-1")).unwrap();
        assert!(FrozenModel::load(&dir).is_err());
        // Non-ascending ranges (vocab_size edited below a shard start) must
        // be a clean error before any shard sizes a buffer by `hi - lo`.
        sharded.save(&dir).unwrap();
        let body = std::fs::read_to_string(&manifest).unwrap();
        let vocab_size = m.vocab_size();
        std::fs::write(
            &manifest,
            body.replace(&format!("vocab_size\t{vocab_size}"), "vocab_size\t1"),
        )
        .unwrap();
        // The edit alone is caught by the manifest's digest; resealed, it
        // reaches the range check.
        let err = FrozenModel::load(&dir).unwrap_err().to_string();
        assert!(err.contains("manifest.tsv: content digest"), "{err}");
        crate::io::reseal(&manifest);
        let err = FrozenModel::load(&dir).unwrap_err().to_string();
        assert!(err.contains("ascend"), "{err}");
        // A word twice in one shard's vocabulary, and a word of shard 0
        // again in shard 1, under intact digests.
        let lo = sharded.shard_starts()[1];
        for (again, word) in [(lo + 1, m.vocab.word(lo)), (lo, m.vocab.word(0))] {
            sharded.save(&dir).unwrap();
            let rel = "shard-1/vocab.tsv";
            let text = std::fs::read_to_string(dir.join(rel)).unwrap();
            let old = format!("{again}\t{}\n", m.vocab.word(again));
            let edited = text.replace(&old, &format!("{again}\t{word}\n"));
            crate::io::rewrite_sealed(&dir, rel, &edited);
            let err = FrozenModel::load(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let err = err.to_string();
            assert!(
                err.contains("shard-1/vocab.tsv: a word is listed twice"),
                "{err}"
            );
            assert!(err.contains(&format!("and {again}")), "{err}");
        }
        sharded.save(&dir).unwrap();
        std::fs::write(dir.join("shard-0").join("phi.bin"), "topic\tw0\n0\tnope\n").unwrap();
        let err = FrozenModel::load(&dir).unwrap_err().to_string();
        assert!(err.contains("shard-0/phi.bin"), "{err}");
        // The router's φ-less view does not read φ, so it still loads.
        assert!(FrozenModel::load_without_phi(&dir).is_ok());
        let _ = std::fs::remove_dir_all(dir);
    }
}
