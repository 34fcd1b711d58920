//! The `ModelBackend` seam: everything below the HTTP layer talks to a
//! fitted model through this trait, so the serving stack is agnostic to
//! how the model is materialized in memory — the fit's in-memory
//! [`FrozenModel`](crate::FrozenModel), a
//! [`ShardedModel`](crate::ShardedModel) composed of vocabulary-range
//! shards in the parameter-server style (LightLDA's vocabulary-sliced
//! workers are the reference design), or a router fronting shard
//! processes ([`RemoteShardedModel`](crate::RemoteShardedModel)).
//!
//! The contract is the three things fold-in inference needs:
//!
//! 1. the **preprocessing contract** ([`ModelBackend::prepare`]) — unseen
//!    text normalized exactly as training text was;
//! 2. the **lexicon** ([`ModelBackend::segment`]) — Algorithm 2 against
//!    the frozen phrase counts, wherever they live;
//! 3. **φ access** ([`ModelBackend::gather_phi`]) — the scatter-gather
//!    primitive: fetch the φ columns for a document's words from whichever
//!    shard owns them, as one dense word-major table.
//!
//! Every implementation must be *bit-identical* to every other for the
//! same fitted model: `gather_phi` returns the exact trained `f64`s and
//! `segment` the exact trained counts, so
//! [`infer_doc`](crate::infer::infer_doc) produces the same θ, ranking,
//! and annotations whatever the backend or shard count.

use crate::frozen::{ModelHeader, PreparedDoc, PreprocessConfig};
use crate::sharded::ShardedModel;
use std::fmt;
use std::hash::Hasher;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use topmine_corpus::Document;

/// Why a φ gather against a remote backend failed. In-memory backends
/// never construct one; the router maps each variant to an HTTP status
/// (`Timeout` → 504, everything else → 503).
#[derive(Debug, Clone)]
pub enum BackendError {
    /// The shard is down (connect refused, circuit open, retries spent).
    ShardUnavailable {
        shard: usize,
        addr: String,
        detail: String,
    },
    /// The request deadline (or the per-RPC timeout) expired first.
    Timeout { shard: usize, addr: String },
    /// The shard answered, but with bytes that violate the wire protocol
    /// or the handshake contract. Not retryable: the peer is the wrong
    /// model or the wrong software, and retrying can't fix either.
    Protocol {
        shard: usize,
        addr: String,
        detail: String,
    },
}

impl BackendError {
    /// HTTP status the serving layer reports this failure as.
    pub fn http_status(&self) -> u16 {
        match self {
            BackendError::Timeout { .. } => 504,
            _ => 503,
        }
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::ShardUnavailable {
                shard,
                addr,
                detail,
            } => {
                write!(f, "shard {shard} ({addr}) unavailable: {detail}")
            }
            BackendError::Timeout { shard, addr } => {
                write!(f, "shard {shard} ({addr}) deadline expired")
            }
            BackendError::Protocol {
                shard,
                addr,
                detail,
            } => {
                write!(f, "shard {shard} ({addr}) protocol error: {detail}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// Caller-side context for a φ gather — today just the request deadline,
/// which a remote backend propagates into its RPC timeouts so a stalled
/// shard fails the request instead of hanging it.
#[derive(Debug, Clone, Copy, Default)]
pub struct GatherOptions {
    /// Absolute deadline inherited from `?deadline_ms=`; `None` means the
    /// backend's own per-RPC timeout is the only bound.
    pub deadline: Option<Instant>,
}

/// Read access to a fitted, frozen ToPMine model, however it is stored.
///
/// Object-safe on purpose: the [`QueryEngine`](crate::QueryEngine) and the
/// HTTP layer hold an `Arc<dyn ModelBackend>` and never know which
/// implementation is behind it.
pub trait ModelBackend: Send + Sync {
    /// Bundle metadata (topic/vocabulary shapes, training-corpus sizes,
    /// segmentation threshold, β).
    fn header(&self) -> &ModelHeader;

    /// The preprocessing contract unseen text is held to.
    fn preprocess(&self) -> &PreprocessConfig;

    /// Asymmetric document-topic Dirichlet α, length `n_topics`.
    fn alpha(&self) -> &[f64];

    /// The on-disk format tag this backend was (or would be) persisted as.
    fn format_tag(&self) -> &'static str;

    /// How many vocabulary-range shards compose this backend (1 for an
    /// in-memory [`FrozenModel`](crate::FrozenModel)).
    fn n_shards(&self) -> usize {
        1
    }

    /// Total stored phrases across all shards of the lexicon.
    fn n_lexicon_phrases(&self) -> usize;

    /// Normalize unseen text with the frozen preprocessing contract and
    /// map it through the frozen vocabulary.
    fn prepare(&self, text: &str) -> PreparedDoc;

    /// Segment a prepared document against the frozen lexicon (Algorithm 2
    /// with the trained counts and threshold).
    fn segment(&self, doc: &Document) -> Vec<(u32, u32)>;

    /// Scatter-gather primitive: fetch `φ[·][w]` for each word of `words`
    /// from its owning shard into one dense word-major table — entry
    /// `(j, t)` of the returned `words.len() × n_topics` row-major matrix,
    /// at `j · n_topics + t`, is the trained `φ[t][words[j]]`, bit-exact.
    /// Word-major puts each word's K values side by side, which is the
    /// order fold-in reads them in.
    fn gather_phi(&self, words: &[u32]) -> Vec<f64>;

    /// Batch scatter-gather: the same contract as
    /// [`gather_phi`](ModelBackend::gather_phi), but `words` is the union
    /// of a whole dispatch batch's distinct words, so a sharded backend can
    /// do one fan-out per *batch* instead of per document. Must return the
    /// exact bytes `gather_phi` would — the default simply delegates;
    /// overrides may only reorganize the traversal, never the values.
    fn gather_phi_batch(&self, words: &[u32]) -> Vec<f64> {
        self.gather_phi(words)
    }

    /// Fallible [`gather_phi`](ModelBackend::gather_phi): remote backends
    /// surface shard failures here instead of panicking. In-memory
    /// backends keep the infallible default.
    fn try_gather_phi(
        &self,
        words: &[u32],
        opts: &GatherOptions,
    ) -> Result<Vec<f64>, BackendError> {
        let _ = opts;
        Ok(self.gather_phi(words))
    }

    /// Fallible [`gather_phi_batch`](ModelBackend::gather_phi_batch); same
    /// contract, batch-union flavor.
    fn try_gather_phi_batch(
        &self,
        words: &[u32],
        opts: &GatherOptions,
    ) -> Result<Vec<f64>, BackendError> {
        let _ = opts;
        Ok(self.gather_phi_batch(words))
    }

    /// Digest of the saved bundle this backend was loaded from: the value
    /// on the last line of its `manifest.tsv`, which covers every byte of
    /// the model and is what the fleet handshake compares. `None` for a
    /// model that was never loaded from disk.
    fn bundle_digest(&self) -> Option<u64> {
        None
    }

    /// Per-shard fleet health as a JSON array, when this backend fronts
    /// remote shard processes (`None` for in-memory backends). Rendered
    /// into the router's `/healthz` body.
    fn fleet_status_json(&self) -> Option<String> {
        None
    }

    /// Preferred display string for one word id (unstemmed when the bundle
    /// carries a surface table).
    fn display_word(&self, id: u32) -> &str;

    /// Render a phrase of word ids for display.
    fn display_phrase(&self, ids: &[u32]) -> String {
        let mut s = String::new();
        for (i, &id) in ids.iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(self.display_word(id));
        }
        s
    }

    fn n_topics(&self) -> usize {
        self.header().n_topics
    }

    fn vocab_size(&self) -> usize {
        self.header().vocab_size
    }

    /// Stable fingerprint of the loaded bundle, used to key the response
    /// cache: two backends serving the same fitted model from the same
    /// artifact version hash equally only if their headers, α, and lexicon
    /// sizes agree, which is all one engine ever compares (its model never
    /// changes after load).
    fn fingerprint(&self) -> u64 {
        let mut h = topmine_util::FxHasher::default();
        let hd = self.header();
        h.write_u64(hd.n_topics as u64);
        h.write_u64(hd.vocab_size as u64);
        h.write_u64(hd.n_docs as u64);
        h.write_u64(hd.n_tokens);
        h.write_u64(hd.seg_alpha.to_bits());
        h.write_u64(hd.beta.to_bits());
        h.write_u64(self.n_lexicon_phrases() as u64);
        for &a in self.alpha() {
            h.write_u64(a.to_bits());
        }
        h.finish()
    }
}

/// Load the serving bundle at `dir` ([`SHARDED_MODEL_FORMAT`](crate::SHARDED_MODEL_FORMAT),
/// any shard count) as a [`ShardedModel`] — what
/// [`FrozenModel::save`](crate::FrozenModel::save) and
/// [`ShardedModel::save`] write.
pub fn load_bundle(dir: &Path) -> io::Result<Arc<dyn ModelBackend>> {
    Ok(Arc::new(ShardedModel::load(dir)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::tests::tiny_model;

    #[test]
    fn fingerprint_is_stable_and_shape_sensitive() {
        let m = tiny_model();
        let a = ModelBackend::fingerprint(&m);
        assert_eq!(a, ModelBackend::fingerprint(&m));
        // A sharded view of the same model shares header/α/lexicon size, so
        // it fingerprints identically — same artifact, same key space.
        let sharded = ShardedModel::from_frozen(&m, 3).unwrap();
        assert_eq!(a, ModelBackend::fingerprint(&sharded));
        let mut other = tiny_model();
        other.header.n_docs += 1;
        assert_ne!(a, ModelBackend::fingerprint(&other));
    }

    #[test]
    fn load_bundle_reads_every_save_as_one_layout() {
        let dir = std::env::temp_dir().join(format!("topmine-backend-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = tiny_model();
        m.save(&dir).unwrap();
        let backend = load_bundle(&dir).unwrap();
        assert_eq!(backend.format_tag(), crate::SHARDED_MODEL_FORMAT);
        assert_eq!(backend.n_shards(), 1);
        // The digest is the value on the manifest's last line.
        let manifest = std::fs::read_to_string(dir.join("manifest.tsv")).unwrap();
        let sealed = manifest.lines().last().unwrap().strip_prefix("digest\t");
        let digest = backend.bundle_digest().map(|d| format!("{d:016x}"));
        assert_eq!(digest.as_deref(), sealed);
        ShardedModel::from_frozen(&m, 2)
            .unwrap()
            .save(&dir)
            .unwrap();
        let backend = load_bundle(&dir).unwrap();
        assert_eq!(backend.format_tag(), crate::SHARDED_MODEL_FORMAT);
        assert_eq!(backend.n_shards(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(load_bundle(&dir).is_err());
    }
}
