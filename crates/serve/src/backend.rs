//! The `ModelBackend` seam: everything below the HTTP layer talks to a
//! fitted model through this trait. There is one in-memory model,
//! [`FrozenModel`]; backends differ only in where φ lives — in this
//! process (the [`FrozenModel`] itself, loaded from a bundle of any shard
//! count) or in `topmine serve-shard` processes behind a router
//! ([`RemoteShardedModel`](crate::RemoteShardedModel), which holds the same
//! model without φ).
//!
//! So a backend implements two methods: [`ModelBackend::local`], the model
//! as this process holds it, and [`ModelBackend::try_gather_phi_batch`],
//! the scatter-gather primitive that fetches the φ columns of a batch's
//! words, wherever they live, as one dense word-major table. Everything
//! else fold-in needs is provided once over those two: the preprocessing
//! contract ([`ModelBackend::prepare`]), the lexicon
//! ([`ModelBackend::segment`], Algorithm 2 against the frozen counts),
//! display, the header and α, and the provenance (bundle digest, shard
//! count).
//!
//! Every backend must gather the *exact* trained `f64`s, so
//! [`infer_doc`](crate::infer::infer_doc) produces the same θ, ranking,
//! and annotations whatever the backend or shard count.

use crate::frozen::{FrozenModel, ModelHeader, PreparedDoc};
use crate::sharded::SHARDED_MODEL_FORMAT;
use std::fmt;
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

/// Read access to a fitted, frozen ToPMine model, wherever its φ lives.
///
/// Object-safe on purpose: the HTTP layer and its dispatchers hold an
/// `Arc<dyn ModelBackend>` and never know which implementation is behind
/// it.
pub trait ModelBackend: Send + Sync {
    /// The model as this process holds it: the whole model in process, or
    /// every part but φ behind a router.
    fn local(&self) -> &FrozenModel;

    /// Scatter-gather primitive: fetch `φ[·][w]` for each word of `words`
    /// (the union of a whole dispatch batch's distinct words, so a remote
    /// backend makes one fan-out per batch) from wherever it lives into one
    /// dense word-major table — entry `(j, t)` of the returned
    /// `words.len() × n_topics` row-major matrix, at `j · n_topics + t`, is
    /// the trained `φ[t][words[j]]`, bit-exact. Word-major puts each word's
    /// K values side by side, which is the order fold-in reads them in.
    /// Remote backends surface shard failures as [`BackendError`]s; the
    /// in-process model never fails. `deadline` is the request's absolute
    /// deadline (from `?deadline_ms=`), which a remote backend propagates
    /// into its RPC timeouts so a stalled shard fails the request instead
    /// of hanging it; `None` leaves the backend's own per-RPC timeout as
    /// the only bound.
    fn try_gather_phi_batch(
        &self,
        words: &[u32],
        deadline: Option<Instant>,
    ) -> Result<Vec<f64>, BackendError>;

    /// Infallible [`try_gather_phi_batch`](ModelBackend::try_gather_phi_batch)
    /// with no deadline; panics on a shard failure.
    fn gather_phi_batch(&self, words: &[u32]) -> Vec<f64> {
        self.try_gather_phi_batch(words, None)
            .unwrap_or_else(|e| panic!("phi gather failed: {e}"))
    }

    /// Bundle metadata (topic/vocabulary shapes, training-corpus sizes,
    /// segmentation threshold, β).
    fn header(&self) -> &ModelHeader {
        &self.local().header
    }

    /// Asymmetric document-topic Dirichlet α, length `n_topics`.
    fn alpha(&self) -> &[f64] {
        &self.local().alpha
    }

    fn n_topics(&self) -> usize {
        self.header().n_topics
    }

    fn vocab_size(&self) -> usize {
        self.header().vocab_size
    }

    /// The format tag `/healthz` and `/model` report: the bundle layout,
    /// or a router's own tag.
    fn format_tag(&self) -> &'static str {
        SHARDED_MODEL_FORMAT
    }

    /// How many vocabulary-range shards the bundle this backend was loaded
    /// from has (1 for a model never saved).
    fn n_shards(&self) -> usize {
        self.local().shard_starts().len()
    }

    /// Digest of the saved bundle this backend was loaded from (see
    /// [`FrozenModel::bundle_digest`]); `None` for a model that was never
    /// loaded from disk.
    fn bundle_digest(&self) -> Option<u64> {
        self.local().bundle_digest()
    }

    /// Per-shard fleet health as a JSON array, when this backend fronts
    /// remote shard processes (`None` for in-memory backends). Rendered
    /// into the router's `/healthz` body.
    fn fleet_status_json(&self) -> Option<String> {
        None
    }

    /// Normalize unseen text with the frozen preprocessing contract and
    /// map it through the frozen vocabulary.
    fn prepare(&self, text: &str) -> PreparedDoc {
        self.local().prepare(text)
    }

    /// Segment a prepared document against the frozen lexicon (Algorithm 2
    /// with the trained counts and threshold).
    fn segment(&self, doc: &Document) -> Vec<(u32, u32)> {
        self.local().segment(doc)
    }

    /// Preferred display string for one word id (unstemmed when the bundle
    /// carries a surface table).
    fn display_word(&self, id: u32) -> &str {
        self.local().display_word(id)
    }

    /// Render a phrase of word ids for display.
    fn display_phrase(&self, ids: &[u32]) -> String {
        self.local().display_phrase(ids)
    }
}

/// Load the serving bundle at `dir` ([`SHARDED_MODEL_FORMAT`], any shard
/// count) as one [`FrozenModel`] — what [`FrozenModel::save`] and
/// [`ShardedModel::save`](crate::ShardedModel::save) write.
pub fn load_bundle(dir: &Path) -> io::Result<Arc<dyn ModelBackend>> {
    Ok(Arc::new(FrozenModel::load(dir)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::tests::tiny_model;

    #[test]
    fn load_bundle_reads_every_save_as_one_layout() {
        let dir = std::env::temp_dir().join(format!("topmine-backend-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = tiny_model();
        m.save(&dir).unwrap();
        let backend = load_bundle(&dir).unwrap();
        assert_eq!(backend.format_tag(), crate::SHARDED_MODEL_FORMAT);
        assert_eq!(backend.n_shards(), 1);
        assert_eq!(*backend.local(), m);
        // The digest is the value on the manifest's last line.
        let manifest = std::fs::read_to_string(dir.join("manifest.tsv")).unwrap();
        let sealed = manifest.lines().last().unwrap().strip_prefix("digest\t");
        let digest = backend.bundle_digest().map(|d| format!("{d:016x}"));
        assert_eq!(digest.as_deref(), sealed);
        crate::ShardedModel::from_frozen(&m, 2)
            .unwrap()
            .save(&dir)
            .unwrap();
        let backend = load_bundle(&dir).unwrap();
        assert_eq!(backend.format_tag(), crate::SHARDED_MODEL_FORMAT);
        assert_eq!(backend.n_shards(), 2);
        assert_eq!(*backend.local(), m);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(load_bundle(&dir).is_err());
    }
}
