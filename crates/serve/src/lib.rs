//! Serving fitted ToPMine models (the reproduction's production seam).
//!
//! The paper's pipeline is batch-only: mine phrases, fit PhraseLDA, print
//! topics. This crate adds the missing path from a fitted model to
//! answering *"what are the topical phrases in this new document?"*, in
//! these layers:
//!
//! * [`frozen`] — the **fitted model in memory**, the only one:
//!   [`FrozenModel`], the preprocessing contract (vocabulary, stemming,
//!   stop words), the phrase lexicon (the miner's
//!   [`PhraseStats`](topmine_phrase::PhraseStats): dense phrase node ids,
//!   a child map and a count per node), and the topic model point estimate
//!   (φ, α, β). A fit freezes into it, and a bundle of any shard count
//!   loads into it ([`load_bundle`], [`FrozenModel::load`]), keeping the
//!   bundle digest and shard starts as provenance;
//! * [`backend`] — the **seam**: [`ModelBackend`], the trait everything
//!   below the HTTP layer talks to. Backends differ only in where φ
//!   lives, so a backend names its [`FrozenModel`] and its φ gather, and
//!   the trait provides the rest over those two;
//! * [`sharded`] — the **bundle**: the one on-disk layout, a
//!   `manifest.tsv` over `shard-K/` vocabulary-range directories, and
//!   [`ShardedModel`], a borrowed cut of a [`FrozenModel`] into word-id
//!   ranges that writes it; every bundle file format — the versioned,
//!   self-digesting manifest, binary `phi.bin`, the text tables — lives in
//!   one private `io` module, so a bundle's digest covers every byte of
//!   the model;
//! * [`infer`] — **fold-in inference**: segment unseen text with the
//!   frozen lexicon (Algorithm 2 on its node ids, one scratch per batch),
//!   gather the φ columns a batch touches once, then run the kernel's
//!   fixed-φ Gibbs chain (`topmine_lda::kernel::fold_in`, the one held-out
//!   perplexity runs too) per document, preserving the phrase-clique
//!   constraint (Eq. 7), to get θ, topic rankings, and per-phrase topic
//!   annotations — deterministic given a seed, and one document is a
//!   batch of one. [`try_infer_docs_amortized`](infer::try_infer_docs_amortized)
//!   is the one batch function; `topmine infer` calls it once per block of
//!   input lines on the workspace's scheduler (`topmine_util::par`);
//! * [`http`] / `dispatch` — the **server** (`topmine serve`): a std-only
//!   HTTP/1.1 keep-alive front end over one shared `Arc<dyn ModelBackend>`.
//!   It gives each connection its own thread (at most
//!   [`http::MAX_CONNECTIONS`]; one more is answered `503`), on any
//!   platform std supports. Inference requests pass through a **bounded
//!   admission queue** (`dispatch`; overflow ⇒ `429` + `Retry-After`,
//!   deadline expiry ⇒ `504`), and its dispatchers drain them in coalesced
//!   batches whose documents share one φ gather (`/infer_batch`, or
//!   adjacent queued `/infer` requests) — bit-identical to running each
//!   document alone;
//! * [`wire`] / [`shard`] / [`pool`] / [`router`] — **fleet serving**:
//!   the φ slices of a bundle's shards split across processes. A
//!   `topmine serve-shard` process loads one `shard-K/` φ slice
//!   ([`ShardSlice`]) and answers a compact length-prefixed binary
//!   protocol ([`wire`]); the router holds the [`FrozenModel`] without φ
//!   and fans each batch gather out as one pipelined frame per shard over
//!   persistent pooled connections ([`RemoteShardedModel`]), with
//!   deadline propagation, bounded retry/backoff, fail-fast 503s, and
//!   per-shard health in `/healthz` + `/metrics` — still bit-identical
//!   to the in-process model.
//!
//! # Quickstart
//!
//! ```
//! use topmine_corpus::{corpus_from_texts, CorpusOptions};
//! use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
//! use topmine_phrase::Segmenter;
//! use topmine_serve::{infer_doc, FrozenModel, InferConfig};
//!
//! // Fit (normally done by the `topmine` CLI with `--save-model`).
//! let texts: Vec<String> = (0..20)
//!     .map(|i| format!("support vector machines for task {i}"))
//!     .collect();
//! let corpus = corpus_from_texts(texts.iter().map(String::as_str));
//! let (stats, seg) = Segmenter::with_params(5, 2.0).segment(&corpus);
//! let grouped = GroupedDocs::from_segmentation(&corpus, &seg);
//! let mut lda = PhraseLda::new(grouped, TopicModelConfig::new(2).with_seed(7));
//! lda.run(20);
//!
//! // Freeze and infer; `HttpServer::bind` serves the same model over HTTP.
//! let frozen = FrozenModel::freeze(&corpus, &stats, 2.0, &lda, &CorpusOptions::default());
//! let config = InferConfig::default();
//! let result = infer_doc(&frozen, "support vector machines in practice", &config, config.seed);
//! assert_eq!(result.theta.len(), 2);
//! ```

pub mod backend;
mod dispatch;
pub mod frozen;
pub mod http;
pub mod infer;
mod io;
pub mod metrics;
pub mod pool;
mod registry;
pub mod router;
pub mod shard;
pub mod sharded;
pub mod wire;

pub use backend::{load_bundle, BackendError, ModelBackend};
pub use frozen::{FrozenModel, ModelHeader, PreparedDoc, PreprocessConfig};
pub use http::{batch_inference_json, inference_json, HttpServer, ServerConfig, ServerHandle};
pub use infer::{
    infer_doc, infer_docs_amortized, BatchItem, DocInference, InferConfig, PhraseAssignment,
};
pub use metrics::{serve_metrics, ServeMetrics, Stage};
pub use pool::{PoolConfig, ShardClient, ShardHealth};
pub use router::{RemoteShardedModel, FLEET_MODEL_FORMAT};
pub use shard::{ShardServer, ShardServerHandle, ShardSlice};
pub use sharded::{ShardedModel, SHARDED_MODEL_FORMAT};
pub use wire::{WireError, MAX_FRAME, WIRE_VERSION};
