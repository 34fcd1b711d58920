//! Fold-in inference over unseen documents (Eq. 7 with frozen φ).
//!
//! An unseen document is normalized and segmented against the frozen
//! lexicon, then a short collapsed Gibbs chain runs over its phrase
//! instances with the topic-word distribution held fixed at the trained
//! point estimate. The phrase-clique constraint is preserved: a whole
//! phrase instance takes one topic value, with the clique posterior
//!
//! ```text
//! p(C = k | ...) ∝ ∏_{j=1..s} (α_k + n_dk + j − 1) · φ_{k, w_j}
//! ```
//!
//! — Eq. 7's document side with the word side frozen.
//!
//! Inference runs against any [`ModelBackend`], in process or behind a
//! fleet router, over a batch of documents (one document is a batch of
//! one), in two phases:
//!
//! 1. **scatter-gather**: every document is prepared and segmented (one
//!    Algorithm 2 scratch for the whole batch), its tokens are remapped
//!    onto a dense batch-wide word table, and the φ columns the batch
//!    touches are gathered once ([`ModelBackend::try_gather_phi_batch`])
//!    into one word-major block — each word's K values adjacent, so a
//!    clique's weight loop reads one contiguous run — a plain copy in
//!    process, one fan-out per batch behind a router;
//! 2. **local Gibbs**: every document's fold-in sweeps run entirely
//!    against the gathered block, touching no shard again.
//!
//! Because the gathered values are the trained `f64`s bit-for-bit and the
//! sweep order is fixed, everything is deterministic given the seed: same
//! seed ⇒ bit-identical θ, topic ranking, and phrase annotations,
//! regardless of backend, shard count, batch, or which thread runs it.
//!
//! The chain is **not** implemented here: the batch's documents are the
//! chains of one call to `topmine_lda::kernel`'s [`fold_in`] — the chain
//! held-out perplexity runs too, over the same per-clique posterior and
//! draw training uses — through its frozen-φ [`FrozenPhiView`], so serving
//! inference can never drift from the trained model's Eq. 7. `fold_in`
//! runs two documents' chains side by side, each with its own seeded RNG
//! and counts, so every document folds in bit-identically to a batch of
//! one (the kernel's "Interleaved chains"); it hands each finished chain
//! back by index, and its θ, ranking and annotations are assembled then.
//!
//! [`try_infer_docs_amortized`] is the one batch function: the admission
//! dispatcher (`crate::dispatch`) calls it once per coalesced batch,
//! `topmine infer` once per block of input lines, and [`infer_doc`] and
//! [`infer_docs_amortized`] are its infallible forms.

use crate::backend::{BackendError, ModelBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use topmine_lda::kernel::{fold_in, FoldInChain, FoldInScratch, FrozenPhiView};
use topmine_phrase::ConstructScratch;
use topmine_util::FxHashMap;

/// Knobs of one fold-in pass.
#[derive(Debug, Clone, PartialEq)]
pub struct InferConfig {
    /// Gibbs sweeps over the document's phrase instances.
    pub fold_iters: usize,
    /// RNG seed; inference is a pure function of (model, text, config).
    pub seed: u64,
    /// How many `(topic, weight)` pairs to report in `top_topics`.
    pub top_topics: usize,
}

impl Default for InferConfig {
    fn default() -> Self {
        Self {
            fold_iters: 20,
            seed: 1,
            top_topics: 3,
        }
    }
}

impl InferConfig {
    /// The seed used for document `index` of a batch. Index 0 keeps the
    /// configured seed, so a batch of one matches a single-document call;
    /// later documents decorrelate via a SplitMix-style odd multiplier.
    pub fn seed_for_index(&self, index: usize) -> u64 {
        self.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// One phrase instance of the segmented document with its sampled topic.
#[derive(Debug, Clone, PartialEq)]
pub struct PhraseAssignment {
    /// Display rendering (unstemmed when the bundle carries a table).
    pub text: String,
    /// Word ids of the instance (stemmed vocabulary ids).
    pub words: Vec<u32>,
    /// Topic the clique settled on in the final sweep.
    pub topic: u16,
}

/// The inference result for one document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DocInference {
    /// Document-topic distribution θ_d (length = n_topics, sums to 1).
    pub theta: Vec<f64>,
    /// `(topic, θ)` pairs sorted by weight descending, length ≤ top_topics.
    pub top_topics: Vec<(usize, f64)>,
    /// Per-phrase topic annotations, in document order.
    pub phrases: Vec<PhraseAssignment>,
    /// In-vocabulary tokens that entered inference.
    pub n_tokens: usize,
    /// Tokens dropped as out-of-vocabulary.
    pub n_oov: usize,
}

/// Assemble the response struct from a finished chain's state (θ from the
/// final counts, ranking with deterministic ties, phrase annotations in
/// document order).
#[allow(clippy::too_many_arguments)]
fn assemble_inference(
    model: &dyn ModelBackend,
    alpha: &[f64],
    k: usize,
    tokens: &[u32],
    spans: &[(u32, u32)],
    local_ndk: &[u32],
    z: &[u16],
    top_topics: usize,
    n_oov: usize,
) -> DocInference {
    let alpha_sum: f64 = alpha.iter().sum();
    let theta_den = tokens.len() as f64 + alpha_sum;
    let theta: Vec<f64> = (0..k)
        .map(|t| (local_ndk[t] as f64 + alpha[t]) / theta_den)
        .collect();

    let mut ranked: Vec<(usize, f64)> = theta.iter().copied().enumerate().collect();
    // Ties break on the lower topic id so the ranking is deterministic.
    // `total_cmp` orders finite values as `partial_cmp` does and never
    // panics.
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(top_topics);

    let phrases = spans
        .iter()
        .zip(z)
        .map(|(&(s, e), &topic)| {
            let words = tokens[s as usize..e as usize].to_vec();
            PhraseAssignment {
                text: model.display_phrase(&words),
                words,
                topic,
            }
        })
        .collect();

    DocInference {
        theta,
        top_topics: ranked,
        phrases,
        n_tokens: tokens.len(),
        n_oov,
    }
}

/// Infer topics for one unseen document against any backend with an
/// explicit seed: a batch of one through [`infer_docs_amortized`], the one
/// fold-in implementation. Panics if a remote backend's gather fails
/// (fallible callers use [`try_infer_docs_amortized`]).
pub fn infer_doc(
    model: &dyn ModelBackend,
    text: &str,
    config: &InferConfig,
    seed: u64,
) -> DocInference {
    let item = BatchItem {
        text: text.to_string(),
        config: config.clone(),
        seed,
    };
    let mut results = infer_docs_amortized(model, std::slice::from_ref(&item));
    results.pop().expect("one result per item")
}

/// One document of a shared-gather batch: the text plus its fully resolved
/// RNG seed (the caller applies [`InferConfig::seed_for_index`] or keeps
/// the config seed — the batch path never derives seeds itself).
#[derive(Debug, Clone)]
pub struct BatchItem {
    pub text: String,
    pub config: InferConfig,
    /// Effective per-document RNG seed.
    pub seed: u64,
}

/// Fold in a batch of documents with **one** φ scatter-gather for the
/// whole batch: the union of every document's distinct words is gathered
/// once ([`ModelBackend::try_gather_phi_batch`] — a single fan-out behind
/// a router), then one [`fold_in`] call runs every document's chain, with
/// its own sweep count, against its rows of the shared table.
///
/// Bit-identical to calling [`infer_doc`] (a batch of one) per document
/// with the same seeds: the gathered entries are the exact trained `f64`s
/// whichever table they sit in, each document's tokens index the same
/// values, and each chain consumes its own freshly seeded RNG — only the
/// row *addressing*, and which chain shares a fold-in step with which,
/// change, never an operand or a draw.
pub fn infer_docs_amortized(model: &dyn ModelBackend, items: &[BatchItem]) -> Vec<DocInference> {
    try_infer_docs_amortized(model, items, None).unwrap_or_else(|e| {
        panic!("phi gather failed: {e} (fallible backends use try_infer_docs_amortized)")
    })
}

/// Fallible [`infer_docs_amortized`] — the dispatcher's entry point, so a
/// down shard becomes one batch-wide [`BackendError`] (each queued request
/// is answered with the mapped HTTP status) instead of a worker panic.
/// `deadline` bounds the φ gather
/// ([`ModelBackend::try_gather_phi_batch`]).
pub fn try_infer_docs_amortized(
    model: &dyn ModelBackend,
    items: &[BatchItem],
    deadline: Option<Instant>,
) -> Result<Vec<DocInference>, BackendError> {
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let metrics = crate::metrics::serve_metrics();
    let k = model.n_topics();
    let alpha = model.alpha();

    let local = model.local();
    let prepared: Vec<_> = items.iter().map(|it| local.prepare(&it.text)).collect();
    let mut segment = ConstructScratch::default();
    let spans: Vec<Vec<(u32, u32)>> = prepared
        .iter()
        .map(|p| local.segment_with(&p.doc, &mut segment))
        .collect();

    // Batch-level remap: one dense column per distinct word across the
    // whole batch. `last_doc` tracks, per column, the last document that
    // touched it, which yields the per-document distinct count (what N
    // separate gathers would have fetched) without a second hash map.
    let mut col_of: FxHashMap<u32, u32> = FxHashMap::default();
    let mut batch_distinct: Vec<u32> = Vec::new();
    let mut last_doc: Vec<usize> = Vec::new();
    let mut naive_columns = 0u64;
    let mut local_tokens: Vec<Vec<u32>> = Vec::with_capacity(items.len());
    for (d, p) in prepared.iter().enumerate() {
        let mut lt = Vec::with_capacity(p.doc.tokens.len());
        for &w in &p.doc.tokens {
            let col = *col_of.entry(w).or_insert_with(|| {
                batch_distinct.push(w);
                last_doc.push(usize::MAX);
                (batch_distinct.len() - 1) as u32
            });
            if last_doc[col as usize] != d {
                last_doc[col as usize] = d;
                naive_columns += 1;
            }
            lt.push(col);
        }
        local_tokens.push(lt);
    }

    let gather = metrics.stage(crate::metrics::Stage::PhiGather).span();
    let phi = model.try_gather_phi_batch(&batch_distinct, deadline)?;
    gather.stop();
    metrics.phi_columns_total.add(batch_distinct.len() as u64);
    metrics
        .batch_phi_columns_gathered
        .add(batch_distinct.len() as u64);
    metrics.batch_phi_columns_naive.add(naive_columns);
    let view = FrozenPhiView::new(&phi, batch_distinct.len(), k);

    // Each chain's RNG is seeded as its lane takes it up; `fold_in` hands
    // every finished chain back by index.
    let chains = items.iter().enumerate().map(|(d, item)| FoldInChain {
        rng: StdRng::seed_from_u64(item.seed),
        tokens: &local_tokens[d],
        spans: &spans[d],
        iters: item.config.fold_iters,
    });
    let mut results: Vec<DocInference> = std::iter::repeat_with(DocInference::default)
        .take(items.len())
        .collect();
    let fold = metrics.stage(crate::metrics::Stage::FoldIn).span();
    fold_in(
        &view,
        alpha,
        chains,
        &mut FoldInScratch::default(),
        |d, ndk, z| {
            metrics.infer_docs_total.inc();
            results[d] = assemble_inference(
                model,
                alpha,
                k,
                &prepared[d].doc.tokens,
                &spans[d],
                ndk,
                z,
                items[d].config.top_topics,
                prepared[d].n_oov,
            );
        },
    );
    fold.stop();
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::tests::tiny_model;

    /// One document at the config seed.
    fn infer(m: &dyn ModelBackend, text: &str, config: &InferConfig) -> DocInference {
        infer_doc(m, text, config, config.seed)
    }

    #[test]
    fn theta_is_a_distribution_and_deterministic() {
        let m = tiny_model();
        let cfg = InferConfig::default();
        let a = infer(&m, "support vector machines for data streams", &cfg);
        let b = infer(&m, "support vector machines for data streams", &cfg);
        assert_eq!(a, b, "same seed must reproduce bit-identically");
        let sum: f64 = a.theta.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "theta sums to {sum}");
        assert_eq!(a.theta.len(), m.n_topics());
        assert!(a.n_tokens > 0);
        assert_eq!(a.top_topics.len(), 2.min(cfg.top_topics));
    }

    #[test]
    fn different_seeds_may_differ_but_stay_valid() {
        let m = tiny_model();
        let a = infer(
            &m,
            "mining frequent patterns",
            &InferConfig {
                seed: 1,
                ..InferConfig::default()
            },
        );
        let b = infer(
            &m,
            "mining frequent patterns",
            &InferConfig {
                seed: 2,
                ..InferConfig::default()
            },
        );
        for inf in [&a, &b] {
            let sum: f64 = inf.theta.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn topical_documents_land_on_the_right_topic() {
        let m = tiny_model();
        let cfg = InferConfig {
            fold_iters: 30,
            ..InferConfig::default()
        };
        // The training corpus has two planted topics; held-out texts drawn
        // from each should rank different top topics.
        let stream = infer(&m, "mining frequent patterns in data streams", &cfg);
        let svm = infer(&m, "support vector machines for classification", &cfg);
        assert_ne!(
            stream.top_topics[0].0, svm.top_topics[0].0,
            "stream={:?} svm={:?}",
            stream.top_topics, svm.top_topics
        );
        // And each should be confident about it.
        assert!(stream.top_topics[0].1 > 0.5);
        assert!(svm.top_topics[0].1 > 0.5);
    }

    #[test]
    fn phrase_annotations_cover_the_document_in_order() {
        let m = tiny_model();
        let inf = infer(
            &m,
            "support vector machines, mining frequent patterns",
            &InferConfig::default(),
        );
        let n_words: usize = inf.phrases.iter().map(|p| p.words.len()).sum();
        assert_eq!(n_words, inf.n_tokens);
        for p in &inf.phrases {
            assert!((p.topic as usize) < m.n_topics());
            assert!(!p.text.is_empty());
        }
        // The trained collocation appears as one multi-word annotation.
        assert!(
            inf.phrases.iter().any(|p| p.words.len() >= 2),
            "phrases: {:?}",
            inf.phrases
        );
    }

    #[test]
    fn empty_and_oov_documents_fall_back_to_the_prior() {
        let m = tiny_model();
        let inf = infer(&m, "zzzz qqqq xxxx", &InferConfig::default());
        assert_eq!(inf.n_tokens, 0);
        assert_eq!(inf.n_oov, 3);
        assert!(inf.phrases.is_empty());
        // θ is the normalized α prior.
        let alpha_sum: f64 = m.alpha.iter().sum();
        for (t, &th) in inf.theta.iter().enumerate() {
            assert!((th - m.alpha[t] / alpha_sum).abs() < 1e-12);
        }
    }

    #[test]
    fn a_nan_theta_ranks_without_panicking() {
        // Every loader refuses an infinite α, whose θ is NaN; the ranking
        // must still not panic on one.
        let m = tiny_model();
        let alpha = [f64::INFINITY, 1.0];
        let inf = assemble_inference(&m, &alpha, 2, &[], &[], &[0, 0], &[], 2, 0);
        assert!(inf.theta[0].is_nan());
        assert_eq!(inf.top_topics.len(), 2);
    }

    #[test]
    fn fold_in_with_an_infinite_alpha_does_not_panic() {
        // Every loader refuses this model, but `alpha` is a public field.
        // A multi-word clique's non-finite weights take the same uniform
        // fallback as a singleton's, in debug builds too.
        let mut m = tiny_model();
        m.alpha[0] = f64::INFINITY;
        let text = "support vector machines for classification";
        let spans = ModelBackend::segment(&m, &m.prepare(text).doc);
        assert!(spans.iter().any(|&(s, e)| e - s > 1), "{spans:?}");
        let inf = infer_doc(&m, text, &InferConfig::default(), 7);
        assert_eq!(inf.theta.len(), 2);
    }

    #[test]
    fn batch_seed_zero_matches_single() {
        let cfg = InferConfig::default();
        assert_eq!(cfg.seed_for_index(0), cfg.seed);
        assert_ne!(cfg.seed_for_index(1), cfg.seed_for_index(2));
    }

    #[test]
    fn amortized_batch_is_bit_identical_to_sequential() {
        let m = tiny_model();
        let cfg = InferConfig::default();
        let texts = [
            "support vector machines for data streams",
            "mining frequent patterns in data streams",
            "",
            "zzzz qqqq",
            "support vector machines, mining frequent patterns",
            "data streams, support vector machines for classification",
            "frequent patterns",
        ];
        // One sweep count for every document, then a coalesced batch whose
        // jobs asked for different ones (0 sweeps included).
        let uniform = [cfg.fold_iters; 7];
        let mixed = [20, 0, 1, 5, 20, 1, 0];
        for iters in [uniform, mixed] {
            let items: Vec<BatchItem> = texts
                .iter()
                .zip(iters)
                .enumerate()
                .map(|(i, (t, fold_iters))| BatchItem {
                    text: t.to_string(),
                    config: InferConfig {
                        fold_iters,
                        ..cfg.clone()
                    },
                    seed: cfg.seed_for_index(i),
                })
                .collect();
            let batched = infer_docs_amortized(&m, &items);
            for (i, item) in items.iter().enumerate() {
                let single = infer_doc(&m, &item.text, &item.config, item.seed);
                assert_eq!(batched[i], single, "doc {i} diverged at {iters:?} sweeps");
            }
        }
        assert!(infer_docs_amortized(&m, &[]).is_empty());
    }
}
