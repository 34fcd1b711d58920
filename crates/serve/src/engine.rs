//! The query engine: batched fold-in inference over one shared
//! `Arc<dyn ModelBackend>` — φ in process or behind a fleet router, the
//! engine cannot tell.
//!
//! The backend is immutable after load, so workers need no locking — each
//! fold-in pass touches only its own scratch state.
//! [`QueryEngine::infer_batch`] runs one document per unit on
//! [`topmine_util::par::for_each`], the workspace's one scheduler, and
//! writes each result into its input's slot; document `i` always draws
//! from [`InferConfig::seed_for_index`]`(i)`, so results are bit-identical
//! whatever the worker count, scheduling, or shard count. The workers live
//! for one call, so a document that panics fails its own batch and
//! nothing after it. Single-document [`QueryEngine::infer`] calls pass
//! through a bounded LRU [`ResponseCache`] keyed on (text, seed, iters,
//! top) — the engine's model never changes, so inference is a pure
//! function of that tuple, and a hit returns the identical result without
//! re-running the chain.
//! The HTTP layer's dispatchers call
//! [`QueryEngine::try_infer_items_amortized`]: each coalesced batch probes
//! the cache per item and folds the misses in over one shared φ gather.

use crate::backend::{BackendError, GatherOptions, ModelBackend};
use crate::cache::{CacheKey, CacheStats, ResponseCache};
use crate::infer::{infer_doc, try_infer_docs_amortized, BatchItem, DocInference, InferConfig};
use std::sync::Arc;
use topmine_util::par;

/// Default bound of the response cache ([`QueryEngine::new`]); tune with
/// [`QueryEngine::with_cache_capacity`].
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Batched fold-in inference over a shared model backend, with a response
/// cache in front of the single-document path.
pub struct QueryEngine {
    model: Arc<dyn ModelBackend>,
    /// Workers for [`QueryEngine::infer_batch`].
    n_threads: usize,
    cache: Option<ResponseCache>,
}

impl QueryEngine {
    /// An engine with the default response cache
    /// ([`DEFAULT_CACHE_CAPACITY`]).
    pub fn new(model: Arc<dyn ModelBackend>, n_threads: usize) -> Self {
        Self::with_cache_capacity(model, n_threads, DEFAULT_CACHE_CAPACITY)
    }

    /// An engine whose cache holds at most `cache_capacity` responses
    /// (0 disables caching entirely).
    pub fn with_cache_capacity(
        model: Arc<dyn ModelBackend>,
        n_threads: usize,
        cache_capacity: usize,
    ) -> Self {
        Self {
            model,
            n_threads: n_threads.max(1),
            cache: (cache_capacity > 0).then(|| ResponseCache::new(cache_capacity)),
        }
    }

    pub fn model(&self) -> &Arc<dyn ModelBackend> {
        &self.model
    }

    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Hit/miss counters of the response cache (all zero when caching is
    /// disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map(ResponseCache::stats)
            .unwrap_or(CacheStats {
                hits: 0,
                misses: 0,
                entries: 0,
                capacity: 0,
            })
    }

    /// Infer one document on the calling thread (no queueing); equals
    /// `infer_batch(&[text])[0]`. Answered from the response cache when
    /// the same (text, seed, iters, top) was inferred before.
    pub fn infer(&self, text: &str, config: &InferConfig) -> DocInference {
        let Some(cache) = &self.cache else {
            return infer_doc(self.model.as_ref(), text, config, config.seed_for_index(0));
        };
        let metrics = crate::metrics::serve_metrics();
        let lookup = metrics.stage(crate::metrics::Stage::CacheLookup).span();
        let key = CacheKey::new(text, config);
        if let Some(hit) = cache.get(&key) {
            lookup.stop();
            return hit;
        }
        lookup.stop();
        let inference = infer_doc(self.model.as_ref(), text, config, config.seed_for_index(0));
        cache.put(key, inference.clone());
        inference
    }

    /// Infer every document, one document per unit over
    /// [`QueryEngine::n_threads`] workers; results come back in input
    /// order and are independent of the worker count (per-index seeds).
    /// The batch path bypasses the response cache (bulk workloads would
    /// churn it).
    pub fn infer_batch<S: AsRef<str> + Sync>(
        &self,
        texts: &[S],
        config: &InferConfig,
    ) -> Vec<DocInference> {
        let model = self.model.as_ref();
        let mut results = vec![DocInference::default(); texts.len()];
        let units = texts.iter().zip(&mut results).enumerate();
        par::for_each(
            units,
            &mut vec![(); self.n_threads],
            |_, (i, (text, out))| {
                *out = infer_doc(model, text.as_ref(), config, config.seed_for_index(i))
            },
        );
        results
    }

    /// Cache-aware amortized batch on the calling thread: every item
    /// probes the LRU individually (hits skip fold-in entirely), and the
    /// misses share **one** φ scatter-gather via
    /// [`infer_docs_amortized`]. Results come back in item order and are
    /// bit-identical to per-item [`infer_doc`] calls with the items'
    /// seeds, whatever mix of hits and misses occurs.
    pub fn infer_items_amortized(&self, items: &[BatchItem]) -> Vec<DocInference> {
        self.try_infer_items_amortized(items, &GatherOptions::default())
            .unwrap_or_else(|e| panic!("phi gather failed: {e}"))
    }

    /// Fallible [`infer_items_amortized`](QueryEngine::infer_items_amortized):
    /// a shard failure during the shared gather fails the whole miss set
    /// (cache hits found before the failure are discarded with it — the
    /// dispatcher answers every queued request with the error). Identical
    /// results on the success path.
    pub fn try_infer_items_amortized(
        &self,
        items: &[BatchItem],
        gather_opts: &GatherOptions,
    ) -> Result<Vec<DocInference>, BackendError> {
        let metrics = crate::metrics::serve_metrics();
        let mut results: Vec<Option<DocInference>> = (0..items.len()).map(|_| None).collect();
        let mut miss_idx: Vec<usize> = Vec::new();
        if let Some(cache) = &self.cache {
            for (i, item) in items.iter().enumerate() {
                let lookup = metrics.stage(crate::metrics::Stage::CacheLookup).span();
                let key = CacheKey::new_seeded(&item.text, &item.config, item.seed);
                let hit = cache.get(&key);
                lookup.stop();
                match hit {
                    Some(found) => results[i] = Some(found),
                    None => miss_idx.push(i),
                }
            }
        } else {
            miss_idx.extend(0..items.len());
        }
        if !miss_idx.is_empty() {
            // All-miss batches (and cacheless engines) fold the caller's
            // slice directly; only a mixed batch pays for compacting the
            // misses into their own buffer.
            let inferred = if miss_idx.len() == items.len() {
                try_infer_docs_amortized(self.model.as_ref(), items, gather_opts)?
            } else {
                let misses: Vec<BatchItem> = miss_idx.iter().map(|&i| items[i].clone()).collect();
                try_infer_docs_amortized(self.model.as_ref(), &misses, gather_opts)?
            };
            for (&i, inference) in miss_idx.iter().zip(inferred) {
                if let Some(cache) = &self.cache {
                    let item = &items[i];
                    cache.put(
                        CacheKey::new_seeded(&item.text, &item.config, item.seed),
                        inference.clone(),
                    );
                }
                results[i] = Some(inference);
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every item resolved"))
            .collect())
    }

    /// Amortized batch over one config: document `i` draws
    /// [`InferConfig::seed_for_index`]`(i)` — the same seeds as
    /// [`infer_batch`](QueryEngine::infer_batch) — but the whole batch
    /// shares a single φ gather instead of one gather per document.
    pub fn infer_batch_amortized<S: AsRef<str>>(
        &self,
        texts: &[S],
        config: &InferConfig,
    ) -> Vec<DocInference> {
        let items: Vec<BatchItem> = texts
            .iter()
            .enumerate()
            .map(|(i, text)| BatchItem {
                text: text.as_ref().to_string(),
                config: config.clone(),
                seed: config.seed_for_index(i),
            })
            .collect();
        self.infer_items_amortized(&items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::tests::tiny_model;
    use crate::frozen::FrozenModel;

    #[test]
    fn batch_matches_single_and_is_ordered() {
        let model = Arc::new(tiny_model());
        let engine = QueryEngine::new(model.clone(), 3);
        let texts: Vec<String> = (0..12)
            .map(|i| format!("mining frequent patterns number {i}"))
            .collect();
        let cfg = InferConfig::default();
        let batch = engine.infer_batch(&texts, &cfg);
        assert_eq!(batch.len(), texts.len());
        // Entry 0 must equal the single-document path.
        assert_eq!(batch[0], engine.infer(&texts[0], &cfg));
        // Every entry must equal a direct seeded call for its index.
        for (i, (text, inference)) in texts.iter().zip(&batch).enumerate() {
            assert_eq!(
                *inference,
                model.infer_seeded(text, &cfg, cfg.seed_for_index(i))
            );
        }
    }

    #[test]
    fn batch_is_identical_across_thread_counts() {
        let model = Arc::new(tiny_model());
        let texts: Vec<String> = (0..16)
            .map(|i| format!("support vector machines task {i}, data streams"))
            .collect();
        let cfg = InferConfig::default();
        let single = QueryEngine::new(model.clone(), 1).infer_batch(&texts, &cfg);
        for n_threads in [2usize, 3, 7] {
            let many = QueryEngine::new(model.clone(), n_threads).infer_batch(&texts, &cfg);
            assert_eq!(single, many, "n_threads={n_threads}");
        }
    }

    /// Delegates to a frozen model, except that its φ gather panics on one
    /// marker word — as `infer_doc` does when a remote shard is down.
    struct FailsOnWord {
        inner: FrozenModel,
        marker: u32,
    }

    impl ModelBackend for FailsOnWord {
        fn local(&self) -> &FrozenModel {
            &self.inner
        }
        fn try_gather_phi_batch(
            &self,
            words: &[u32],
            opts: &GatherOptions,
        ) -> Result<Vec<f64>, BackendError> {
            assert!(
                !words.contains(&self.marker),
                "gather failed on the marker word"
            );
            self.inner.try_gather_phi_batch(words, opts)
        }
    }

    #[test]
    fn a_failing_document_fails_its_batch_and_no_later_one() {
        let inner = tiny_model();
        let marker = inner.prepare("classification").doc.tokens[0];
        let model = Arc::new(FailsOnWord { inner, marker });
        let cfg = InferConfig::default();
        let failing: Vec<String> = (0..6).map(|i| format!("classification task {i}")).collect();
        let clean: Vec<String> = (0..6)
            .map(|i| format!("mining frequent patterns number {i}"))
            .collect();
        for n_threads in [1usize, 3] {
            let engine = QueryEngine::new(model.clone(), n_threads);
            let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.infer_batch(&failing, &cfg)
            }));
            assert!(
                failed.is_err(),
                "n_threads={n_threads}: the batch must fail"
            );
            let batch = engine.infer_batch(&clean, &cfg);
            for (i, (text, inference)) in clean.iter().zip(&batch).enumerate() {
                let alone = model.inner.infer_seeded(text, &cfg, cfg.seed_for_index(i));
                assert_eq!(*inference, alone, "n_threads={n_threads} doc {i}");
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = QueryEngine::new(Arc::new(tiny_model()), 2);
        assert!(engine
            .infer_batch::<&str>(&[], &InferConfig::default())
            .is_empty());
    }

    #[test]
    fn repeated_queries_hit_the_cache_with_identical_results() {
        let engine = QueryEngine::new(Arc::new(tiny_model()), 2);
        let cfg = InferConfig::default();
        let first = engine.infer("support vector machines", &cfg);
        let second = engine.infer("support vector machines", &cfg);
        assert_eq!(first, second);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // A different seed is a different cache entry.
        let third = engine.infer(
            "support vector machines",
            &InferConfig {
                seed: 99,
                ..cfg.clone()
            },
        );
        assert_eq!(third.theta.len(), first.theta.len());
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
    }

    #[test]
    fn amortized_batch_matches_pool_batch_and_fills_the_cache() {
        let model = Arc::new(tiny_model());
        let engine = QueryEngine::new(model.clone(), 2);
        let texts: Vec<String> = (0..8)
            .map(|i| format!("mining frequent patterns number {i}"))
            .collect();
        let cfg = InferConfig::default();
        let amortized = engine.infer_batch_amortized(&texts, &cfg);
        assert_eq!(amortized, engine.infer_batch(&texts, &cfg));
        // Second amortized pass answers every document from the cache.
        let before = engine.cache_stats();
        let again = engine.infer_batch_amortized(&texts, &cfg);
        assert_eq!(again, amortized);
        let after = engine.cache_stats();
        assert_eq!(after.hits, before.hits + texts.len() as u64);
        // Document 0 keys on the config seed, so a single `infer` of the
        // same text is a hit too.
        assert_eq!(engine.infer(&texts[0], &cfg), amortized[0]);
        assert_eq!(engine.cache_stats().hits, after.hits + 1);
    }

    #[test]
    fn cache_can_be_disabled() {
        let engine = QueryEngine::with_cache_capacity(Arc::new(tiny_model()), 1, 0);
        let cfg = InferConfig::default();
        let a = engine.infer("mining frequent patterns", &cfg);
        let b = engine.infer("mining frequent patterns", &cfg);
        assert_eq!(a, b, "determinism holds without the cache");
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.capacity), (0, 0, 0));
    }
}
