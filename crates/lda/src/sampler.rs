//! Collapsed Gibbs sampling for PhraseLDA (paper §5.3, Eq. 7).
//!
//! The sampler operates on *groups* (cliques). For a clique `C_{d,g}` of
//! size `s` the posterior over its single topic value `k` is
//!
//! ```text
//! p(C = k | W, Z¬C) ∝ ∏_{j=1..s} (α_k + N_dk¬C + j − 1)
//!                     · (β_{w_j} + N_{w_j,k}¬C + m_j) / (Σβ + N_k¬C + j − 1)
//! ```
//!
//! where `m_j` counts previous occurrences of word `w_j` *within the clique*
//! (the exact Gamma-ratio form from the paper's appendix; Eq. 7 prints the
//! common case of distinct words). With `s = 1` this reduces to the
//! standard LDA update, so plain LDA is run through the identical code path
//! with singleton groups — mirroring the paper's measurement setup ("the
//! same JAVA implementation of PhraseLDA is used (as LDA is a special case
//! of PhraseLDA)").
//!
//! The posterior itself lives in [`crate::kernel`] (shared with the serving
//! layer's fold-in); this module is the *scheduler*: it owns the chain
//! state ([`TopicCounts`] + per-group assignments) and decides how a sweep
//! walks the corpus.
//!
//! # Two sweep schedules, one update
//!
//! A sweep is a schedule over one per-document Gibbs update
//! (`update_doc`): each clique of the document in order is taken out of
//! the counts, its topic drawn, and put back. The update reads and writes
//! the word side through one `WordTables` — `N_wk` rows, their nonzero
//! rows, `N_k` — indexed by the token ids it is handed, so what differs
//! between the two schedules stays in their callers.
//!
//! With `n_threads == 1` the sweep is the classic sequential scan: the
//! update runs on the live tables with the chain's one RNG, every update
//! is visible to the next, and the smoothing bucket's alias table is
//! rebuilt at a document boundary once enough topics went dirty. With
//! `n_threads = T ≥ 2` the sweep is a *snapshot sweep* in the style of
//! Newman et al.'s AD-LDA ("Distributed Algorithms for Topic Models", JMLR
//! 2009): blocks of [`DOC_BLOCK`] documents go to whichever worker is free
//! next ([`topmine_util::par::for_each`], the workspace's one scheduler).
//! Each document's rows are gathered from the sweep-start `N_wk`/`N_k`
//! onto doc-local word ids, the dirty set is cleared (the alias table was
//! built over the sweep-start `N_k`), and the update runs on that copy
//! with an RNG stream derived from `(seed, sweep, doc)`; the per-worker
//! count deltas merge at a barrier. The sweep-start tables need no copy:
//! workers read the live tables in place, because nothing writes them
//! until the barrier merge runs after the pass.
//!
//! Each document's delta is folded from only the cells it moved: for each
//! clique whose topic changed, its tokens' (word, old) and (word, new)
//! cells emit `local − table` once where the two differ. The merge thus
//! costs what the sweep changed, not distinct words × K.
//!
//! Because each document's view and randomness are independent of which
//! worker swept it, the chain is **bit-identical for every `T ≥ 2`** —
//! the same determinism contract the serving layer proves for sharded
//! inference. The parallel chain *does* differ from the sequential one
//! (cross-document updates within a sweep are deferred to the barrier);
//! that is the documented snapshot-sweep approximation, property-tested in
//! `tests/parallel_determinism.rs` rather than assumed away.

use crate::counts::{CountRow, TopicCounts, WordTables};
use crate::kernel::{
    self, doc_stream_seed, sample_clique, sample_singleton_sparse_split, CliqueScratch, DocBucket,
    FixedPhiView, FoldInChain, FoldInScratch, SingletonBucket, SmoothingBucket, TrainView,
};
use crate::model::{GroupedDoc, GroupedDocs};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;
use topmine_obs::{DrawSplit, SweepTelemetry, TraceEvent, TraceSink};
use topmine_util::par::{self, DOC_BLOCK};
use topmine_util::stats::digamma;

/// Sampler configuration.
#[derive(Debug, Clone)]
pub struct TopicModelConfig {
    /// Number of topics K.
    pub n_topics: usize,
    /// Initial symmetric document-topic hyperparameter (each α_k starts at
    /// this; optimization may make the vector asymmetric).
    pub alpha: f64,
    /// Symmetric topic-word hyperparameter β.
    pub beta: f64,
    /// RNG seed for initialization and sweeps.
    pub seed: u64,
    /// Optimize α (asymmetric) and β every this many sweeps via Minka's
    /// fixed point; `0` disables (the paper disables it for timed runs).
    pub optimize_every: usize,
    /// Sweeps to run before the first hyperparameter update.
    pub burn_in: usize,
    /// Gibbs worker threads. `1` runs the exact sequential chain; `T ≥ 2`
    /// runs snapshot-and-merge sweeps whose result is bit-identical for
    /// every `T ≥ 2` (see module docs).
    pub n_threads: usize,
}

impl Default for TopicModelConfig {
    fn default() -> Self {
        Self {
            n_topics: 10,
            alpha: 50.0 / 10.0,
            beta: 0.01,
            seed: 1,
            optimize_every: 0,
            burn_in: 50,
            n_threads: 1,
        }
    }
}

impl TopicModelConfig {
    pub fn new(n_topics: usize) -> Self {
        Self {
            n_topics,
            // The conventional LDA default α = 50/K used by MALLET.
            alpha: 50.0 / n_topics as f64,
            ..Self::default()
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_hyper_opt(mut self, every: usize, burn_in: usize) -> Self {
        self.optimize_every = every;
        self.burn_in = burn_in;
        self
    }

    pub fn with_threads(mut self, n_threads: usize) -> Self {
        self.n_threads = n_threads;
        self
    }
}

// Per-sweep telemetry (barrier-merge volume and time, sweep timing,
// singleton draw split) lives in the shared
// [`topmine_obs::SweepTelemetry`] struct, surfaced by
// [`PhraseLda::sweep_stats`] and consumed by the perfbench fit workload,
// the `--progress` flag, and the `TOPMINE_TRACE` sink.

/// The state [`update_doc`] reuses across cliques, documents and sweeps:
/// the draw buffers, the two sparse buckets, and the draw split it
/// tallies until its caller takes it.
#[derive(Debug, Clone, Default)]
struct UpdateScratch {
    /// Kernel scratch (within-clique multiplicities).
    clique: CliqueScratch,
    /// The dense draw's running sums over topics (length K).
    cum: Vec<f64>,
    /// Sparse-kernel topic-word weights (length = current word's nnz).
    q_buf: Vec<f64>,
    /// Sparse-kernel smoothing bucket (alias table + dirty set).
    smoothing: SmoothingBucket,
    /// Sparse-kernel document bucket.
    doc_bucket: DocBucket,
    /// Singleton/dense draw split since the caller last took it.
    draws: DrawSplit,
}

impl UpdateScratch {
    /// Refresh both sparse buckets for topic `t` after a move left it at
    /// `N_dk = ndk_t` and `N_k = nk_t`; one reciprocal serves both.
    #[inline]
    fn refresh(&mut self, prior: Prior<'_>, t: usize, ndk_t: u32, nk_t: u64) {
        let inv_den = 1.0 / (prior.v_beta + nk_t as f64);
        self.doc_bucket.update_topic(t, ndk_t, prior.beta, inv_den);
        self.smoothing
            .mark_dirty(t, prior.alpha[t], prior.beta, inv_den);
    }
}

/// Per-worker reusable sweep state: the update's state plus the snapshot
/// sweep's gather buffers and merge delta. One of these lives per worker
/// (index 0 also serves the sequential sweep, which uses only `update`),
/// allocated on first use and reused across documents *and* sweeps —
/// buffers are cleared rather than freed, so the steady-state fit loop
/// performs no per-clique, per-document or per-delta heap allocation.
#[derive(Debug, Clone, Default)]
struct SweepScratch {
    update: UpdateScratch,
    /// Word → epoch of the document that last claimed the slot (length V).
    stamp: Vec<u32>,
    /// Word → doc-local id, valid when `stamp[w]` equals the current epoch.
    local_id: Vec<u32>,
    /// Distinct words of the current document, in first-seen order.
    distinct: Vec<u32>,
    /// The document's tokens remapped to doc-local ids.
    local_tokens: Vec<u32>,
    /// Gathered `N_wk` rows for the distinct words (`n_distinct × K`).
    local_wk: Vec<u32>,
    /// Gathered nonzero-topic rows for the distinct words, flat at
    /// capacity K per row like `TopicCounts`' `nz_wk`: local word `li`'s
    /// list is `local_nz[li*K .. li*K + local_nz_len[li]]`.
    local_nz: Vec<u16>,
    /// Live lengths of the `local_nz` rows.
    local_nz_len: Vec<u16>,
    /// Gathered `N_k` (length K).
    local_nk: Vec<u64>,
    /// Stamp epoch of the document currently being gathered.
    epoch: u32,
    /// The document's clique topics before its update, to find the
    /// cliques that moved.
    z_before: Vec<u16>,
    /// The worker's contribution to this sweep's barrier merge.
    delta: WorkerDelta,
}

impl SweepScratch {
    /// Start a snapshot sweep: an empty delta, and the smoothing alias
    /// table built over the sweep-start `N_k`. Every worker starts from
    /// this state, before any block is handed out, so a document's draws
    /// cannot depend on which worker sweeps it. Every document restarts
    /// its local `N_k` from that table and resets the dirty set, so the
    /// alias table never goes stale within a sweep.
    fn begin_sweep(&mut self, prior: Prior<'_>, n_k: &[u64]) {
        self.delta.wk.clear();
        self.delta.k.clear();
        self.delta.k.resize(n_k.len(), 0);
        self.update
            .smoothing
            .rebuild(prior.alpha, prior.beta, prior.v_beta, n_k);
    }

    /// Advance the word-stamp epoch for a new document, (re)initializing
    /// the stamp table when the vocabulary size changes or the u32 epoch
    /// space wraps. Returns the epoch the document should stamp with.
    fn next_epoch(&mut self, v: usize) -> u32 {
        if self.stamp.len() != v {
            self.stamp.clear();
            self.stamp.resize(v, u32::MAX);
            self.local_id.clear();
            self.local_id.resize(v, 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.epoch == u32::MAX {
            self.stamp.fill(u32::MAX);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Sweep one document of a snapshot sweep against the sweep-start
    /// word side `words`, and add the cells it moved to the worker's delta
    /// for the barrier merge — `Δ N_wk` as a sparse `(index, delta)` list,
    /// so merge cost tracks how much actually changed rather than `V × K`.
    ///
    /// The document's rows are gathered onto dense doc-local word ids (the
    /// same scatter-gather shape `topmine_serve::infer` uses) and
    /// [`update_doc`] runs on that copy, so the document reads
    /// `sweep-start tables + own-document delta` without ever writing
    /// shared state: the result depends only on `(tables, doc, its RNG
    /// stream)`, never on which worker runs the block.
    fn sweep_doc(
        &mut self,
        rng: &mut StdRng,
        prior: Prior<'_>,
        words: &WordTables<'_>,
        doc: &GroupedDoc,
        z: &mut [u16],
        counts: CountRow<'_>,
    ) {
        let k = prior.alpha.len();
        // Gather: dense doc-local word ids plus their table rows. The
        // word → doc-local id map is a stamped table (O(1), no hashing);
        // the stamp records which epoch (document) last claimed the slot.
        let epoch = self.next_epoch(words.nz_wk_len.len());
        self.distinct.clear();
        self.local_tokens.clear();
        for &w in &doc.tokens {
            let wi = w as usize;
            if self.stamp[wi] != epoch {
                self.stamp[wi] = epoch;
                self.local_id[wi] = self.distinct.len() as u32;
                self.distinct.push(w);
            }
            self.local_tokens.push(self.local_id[wi]);
        }
        // Gathered rows stay unsigned: a document only ever removes counts
        // its own previous-sweep assignments put into the table. The
        // nonzero rows come along; the update keeps them in sync.
        let n_distinct = self.distinct.len();
        self.local_wk.clear();
        if self.local_nz.len() < n_distinct * k {
            self.local_nz.resize(n_distinct * k, 0);
            self.local_nz_len.resize(n_distinct, 0);
        }
        for (li, &w) in self.distinct.iter().enumerate() {
            let (row, nz) = words.word(w);
            self.local_wk.extend_from_slice(row);
            self.local_nz[li * k..li * k + nz.len()].copy_from_slice(nz);
            self.local_nz_len[li] = nz.len() as u16;
        }
        self.local_nk.clear();
        self.local_nk.extend_from_slice(words.n_k);
        // `local_nk` just reset to the `N_k` the alias table was built
        // over: the dirty set starts empty for every document.
        self.update.smoothing.clear_dirty();
        self.z_before.clear();
        self.z_before.extend_from_slice(z);
        let mut local = WordTables {
            n_wk: &mut self.local_wk,
            nz_wk: &mut self.local_nz,
            nz_wk_len: &mut self.local_nz_len,
            n_k: &mut self.local_nk,
        };
        let side = DocSide {
            tokens: &self.local_tokens,
            ends: &doc.group_ends,
            z,
            counts,
        };
        update_doc(rng, prior, &mut local, side, &mut self.update);

        // Fold the document's delta from the cliques that changed topic:
        // each of their (word, old) and (word, new) cells emits
        // `local − table` once, then matches the table, so a repeated cell
        // (or one the document moved back) emits nothing.
        let delta = &mut self.delta;
        for ((&old, &new), (s, e)) in self.z_before.iter().zip(z.iter()).zip(doc.group_ranges()) {
            if old == new {
                continue;
            }
            delta.k[old as usize] -= (e - s) as i64;
            delta.k[new as usize] += (e - s) as i64;
            for &lw in &self.local_tokens[s..e] {
                for t in [old as usize, new as usize] {
                    let idx = self.distinct[lw as usize] as usize * k + t;
                    let local = &mut self.local_wk[lw as usize * k + t];
                    if *local != words.n_wk[idx] {
                        let dv = *local as i64 - words.n_wk[idx] as i64;
                        delta.wk.push((idx as u32, dv as i32));
                        *local = words.n_wk[idx];
                    }
                }
            }
        }
    }
}

/// The PhraseLDA (and LDA) collapsed Gibbs sampler.
#[derive(Debug, Clone)]
pub struct PhraseLda {
    docs: GroupedDocs,
    k: usize,
    v: usize,
    /// Document-topic Dirichlet (asymmetric after optimization).
    alpha: Vec<f64>,
    /// Symmetric topic-word Dirichlet.
    beta: f64,
    /// The `N_dk`/`N_wk`/`N_k` tables and their nonzero indexes.
    counts: TopicCounts,
    /// Topic of each group: z[d][g].
    z: Vec<Vec<u16>>,
    /// Sequential-path RNG (initialization and `n_threads == 1` sweeps);
    /// parallel sweeps draw from per-document streams instead.
    rng: StdRng,
    sweeps_done: usize,
    config: TopicModelConfig,
    /// One reusable scratch per worker (index 0 doubles as the
    /// sequential sweep's scratch), persisted across sweeps.
    scratch: Vec<SweepScratch>,
    stats: SweepTelemetry,
    /// Optional JSONL sink receiving one event per sweep (from
    /// `TOPMINE_TRACE` by default; see [`PhraseLda::set_trace`]).
    trace: Option<Arc<TraceSink>>,
}

impl PhraseLda {
    /// Initialize with uniformly random topic assignments per group.
    /// Initialization is always sequential, so a parallel run starts from
    /// the same state as the sequential chain with the same seed.
    pub fn new(docs: GroupedDocs, config: TopicModelConfig) -> Self {
        let k = config.n_topics;
        assert!(k >= 1 && k <= u16::MAX as usize, "bad topic count");
        assert!(
            config.alpha > 0.0 && config.beta > 0.0,
            "hyperparameters must be positive"
        );
        debug_assert!(docs.validate().is_ok());
        let v = docs.vocab_size;
        let d = docs.n_docs();
        let mut model = Self {
            k,
            v,
            alpha: vec![config.alpha; k],
            beta: config.beta,
            counts: TopicCounts::new(d, v, k),
            z: Vec::with_capacity(d),
            rng: StdRng::seed_from_u64(config.seed),
            sweeps_done: 0,
            config,
            docs,
            scratch: Vec::new(),
            stats: SweepTelemetry::default(),
            trace: TraceSink::from_env(),
        };
        for d in 0..model.docs.n_docs() {
            let n_groups = model.docs.docs[d].n_groups();
            let mut zs = Vec::with_capacity(n_groups);
            for g in 0..n_groups {
                let topic = model.rng.gen_range(0..model.k) as u16;
                zs.push(topic);
                let (start, end) = model.group_range(d, g);
                model
                    .counts
                    .add_group(d, &model.docs.docs[d].tokens[start..end], topic);
            }
            model.z.push(zs);
        }
        model
    }

    /// Plain LDA over a corpus: singleton groups.
    pub fn lda(corpus: &topmine_corpus::Corpus, config: TopicModelConfig) -> Self {
        Self::new(GroupedDocs::unigrams(corpus), config)
    }

    #[inline]
    fn group_range(&self, d: usize, g: usize) -> (usize, usize) {
        let doc = &self.docs.docs[d];
        let start = if g == 0 {
            0
        } else {
            doc.group_ends[g - 1] as usize
        };
        (start, doc.group_ends[g] as usize)
    }

    /// One full Gibbs sweep over every group (Eq. 7 update per clique) —
    /// sequential or parallel according to `config.n_threads`.
    pub fn step(&mut self) {
        let before = self.stats;
        let sweep_start = std::time::Instant::now();
        if self.config.n_threads > 1 {
            self.sweep_parallel(self.config.n_threads);
        } else {
            self.sweep_sequential();
        }
        self.stats.sweeps += 1;
        self.stats.sweep_nanos += sweep_start.elapsed().as_nanos() as u64;
        self.sweeps_done += 1;
        if self.config.optimize_every > 0
            && self.sweeps_done >= self.config.burn_in
            && self.sweeps_done.is_multiple_of(self.config.optimize_every)
        {
            self.optimize_hyperparameters();
        }
        if let Some(trace) = &self.trace {
            let d = self.stats.since(&before);
            trace.emit(
                TraceEvent::new("sweep")
                    .u64("sweep", self.sweeps_done as u64)
                    .u64("threads", self.config.n_threads.max(1) as u64)
                    .f64("secs", d.sweep_nanos as f64 / 1e9)
                    .f64("snapshot_secs", d.snapshot_nanos as f64 / 1e9)
                    .u64("merge_delta_entries", d.merge_delta_entries)
                    .u64("draws_topic_word", d.draws.topic_word)
                    .u64("draws_doc", d.draws.doc)
                    .u64("draws_smoothing", d.draws.smoothing)
                    .u64("draws_dense", d.draws.dense),
            );
        }
    }

    /// The exact sequential sweep: [`update_doc`] on the live tables with
    /// the chain's one RNG, so every clique update is visible to the next.
    fn sweep_sequential(&mut self) {
        let k = self.k;
        let prior = Prior {
            alpha: &self.alpha,
            beta: self.beta,
            v_beta: self.v as f64 * self.beta,
        };
        if self.scratch.is_empty() {
            self.scratch.push(SweepScratch::default());
        }
        let s = &mut self.scratch[0].update;
        let mut views = self.counts.sweep_views();
        s.smoothing
            .rebuild(prior.alpha, prior.beta, prior.v_beta, views.words.n_k);
        for (d, (doc, z)) in self.docs.docs.iter().zip(&mut self.z).enumerate() {
            // Rebuild cadence: the alias table goes stale as topics
            // dirty; refresh at document boundaries once the dirty
            // walk would cost a meaningful fraction of a dense scan.
            if smoothing_rebuild_due(s.smoothing.n_dirty(), k) {
                s.smoothing
                    .rebuild(prior.alpha, prior.beta, prior.v_beta, views.words.n_k);
            }
            let side = DocSide {
                tokens: &doc.tokens,
                ends: &doc.group_ends,
                z,
                counts: CountRow::at(views.n_dk, views.nz_dk, views.nz_dk_len, d, k),
            };
            update_doc(&mut self.rng, prior, &mut views.words, side, s);
        }
        self.stats.draws.merge(&std::mem::take(&mut s.draws));
    }

    /// One snapshot sweep over blocks of documents (see module docs):
    /// bit-identical for every `threads ≥ 2`, regardless of how many cores
    /// actually run or which worker runs which block.
    ///
    /// Workers read the live `N_wk`/`N_k` in place — the barrier merge
    /// below is the only writer, and it runs after the pass — so the
    /// sweep-start state costs no copy, and the merge writes each delta
    /// entry once.
    fn sweep_parallel(&mut self, threads: usize) {
        if self.docs.n_docs() == 0 {
            return;
        }
        // Sparse merge deltas index the V×K table through u32.
        assert!(
            self.v.saturating_mul(self.k) <= u32::MAX as usize,
            "vocab_size * n_topics exceeds the u32 delta index space"
        );
        let k = self.k;
        let prior = Prior {
            alpha: &self.alpha,
            beta: self.beta,
            v_beta: self.v as f64 * self.beta,
        };
        if self.scratch.len() < threads {
            self.scratch.resize_with(threads, SweepScratch::default);
        }
        self.stats.parallel_sweeps += 1;
        let views = self.counts.sweep_views();
        let words = &views.words;
        let (sweep, seed) = (self.sweeps_done as u64, self.config.seed);
        let workers = &mut self.scratch[..threads];
        for scratch in workers.iter_mut() {
            scratch.begin_sweep(prior, words.n_k);
        }
        let blocks = self
            .docs
            .docs
            .chunks(DOC_BLOCK)
            .zip(self.z.chunks_mut(DOC_BLOCK))
            .zip(views.n_dk.chunks_mut(DOC_BLOCK * k))
            .zip(views.nz_dk.chunks_mut(DOC_BLOCK * k))
            .zip(views.nz_dk_len.chunks_mut(DOC_BLOCK))
            .enumerate();
        par::for_each(
            blocks,
            workers,
            |scratch, (b, ((((docs, z), ndk), nz_dk), nz_dk_len))| {
                for (i, (doc, z)) in docs.iter().zip(z).enumerate() {
                    if doc.group_ends.is_empty() {
                        continue;
                    }
                    let d = (b * DOC_BLOCK + i) as u64;
                    let mut rng = StdRng::seed_from_u64(doc_stream_seed(seed, sweep, d));
                    let counts = CountRow::at(ndk, nz_dk, nz_dk_len, i, k);
                    scratch.sweep_doc(&mut rng, prior, words, doc, z, counts);
                }
            },
        );
        // Barrier merge. Integer deltas commute and the nonzero lists are
        // sorted sets, so the merged tables are independent of which worker
        // swept which block and of merge order.
        let merge_start = std::time::Instant::now();
        for scratch in &mut self.scratch[..threads] {
            let delta = &mut scratch.delta;
            self.stats.merge_delta_entries += delta.wk.len() as u64;
            self.counts.apply_delta(&delta.wk, &delta.k);
            self.stats
                .draws
                .merge(&std::mem::take(&mut scratch.update.draws));
            // Early sweeps move several times more cells than later ones
            // (1.8M against 0.5M entries a sweep on fit-abstracts). Once a
            // sweep fills less than half the buffer, return the excess
            // rather than hold the first sweep's peak for the whole run.
            if delta.wk.capacity() > 2 * delta.wk.len() {
                delta.wk.shrink_to_fit();
            }
        }
        self.stats.snapshot_nanos += merge_start.elapsed().as_nanos() as u64;
    }

    /// Run `iters` sweeps.
    pub fn run(&mut self, iters: usize) {
        for _ in 0..iters {
            self.step();
        }
    }

    /// Run `iters` sweeps, invoking `callback(sweep_index, &self)` after
    /// each (used by the perplexity-vs-iteration experiments, Figures 6/7).
    pub fn run_with<F: FnMut(usize, &Self)>(&mut self, iters: usize, mut callback: F) {
        for _ in 0..iters {
            self.step();
            callback(self.sweeps_done, self);
        }
    }

    // ----- accessors -------------------------------------------------------

    pub fn n_topics(&self) -> usize {
        self.k
    }

    pub fn vocab_size(&self) -> usize {
        self.v
    }

    pub fn docs(&self) -> &GroupedDocs {
        &self.docs
    }

    pub fn sweeps_done(&self) -> usize {
        self.sweeps_done
    }

    pub fn alpha(&self) -> &[f64] {
        &self.alpha
    }

    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The live count tables (read-only).
    pub fn counts(&self) -> &TopicCounts {
        &self.counts
    }

    /// Cumulative sweep telemetry (timing, barrier-merge volume,
    /// singleton-draw split) accumulated over all sweeps so far.
    pub fn sweep_stats(&self) -> SweepTelemetry {
        self.stats
    }

    /// Replace the per-sweep trace sink (defaults to the `TOPMINE_TRACE`
    /// environment sink, or none). Pass `None` to silence tracing.
    pub fn set_trace(&mut self, trace: Option<Arc<TraceSink>>) {
        self.trace = trace;
    }

    /// Topic currently assigned to group `g` of document `d`.
    pub fn topic_of_group(&self, d: usize, g: usize) -> u16 {
        self.z[d][g]
    }

    /// Point estimate of the topic-word distribution φ (K × V).
    pub fn phi(&self) -> Vec<Vec<f64>> {
        let v_beta = self.v as f64 * self.beta;
        (0..self.k)
            .map(|t| {
                let den = self.counts.n_k(t) as f64 + v_beta;
                (0..self.v)
                    .map(|w| (self.counts.n_wk(w as u32, t) as f64 + self.beta) / den)
                    .collect()
            })
            .collect()
    }

    /// Point estimate of the document-topic distribution θ (D × K).
    pub fn theta(&self) -> Vec<Vec<f64>> {
        let alpha_sum: f64 = self.alpha.iter().sum();
        (0..self.docs.n_docs())
            .map(|d| {
                let n_d = self.docs.docs[d].n_tokens() as f64;
                let den = n_d + alpha_sum;
                (0..self.k)
                    .map(|t| (self.counts.n_dk(d, t) as f64 + self.alpha[t]) / den)
                    .collect()
            })
            .collect()
    }

    /// Number of *effective* topics: topics holding at least `min_share` of
    /// all assigned tokens. A cheap data-driven estimate of how many of the
    /// K requested topics the corpus actually uses — a pragmatic stand-in
    /// for the nonparametric prior the paper's §8 proposes as future work
    /// (run with generous K, read off the occupied topics).
    pub fn effective_topics(&self, min_share: f64) -> usize {
        let total: u64 = (0..self.k).map(|t| self.counts.n_k(t)).sum();
        if total == 0 {
            return 0;
        }
        (0..self.k)
            .filter(|&t| self.counts.n_k(t) as f64 / total as f64 >= min_share)
            .count()
    }

    /// Count of word `w` in topic `t`.
    pub fn word_topic_count(&self, w: u32, t: usize) -> u32 {
        self.counts.n_wk(w, t)
    }

    pub fn topic_count(&self, t: usize) -> u64 {
        self.counts.n_k(t)
    }

    // ----- perplexity ------------------------------------------------------

    /// Training-corpus perplexity from the current counts:
    /// `exp(−Σ log p(w|d) / N)` with `p(w|d) = Σ_k θ̂_dk φ̂_kw`.
    ///
    /// Tokens are scored individually for both LDA and PhraseLDA, so the
    /// two models' curves are directly comparable (Figures 6 and 7).
    pub fn perplexity(&self) -> f64 {
        let mut log_lik = 0.0f64;
        let mut n = 0u64;
        let alpha_sum: f64 = self.alpha.iter().sum();
        let v_beta = self.v as f64 * self.beta;
        // Precompute φ column denominators.
        let phi_den: Vec<f64> = (0..self.k)
            .map(|t| self.counts.n_k(t) as f64 + v_beta)
            .collect();
        for d in 0..self.docs.n_docs() {
            let doc = &self.docs.docs[d];
            if doc.tokens.is_empty() {
                continue;
            }
            let theta_den = doc.n_tokens() as f64 + alpha_sum;
            let theta: Vec<f64> = (0..self.k)
                .map(|t| (self.counts.n_dk(d, t) as f64 + self.alpha[t]) / theta_den)
                .collect();
            for &w in &doc.tokens {
                let mut p = 0.0;
                for t in 0..self.k {
                    p += theta[t] * (self.counts.n_wk(w, t) as f64 + self.beta) / phi_den[t];
                }
                log_lik += p.ln();
                n += 1;
            }
        }
        if n == 0 {
            return f64::NAN;
        }
        (-log_lik / n as f64).exp()
    }

    /// Held-out perplexity by document completion.
    ///
    /// For each held-out document, the even-indexed *groups* are observed
    /// and the odd-indexed groups are scored — so two models sharing one
    /// grouping score exactly the same unseen tokens. Fold-in estimates θ
    /// with the kernel's chain ([`kernel::fold_in`]) over the observed half
    /// with φ frozen at the training counts, one RNG stream for the whole
    /// held-out set, so each document is a one-chain call. `fold_in`
    /// selects the fold-in unit:
    ///
    /// * [`FoldIn::Groups`] — one topic per observed group (PhraseLDA's own
    ///   inference assumption, Eq. 7 with frozen φ);
    /// * [`FoldIn::Tokens`] — one topic per observed token (plain LDA).
    ///
    /// Comparing PhraseLDA(`Groups`) against LDA(`Tokens`) over the same
    /// grouping evaluates each model under its own assumption on identical
    /// unseen tokens — the paper's Figures 6 and 7 comparison.
    pub fn heldout_perplexity(
        &self,
        heldout: &GroupedDocs,
        fold_iters: usize,
        seed: u64,
        fold_in: FoldIn,
    ) -> f64 {
        assert_eq!(heldout.vocab_size, self.v, "vocabulary mismatch");
        let mut rng = StdRng::seed_from_u64(seed);
        let v_beta = self.v as f64 * self.beta;
        let phi_den: Vec<f64> = (0..self.k)
            .map(|t| self.counts.n_k(t) as f64 + v_beta)
            .collect();
        let view = FixedPhiView::new(self.counts.n_wk_table(), &phi_den, self.k, self.beta);
        let alpha_sum: f64 = self.alpha.iter().sum();

        let mut log_lik = 0.0f64;
        let mut n = 0u64;
        let mut observed: Vec<(u32, u32)> = Vec::new();
        let mut chain = FoldInScratch::default();
        let mut theta: Vec<f64> = Vec::with_capacity(self.k);

        for doc in &heldout.docs {
            if doc.n_groups() < 2 {
                continue;
            }
            // Observed half: even groups, as fold-in units.
            observed.clear();
            let even = doc
                .group_ranges()
                .step_by(2)
                .map(|(s, e)| (s as u32, e as u32));
            match fold_in {
                FoldIn::Groups => observed.extend(even),
                FoldIn::Tokens => {
                    observed.extend(even.flat_map(|(s, e)| (s..e).map(|i| (i, i + 1))))
                }
            }
            // One chain per call: every document draws from `rng`.
            let observed_chain = FoldInChain {
                rng: &mut rng,
                tokens: &doc.tokens,
                spans: &observed,
                iters: fold_iters,
            };
            kernel::fold_in(
                &view,
                &self.alpha,
                [observed_chain],
                &mut chain,
                |_, ndk, _| {
                    let n_obs: u32 = ndk.iter().sum();
                    let theta_den = n_obs as f64 + alpha_sum;
                    theta.clear();
                    theta.extend((0..self.k).map(|t| (ndk[t] as f64 + self.alpha[t]) / theta_den));
                },
            );
            // Score the unseen half: odd groups.
            for (g, (s, e)) in doc.group_ranges().enumerate() {
                if g % 2 == 0 {
                    continue;
                }
                for i in s..e {
                    let w = doc.tokens[i];
                    let mut p = 0.0;
                    for t in 0..self.k {
                        p += theta[t] * (self.counts.n_wk(w, t) as f64 + self.beta) / phi_den[t];
                    }
                    log_lik += p.ln();
                    n += 1;
                }
            }
        }
        if n == 0 {
            return f64::NAN;
        }
        (-log_lik / n as f64).exp()
    }

    // ----- hyperparameter optimization (paper §5.3, Minka 2000) ------------

    /// One round of Minka's fixed-point updates: asymmetric α, symmetric β.
    pub fn optimize_hyperparameters(&mut self) {
        self.optimize_alpha(3);
        self.optimize_beta(3);
    }

    /// Fixed-point iteration for the document-topic Dirichlet:
    /// `α_k ← α_k · (Σ_d ψ(N_dk + α_k) − D ψ(α_k)) / (Σ_d ψ(N_d + Σα) − D ψ(Σα))`.
    pub fn optimize_alpha(&mut self, rounds: usize) {
        let d_count = self.docs.n_docs();
        if d_count == 0 {
            return;
        }
        let doc_lens: Vec<f64> = self.docs.docs.iter().map(|d| d.n_tokens() as f64).collect();
        for _ in 0..rounds {
            let alpha_sum: f64 = self.alpha.iter().sum();
            let den: f64 = doc_lens
                .iter()
                .map(|&n| digamma(n + alpha_sum))
                .sum::<f64>()
                - d_count as f64 * digamma(alpha_sum);
            if den <= 0.0 {
                return;
            }
            for t in 0..self.k {
                let a = self.alpha[t];
                let num: f64 = (0..d_count)
                    .map(|d| digamma(self.counts.n_dk(d, t) as f64 + a))
                    .sum::<f64>()
                    - d_count as f64 * digamma(a);
                // Clamp to keep the Dirichlet proper even on degenerate counts.
                self.alpha[t] = (a * num / den).clamp(1e-6, 1e4);
            }
        }
    }

    /// Fixed-point iteration for the symmetric topic-word Dirichlet β.
    pub fn optimize_beta(&mut self, rounds: usize) {
        let kv = (self.k * self.v) as f64;
        if kv == 0.0 {
            return;
        }
        for _ in 0..rounds {
            let b = self.beta;
            let num: f64 = self
                .counts
                .n_wk_table()
                .iter()
                .map(|&c| digamma(c as f64 + b))
                .sum::<f64>()
                - kv * digamma(b);
            let den: f64 = self
                .counts
                .n_k_table()
                .iter()
                .map(|&c| digamma(c as f64 + self.v as f64 * b))
                .sum::<f64>()
                - self.k as f64 * digamma(self.v as f64 * b);
            if den <= 0.0 {
                return;
            }
            self.beta = (b * num / (self.v as f64 * den)).clamp(1e-6, 1e3);
        }
    }

    /// Internal consistency check of all count tables (tests).
    pub fn check_counts(&self) -> Result<(), String> {
        let mut rebuilt = TopicCounts::new(self.docs.n_docs(), self.v, self.k);
        for (d, doc) in self.docs.docs.iter().enumerate() {
            for (g, (s, e)) in doc.group_ranges().enumerate() {
                rebuilt.add_group(d, &doc.tokens[s..e], self.z[d][g]);
            }
        }
        if rebuilt != self.counts {
            return Err("count tables out of sync with assignments".into());
        }
        self.counts
            .validate_nz()
            .map_err(|e| format!("sparse nonzero index out of sync: {e}"))?;
        Ok(())
    }
}

/// Sequential-sweep alias rebuild cadence: refresh once the dirty walk
/// would cost a meaningful fraction of a dense O(K) scan. The threshold
/// floor keeps tiny-K models from rebuilding every document.
#[inline]
fn smoothing_rebuild_due(n_dirty: usize, k: usize) -> bool {
    n_dirty > (k / 8).max(16)
}

/// Fold one resolved singleton draw into the telemetry split.
#[inline]
fn tally_draw(draws: &mut DrawSplit, bucket: SingletonBucket) {
    match bucket {
        SingletonBucket::TopicWord => draws.topic_word += 1,
        SingletonBucket::Doc => draws.doc += 1,
        SingletonBucket::Smoothing => draws.smoothing += 1,
    }
}

/// One worker's contribution to the barrier merge: sparse `(row-major
/// index, delta)` pairs over `N_wk` and a dense `Δ N_k`. Lives in the
/// worker's [`SweepScratch`] and is cleared, not freed, between sweeps;
/// the merge shrinks `wk` only once a sweep fills less than half of it.
#[derive(Debug, Clone, Default)]
struct WorkerDelta {
    wk: Vec<(u32, i32)>,
    k: Vec<i64>,
}

/// The Dirichlet priors of one sweep: α (length K), β, and Vβ.
#[derive(Clone, Copy)]
struct Prior<'a> {
    alpha: &'a [f64],
    beta: f64,
    v_beta: f64,
}

/// One document's side of [`update_doc`]: its cliques (`tokens`, in the
/// word side's id space, cut at `ends`), the topic of each clique, and
/// its `N_dk` row.
struct DocSide<'a> {
    tokens: &'a [u32],
    ends: &'a [u32],
    z: &'a mut [u16],
    counts: CountRow<'a>,
}

/// The Gibbs update of one document (paper §5.3, Eq. 7), the one both
/// sweep schedules run: each clique in order is taken out of the counts,
/// its topic is drawn — a singleton by the bucketed sparse draw, a longer
/// clique by the dense posterior (see [`crate::kernel::KERNEL_VERSION`]) —
/// and it is put back under that topic, the document and smoothing
/// buckets following every move. `words` is the word side in the id space
/// of `doc.tokens`. The caller picks the RNG, keeps the smoothing bucket's
/// alias table and dirty set valid for `words.n_k`, and takes the draw
/// split from `s.draws`.
fn update_doc<R: RngCore>(
    rng: &mut R,
    prior: Prior<'_>,
    words: &mut WordTables<'_>,
    doc: DocSide<'_>,
    s: &mut UpdateScratch,
) {
    let Prior {
        alpha,
        beta,
        v_beta,
    } = prior;
    let k = alpha.len();
    let DocSide {
        tokens,
        ends,
        z,
        mut counts,
    } = doc;
    s.cum.resize(k, 0.0);
    s.doc_bucket
        .begin_doc(counts.nonzero(), counts.n, words.n_k, beta, v_beta, k);
    let mut start = 0;
    for (zg, &end) in z.iter_mut().zip(ends) {
        let toks = &tokens[start..end as usize];
        start = end as usize;
        let old = *zg as usize;
        words.remove(toks, old);
        counts.sub(old, toks.len() as u32);
        s.refresh(prior, old, counts.n[old], words.n_k[old]);
        let new = if let &[w] = toks {
            let (row, nz) = words.word(w);
            let (t, bucket) = sample_singleton_sparse_split(
                rng,
                alpha,
                v_beta,
                row,
                nz,
                counts.n,
                counts.nonzero(),
                words.n_k,
                &s.doc_bucket,
                &s.smoothing,
                &mut s.q_buf,
            );
            tally_draw(&mut s.draws, bucket);
            t
        } else {
            s.draws.dense += 1;
            let view = TrainView::new(words.n_wk, words.n_k, k, beta, v_beta);
            sample_clique(rng, &view, alpha, counts.n, toks, &mut s.clique, &mut s.cum)
        };
        *zg = new as u16;
        words.add(toks, new);
        counts.add(new, toks.len() as u32);
        s.refresh(prior, new, counts.n[new], words.n_k[new]);
    }
}

/// Fold-in unit for [`PhraseLda::heldout_perplexity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldIn {
    /// One topic per observed group — PhraseLDA's clique assumption.
    Groups,
    /// One topic per observed token — plain LDA.
    Tokens,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GroupedDoc;

    /// Two perfectly separable "topics": words 0-2 in even docs, 3-5 in odd.
    fn separable_docs(group_len: usize) -> GroupedDocs {
        let mut docs = Vec::new();
        for d in 0..40 {
            let base: u32 = if d % 2 == 0 { 0 } else { 3 };
            let tokens: Vec<u32> = (0..24).map(|i| base + (i % 3) as u32).collect();
            let group_ends = (1..=tokens.len() as u32 / group_len as u32)
                .map(|g| g * group_len as u32)
                .collect();
            docs.push(GroupedDoc { tokens, group_ends });
        }
        GroupedDocs {
            docs,
            vocab_size: 6,
        }
    }

    #[test]
    fn counts_stay_consistent_through_sweeps() {
        let mut m = PhraseLda::new(separable_docs(2), TopicModelConfig::new(3).with_seed(7));
        m.check_counts().unwrap();
        m.run(5);
        m.check_counts().unwrap();
        assert_eq!(m.sweeps_done(), 5);
    }

    #[test]
    fn counts_stay_consistent_through_parallel_sweeps() {
        let mut m = PhraseLda::new(
            separable_docs(2),
            TopicModelConfig::new(3).with_seed(7).with_threads(3),
        );
        m.run(5);
        m.check_counts().unwrap();
        assert_eq!(m.sweeps_done(), 5);
    }

    #[test]
    fn recovers_separable_topics() {
        let mut m = PhraseLda::new(
            separable_docs(1),
            TopicModelConfig {
                n_topics: 2,
                alpha: 0.5,
                beta: 0.01,
                seed: 42,
                optimize_every: 0,
                burn_in: 0,
                n_threads: 1,
            },
        );
        m.run(60);
        // Words 0-2 should concentrate in one topic, 3-5 in the other.
        let phi = m.phi();
        let topic_of = |w: usize| if phi[0][w] > phi[1][w] { 0 } else { 1 };
        let t0 = topic_of(0);
        assert_eq!(topic_of(1), t0);
        assert_eq!(topic_of(2), t0);
        assert_eq!(topic_of(3), 1 - t0);
        assert_eq!(topic_of(4), 1 - t0);
        assert_eq!(topic_of(5), 1 - t0);
        // And φ should be lopsided, not uniform.
        assert!(phi[t0][0] > 0.2);
        assert!(phi[t0][3] < 0.05);
    }

    #[test]
    fn parallel_chain_recovers_separable_topics_too() {
        // The snapshot-sweep approximation must still mix to the planted
        // structure (Newman et al. report indistinguishable quality).
        let mut m = PhraseLda::new(
            separable_docs(1),
            TopicModelConfig {
                n_topics: 2,
                alpha: 0.5,
                beta: 0.01,
                seed: 42,
                optimize_every: 0,
                burn_in: 0,
                n_threads: 4,
            },
        );
        m.run(60);
        let phi = m.phi();
        let topic_of = |w: usize| if phi[0][w] > phi[1][w] { 0 } else { 1 };
        let t0 = topic_of(0);
        assert_eq!(topic_of(1), t0);
        assert_eq!(topic_of(2), t0);
        assert_eq!(topic_of(3), 1 - t0);
        assert!(phi[t0][0] > 0.2);
        assert!(phi[t0][3] < 0.05);
    }

    #[test]
    fn groups_share_one_topic() {
        let mut m = PhraseLda::new(separable_docs(4), TopicModelConfig::new(4).with_seed(3));
        m.run(3);
        // The invariant is structural: z is stored per group, and counts
        // move s tokens at a time; check_counts verifies the bookkeeping.
        m.check_counts().unwrap();
        // All four tokens of any group contribute to the same topic's n_wk.
        let phi = m.phi();
        assert_eq!(phi.len(), 4);
    }

    #[test]
    fn phi_and_theta_are_distributions() {
        let mut m = PhraseLda::new(separable_docs(2), TopicModelConfig::new(3).with_seed(11));
        m.run(5);
        for row in m.phi() {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "phi row sums to {s}");
            assert!(row.iter().all(|&p| p > 0.0));
        }
        for row in m.theta() {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "theta row sums to {s}");
        }
    }

    #[test]
    fn perplexity_decreases_with_training() {
        let mut m = PhraseLda::new(
            separable_docs(1),
            TopicModelConfig {
                n_topics: 2,
                alpha: 0.5,
                beta: 0.01,
                seed: 5,
                optimize_every: 0,
                burn_in: 0,
                n_threads: 1,
            },
        );
        let before = m.perplexity();
        m.run(50);
        let after = m.perplexity();
        assert!(
            after < before,
            "perplexity should fall: {before} -> {after}"
        );
        // Perfectly separable vocab of 6 with 2 topics of 3 words each:
        // ideal per-token perplexity approaches 3.
        assert!(after < 4.5, "after = {after}");
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let cfg = TopicModelConfig::new(3).with_seed(99);
        let mut a = PhraseLda::new(separable_docs(2), cfg.clone());
        let mut b = PhraseLda::new(separable_docs(2), cfg);
        a.run(10);
        b.run(10);
        assert_eq!(a.z, b.z);
        assert_eq!(a.perplexity(), b.perplexity());
    }

    #[test]
    fn thread_count_does_not_change_the_parallel_chain() {
        // The core contract: T = 2 and T = 5 produce the same chain on the
        // same seed (the heavier sweep across {2,3,7} with φ/θ equality is
        // property-tested in tests/parallel_determinism.rs).
        let mut a = PhraseLda::new(
            separable_docs(2),
            TopicModelConfig::new(3).with_seed(99).with_threads(2),
        );
        let mut b = PhraseLda::new(
            separable_docs(2),
            TopicModelConfig::new(3).with_seed(99).with_threads(5),
        );
        a.run(10);
        b.run(10);
        assert_eq!(a.z, b.z);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.perplexity(), b.perplexity());
    }

    #[test]
    fn hyperparameter_optimization_moves_and_stays_positive() {
        let mut m = PhraseLda::new(
            separable_docs(1),
            TopicModelConfig {
                n_topics: 2,
                alpha: 2.0,
                beta: 0.5,
                seed: 8,
                optimize_every: 0,
                burn_in: 0,
                n_threads: 1,
            },
        );
        m.run(30);
        let alpha_before = m.alpha().to_vec();
        let beta_before = m.beta();
        m.optimize_hyperparameters();
        assert!(m.alpha().iter().all(|&a| a > 0.0));
        assert!(m.beta() > 0.0);
        // Sharply concentrated corpus: both should shrink.
        assert!(m.alpha().iter().sum::<f64>() < alpha_before.iter().sum::<f64>());
        assert!(m.beta() < beta_before);
        m.check_counts().unwrap();
    }

    #[test]
    fn heldout_perplexity_is_finite_and_better_than_uniform() {
        let all = separable_docs(1);
        let (train, held) = all.split_heldout(4);
        let mut m = PhraseLda::new(
            train,
            TopicModelConfig {
                n_topics: 2,
                alpha: 0.5,
                beta: 0.01,
                seed: 21,
                optimize_every: 0,
                burn_in: 0,
                n_threads: 1,
            },
        );
        m.run(60);
        let pp = m.heldout_perplexity(&held, 20, 1, FoldIn::Tokens);
        assert!(pp.is_finite());
        // Uniform over V=6 would give 6.
        assert!(pp < 6.0, "held-out perplexity {pp}");
    }

    #[test]
    fn run_with_reports_every_sweep() {
        let mut m = PhraseLda::new(separable_docs(2), TopicModelConfig::new(2).with_seed(1));
        let mut seen = Vec::new();
        m.run_with(4, |i, model| {
            seen.push((i, model.sweeps_done()));
        });
        assert_eq!(seen, vec![(1, 1), (2, 2), (3, 3), (4, 4)]);
    }

    #[test]
    fn empty_docs_are_tolerated() {
        let docs = GroupedDocs {
            docs: vec![
                GroupedDoc::default(),
                GroupedDoc {
                    tokens: vec![0, 1],
                    group_ends: vec![2],
                },
            ],
            vocab_size: 2,
        };
        let mut m = PhraseLda::new(docs.clone(), TopicModelConfig::new(2).with_seed(2));
        m.run(3);
        m.check_counts().unwrap();
        assert!(m.perplexity().is_finite());
        // Same corpus through the parallel path (more workers than
        // documents, an empty doc in the one block).
        let mut p = PhraseLda::new(docs, TopicModelConfig::new(2).with_seed(2).with_threads(4));
        p.run(3);
        p.check_counts().unwrap();
        assert!(p.perplexity().is_finite());
    }
}
