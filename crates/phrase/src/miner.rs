//! Frequent phrase mining — the paper's Algorithm 1.
//!
//! An increasing-size sliding window over the corpus counts candidate
//! phrases level by level (bigrams, trigrams, ...). Two prunes keep the
//! candidate space sparse:
//!
//! * **Position-based Apriori pruning** (downward closure): a list of
//!   *active indices* per document records the positions whose length-(n−1)
//!   phrase is frequent; a length-n candidate at position `i` is counted only
//!   if both `i` and `i+1` are active — i.e. both constituent (n−1)-grams are
//!   frequent.
//! * **Data antimonotonicity**: a document whose active index set becomes
//!   empty can never again produce a frequent phrase and is dropped from all
//!   further levels, giving the algorithm a natural termination criterion.
//!
//! Documents are additionally *chunked* at phrase-invariant punctuation
//! (paper §4.1): no candidate may cross a chunk boundary, which bounds the
//! per-document work by the (constant) chunk size and makes the whole miner
//! effectively linear in corpus size.
//!
//! # Node-id counting
//!
//! The miner ([`FrequentPhraseMiner::mine`]) never hashes a phrase, and
//! never materializes one. It fills the lexicon ([`PhraseStats`]) as it
//! goes: every frequent (n−1)-gram is a dense `u32` node (a unigram's node
//! is its word id), so a level-n candidate is the pair `(prefix_node,
//! next_word)` packed into one `u64` and counted in flat open-addressing
//! [`U64Map`] tables — no per-occurrence allocation, no variable-length
//! hashing. The level's survivors become the prefix nodes' children, and
//! each active position is retagged with its n-gram's node by one child
//! lookup.
//!
//! # Parallel passes
//!
//! Every pass of a level runs on [`topmine_util::par::for_each`], the
//! workspace's one scheduler. Counting and advancing the active sets hand
//! out blocks of [`DOC_BLOCK`] documents to whichever worker is free next,
//! so skewed documents don't strand threads; the merge hands out one
//! merge shard per unit. One thread runs the same code inline. A counting
//! worker routes each key into its own partition for the key's merge
//! shard (`hash(key) % n_shards`). Merge shard `s` then reads only the
//! partitions for `s`, sizes its destination from their lengths before
//! the first insert, and sums them; addition commutes, so arrival order is
//! irrelevant. Survivors are sorted by packed key before they get their
//! node ids, so the lexicon is bit-identical at every thread count. Every
//! level's tables start at the minimum size, so a level's clears and scans
//! cost what its own candidates need.

use crate::counter::PhraseStats;
use crate::prefix::{fib_hash, U64Map};
use std::time::Instant;
use topmine_corpus::{Corpus, Document};
use topmine_obs::{MiningLevel, MiningTelemetry};
use topmine_util::par::{self, DOC_BLOCK};
use topmine_util::FxHashMap;

/// Configuration for [`FrequentPhraseMiner`].
#[derive(Debug, Clone)]
pub struct MinerConfig {
    /// Minimum support ε: a phrase is frequent iff its count reaches this.
    pub min_support: u64,
    /// Hard cap on phrase length; `0` means unbounded (terminate naturally).
    pub max_phrase_len: usize,
    /// Worker threads for every pass of the mine; `1` runs inline on the
    /// calling thread.
    pub n_threads: usize,
    /// Disable the data-antimonotonicity document drop (ablation knob; the
    /// result is identical, only slower).
    pub disable_doc_pruning: bool,
}

impl Default for MinerConfig {
    fn default() -> Self {
        Self {
            min_support: 5,
            max_phrase_len: 0,
            n_threads: 1,
            disable_doc_pruning: false,
        }
    }
}

/// The Algorithm 1 miner.
#[derive(Debug, Clone, Default)]
pub struct FrequentPhraseMiner {
    config: MinerConfig,
}

/// One counting worker's scratch, kept across levels.
#[derive(Default)]
struct Worker {
    /// `parts[s]` counts the candidate keys whose [`shard_of`] is `s`.
    parts: Vec<U64Map>,
    /// Candidate occurrences counted at the current level.
    occurrences: u64,
}

/// Per-document mining state.
struct DocState {
    doc_idx: usize,
    /// Sorted `(position, node)` pairs: the positions whose current-level
    /// (n−1)-gram is frequent, each tagged with that gram's lexicon node.
    /// At level 2 the node is the word id itself.
    active: Vec<(u32, u32)>,
}

impl FrequentPhraseMiner {
    pub fn new(min_support: u64) -> Self {
        Self {
            config: MinerConfig {
                min_support,
                ..MinerConfig::default()
            },
        }
    }

    pub fn with_config(config: MinerConfig) -> Self {
        assert!(config.min_support >= 1, "min support must be at least 1");
        Self { config }
    }

    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// Run Algorithm 1 over `corpus`, returning all aggregate counts.
    pub fn mine(&self, corpus: &Corpus) -> PhraseStats {
        self.mine_with_telemetry(corpus).0
    }

    /// Run Algorithm 1, also returning per-level telemetry.
    pub fn mine_with_telemetry(&self, corpus: &Corpus) -> (PhraseStats, MiningTelemetry) {
        let t_total = Instant::now();
        let eps = self.config.min_support.max(1);
        assert!(
            (corpus.vocab.len() as u64) < u32::MAX as u64,
            "vocabulary too large for packed prefix keys"
        );

        let mut stats = self.unigram_pass(corpus, eps);
        let mut tel = MiningTelemetry::default();

        // Initialize per-document active sets (line 2): every position whose
        // unigram is frequent, tagged with its unigram node (the word id).
        let unigrams = stats.unigram_counts();
        let mut states: Vec<DocState> = corpus
            .docs
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_empty())
            .map(|(doc_idx, doc)| DocState {
                doc_idx,
                active: doc
                    .tokens
                    .iter()
                    .enumerate()
                    .filter(|&(_, &t)| unigrams[t as usize] >= eps)
                    .map(|(i, &t)| (i as u32, t))
                    .collect(),
            })
            .collect();
        states.retain(|s| !s.active.is_empty() || self.config.disable_doc_pruning);

        // Each worker's count partitions (one per merge shard; worker 0's
        // double as the merge tables), reused across levels. Counting
        // therefore allocates nothing per occurrence (a table grows
        // O(log size) times per level).
        let n_threads = self.config.n_threads.max(1);
        let mut workers: Vec<Worker> = (0..n_threads)
            .map(|_| Worker {
                parts: (0..n_threads).map(|_| U64Map::new()).collect(),
                occurrences: 0,
            })
            .collect();

        let mut n = 2usize; // current candidate length (line 4)
        while !states.is_empty() {
            if self.config.max_phrase_len != 0 && n > self.config.max_phrase_len {
                break;
            }
            let t_level = Instant::now();
            let docs_in = states.len() as u64;

            // Count level-n candidates (lines 12-15). Every level starts
            // from empty minimum-size tables, so its clears and scans cost
            // what its own candidates need, not what level 2's needed.
            for w in &mut workers {
                w.occurrences = 0;
                for part in &mut w.parts {
                    part.reset(0);
                }
            }
            par::for_each(states.chunks(DOC_BLOCK), &mut workers, |w, block| {
                for st in block {
                    w.occurrences += count_level_doc(&corpus.docs[st.doc_idx], st, n, &mut w.parts);
                }
            });
            let occurrences = workers.iter().map(|w| w.occurrences).sum();

            // Deterministic merge + min-support prune (line 22's filter):
            // survivors arrive sorted by packed key, which fixes their node
            // ids independently of thread count.
            let (survivors, candidates) = merge_frequent(&mut workers, eps);
            let max_part_slots = workers
                .iter()
                .flat_map(|w| &w.parts)
                .map(|part| part.capacity() as u64)
                .max()
                .unwrap_or(0);

            if survivors.is_empty() {
                tel.levels.push(MiningLevel {
                    level: n as u32,
                    candidates,
                    frequent: 0,
                    occurrences,
                    docs_in,
                    docs_out: 0,
                    nanos: t_level.elapsed().as_nanos() as u64,
                    max_part_slots,
                });
                break;
            }
            // The survivors become children of their prefix nodes.
            stats.add_level(&survivors, n);

            // Advance active indices (line 7): a position stays active for
            // level n+1 iff its level-n candidate was countable and survived.
            let lexicon = &stats;
            par::for_each(states.chunks_mut(DOC_BLOCK), &mut workers, |_, block| {
                for st in block {
                    advance_state(&corpus.docs[st.doc_idx], st, n, lexicon);
                }
            });

            // Drop exhausted documents (lines 9-10, data antimonotonicity).
            let docs_out = if self.config.disable_doc_pruning {
                states.iter().filter(|s| !s.active.is_empty()).count()
            } else {
                states.retain(|s| !s.active.is_empty());
                states.len()
            };
            tel.levels.push(MiningLevel {
                level: n as u32,
                candidates,
                frequent: survivors.len() as u64,
                occurrences,
                docs_in,
                docs_out: docs_out as u64,
                nanos: t_level.elapsed().as_nanos() as u64,
                max_part_slots,
            });
            if self.config.disable_doc_pruning && docs_out == 0 {
                // Keep documents alive but stop once *all* are exhausted.
                break;
            }
            n += 1;
        }

        tel.total_nanos = t_total.elapsed().as_nanos() as u64;
        debug_assert!(stats.check_downward_closure().is_ok());
        (stats, tel)
    }

    /// Level 1: dense unigram counts (the paper's line 3).
    fn unigram_pass(&self, corpus: &Corpus, eps: u64) -> PhraseStats {
        let mut unigram_counts = vec![0u64; corpus.vocab.len()];
        let mut total_tokens = 0u64;
        for doc in &corpus.docs {
            total_tokens += doc.tokens.len() as u64;
            for &t in &doc.tokens {
                unigram_counts[t as usize] += 1;
            }
        }
        PhraseStats::new(unigram_counts, total_tokens, eps)
    }
}

/// A cursor over a document's chunk ends for positions visited in
/// increasing order.
struct ChunkEnds<'a> {
    ends: &'a [u32],
    next: usize,
}

impl<'a> ChunkEnds<'a> {
    fn new(doc: &'a Document) -> Self {
        Self {
            ends: &doc.chunk_ends,
            next: 0,
        }
    }

    /// Exclusive end of the chunk containing position `i`, which must not
    /// precede the previous call's.
    #[inline]
    fn end_of(&mut self, i: usize) -> usize {
        while self.ends[self.next] as usize <= i {
            self.next += 1;
        }
        self.ends[self.next] as usize
    }
}

/// Count all level-`n` candidate occurrences of one document into `parts`,
/// each key into the partition of its merge shard ([`shard_of`]), returning
/// the number of occurrences counted.
///
/// A candidate at active position `i` is counted iff `i+1` is also active
/// (both constituent (n−1)-grams frequent — downward closure) and the n-gram
/// fits inside `i`'s chunk. The candidate key is the position's node
/// packed with the word that extends it — one `u64`, no allocation.
#[inline]
fn count_level_doc(doc: &Document, st: &DocState, n: usize, parts: &mut [U64Map]) -> u64 {
    let mut occ = 0u64;
    let mut chunks = ChunkEnds::new(doc);
    for w in st.active.windows(2) {
        let (pos, pid) = w[0];
        if w[1].0 != pos + 1 {
            continue; // not adjacent: prefix or suffix (n−1)-gram infrequent
        }
        let i = pos as usize;
        if i + n > chunks.end_of(i) {
            continue; // would cross a chunk boundary
        }
        let key = ((pid as u64) << 32) | doc.tokens[i + n - 1] as u64;
        parts[shard_of(key, parts.len())].add(key, 1);
        occ += 1;
    }
    occ
}

/// Which merge shard owns a key. Any pure function of the key is correct,
/// but a partition holds one shard's keys, so the shard must not be read
/// off the top hash bits that pick a key's home slot: its keys would crowd
/// into a fraction of the slots. The upper hash half modulo `n_shards`
/// spreads every shard evenly over the home slots.
#[inline]
fn shard_of(key: u64, n_shards: usize) -> usize {
    ((fib_hash(key) >> 32) as usize) % n_shards
}

/// Fold the workers' partitions into the global level result:
/// `(survivors sorted by packed key, distinct candidate count)`.
///
/// Merge shard `s` owns exactly the keys whose [`shard_of`] is `s`, which
/// every worker counted into its `parts[s]`. The shard folds the other
/// workers' partitions into worker 0's — addition commutes, so the result
/// is independent of which worker counted which occurrence — after
/// reserving room for all of them: the entries arrive in their partitions'
/// slot order, under which a growing table degrades into one long cluster
/// (see [`crate::prefix`]). Each merging worker collects the survivors of
/// the shards it ran; shards partition the key space, so sorting the union
/// yields one canonical order at every thread count and schedule.
fn merge_frequent(workers: &mut [Worker], eps: u64) -> (Vec<(u64, u64)>, u64) {
    let (first, rest) = workers
        .split_first_mut()
        .expect("at least one counting worker");
    let rest = &*rest;
    let mut merged: Vec<(Vec<(u64, u64)>, u64)> = vec![(Vec::new(), 0); first.parts.len()];
    par::for_each(
        first.parts.iter_mut().enumerate(),
        &mut merged,
        |(survivors, candidates), (s, dst)| {
            dst.reserve(rest.iter().map(|w| w.parts[s].len()).sum());
            for w in rest {
                for (k, v) in w.parts[s].iter() {
                    dst.add(k, v);
                }
            }
            *candidates += dst.len() as u64;
            survivors.extend(dst.iter().filter(|&(_, c)| c >= eps));
        },
    );
    let candidates = merged.iter().map(|&(_, c)| c).sum();
    let mut survivors: Vec<(u64, u64)> = merged.into_iter().flat_map(|(s, _)| s).collect();
    survivors.sort_unstable_by_key(|&(k, _)| k);
    (survivors, candidates)
}

/// Rebuild one document's active set after level `n`: position `i` survives
/// iff the pair `(i, i+1)` was countable at level n and its n-gram is in
/// the lexicon (i.e. met min-support); the entry is retagged with the
/// n-gram's node. Rewrites `active` in place (the write cursor never passes
/// the read cursor).
fn advance_state(doc: &Document, st: &mut DocState, n: usize, lexicon: &PhraseStats) {
    let mut w = 0usize;
    let mut chunks = ChunkEnds::new(doc);
    for r in 0..st.active.len().saturating_sub(1) {
        let (pos, node) = st.active[r];
        if st.active[r + 1].0 != pos + 1 {
            continue;
        }
        let i = pos as usize;
        if i + n > chunks.end_of(i) {
            continue;
        }
        if let Some(child) = lexicon.child(node, doc.tokens[i + n - 1]) {
            st.active[w] = (pos, child);
            w += 1;
        }
    }
    st.active.truncate(w);
}

/// Reference miner used by tests: enumerate every within-chunk n-gram
/// (2 ≤ n ≤ `max_len`), count by type, and keep those meeting support, in
/// lexicographic order (the order of [`PhraseStats::phrases`]). Quadratic,
/// but obviously correct. Probes with the borrowed window first and
/// allocates a key only on first insert.
pub fn naive_frequent_phrases(
    corpus: &Corpus,
    min_support: u64,
    max_len: usize,
) -> Vec<(Vec<u32>, u64)> {
    let mut all: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
    for doc in &corpus.docs {
        for chunk in doc.chunks() {
            for n in 2..=max_len.min(chunk.len()) {
                for window in chunk.windows(n) {
                    if let Some(c) = all.get_mut(window) {
                        *c += 1;
                    } else {
                        all.insert(window.to_vec(), 1);
                    }
                }
            }
        }
    }
    let mut frequent: Vec<(Vec<u32>, u64)> =
        all.into_iter().filter(|&(_, c)| c >= min_support).collect();
    frequent.sort_unstable();
    frequent
}

#[cfg(test)]
mod tests {
    use super::*;
    use topmine_corpus::Vocab;

    /// Corpus of integer token docs; one chunk per inner slice group.
    fn corpus(docs: &[&[&[u32]]]) -> Corpus {
        let mut max_id = 0u32;
        for d in docs {
            for c in *d {
                for &t in *c {
                    max_id = max_id.max(t);
                }
            }
        }
        let mut vocab = Vocab::new();
        for i in 0..=max_id {
            vocab.intern(&format!("w{i}"));
        }
        Corpus {
            vocab,
            docs: docs
                .iter()
                .map(|d| Document::from_chunks(d.iter().copied()))
                .collect(),
            provenance: None,
            unstem: None,
        }
    }

    /// Deterministic pseudo-random corpus with heavy repetition.
    fn lcg_corpus(n_docs: usize, chunks: usize, chunk_len: usize, vocab: u64, seed: u64) -> Corpus {
        let mut docs: Vec<Vec<Vec<u32>>> = Vec::new();
        let mut x = seed;
        for _ in 0..n_docs {
            let mut doc = Vec::new();
            for _ in 0..chunks {
                let mut chunk = Vec::new();
                for _ in 0..chunk_len {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    chunk.push(((x >> 33) % vocab) as u32);
                }
                doc.push(chunk);
            }
            docs.push(doc);
        }
        let doc_slices: Vec<Vec<&[u32]>> = docs
            .iter()
            .map(|d| d.iter().map(|c| c.as_slice()).collect())
            .collect();
        let doc_refs: Vec<&[&[u32]]> = doc_slices.iter().map(|d| d.as_slice()).collect();
        corpus(&doc_refs)
    }

    #[test]
    fn counts_simple_bigrams() {
        // "a b" appears 3 times; support 2.
        let c = corpus(&[&[&[0, 1, 2]], &[&[0, 1]], &[&[0, 1, 3]]]);
        let stats = FrequentPhraseMiner::new(2).mine(&c);
        assert_eq!(stats.count(&[0, 1]), 3);
        assert_eq!(stats.count(&[1, 2]), 0); // once only
        assert_eq!(stats.total_tokens, 8);
        assert_eq!(stats.max_len(), 2);
    }

    #[test]
    fn trigram_requires_frequent_constituents() {
        // "a b c" twice, support 2: both "a b" and "b c" reach 2, so the
        // trigram is counted and frequent.
        let c = corpus(&[&[&[0, 1, 2]], &[&[0, 1, 2]]]);
        let stats = FrequentPhraseMiner::new(2).mine(&c);
        assert_eq!(stats.count(&[0, 1, 2]), 2);
        assert_eq!(stats.max_len(), 3);
        // Nothing of length 4 exists.
        assert_eq!(stats.count(&[0, 1, 2, 0]), 0);
    }

    #[test]
    fn phrases_never_cross_chunk_boundaries() {
        // "a b" always split across chunks -> never counted.
        let c = corpus(&[&[&[0], &[1]], &[&[0], &[1]], &[&[0], &[1]]]);
        let stats = FrequentPhraseMiner::new(2).mine(&c);
        assert_eq!(stats.count(&[0, 1]), 0);
        assert_eq!(stats.n_frequent_ngrams(), 0);
        // Unigrams still counted.
        assert_eq!(stats.count(&[0]), 3);
    }

    #[test]
    fn min_support_filters_candidates() {
        let c = corpus(&[&[&[0, 1]], &[&[0, 1]], &[&[2, 3]]]);
        let stats = FrequentPhraseMiner::new(2).mine(&c);
        assert!(stats.is_frequent(&[0, 1]));
        assert!(!stats.is_frequent(&[2, 3]));
        assert_eq!(stats.n_frequent_ngrams(), 1);
    }

    #[test]
    fn overlapping_occurrences_count_per_position() {
        // "a a a a": bigram "a a" occurs at 3 positions.
        let c = corpus(&[&[&[0, 0, 0, 0]], &[&[0, 0, 0, 0]]]);
        let stats = FrequentPhraseMiner::new(2).mine(&c);
        assert_eq!(stats.count(&[0, 0]), 6);
        assert_eq!(stats.count(&[0, 0, 0]), 4);
        assert_eq!(stats.count(&[0, 0, 0, 0]), 2);
    }

    #[test]
    fn max_phrase_len_caps_levels() {
        let c = corpus(&[&[&[0, 1, 2, 3]], &[&[0, 1, 2, 3]]]);
        let cfg = MinerConfig {
            min_support: 2,
            max_phrase_len: 2,
            ..MinerConfig::default()
        };
        let stats = FrequentPhraseMiner::with_config(cfg).mine(&c);
        assert_eq!(stats.max_len(), 2);
        assert_eq!(stats.count(&[0, 1, 2]), 0);
        assert_eq!(stats.count(&[0, 1]), 2);
    }

    #[test]
    fn doc_pruning_does_not_change_result() {
        let docs: &[&[&[u32]]] = &[
            &[&[0, 1, 2, 0, 1]],
            &[&[5, 6], &[0, 1]],
            &[&[7, 8, 9]],
            &[&[0, 1, 2]],
        ];
        let c = corpus(docs);
        let with = FrequentPhraseMiner::new(2).mine(&c);
        let without = FrequentPhraseMiner::with_config(MinerConfig {
            min_support: 2,
            disable_doc_pruning: true,
            ..MinerConfig::default()
        })
        .mine(&c);
        assert_eq!(with, without);
    }

    #[test]
    fn parallel_matches_sequential() {
        let c = lcg_corpus(64, 4, 12, 7, 42);
        let seq = FrequentPhraseMiner::new(4).mine(&c);
        let par = FrequentPhraseMiner::with_config(MinerConfig {
            min_support: 4,
            n_threads: 4,
            ..MinerConfig::default()
        })
        .mine(&c);
        assert_eq!(seq, par);
        assert_eq!(seq.unigram_counts(), par.unigram_counts());
    }

    #[test]
    fn matches_naive_reference() {
        let mut docs: Vec<Vec<Vec<u32>>> = Vec::new();
        let mut x = 7u64;
        for _ in 0..40 {
            let mut doc = Vec::new();
            for _ in 0..3 {
                let mut chunk = Vec::new();
                for _ in 0..10 {
                    x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                    chunk.push(((x >> 33) % 5) as u32);
                }
                doc.push(chunk);
            }
            docs.push(doc);
        }
        let doc_slices: Vec<Vec<&[u32]>> = docs
            .iter()
            .map(|d| d.iter().map(|c| c.as_slice()).collect())
            .collect();
        let doc_refs: Vec<&[&[u32]]> = doc_slices.iter().map(|d| d.as_slice()).collect();
        let c = corpus(&doc_refs);
        let stats = FrequentPhraseMiner::new(3).mine(&c);
        let naive = naive_frequent_phrases(&c, 3, 32);
        let mined: Vec<(Vec<u32>, u64)> = stats
            .phrases()
            .into_iter()
            .filter(|(p, _)| p.len() > 1)
            .collect();
        assert_eq!(mined, naive);
    }

    #[test]
    fn telemetry_levels_are_consistent() {
        let c = lcg_corpus(32, 2, 16, 5, 77);
        let (stats, tel) = FrequentPhraseMiner::new(3).mine_with_telemetry(&c);
        assert!(!tel.levels.is_empty());
        // Levels are consecutive starting at 2.
        for (i, l) in tel.levels.iter().enumerate() {
            assert_eq!(l.level as usize, i + 2);
            assert!(l.frequent <= l.candidates);
            assert!(l.candidates <= l.occurrences);
            assert!(l.docs_out <= l.docs_in);
            // One worker: its one partition doubles as the merge table,
            // which holds every candidate.
            assert!(l.max_part_slots >= l.candidates.max(1));
        }
        // Total frequent multiword phrases match the stats map.
        assert_eq!(tel.frequent(), stats.n_frequent_ngrams() as u64);
        assert!(tel.total_nanos > 0);
        // Uncapped, the mine runs until no document is left: the last level
        // keeps none, so every document that entered level 2 was dropped.
        let last = tel.levels.last().expect("at least one level");
        assert_eq!(last.docs_out, 0);
        assert_eq!(tel.docs_dropped(), tel.levels[0].docs_in);
    }

    #[test]
    fn merge_sizes_each_shard_before_filling_it() {
        // Two workers' level-2 count tables of 120 000 distinct keys each,
        // partitioned for two merge shards. Both workers saw the same keys,
        // so a shard holds ~60 000 distinct keys in ~120 000 partition
        // entries. A destination sized from its partitions' lengths before
        // the first insert has the slots for all those entries; one grown
        // on demand while filled in slot order (the quadratic merge) stops
        // at the slots for the distinct keys, half as many.
        const KEYS: u64 = 120_000;
        let mut workers: Vec<Worker> = (0..2)
            .map(|_| Worker {
                parts: vec![U64Map::new(), U64Map::new()],
                occurrences: 0,
            })
            .collect();
        for (w, worker) in workers.iter_mut().enumerate() {
            for i in 0..KEYS {
                // (prefix word, next word), as packed at level 2.
                let key = ((i % 2000) << 32) | (i / 2000);
                worker.parts[shard_of(key, 2)].add(key, w as u64 + 1);
            }
        }
        let entries: Vec<usize> = (0..2)
            .map(|s| workers.iter().map(|w| w.parts[s].len()).sum())
            .collect();

        let (survivors, candidates) = merge_frequent(&mut workers, 3);

        assert_eq!(candidates, KEYS);
        assert_eq!(survivors.len() as u64, KEYS);
        assert!(survivors.windows(2).all(|p| p[0].0 < p[1].0));
        assert!(survivors.iter().all(|&(_, count)| count == 3));
        for (s, &entries) in entries.iter().enumerate() {
            let merged = &workers[0].parts[s];
            assert!(merged.capacity() > U64Map::slots_for(merged.len()));
            assert_eq!(
                merged.capacity(),
                U64Map::slots_for(entries),
                "shard {s}: the merge table grew while it was being filled"
            );
        }
    }

    #[test]
    fn empty_corpus_and_empty_docs() {
        let c = corpus(&[&[], &[&[]]]);
        let stats = FrequentPhraseMiner::new(1).mine(&c);
        assert_eq!(stats.total_tokens, 0);
        assert_eq!(stats.n_frequent_ngrams(), 0);
    }

    #[test]
    fn downward_closure_holds() {
        let c = corpus(&[
            &[&[0, 1, 2, 3, 0, 1, 2, 3]],
            &[&[0, 1, 2, 3]],
            &[&[1, 2, 3, 0]],
        ]);
        let stats = FrequentPhraseMiner::new(2).mine(&c);
        stats.check_downward_closure().unwrap();
    }
}
