//! Bottom-up phrase construction — the paper's Algorithm 2.
//!
//! Each punctuation chunk starts as a sequence of single-token phrase
//! instances. A max-heap keyed by the significance score (Eq. 1) repeatedly
//! selects the adjacent pair whose merge is most significant; the pair is
//! merged into one phrase instance and the heap is updated with the new
//! instance's left and right neighbors. Construction stops when the best
//! candidate falls below the threshold `α` (the dashed line in the paper's
//! Figure 1) or everything merged into one phrase. The surviving instances
//! form a partition of the chunk — the "bag of phrases".
//!
//! Because a merged phrase is treated as *one unit* in later significance
//! computations, long phrases must justify themselves against their two
//! constituent sub-phrases (not against all their unigrams), which is the
//! paper's answer to the "free-rider" problem.
//!
//! Every live phrase instance keeps its lexicon node ([`PhraseStats`]), so
//! scoring a candidate reads `f(left)` and `f(right)` by node id and finds
//! `left ⊕ right` by `|right|` child lookups from `left`'s node; an accepted
//! merge hands that node to the merged instance. A pair whose concatenation
//! the lexicon does not count (count 0) is never a candidate, whatever `α`.
//!
//! Complexity: each chunk of length `m` performs at most `m−1` merges. Each
//! candidate costs `O(log m)` heap work (lazy deletion via version stamps),
//! matching the paper's `O(log N_d)` per-merge claim, plus `|right|` child
//! lookups.
//!
//! The instance arrays and the heap live in a reusable [`ConstructScratch`]
//! — one per worker thread — so constructing a corpus allocates per
//! *document* (the output spans), not per chunk or per merge.

use crate::counter::PhraseStats;
use crate::significance::significance;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use topmine_corpus::Document;

/// One recorded merge (for the Figure 1 dendrogram and debugging).
#[derive(Debug, Clone, PartialEq)]
pub struct MergeStep {
    /// 0-based merge iteration within the chunk.
    pub iteration: usize,
    /// Chunk-relative `[start, end)` of the left phrase instance.
    pub left: (u32, u32),
    /// Chunk-relative `[start, end)` of the right phrase instance.
    pub right: (u32, u32),
    /// Significance of this merge at the time it was taken.
    pub significance: f64,
}

/// The sequence of merges performed on one chunk.
pub type MergeTrace = Vec<MergeStep>;

/// Partition of a chunk into phrase spans (chunk-relative, contiguous,
/// covering every token exactly once).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPartition {
    pub spans: Vec<(u32, u32)>,
}

/// Max-heap entry: a candidate merge of two adjacent phrase instances.
/// `*_version` stamps invalidate the entry lazily if either side changed.
#[derive(Debug)]
struct Candidate {
    sig: f64,
    left: u32,
    right: u32,
    left_version: u32,
    right_version: u32,
    /// Lexicon node of the merged phrase.
    merged: u32,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on significance; ties prefer the leftmost pair so
        // construction is deterministic.
        self.sig
            .partial_cmp(&other.sig)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.left.cmp(&self.left))
    }
}

/// Reusable Algorithm 2 working memory: the linked-list instance arrays and
/// the candidate max-heap. Each worker thread keeps one scratch and reuses
/// it for every chunk it constructs; `reset` keeps all allocations, so
/// steady-state construction allocates nothing beyond the output spans.
#[derive(Debug, Default)]
pub struct ConstructScratch {
    start: Vec<u32>,
    end: Vec<u32>,
    prev: Vec<i32>,
    next: Vec<i32>,
    alive: Vec<bool>,
    version: Vec<u32>,
    /// Each instance's lexicon node; `None` for a token outside the
    /// lexicon's vocabulary (it never merges).
    node: Vec<Option<u32>>,
    heap: BinaryHeap<Candidate>,
}

impl ConstructScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-initialize for `tokens`, one instance per token, keeping
    /// capacity.
    fn reset(&mut self, tokens: &[u32], lexicon: &PhraseStats) {
        let n = tokens.len();
        self.start.clear();
        self.start.extend(0..n as u32);
        self.end.clear();
        self.end.extend(1..=n as u32);
        self.prev.clear();
        self.prev.extend((0..n as i32).map(|i| i - 1));
        self.next.clear();
        self.next
            .extend((0..n as i32).map(|i| if i + 1 < n as i32 { i + 1 } else { -1 }));
        self.alive.clear();
        self.alive.resize(n, true);
        self.version.clear();
        self.version.resize(n, 0);
        self.node.clear();
        self.node.extend(tokens.iter().map(|&w| lexicon.unigram(w)));
        self.heap.clear();
    }

    /// Score the merge of instances `(a, b)` and push it if it can ever be
    /// taken: the lexicon counts the merged phrase and its score reaches
    /// `alpha`.
    fn push_candidate(
        &mut self,
        tokens: &[u32],
        lexicon: &PhraseStats,
        alpha: f64,
        a: u32,
        b: u32,
    ) {
        let (a_node, b_node) = (self.node[a as usize], self.node[b as usize]);
        let right = &tokens[self.start[b as usize] as usize..self.end[b as usize] as usize];
        let Some(merged) =
            a_node.and_then(|a| right.iter().try_fold(a, |node, &w| lexicon.child(node, w)))
        else {
            return;
        };
        let f12 = lexicon.node_count(merged);
        if f12 == 0 {
            return;
        }
        let count = |node: Option<u32>| node.map_or(0, |n| lexicon.node_count(n));
        let sig = significance(f12, count(a_node), count(b_node), lexicon.total_tokens);
        // Entries below α can never be merged (their score is immutable until
        // a neighbor merge invalidates them), so skip the heap traffic.
        if sig >= alpha {
            self.heap.push(Candidate {
                sig,
                left: a,
                right: b,
                left_version: self.version[a as usize],
                right_version: self.version[b as usize],
                merged,
            });
        }
    }
}

/// Run Algorithm 2 on one chunk. If `trace` is given, every merge is
/// recorded in order.
pub fn construct_chunk(
    tokens: &[u32],
    stats: &PhraseStats,
    alpha: f64,
    trace: Option<&mut MergeTrace>,
) -> ChunkPartition {
    let mut scratch = ConstructScratch::default();
    let mut spans = Vec::new();
    construct_chunk_into(tokens, stats, alpha, trace, &mut scratch, 0, &mut spans);
    ChunkPartition { spans }
}

/// Run Algorithm 2 on one chunk using caller-provided scratch, appending
/// spans shifted by `offset` (the chunk's document offset) to `out`. Trace
/// spans are shifted the same way; trace iterations restart per chunk.
pub fn construct_chunk_into(
    tokens: &[u32],
    stats: &PhraseStats,
    alpha: f64,
    mut trace: Option<&mut MergeTrace>,
    scratch: &mut ConstructScratch,
    offset: u32,
    out: &mut Vec<(u32, u32)>,
) {
    let n = tokens.len();
    if n == 0 {
        return;
    }
    scratch.reset(tokens, stats);
    for i in 0..n.saturating_sub(1) as u32 {
        scratch.push_candidate(tokens, stats, alpha, i, i + 1);
    }

    let mut iteration = 0usize;
    while let Some(cand) = scratch.heap.pop() {
        let (a, b) = (cand.left as usize, cand.right as usize);
        // Lazy invalidation: either side changed or died since scoring.
        if !scratch.alive[a]
            || !scratch.alive[b]
            || scratch.version[a] != cand.left_version
            || scratch.version[b] != cand.right_version
            || scratch.next[a] != cand.right as i32
        {
            continue;
        }
        if let Some(trace) = trace.as_deref_mut() {
            trace.push(MergeStep {
                iteration,
                left: (scratch.start[a] + offset, scratch.end[a] + offset),
                right: (scratch.start[b] + offset, scratch.end[b] + offset),
                significance: cand.sig,
            });
        }
        iteration += 1;
        // Merge b into a.
        scratch.end[a] = scratch.end[b];
        scratch.node[a] = Some(cand.merged);
        scratch.alive[b] = false;
        scratch.version[a] = scratch.version[a].wrapping_add(1);
        let after = scratch.next[b];
        scratch.next[a] = after;
        if after >= 0 {
            scratch.prev[after as usize] = a as i32;
        }
        // Re-score against the new neighbors (Algorithm 2 line 8).
        let before = scratch.prev[a];
        if before >= 0 {
            scratch.push_candidate(tokens, stats, alpha, before as u32, a as u32);
        }
        if after >= 0 {
            scratch.push_candidate(tokens, stats, alpha, a as u32, after as u32);
        }
    }

    // Collect surviving instances left-to-right. Node 0 is always a head
    // (merges only ever kill the right member).
    let mut cursor = 0i32;
    while cursor >= 0 {
        let i = cursor as usize;
        debug_assert!(scratch.alive[i]);
        out.push((scratch.start[i] + offset, scratch.end[i] + offset));
        cursor = scratch.next[i];
    }
}

/// Convenience wrapper applying [`construct_chunk`] to every chunk of a
/// document, producing document-relative spans.
#[derive(Debug, Clone, Copy)]
pub struct PhraseConstructor {
    /// Significance threshold α.
    pub alpha: f64,
}

impl PhraseConstructor {
    pub fn new(alpha: f64) -> Self {
        Self { alpha }
    }

    /// Partition a whole document; spans are document-relative.
    pub fn construct_doc(&self, doc: &Document, stats: &PhraseStats) -> Vec<(u32, u32)> {
        let mut scratch = ConstructScratch::default();
        self.construct_doc_with(doc, stats, &mut scratch)
    }

    /// Partition a whole document reusing caller-provided scratch — the
    /// allocation-free path: per document only the returned span vector is
    /// allocated.
    pub fn construct_doc_with(
        &self,
        doc: &Document,
        stats: &PhraseStats,
        scratch: &mut ConstructScratch,
    ) -> Vec<(u32, u32)> {
        let mut spans = Vec::with_capacity(doc.n_tokens());
        for (cstart, cend) in doc.chunk_ranges() {
            construct_chunk_into(
                &doc.tokens[cstart..cend],
                stats,
                self.alpha,
                None,
                scratch,
                cstart as u32,
                &mut spans,
            );
        }
        spans
    }

    /// Same, also returning the concatenated merge trace (chunk-relative
    /// spans are shifted to document offsets).
    pub fn construct_doc_traced(
        &self,
        doc: &Document,
        stats: &PhraseStats,
    ) -> (Vec<(u32, u32)>, MergeTrace) {
        let mut scratch = ConstructScratch::default();
        let mut trace = MergeTrace::new();
        let mut spans = Vec::with_capacity(doc.n_tokens());
        for (cstart, cend) in doc.chunk_ranges() {
            construct_chunk_into(
                &doc.tokens[cstart..cend],
                stats,
                self.alpha,
                Some(&mut trace),
                &mut scratch,
                cstart as u32,
                &mut spans,
            );
        }
        (spans, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-assembled lexicon: unigram counts + frequent n-gram counts.
    fn stats(unigrams: Vec<u64>, ngrams: &[(&[u32], u64)], total: u64) -> PhraseStats {
        let mut lexicon = PhraseStats::new(unigrams, total, 1);
        for (p, c) in ngrams {
            lexicon.insert(p, *c).unwrap();
        }
        lexicon
    }

    fn spans_of(tokens: &[u32], st: &PhraseStats, alpha: f64) -> Vec<(u32, u32)> {
        construct_chunk(tokens, st, alpha, None).spans
    }

    #[test]
    fn empty_and_singleton_chunks() {
        let st = stats(vec![10, 10], &[], 100);
        assert!(spans_of(&[], &st, 1.0).is_empty());
        assert_eq!(spans_of(&[0], &st, 1.0), vec![(0, 1)]);
    }

    #[test]
    fn significant_bigram_merges() {
        // Words 0,1 strongly collocated; word 2 independent.
        let st = stats(vec![50, 50, 1000], &[(&[0, 1], 45)], 100_000);
        assert_eq!(spans_of(&[0, 1, 2], &st, 3.0), vec![(0, 2), (2, 3)]);
    }

    #[test]
    fn high_alpha_keeps_singletons() {
        let st = stats(vec![50, 50], &[(&[0, 1], 45)], 100_000);
        assert_eq!(spans_of(&[0, 1], &st, 1e9), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn unseen_pairs_never_merge() {
        // Whatever α, even −∞, a pair whose merge was never observed as a
        // frequent phrase cannot merge; a NaN α merges nothing at all.
        let st = stats(vec![100, 100], &[], 10_000);
        let singletons = vec![(0, 1), (1, 2), (2, 3)];
        for alpha in [-1e300, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(spans_of(&[0, 1, 0], &st, alpha), singletons, "α = {alpha}");
        }
        let st = stats(vec![100, 100], &[(&[0, 1], 90)], 10_000);
        assert_eq!(
            spans_of(&[0, 1, 0], &st, f64::NEG_INFINITY),
            vec![(0, 2), (2, 3)]
        );
        assert_eq!(spans_of(&[0, 1, 0], &st, f64::NAN), singletons);
        // A pair whose concatenation is only implied by a longer phrase (a
        // node with count 0) is unseen too, so the trigram cannot form.
        let st = stats(vec![100, 100], &[(&[0, 1, 0], 90)], 10_000);
        assert_eq!(spans_of(&[0, 1, 0], &st, f64::NEG_INFINITY), singletons);
    }

    #[test]
    fn tokens_outside_the_vocabulary_stay_singletons() {
        let st = stats(vec![50, 50], &[(&[0, 1], 45)], 100_000);
        assert_eq!(
            spans_of(&[7, 0, 1, 9], &st, 3.0),
            vec![(0, 1), (1, 3), (3, 4)]
        );
    }

    #[test]
    fn greedy_order_prefers_strongest_pair() {
        // Chunk [0 1 2]. sig(1,2) >> sig(0,1); once (1 2) exists, 0 cannot
        // join because the trigram is unseen. A left-to-right merger would
        // have produced (0 1)(2) instead.
        let st = stats(
            vec![500, 40, 40, 0],
            &[(&[0, 1], 6), (&[1, 2], 38)],
            100_000,
        );
        assert_eq!(spans_of(&[0, 1, 2], &st, 2.0), vec![(0, 1), (1, 3)]);
    }

    #[test]
    fn builds_trigram_through_two_merges() {
        // "support vector machine": all three pairwise-composable counts
        // present; trigram frequent so the second merge sees a real count.
        let st = stats(
            vec![60, 55, 70],
            &[(&[0, 1], 50), (&[1, 2], 48), (&[0, 1, 2], 46)],
            1_000_000,
        );
        assert_eq!(spans_of(&[0, 1, 2], &st, 3.0), vec![(0, 3)]);
    }

    #[test]
    fn free_rider_does_not_extend_phrase() {
        // (0 1) is a real collocation; token 2 is a very common word that
        // follows everything. The trigram count equals exactly what chance
        // predicts given (0 1) and 2, so its significance is ~0 < α.
        let l = 1_000_000u64;
        let f01 = 500u64;
        let f2 = 50_000u64;
        let chance = (f01 as f64 * f2 as f64 / l as f64) as u64; // 25
        let st = stats(
            vec![600, 550, f2],
            &[(&[0, 1], f01), (&[1, 2], 30), (&[0, 1, 2], chance)],
            l,
        );
        let spans = spans_of(&[0, 1, 2], &st, 3.0);
        assert_eq!(spans, vec![(0, 2), (2, 3)]);
    }

    #[test]
    fn partition_always_covers_chunk() {
        let st = stats(
            vec![10, 20, 30, 40, 50],
            &[(&[0, 1], 9), (&[2, 3], 8), (&[1, 2], 7)],
            1_000,
        );
        for len in 0..5usize {
            let tokens: Vec<u32> = (0..len as u32).collect();
            let spans = spans_of(&tokens, &st, 0.5);
            // Coverage: concatenation of spans == chunk.
            let mut pos = 0u32;
            for &(s, e) in &spans {
                assert_eq!(s, pos);
                assert!(e > s);
                pos = e;
            }
            assert_eq!(pos as usize, len);
        }
    }

    #[test]
    fn merge_trace_records_iterations_and_spans() {
        let st = stats(
            vec![60, 55, 70],
            &[(&[0, 1], 50), (&[1, 2], 48), (&[0, 1, 2], 46)],
            1_000_000,
        );
        let mut trace = MergeTrace::new();
        let part = construct_chunk(&[0, 1, 2], &st, 3.0, Some(&mut trace));
        assert_eq!(part.spans, vec![(0, 3)]);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].iteration, 0);
        assert_eq!(trace[1].iteration, 1);
        // Second merge is between a 2-token phrase and a 1-token phrase.
        let width = |s: (u32, u32)| s.1 - s.0;
        assert_eq!(width(trace[1].left) + width(trace[1].right), 3);
        assert!(trace[0].significance >= 3.0);
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        use topmine_corpus::Document;
        let st = stats(
            vec![60, 55, 70, 5],
            &[(&[0, 1], 50), (&[1, 2], 48), (&[0, 1, 2], 46)],
            1_000_000,
        );
        let docs = [
            Document::from_chunks([&[0u32, 1, 2][..], &[3, 0, 1]]),
            Document::from_chunks([&[3u32][..]]),
            Document::from_chunks([&[0u32, 1, 2, 3, 0, 1][..]]),
        ];
        let ctor = PhraseConstructor::new(2.0);
        let mut scratch = ConstructScratch::new();
        for doc in &docs {
            let reused = ctor.construct_doc_with(doc, &st, &mut scratch);
            let fresh = ctor.construct_doc(doc, &st);
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn doc_level_spans_respect_chunks() {
        use topmine_corpus::Document;
        // Two chunks: [0 1] and [0 1]; bigram frequent. Spans must not span
        // the chunk boundary even though tokens 1,0 are adjacent in the doc.
        let st = stats(vec![50, 50], &[(&[0, 1], 45)], 100_000);
        let doc = Document::from_chunks([&[0u32, 1][..], &[0, 1]]);
        let spans = PhraseConstructor::new(2.0).construct_doc(&doc, &st);
        assert_eq!(spans, vec![(0, 2), (2, 4)]);
    }

    #[test]
    fn traced_doc_spans_match_untraced() {
        use topmine_corpus::Document;
        let st = stats(
            vec![60, 55, 70, 5],
            &[(&[0, 1], 50), (&[1, 2], 48), (&[0, 1, 2], 46)],
            1_000_000,
        );
        let doc = Document::from_chunks([&[0u32, 1, 2][..], &[3, 0, 1]]);
        let ctor = PhraseConstructor::new(2.0);
        let plain = ctor.construct_doc(&doc, &st);
        let (traced, trace) = ctor.construct_doc_traced(&doc, &st);
        assert_eq!(plain, traced);
        // Trace spans from the second chunk are document-relative.
        assert!(trace.iter().any(|s| s.left.0 >= 3 || s.right.0 >= 3));
    }
}
