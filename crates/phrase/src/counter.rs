//! The phrase lexicon: aggregate phrase counts (`C` in the paper's
//! Algorithm 1) on dense `u32` node ids.
//!
//! Every phrase the lexicon knows is a node. Nodes `0..V` are the
//! unigrams, node `w` being word `w`, and their counts are kept for
//! *every* word (they are the Bernoulli success probabilities of Eq. 1's
//! null model). A longer phrase is the child of its prefix: one [`U64Map`]
//! maps `parent << 32 | next_word` to the child node, and one `Vec<u64>`
//! holds each node's count. A prefix that is only implied by a longer
//! phrase has count 0.
//!
//! Algorithm 1 fills the lexicon level by level, giving each frequent
//! n-gram the next node id as it survives; Algorithm 2 keeps each phrase
//! instance's node, reads `f(P)` by id, and reaches `f(P1 ⊕ P2)` by
//! `|P2|` child lookups from `P1`'s node. Serving holds the same type, so
//! a lexicon loaded from a bundle segments exactly as the mined one.

use crate::prefix::U64Map;
use std::ops::Range;

/// Output of frequent phrase mining and the lexicon serving segments
/// against: every frequent phrase with its corpus count, plus the count of
/// every word.
#[derive(Debug, Clone, Default)]
pub struct PhraseStats {
    /// Count of each node; `counts[w]` for `w < V` is word `w`'s count.
    counts: Vec<u64>,
    /// `parent << 32 | word` → child node.
    children: U64Map,
    /// Unigram nodes `V`.
    n_words: u32,
    /// Nodes with a nonzero count.
    n_phrases: usize,
    /// Longest phrase with a nonzero count.
    max_len: usize,
    /// Total number of tokens `L` in the mined corpus.
    pub total_tokens: u64,
    /// The minimum support `ε` the miner was run with.
    pub min_support: u64,
}

#[inline]
fn child_key(parent: u32, word: u32) -> u64 {
    (u64::from(parent) << 32) | u64::from(word)
}

impl PhraseStats {
    /// A lexicon of the unigrams only: word `w` has count
    /// `unigram_counts[w]`, and the vocabulary has `unigram_counts.len()`
    /// words.
    ///
    /// # Panics
    /// If the vocabulary does not leave room for packed child keys
    /// (`V < u32::MAX`).
    pub fn new(unigram_counts: Vec<u64>, total_tokens: u64, min_support: u64) -> Self {
        let n_words = u32::try_from(unigram_counts.len())
            .ok()
            .filter(|&v| v < u32::MAX)
            .expect("vocabulary too large for u32 node ids");
        Self {
            n_phrases: unigram_counts.iter().filter(|&&c| c > 0).count(),
            counts: unigram_counts,
            children: U64Map::new(),
            n_words,
            max_len: 1,
            total_tokens,
            min_support,
        }
    }

    /// Longest phrase length with a nonzero count (1 for a lexicon of
    /// unigrams).
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Vocabulary size `V`: the unigram nodes.
    pub fn vocab_size(&self) -> usize {
        self.n_words as usize
    }

    /// Count of every word id (dense; includes infrequent words).
    pub fn unigram_counts(&self) -> &[u64] {
        &self.counts[..self.n_words as usize]
    }

    /// The node of word `w`, if `w` is in the vocabulary.
    #[inline]
    pub(crate) fn unigram(&self, w: u32) -> Option<u32> {
        (w < self.n_words).then_some(w)
    }

    /// The node of `parent`'s phrase extended by `word`, if the lexicon
    /// holds it (with a count, or implied by a longer phrase).
    #[inline]
    pub(crate) fn child(&self, parent: u32, word: u32) -> Option<u32> {
        self.children
            .get(child_key(parent, word))
            .map(|node| node as u32)
    }

    /// Corpus count of `node`; 0 for a prefix only implied by a longer
    /// phrase.
    #[inline]
    pub(crate) fn node_count(&self, node: u32) -> u64 {
        self.counts[node as usize]
    }

    /// The node of `phrase`, if the lexicon holds it.
    pub(crate) fn node(&self, phrase: &[u32]) -> Option<u32> {
        let (&first, rest) = phrase.split_first()?;
        rest.iter()
            .try_fold(self.unigram(first)?, |node, &w| self.child(node, w))
    }

    /// Corpus frequency `f(P)` of an arbitrary phrase. Unigrams always have
    /// an exact count; unseen/infrequent n-grams report 0 (they can never be
    /// merged, which is exactly the implicit filtering the paper describes).
    pub fn count(&self, phrase: &[u32]) -> u64 {
        self.node(phrase).map_or(0, |node| self.node_count(node))
    }

    /// Is `phrase` frequent (support >= ε)?
    pub fn is_frequent(&self, phrase: &[u32]) -> bool {
        self.count(phrase) >= self.min_support
    }

    /// Phrases with a nonzero count, unigrams included.
    pub fn n_phrases(&self) -> usize {
        self.n_phrases
    }

    /// Number of phrases of length >= 2 with a nonzero count.
    pub fn n_frequent_ngrams(&self) -> usize {
        self.n_phrases - self.unigram_counts().iter().filter(|&&c| c > 0).count()
    }

    /// A fresh node for `parent`'s phrase extended by `word`, with `count`.
    /// The caller guarantees the child is absent.
    fn push_child(&mut self, parent: u32, word: u32, count: u64) -> u32 {
        let node = self.counts.len() as u32;
        self.counts.push(count);
        self.children.set(child_key(parent, word), u64::from(node));
        node
    }

    /// Add the level-`len` phrases Algorithm 1 found frequent: `survivors`
    /// holds `(parent << 32 | word, count)` pairs in ascending key order,
    /// and each becomes the next node, so node ids follow the keys.
    pub(crate) fn add_level(&mut self, survivors: &[(u64, u64)], len: usize) {
        assert!(
            self.counts.len() + survivors.len() < u32::MAX as usize,
            "too many frequent phrases for u32 node ids"
        );
        self.counts.reserve(survivors.len());
        self.children.reserve(survivors.len());
        for &(key, count) in survivors {
            self.push_child((key >> 32) as u32, key as u32, count);
        }
        self.n_phrases += survivors.len();
        if !survivors.is_empty() {
            self.max_len = len;
        }
    }

    /// Give `phrase` its corpus `count`, adding a node for it and for each
    /// missing prefix (an implied prefix keeps count 0). A phrase is given
    /// a count once; the lexicon's bundle loader relies on this to refuse
    /// a phrase listed twice.
    pub fn insert(&mut self, phrase: &[u32], count: u64) -> Result<(), String> {
        let (&first, rest) = phrase.split_first().ok_or("empty phrase")?;
        if count == 0 {
            return Err("zero count".into());
        }
        if let Some(w) = phrase.iter().find(|&&w| w >= self.n_words) {
            return Err(format!(
                "word id {w} outside the vocabulary of {}",
                self.n_words
            ));
        }
        let mut node = first;
        for &w in rest {
            node = match self.child(node, w) {
                Some(child) => child,
                None if self.counts.len() < u32::MAX as usize => self.push_child(node, w, 0),
                None => return Err("too many phrases for u32 node ids".into()),
            };
        }
        let slot = &mut self.counts[node as usize];
        if *slot != 0 {
            return Err("phrase listed twice".into());
        }
        *slot = count;
        self.n_phrases += 1;
        self.max_len = self.max_len.max(phrase.len());
        Ok(())
    }

    /// Visit every phrase with a nonzero count whose first word is in
    /// `first_words`, in lexicographic word-id order (a phrase before its
    /// extensions) — the canonical order of a bundle's `lexicon.tsv`.
    pub fn try_for_each_phrase<E>(
        &self,
        first_words: Range<u32>,
        mut visit: impl FnMut(&[u32], u64) -> Result<(), E>,
    ) -> Result<(), E> {
        // Child links sorted by key: a node's children are one run, in
        // word order.
        let mut edges: Vec<(u64, u32)> = self
            .children
            .iter()
            .map(|(key, node)| (key, node as u32))
            .collect();
        edges.sort_unstable_by_key(|&(key, _)| key);
        let run = |node: u32| {
            let at = |parent: u32| edges.partition_point(|&(key, _)| key < child_key(parent, 0));
            &edges[at(node)..at(node + 1)]
        };
        // Depth-first, without recursion: `(depth, word, node)` entries,
        // each node's children pushed last word first.
        let first_words = first_words.start..first_words.end.min(self.n_words);
        let mut stack: Vec<(usize, u32, u32)> = first_words.rev().map(|w| (0, w, w)).collect();
        let mut path = Vec::with_capacity(self.max_len);
        while let Some((depth, word, node)) = stack.pop() {
            path.truncate(depth);
            path.push(word);
            let count = self.node_count(node);
            if count > 0 {
                visit(&path, count)?;
            }
            let children = run(node).iter().rev();
            stack.extend(children.map(|&(key, child)| (depth + 1, key as u32, child)));
        }
        Ok(())
    }

    /// Every phrase with a nonzero count, unigrams included, in
    /// lexicographic word-id order.
    pub fn phrases(&self) -> Vec<(Vec<u32>, u64)> {
        let mut out = Vec::with_capacity(self.n_phrases);
        let all = 0..self.n_words;
        let _ = self.try_for_each_phrase(all, |phrase, count| {
            out.push((phrase.to_vec(), count));
            Ok::<(), ()>(())
        });
        out
    }

    /// Verify the Apriori invariant: every stored n-gram meets support, and
    /// every contiguous sub-phrase of it is stored with a count no smaller.
    /// Used by integration and property tests.
    pub fn check_downward_closure(&self) -> Result<(), String> {
        for (phrase, count) in self.phrases() {
            if phrase.len() < 2 {
                continue;
            }
            if count < self.min_support {
                return Err(format!("stored n-gram below support: {phrase:?} = {count}"));
            }
            for window in [phrase.len() - 1, 1] {
                for sub in phrase.windows(window) {
                    let sub_count = self.count(sub);
                    if sub_count < count {
                        return Err(format!(
                            "sub-phrase {sub:?} ({sub_count}) rarer than super-phrase {phrase:?} ({count})"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Equality is structural — the same phrases, counts and parameters — not
/// layout: node ids follow the order phrases were added, and a lexicon
/// rebuilt from its own listing must compare equal.
impl PartialEq for PhraseStats {
    fn eq(&self, other: &Self) -> bool {
        self.n_words == other.n_words
            && self.total_tokens == other.total_tokens
            && self.min_support == other.min_support
            && self.max_len == other.max_len
            && self.n_phrases == other.n_phrases
            && self.phrases() == other.phrases()
    }
}

impl Eq for PhraseStats {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Words 0..4 (word 3 unseen), bigrams `0 1` and `2 0`, trigram `0 1 2`.
    fn sample() -> PhraseStats {
        let mut s = PhraseStats::new(vec![10, 7, 6, 0], 30, 3);
        s.insert(&[0, 1], 5).unwrap();
        s.insert(&[0, 1, 2], 4).unwrap();
        s.insert(&[2, 0], 3).unwrap();
        s
    }

    #[test]
    fn counts_and_nodes() {
        let s = sample();
        assert_eq!(s.count(&[0]), 10);
        assert_eq!(s.count(&[3]), 0);
        assert_eq!(s.count(&[0, 1]), 5);
        assert_eq!(s.count(&[0, 1, 2]), 4);
        assert_eq!(s.count(&[1, 0]), 0);
        assert_eq!(s.count(&[]), 0);
        assert_eq!(s.count(&[99]), 0);
        assert_eq!(s.count(&[0, 99]), 0);
        // Node ids: unigrams are their word ids; a merge walks from the
        // left phrase's node along the right phrase's words.
        let n01 = s.node(&[0, 1]).unwrap();
        assert!(n01 >= 4);
        assert_eq!(s.child(n01, 2), s.node(&[0, 1, 2]));
        assert_eq!(s.unigram(3), Some(3));
        assert_eq!(s.unigram(4), None);
        assert_eq!(s.max_len(), 3);
    }

    #[test]
    fn frequency_threshold() {
        let s = sample();
        assert!(s.is_frequent(&[0]));
        assert!(s.is_frequent(&[2, 0])); // count 3 == min support
        assert!(!s.is_frequent(&[1, 2]));
        // Three nonzero unigrams + three n-grams; the unseen word 3 is not
        // a phrase.
        assert_eq!(s.n_phrases(), 6);
        assert_eq!(s.n_frequent_ngrams(), 3);
        assert_eq!(s.unigram_counts(), &[10, 7, 6, 0]);
    }

    #[test]
    fn listing_includes_unigrams_and_ngrams() {
        // Every seen unigram and every stored n-gram, with its count; the
        // unseen word 3 is not listed.
        let listed = sample().phrases();
        let expected: Vec<(Vec<u32>, u64)> = vec![
            (vec![0], 10),
            (vec![0, 1], 5),
            (vec![0, 1, 2], 4),
            (vec![1], 7),
            (vec![2], 6),
            (vec![2, 0], 3),
        ];
        assert_eq!(listed, expected);
    }

    #[test]
    fn listing_is_lexicographic_complete_and_rebuilds_the_lexicon() {
        let s = sample();
        let phrases = s.phrases();
        assert_eq!(phrases.len(), s.n_phrases());
        let mut sorted = phrases.clone();
        sorted.sort();
        assert_eq!(phrases, sorted, "the listing must be lexicographic");
        // Rebuilt from its own listing (in another node order: longest
        // first), the lexicon is equal to the original.
        let mut rebuilt = PhraseStats::new(vec![0; 4], 30, 3);
        for (p, c) in phrases.iter().rev() {
            rebuilt.insert(p, *c).unwrap();
        }
        assert_eq!(rebuilt, s);
        // A first-word range lists exactly the phrases starting in it.
        let mut from_two = Vec::new();
        s.try_for_each_phrase(2..4, |p, c| {
            from_two.push((p.to_vec(), c));
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(from_two, vec![(vec![2], 6), (vec![2, 0], 3)]);
    }

    #[test]
    fn implied_prefixes_count_zero_and_are_not_phrases() {
        let mut s = PhraseStats::new(vec![5, 5, 5], 15, 1);
        s.insert(&[0, 1, 2], 2).unwrap();
        assert_eq!(s.count(&[0, 1]), 0);
        assert!(s.node(&[0, 1]).is_some());
        assert_eq!(s.count(&[0, 1, 2]), 2);
        assert_eq!(s.n_phrases(), 4);
        assert_eq!(s.n_frequent_ngrams(), 1);
        // The implied prefix can be given its count later.
        s.insert(&[0, 1], 3).unwrap();
        assert_eq!(s.count(&[0, 1]), 3);
        assert_eq!(s.n_phrases(), 5);
        assert_eq!(
            s.phrases()[1..3],
            [(vec![0, 1], 3), (vec![0, 1, 2], 2)],
            "a prefix precedes its extensions"
        );
    }

    #[test]
    fn insert_refuses_what_a_lexicon_cannot_hold() {
        let mut s = PhraseStats::new(vec![4, 4], 8, 1);
        assert_eq!(s.insert(&[], 1), Err("empty phrase".into()));
        assert_eq!(s.insert(&[0], 0), Err("zero count".into()));
        let err = s.insert(&[2], 1).unwrap_err();
        assert!(err.contains("word id 2 outside"), "{err}");
        let err = s.insert(&[0, 7], 1).unwrap_err();
        assert!(err.contains("word id 7 outside"), "{err}");
        s.insert(&[0, 1], 2).unwrap();
        assert_eq!(s.insert(&[0, 1], 2), Err("phrase listed twice".into()));
        // A unigram with a count is listed once too.
        assert_eq!(s.insert(&[0], 4), Err("phrase listed twice".into()));
        assert_eq!(s.n_phrases(), 3);
    }

    #[test]
    fn downward_closure_checker_detects_violation() {
        let mut s = sample();
        // `1 2` is a sub-phrase of `0 1 2` and must count at least as much.
        assert!(s.check_downward_closure().is_err());
        s.insert(&[1, 2], 4).unwrap();
        assert!(s.check_downward_closure().is_ok());
        // A bigram more frequent than its first word.
        let mut bad = PhraseStats::new(vec![2, 7], 9, 1);
        bad.insert(&[0, 1], 5).unwrap();
        assert!(bad.check_downward_closure().is_err());
        // A stored n-gram below support.
        let mut low = PhraseStats::new(vec![9, 9], 18, 3);
        low.insert(&[0, 1], 2).unwrap();
        assert!(low.check_downward_closure().is_err());
    }

    #[test]
    fn empty_lexicon() {
        let s = PhraseStats::default();
        assert_eq!(s.count(&[0]), 0);
        assert_eq!(s.n_phrases(), 0);
        assert!(s.phrases().is_empty());
    }
}
