//! Topic visualization (paper §5.4).
//!
//! A topic is shown as its most probable unigrams (standard LDA practice)
//! *plus* its top phrases ranked by **topical frequency** (Eq. 8):
//! `TF(phr, k) = Σ_{d,g} I(PI_{d,g} == phr, C_{d,g} == k)` — the number of
//! phrase instances of `phr` whose clique was assigned topic `k` in the
//! final Gibbs state. This regenerates the layout of the paper's Tables 1,
//! 4, 5, and 6 (unigram row block, then n-gram row block, per topic).

use crate::sampler::PhraseLda;
use topmine_corpus::Corpus;
use topmine_util::{FxHashMap, TopK};

/// A rendered topic: top unigrams by φ and top phrases by topical frequency.
#[derive(Debug, Clone)]
pub struct TopicSummary {
    pub topic: usize,
    /// `(word, φ_k,w)` sorted descending.
    pub top_unigrams: Vec<(String, f64)>,
    /// `(phrase, TF)` sorted descending; only multi-word phrases.
    pub top_phrases: Vec<(String, u64)>,
}

/// A phrase type paired with a topic id — the key of Eq. 8's TF table.
pub type PhraseTopic = (Box<[u32]>, u16);

/// Compute Eq. 8's topical frequency for every (phrase, topic) pair, over
/// multi-word groups only.
pub fn topical_frequencies(model: &PhraseLda) -> FxHashMap<PhraseTopic, u64> {
    let mut tf: FxHashMap<PhraseTopic, u64> = FxHashMap::default();
    for d in 0..model.docs().n_docs() {
        let doc = &model.docs().docs[d];
        for (g, (s, e)) in doc.group_ranges().enumerate() {
            if e - s < 2 {
                continue;
            }
            let key = (
                doc.tokens[s..e].to_vec().into_boxed_slice(),
                model.topic_of_group(d, g),
            );
            *tf.entry(key).or_insert(0) += 1;
        }
    }
    tf
}

/// Summarize every topic with its `n_unigrams` top words and `n_phrases`
/// top phrases. Words/phrases are rendered through the corpus (so display
/// unstemming applies when available).
pub fn summarize_topics(
    model: &PhraseLda,
    corpus: &Corpus,
    n_unigrams: usize,
    n_phrases: usize,
) -> Vec<TopicSummary> {
    let k = model.n_topics();
    let tf = topical_frequencies(model);

    // Top phrases per topic.
    let mut phrase_top: Vec<TopK<Box<[u32]>>> = (0..k).map(|_| TopK::new(n_phrases)).collect();
    // Deterministic iteration: sort the TF map keys first.
    let mut tf_entries: Vec<(&PhraseTopic, &u64)> = tf.iter().collect();
    tf_entries.sort_by(|a, b| a.0.cmp(b.0));
    for ((phrase, topic), &count) in tf_entries {
        phrase_top[*topic as usize].push(count as f64, phrase.clone());
    }

    // Top unigrams per topic by φ.
    let phi = model.phi();
    (0..k)
        .map(|t| {
            let mut uni = TopK::new(n_unigrams);
            for (w, &p) in phi[t].iter().enumerate() {
                uni.push(p, w as u32);
            }
            let top_unigrams = uni
                .into_sorted_vec()
                .into_iter()
                .map(|(p, w)| (corpus.display_word(w).to_string(), p))
                .collect();
            let top_phrases = std::mem::replace(&mut phrase_top[t], TopK::new(0))
                .into_sorted_vec()
                .into_iter()
                .map(|(c, phrase)| (corpus.render_phrase(&phrase), c as u64))
                .collect();
            TopicSummary {
                topic: t,
                top_unigrams,
                top_phrases,
            }
        })
        .collect()
}

/// Render summaries side by side in the layout of the paper's Tables 4-6:
/// a `1-grams` block then an `n-grams` block, one column per topic.
pub fn render_topic_table(summaries: &[TopicSummary], n_rows: usize) -> String {
    use std::fmt::Write as _;
    let mut table = topmine_util::Table::new(
        std::iter::once("".to_string())
            .chain(summaries.iter().map(|s| format!("Topic {}", s.topic + 1))),
    );
    for r in 0..n_rows {
        let mut row = vec![if r == 0 {
            "1-grams".to_string()
        } else {
            String::new()
        }];
        for s in summaries {
            row.push(
                s.top_unigrams
                    .get(r)
                    .map(|(w, _)| w.clone())
                    .unwrap_or_default(),
            );
        }
        table.row(row);
    }
    for r in 0..n_rows {
        let mut row = vec![if r == 0 {
            "n-grams".to_string()
        } else {
            String::new()
        }];
        for s in summaries {
            row.push(
                s.top_phrases
                    .get(r)
                    .map(|(p, _)| p.clone())
                    .unwrap_or_default(),
            );
        }
        table.row(row);
    }
    let mut out = String::new();
    let _ = writeln!(out, "{}", table.to_aligned());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GroupedDoc, GroupedDocs};
    use crate::sampler::TopicModelConfig;
    use topmine_corpus::{Document, Vocab};

    /// Corpus with two topic blocks and one planted phrase per block.
    fn setup() -> (Corpus, GroupedDocs) {
        let mut vocab = Vocab::new();
        for w in ["data", "mine", "query", "speech", "recog", "word"] {
            vocab.intern(w);
        }
        let mut docs = Vec::new();
        let mut gdocs = Vec::new();
        for d in 0..30 {
            let (tokens, ends): (Vec<u32>, Vec<u32>) = if d % 2 == 0 {
                // "data mine" phrase + unigrams.
                (vec![0, 1, 2, 0, 1, 2], vec![2, 3, 5, 6])
            } else {
                (vec![3, 4, 5, 3, 4, 5], vec![2, 3, 5, 6])
            };
            docs.push(Document::single_chunk(tokens.clone()));
            gdocs.push(GroupedDoc {
                tokens,
                group_ends: ends,
            });
        }
        (
            Corpus {
                vocab,
                docs,
                provenance: None,
                unstem: None,
            },
            GroupedDocs {
                docs: gdocs,
                vocab_size: 6,
            },
        )
    }

    fn trained() -> (Corpus, PhraseLda) {
        let (corpus, gdocs) = setup();
        let mut m = PhraseLda::new(
            gdocs,
            TopicModelConfig {
                n_topics: 2,
                alpha: 0.3,
                beta: 0.01,
                seed: 17,
                optimize_every: 0,
                burn_in: 0,
                n_threads: 1,
            },
        );
        m.run(60);
        (corpus, m)
    }

    #[test]
    fn topical_frequency_counts_multiword_instances() {
        let (_, m) = trained();
        let tf = topical_frequencies(&m);
        // 30 docs × 2 bigram groups each = 60 instances total.
        let total: u64 = tf.values().sum();
        assert_eq!(total, 60);
        // Only bigram keys present.
        assert!(tf.keys().all(|(p, _)| p.len() == 2));
    }

    #[test]
    fn summaries_separate_topics_and_rank_phrases() {
        let (corpus, m) = trained();
        let summaries = summarize_topics(&m, &corpus, 3, 3);
        assert_eq!(summaries.len(), 2);
        // One topic's top phrase should be "data mine", the other's
        // "speech recog".
        let tops: Vec<&str> = summaries
            .iter()
            .map(|s| s.top_phrases[0].0.as_str())
            .collect();
        assert!(tops.contains(&"data mine"), "tops = {tops:?}");
        assert!(tops.contains(&"speech recog"), "tops = {tops:?}");
        // Unigrams sorted descending by probability.
        for s in &summaries {
            for w in s.top_unigrams.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
    }

    #[test]
    fn render_produces_both_blocks() {
        let (corpus, m) = trained();
        let summaries = summarize_topics(&m, &corpus, 3, 3);
        let rendered = render_topic_table(&summaries, 3);
        assert!(rendered.contains("1-grams"));
        assert!(rendered.contains("n-grams"));
        assert!(rendered.contains("Topic 1"));
        assert!(rendered.contains("Topic 2"));
    }
}

/// Background-phrase filtering (paper §8 future work): "background phrases
/// like 'paper we propose' and 'proposed method' ... occur in the topical
/// representation due to their ubiquity in the corpus and should be
/// filtered in a principled manner to enhance separation and coherence".
///
/// The principle used here: a *topical* phrase concentrates its topical
/// frequency in few topics, while a background phrase spreads across many.
/// We score each phrase with the normalized entropy of its TF distribution
/// over topics (0 = perfectly topical, 1 = perfectly uniform) and drop
/// phrases above `max_entropy`, provided they have enough instances for the
/// entropy estimate to mean anything (`min_count`).
pub fn background_phrases(
    model: &PhraseLda,
    max_entropy: f64,
    min_count: u64,
) -> Vec<(Box<[u32]>, f64)> {
    let tf = topical_frequencies(model);
    let k = model.n_topics() as f64;
    if k <= 1.0 {
        return Vec::new();
    }
    // Aggregate TF per phrase across topics.
    let mut per_phrase: FxHashMap<Box<[u32]>, Vec<u64>> = FxHashMap::default();
    for ((phrase, topic), &c) in tf.iter() {
        per_phrase
            .entry(phrase.clone())
            .or_insert_with(|| vec![0; model.n_topics()])[*topic as usize] += c;
    }
    let mut out: Vec<(Box<[u32]>, f64)> = per_phrase
        .into_iter()
        .filter_map(|(phrase, counts)| {
            let total: u64 = counts.iter().sum();
            if total < min_count {
                return None;
            }
            let entropy: f64 = counts
                .iter()
                .filter(|&&c| c > 0)
                .map(|&c| {
                    let p = c as f64 / total as f64;
                    -p * p.ln()
                })
                .sum();
            let normalized = entropy / k.ln();
            (normalized > max_entropy).then_some((phrase, normalized))
        })
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    out
}

/// [`summarize_topics`] with background phrases removed (§8 extension).
pub fn summarize_topics_filtered(
    model: &PhraseLda,
    corpus: &Corpus,
    n_unigrams: usize,
    n_phrases: usize,
    max_entropy: f64,
    min_count: u64,
) -> Vec<TopicSummary> {
    use topmine_util::FxHashSet;
    let background: FxHashSet<String> = background_phrases(model, max_entropy, min_count)
        .into_iter()
        .map(|(p, _)| corpus.render_phrase(&p))
        .collect();
    // Over-fetch, filter, truncate.
    summarize_topics(model, corpus, n_unigrams, n_phrases + background.len())
        .into_iter()
        .map(|mut s| {
            s.top_phrases.retain(|(p, _)| !background.contains(p));
            s.top_phrases.truncate(n_phrases);
            s
        })
        .collect()
}

#[cfg(test)]
mod background_tests {
    use super::*;
    use crate::model::{GroupedDoc, GroupedDocs};
    use crate::sampler::TopicModelConfig;
    use topmine_corpus::{Document, Vocab};

    /// Two topics; phrase (0 1) belongs to topic A docs, phrase (2 3) to
    /// topic B docs, and phrase (4 5) is boilerplate present in all docs.
    fn setup() -> (Corpus, PhraseLda) {
        let mut vocab = Vocab::new();
        for w in ["a0", "a1", "b0", "b1", "bg0", "bg1"] {
            vocab.intern(w);
        }
        let mut docs = Vec::new();
        let mut gdocs = Vec::new();
        for d in 0..40 {
            let tokens: Vec<u32> = if d % 2 == 0 {
                vec![0, 1, 4, 5, 0, 1]
            } else {
                vec![2, 3, 4, 5, 2, 3]
            };
            docs.push(Document::single_chunk(tokens.clone()));
            gdocs.push(GroupedDoc {
                tokens,
                group_ends: vec![2, 4, 6],
            });
        }
        let corpus = Corpus {
            vocab,
            docs,
            provenance: None,
            unstem: None,
        };
        let mut m = PhraseLda::new(
            GroupedDocs {
                docs: gdocs,
                vocab_size: 6,
            },
            TopicModelConfig {
                n_topics: 2,
                alpha: 0.3,
                beta: 0.01,
                seed: 23,
                optimize_every: 0,
                burn_in: 0,
                n_threads: 1,
            },
        );
        m.run(80);
        (corpus, m)
    }

    #[test]
    fn boilerplate_has_high_entropy_and_is_flagged() {
        let (_, m) = setup();
        let bg = background_phrases(&m, 0.8, 5);
        let flagged: Vec<&[u32]> = bg.iter().map(|(p, _)| p.as_ref()).collect();
        assert!(
            flagged.contains(&&[4u32, 5][..]),
            "bg phrase not flagged: {flagged:?}"
        );
        assert!(!flagged.contains(&&[0u32, 1][..]));
        assert!(!flagged.contains(&&[2u32, 3][..]));
    }

    #[test]
    fn filtered_summaries_drop_background_only() {
        let (corpus, m) = setup();
        let plain = summarize_topics(&m, &corpus, 3, 5);
        let filtered = summarize_topics_filtered(&m, &corpus, 3, 5, 0.8, 5);
        let has = |ss: &[TopicSummary], p: &str| {
            ss.iter().any(|s| s.top_phrases.iter().any(|(q, _)| q == p))
        };
        assert!(has(&plain, "bg0 bg1"));
        assert!(!has(&filtered, "bg0 bg1"), "background phrase survived");
        assert!(has(&filtered, "a0 a1"));
        assert!(has(&filtered, "b0 b1"));
    }

    #[test]
    fn effective_topics_counts_occupied_topics() {
        let (_, m) = setup();
        // Both planted topics hold ~half the corpus.
        assert_eq!(m.effective_topics(0.2), 2);
        // No topic holds 90%.
        assert_eq!(m.effective_topics(0.9), 0);
        // Every topic holds at least 0%.
        assert_eq!(m.effective_topics(0.0), 2);
    }
}
