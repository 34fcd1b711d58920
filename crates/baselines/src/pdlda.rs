//! PD-LDA (Lindsey, Headden & Stipicevic, EMNLP-CoNLL 2012), the paper's
//! reference \[16\]: a phrase-discovering topic model where a hierarchical
//! Pitman–Yor process shares one topic across all words of an n-gram.
//!
//! This is the most complex comparison method; the original uses a full
//! Chinese-restaurant-franchise sampler over a hierarchical PYP language
//! model per topic. We implement a faithful-but-bounded variant (documented
//! in DESIGN.md §3):
//!
//! * documents are segmented into latent n-grams of length ≤ `max_ngram`;
//! * each segment draws one topic from the document's Dirichlet-multinomial
//!   (topic sharing across the n-gram — the property the paper compares
//!   against);
//! * each topic owns a hierarchical PYP over word sequences: restaurants
//!   for contexts of length 0..max_ngram−1, with full table tracking and
//!   recursive back-off to shorter contexts, bottoming out at uniform 1/V;
//! * Gibbs sweeps re-sample one chunk at a time: remove its segments
//!   (customers leave restaurants), then rebuild the segmentation
//!   sequentially, jointly sampling (length, topic) per segment.
//!
//! The per-token cost — several hash lookups and CRP table operations, with
//! recursive parent updates — is what makes PD-LDA orders of magnitude
//! slower than LDA (paper Table 3: days where LDA takes minutes). That
//! behaviour is preserved.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topmine_corpus::Corpus;
use topmine_lda::kernel::sample_cumulative;
use topmine_lda::TopicSummary;
use topmine_util::{FxHashMap, TopK};

/// PD-LDA configuration.
#[derive(Debug, Clone)]
pub struct PdLdaConfig {
    pub n_topics: usize,
    /// Maximum n-gram (segment) length.
    pub max_ngram: usize,
    /// Document-topic Dirichlet over segments.
    pub alpha: f64,
    /// PYP discount d ∈ [0, 1).
    pub discount: f64,
    /// PYP concentration θ > −d.
    pub concentration: f64,
    pub iterations: usize,
    pub seed: u64,
}

impl Default for PdLdaConfig {
    fn default() -> Self {
        Self {
            n_topics: 10,
            max_ngram: 3,
            alpha: 1.0,
            discount: 0.5,
            concentration: 1.0,
            iterations: 100,
            seed: 1,
        }
    }
}

impl PdLdaConfig {
    pub fn new(n_topics: usize) -> Self {
        Self {
            n_topics,
            ..Self::default()
        }
    }
}

/// One CRP restaurant: customers per word arranged in tables.
#[derive(Debug, Clone, Default)]
struct Restaurant {
    /// Table occupancies per word.
    tables: FxHashMap<u32, Vec<u32>>,
    customers: u32,
    n_tables: u32,
}

/// Context key: (topic, backoff words — the up-to-(n−1) words preceding the
/// one being predicted, most recent last).
type CtxKey = (u16, Box<[u32]>);

/// The hierarchical PYP over all topics.
#[derive(Debug, Default)]
struct HpypLm {
    restaurants: FxHashMap<CtxKey, Restaurant>,
}

impl HpypLm {
    /// Predictive probability of `w` after `ctx` under topic `t`.
    fn prob(&self, t: u16, ctx: &[u32], w: u32, d: f64, theta: f64, v: usize) -> f64 {
        let base = if ctx.is_empty() {
            1.0 / v as f64
        } else {
            self.prob(t, &ctx[1..], w, d, theta, v)
        };
        match self.restaurants.get(&(t, ctx.to_vec().into_boxed_slice())) {
            None => base,
            Some(r) => {
                let c = r.customers as f64;
                if c == 0.0 {
                    return base;
                }
                let (cw, tw) = match r.tables.get(&w) {
                    Some(tabs) => (
                        tabs.iter().map(|&x| x as f64).sum::<f64>(),
                        tabs.len() as f64,
                    ),
                    None => (0.0, 0.0),
                };
                ((cw - d * tw).max(0.0) + (theta + d * r.n_tables as f64) * base) / (theta + c)
            }
        }
    }

    /// Seat a customer for `w` in context `ctx`; recursively seats phantom
    /// customers in parent restaurants when a new table opens.
    // The CRP seating arguments (discount, concentration, base-measure size)
    // travel together by nature; bundling them would only obscure the math.
    #[allow(clippy::too_many_arguments)]
    fn add(&mut self, rng: &mut StdRng, t: u16, ctx: &[u32], w: u32, d: f64, theta: f64, v: usize) {
        let parent_base = if ctx.is_empty() {
            1.0 / v as f64
        } else {
            self.prob(t, &ctx[1..], w, d, theta, v)
        };
        let r = self
            .restaurants
            .entry((t, ctx.to_vec().into_boxed_slice()))
            .or_default();
        // Choose a table: existing tables serving w with weight (c_t − d),
        // or a new table with weight (θ + d·T)·p_parent(w).
        let new_table_w = (theta + d * r.n_tables as f64) * parent_base;
        let (choice, total) = {
            let tabs = r.tables.entry(w).or_default();
            let mut total = new_table_w;
            for &c in tabs.iter() {
                total += (c as f64 - d).max(0.0);
            }
            let x = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
            let mut acc = 0.0;
            let mut choice = usize::MAX; // MAX = new table
            for (i, &c) in tabs.iter().enumerate() {
                acc += (c as f64 - d).max(0.0);
                if x < acc {
                    choice = i;
                    break;
                }
            }
            (choice, total)
        };
        let _ = total;
        let tabs = r.tables.get_mut(&w).expect("just inserted");
        if choice == usize::MAX {
            tabs.push(1);
            r.n_tables += 1;
            r.customers += 1;
            if !ctx.is_empty() {
                self.add(rng, t, &ctx[1..], w, d, theta, v);
            }
        } else {
            tabs[choice] += 1;
            r.customers += 1;
        }
    }

    /// Remove one customer of `w` from context `ctx` (chosen proportional to
    /// table occupancy); recursively removes the phantom parent customer if
    /// a table closes.
    fn remove(&mut self, rng: &mut StdRng, t: u16, ctx: &[u32], w: u32) {
        let key: CtxKey = (t, ctx.to_vec().into_boxed_slice());
        let mut close_table = false;
        {
            let r = self
                .restaurants
                .get_mut(&key)
                .expect("removing from unknown restaurant");
            let tabs = r.tables.get_mut(&w).expect("removing unseated word");
            let total: u32 = tabs.iter().sum();
            let mut x = rng.gen_range(0..total);
            let mut idx = 0;
            for (i, &c) in tabs.iter().enumerate() {
                if x < c {
                    idx = i;
                    break;
                }
                x -= c;
            }
            tabs[idx] -= 1;
            r.customers -= 1;
            if tabs[idx] == 0 {
                tabs.swap_remove(idx);
                r.n_tables -= 1;
                close_table = true;
                if tabs.is_empty() {
                    r.tables.remove(&w);
                }
            }
            if r.customers == 0 {
                self.restaurants.remove(&key);
            }
        }
        if close_table && !ctx.is_empty() {
            self.remove(rng, t, &ctx[1..], w);
        }
    }
}

/// A fitted PD-LDA model.
#[derive(Debug)]
pub struct PdLdaModel {
    cfg: PdLdaConfig,
    v: usize,
    /// Per doc: segment list as (start, end, topic).
    segments: Vec<Vec<(u32, u32, u16)>>,
    /// Document-topic counts over segments.
    n_dk: Vec<u32>,
    n_d: Vec<u32>,
    lm: HpypLm,
    rng: StdRng,
}

impl PdLdaModel {
    pub fn fit(corpus: &Corpus, cfg: PdLdaConfig) -> Self {
        let k = cfg.n_topics;
        assert!(k >= 1 && cfg.max_ngram >= 1);
        let mut model = Self {
            v: corpus.vocab.len().max(1),
            segments: vec![Vec::new(); corpus.n_docs()],
            n_dk: vec![0; corpus.n_docs() * k],
            n_d: vec![0; corpus.n_docs()],
            lm: HpypLm::default(),
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
        };
        // Initialize: unigram segments, random topics.
        for (d, doc) in corpus.docs.iter().enumerate() {
            for (s, e) in doc.chunk_ranges() {
                for i in s..e {
                    let t = model.rng.gen_range(0..k) as u16;
                    model.add_segment(corpus, d, (i as u32, i as u32 + 1, t));
                }
            }
        }
        for _ in 0..model.cfg.iterations {
            model.sweep(corpus);
        }
        model
    }

    fn add_segment(&mut self, corpus: &Corpus, d: usize, seg: (u32, u32, u16)) {
        let (s, e, t) = seg;
        let doc = &corpus.docs[d];
        let (disc, theta, v) = (self.cfg.discount, self.cfg.concentration, self.v);
        for i in s..e {
            let ctx_start = s.max(i.saturating_sub(self.cfg.max_ngram as u32 - 1));
            let ctx = &doc.tokens[ctx_start as usize..i as usize];
            self.lm.add(
                &mut self.rng,
                t,
                ctx,
                doc.tokens[i as usize],
                disc,
                theta,
                v,
            );
        }
        self.n_dk[d * self.cfg.n_topics + t as usize] += 1;
        self.n_d[d] += 1;
        self.segments[d].push(seg);
    }

    fn remove_doc_chunk(&mut self, corpus: &Corpus, d: usize, chunk: (usize, usize)) {
        let doc = &corpus.docs[d];
        let (cs, ce) = chunk;
        let mut kept = Vec::with_capacity(self.segments[d].len());
        let segs = std::mem::take(&mut self.segments[d]);
        for seg in segs {
            let (s, e, t) = seg;
            if (s as usize) >= cs && (e as usize) <= ce {
                for i in s..e {
                    let ctx_start = s.max(i.saturating_sub(self.cfg.max_ngram as u32 - 1));
                    let ctx = &doc.tokens[ctx_start as usize..i as usize];
                    self.lm
                        .remove(&mut self.rng, t, ctx, doc.tokens[i as usize]);
                }
                self.n_dk[d * self.cfg.n_topics + t as usize] -= 1;
                self.n_d[d] -= 1;
            } else {
                kept.push(seg);
            }
        }
        self.segments[d] = kept;
    }

    /// One Gibbs sweep: resample each chunk's segmentation and topics.
    fn sweep(&mut self, corpus: &Corpus) {
        let k = self.cfg.n_topics;
        // One reusable buffer of running sums for the joint (length, topic)
        // draw — the hot loop allocates nothing per position.
        let mut cum: Vec<f64> = Vec::with_capacity(self.cfg.max_ngram * k);
        for d in 0..corpus.n_docs() {
            for (cs, ce) in corpus.docs[d].chunk_ranges() {
                self.remove_doc_chunk(corpus, d, (cs, ce));
                // Rebuild left to right, jointly sampling (length, topic).
                let mut i = cs;
                while i < ce {
                    let max_len = self.cfg.max_ngram.min(ce - i);
                    cum.clear();
                    let mut acc = 0.0;
                    for len in 1..=max_len {
                        for t in 0..k {
                            let topic_f = (self.cfg.alpha + self.n_dk[d * k + t] as f64)
                                / (k as f64 * self.cfg.alpha + self.n_d[d] as f64);
                            let mut seq_p = 1.0f64;
                            for j in 0..len {
                                let pos = i + j;
                                let ctx_start = i.max(pos.saturating_sub(self.cfg.max_ngram - 1));
                                let ctx = &corpus.docs[d].tokens[ctx_start..pos];
                                seq_p *= self.lm.prob(
                                    t as u16,
                                    ctx,
                                    corpus.docs[d].tokens[pos],
                                    self.cfg.discount,
                                    self.cfg.concentration,
                                    self.v,
                                );
                            }
                            acc += topic_f * seq_p;
                            cum.push(acc);
                        }
                    }
                    let choice = sample_cumulative(&mut self.rng, &cum);
                    let len = choice / k + 1;
                    let t = (choice % k) as u16;
                    self.add_segment(corpus, d, (i as u32, (i + len) as u32, t));
                    i += len;
                }
            }
        }
    }

    pub fn n_topics(&self) -> usize {
        self.cfg.n_topics
    }

    /// Summaries: unigram probabilities from the topic PYP roots, phrases
    /// from multi-word segments of the final state.
    pub fn summarize(
        &self,
        corpus: &Corpus,
        n_unigrams: usize,
        n_phrases: usize,
    ) -> Vec<TopicSummary> {
        let k = self.cfg.n_topics;
        // Unigram counts per topic from root restaurants.
        let mut uni_top: Vec<TopK<u32>> = (0..k).map(|_| TopK::new(n_unigrams)).collect();
        for t in 0..k as u16 {
            if let Some(r) = self.lm.restaurants.get(&(t, Vec::new().into_boxed_slice())) {
                let total = r.customers.max(1) as f64;
                let mut words: Vec<(&u32, &Vec<u32>)> = r.tables.iter().collect();
                words.sort_by_key(|(w, _)| **w);
                for (w, tabs) in words {
                    let c: u32 = tabs.iter().sum();
                    uni_top[t as usize].push(c as f64 / total, *w);
                }
            }
        }
        // Phrase TF from segments.
        let mut tf: FxHashMap<topmine_lda::viz::PhraseTopic, u64> = FxHashMap::default();
        for (d, segs) in self.segments.iter().enumerate() {
            let doc = &corpus.docs[d];
            for &(s, e, t) in segs {
                if e - s >= 2 {
                    let key = (
                        doc.tokens[s as usize..e as usize]
                            .to_vec()
                            .into_boxed_slice(),
                        t,
                    );
                    *tf.entry(key).or_insert(0) += 1;
                }
            }
        }
        let mut phrase_top: Vec<TopK<Box<[u32]>>> = (0..k).map(|_| TopK::new(n_phrases)).collect();
        let mut entries: Vec<(&topmine_lda::viz::PhraseTopic, &u64)> = tf.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        for ((p, t), &c) in entries {
            phrase_top[*t as usize].push(c as f64, p.clone());
        }

        (0..k)
            .map(|t| TopicSummary {
                topic: t,
                top_unigrams: std::mem::replace(&mut uni_top[t], TopK::new(0))
                    .into_sorted_vec()
                    .into_iter()
                    .map(|(p, w)| (corpus.display_word(w).to_string(), p))
                    .collect(),
                top_phrases: std::mem::replace(&mut phrase_top[t], TopK::new(0))
                    .into_sorted_vec()
                    .into_iter()
                    .map(|(c, p)| (corpus.render_phrase(&p), c as u64))
                    .collect(),
            })
            .collect()
    }

    /// Structural invariants: segments partition every chunk; counts agree.
    pub fn check_state(&self, corpus: &Corpus) -> Result<(), String> {
        let k = self.cfg.n_topics;
        let mut n_dk = vec![0u32; corpus.n_docs() * k];
        for (d, doc) in corpus.docs.iter().enumerate() {
            let mut segs = self.segments[d].clone();
            segs.sort_by_key(|&(s, _, _)| s);
            let mut pos = 0u32;
            for &(s, e, t) in &segs {
                if s != pos || e <= s {
                    return Err(format!("doc {d}: segments do not partition at {pos}"));
                }
                pos = e;
                n_dk[d * k + t as usize] += 1;
                // Segment inside one chunk.
                let ok = doc
                    .chunk_ranges()
                    .any(|(cs, ce)| cs <= s as usize && e as usize <= ce);
                if !ok {
                    return Err(format!("doc {d}: segment ({s},{e}) crosses chunks"));
                }
            }
            if pos as usize != doc.n_tokens() {
                return Err(format!("doc {d}: segments cover {pos} tokens"));
            }
        }
        if n_dk != self.n_dk {
            return Err("segment topic counts out of sync".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topmine_synth::{generate, Profile};

    #[test]
    fn restaurant_probabilities_sum_to_one() {
        let mut lm = HpypLm::default();
        let mut rng = StdRng::seed_from_u64(1);
        let v = 5usize;
        let (d, theta) = (0.5, 1.0);
        for &w in &[0u32, 0, 1, 2, 0, 1] {
            lm.add(&mut rng, 0, &[], w, d, theta, v);
        }
        let total: f64 = (0..v as u32).map(|w| lm.prob(0, &[], w, d, theta, v)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total = {total}");
        // Seen words more probable than unseen.
        assert!(lm.prob(0, &[], 0, d, theta, v) > lm.prob(0, &[], 4, d, theta, v));
    }

    #[test]
    fn add_remove_roundtrip_restores_empty() {
        let mut lm = HpypLm::default();
        let mut rng = StdRng::seed_from_u64(2);
        let v = 4usize;
        for &w in &[1u32, 2, 1, 3] {
            lm.add(&mut rng, 0, &[0], w, 0.5, 1.0, v);
        }
        for &w in &[1u32, 2, 1, 3] {
            lm.remove(&mut rng, 0, &[0], w);
        }
        assert!(
            lm.restaurants.is_empty(),
            "restaurants remain: {:?}",
            lm.restaurants.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn context_conditioning_shifts_probability() {
        let mut lm = HpypLm::default();
        let mut rng = StdRng::seed_from_u64(3);
        let v = 10usize;
        // "5 follows 4" seen many times under topic 0.
        for _ in 0..20 {
            lm.add(&mut rng, 0, &[], 4, 0.5, 1.0, v);
            lm.add(&mut rng, 0, &[4], 5, 0.5, 1.0, v);
        }
        let p_cond = lm.prob(0, &[4], 5, 0.5, 1.0, v);
        let p_other = lm.prob(0, &[7], 5, 0.5, 1.0, v);
        assert!(p_cond > 3.0 * p_other, "cond {p_cond} vs other {p_other}");
    }

    #[test]
    fn fit_produces_valid_state_and_phrases() {
        let s = generate(Profile::Conf20, 0.015, 5);
        let model = PdLdaModel::fit(
            &s.corpus,
            PdLdaConfig {
                iterations: 8,
                seed: 6,
                ..PdLdaConfig::new(s.n_topics)
            },
        );
        model.check_state(&s.corpus).unwrap();
        let summaries = model.summarize(&s.corpus, 8, 8);
        assert_eq!(summaries.len(), s.n_topics);
        let n_phrases: usize = summaries.iter().map(|s| s.top_phrases.len()).sum();
        assert!(n_phrases > 0, "pd-lda produced no multi-word segments");
    }

    #[test]
    fn deterministic_given_seed() {
        let s = generate(Profile::Conf20, 0.01, 5);
        let cfg = PdLdaConfig {
            iterations: 4,
            seed: 11,
            ..PdLdaConfig::new(s.n_topics)
        };
        let a = PdLdaModel::fit(&s.corpus, cfg.clone());
        let b = PdLdaModel::fit(&s.corpus, cfg);
        assert_eq!(a.segments, b.segments);
    }
}
