//! TNG — Topical N-Grams (Wang, McCallum & Wei, ICDM 2007), the paper's
//! reference \[27\] and "state-of-the-art approach to n-gram topic modeling".
//!
//! TNG extends LDA with, per token, a binary *bigram status* `x_i`: when
//! `x_i = 1` the word is generated from a topic- and previous-word-specific
//! bigram distribution `σ_{z, w_{i-1}}` and chains onto the previous word to
//! form an n-gram; when `x_i = 0` it is generated from the ordinary topic
//! unigram distribution `φ_z`. Collapsed Gibbs alternates sampling `z_i`
//! and `x_i`. Maximal runs of `x = 1` yield the extracted phrases, with the
//! phrase assigned the topic of its final word, as in the original paper.
//!
//! The extra latent variables and the `K × V × V`-shaped (sparse) bigram
//! tables are exactly why TNG costs noticeably more per iteration than LDA
//! in the paper's Table 3.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topmine_corpus::Corpus;
use topmine_lda::kernel::sample_cumulative;
use topmine_lda::TopicSummary;
use topmine_util::{FxHashMap, TopK};

/// TNG hyperparameters and run length.
#[derive(Debug, Clone)]
pub struct TngConfig {
    pub n_topics: usize,
    /// Document-topic Dirichlet.
    pub alpha: f64,
    /// Topic-word (unigram) Dirichlet.
    pub beta: f64,
    /// Bigram-status Beta prior (γ0 = stay unigram, γ1 = form bigram).
    pub gamma0: f64,
    pub gamma1: f64,
    /// Topic-bigram Dirichlet.
    pub delta: f64,
    pub iterations: usize,
    pub seed: u64,
}

impl Default for TngConfig {
    fn default() -> Self {
        Self {
            n_topics: 10,
            alpha: 1.0,
            beta: 0.01,
            gamma0: 1.0,
            gamma1: 1.0,
            delta: 0.01,
            iterations: 200,
            seed: 1,
        }
    }
}

impl TngConfig {
    pub fn new(n_topics: usize) -> Self {
        Self {
            n_topics,
            alpha: 50.0 / n_topics as f64,
            ..Self::default()
        }
    }
}

/// A fitted TNG model.
#[derive(Debug)]
pub struct TngModel {
    cfg: TngConfig,
    v: usize,
    /// z and x per document token.
    z: Vec<Vec<u16>>,
    x: Vec<Vec<u8>>,
    /// Unigram counts n_{z,w} (w*K + z) and n_z.
    n_wk: Vec<u32>,
    n_k: Vec<u64>,
    /// Document-topic counts.
    n_dk: Vec<u32>,
    /// Bigram counts m_{z, prev, w} and context totals m_{z, prev}.
    m_bigram: FxHashMap<(u16, u32, u32), u32>,
    m_ctx: FxHashMap<(u16, u32), u32>,
    /// Status counts q_{z, w}[x] — how often the successor of word w under
    /// topic z chose status x.
    q: FxHashMap<(u16, u32), [u32; 2]>,
}

impl TngModel {
    /// Train TNG on `corpus` with collapsed Gibbs sampling.
    pub fn fit(corpus: &Corpus, cfg: TngConfig) -> Self {
        let k = cfg.n_topics;
        assert!(k >= 1 && k <= u16::MAX as usize);
        let v = corpus.vocab.len();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut model = Self {
            v,
            z: Vec::with_capacity(corpus.n_docs()),
            x: Vec::with_capacity(corpus.n_docs()),
            n_wk: vec![0; v * k],
            n_k: vec![0; k],
            n_dk: vec![0; corpus.n_docs() * k],
            m_bigram: FxHashMap::default(),
            m_ctx: FxHashMap::default(),
            q: FxHashMap::default(),
            cfg,
        };

        // Random initialization: x = 0 everywhere (all unigram status).
        for (d, doc) in corpus.docs.iter().enumerate() {
            let mut zs = Vec::with_capacity(doc.n_tokens());
            let xs = vec![0u8; doc.n_tokens()];
            for &w in &doc.tokens {
                let t = rng.gen_range(0..k) as u16;
                zs.push(t);
                model.n_wk[w as usize * k + t as usize] += 1;
                model.n_k[t as usize] += 1;
                model.n_dk[d * k + t as usize] += 1;
            }
            // q counts for successor statuses (all x=0 initially).
            for (start, end) in doc.chunk_ranges() {
                for i in start + 1..end {
                    let prev_w = doc.tokens[i - 1];
                    let prev_z = zs[i - 1];
                    model.q.entry((prev_z, prev_w)).or_insert([0, 0])[0] += 1;
                }
            }
            model.z.push(zs);
            model.x.push(xs);
        }

        // One running-sum buffer reused across all sweeps (2K joint (x, z)
        // states) — the fit loop allocates nothing per token or sweep.
        let mut cum = vec![0.0f64; 2 * model.cfg.n_topics];
        for _ in 0..model.cfg.iterations {
            model.sweep(corpus, &mut rng, &mut cum);
        }
        model
    }

    fn sweep(&mut self, corpus: &Corpus, rng: &mut StdRng, cum: &mut [f64]) {
        let k = self.cfg.n_topics;
        for (d, doc) in corpus.docs.iter().enumerate() {
            for (start, end) in doc.chunk_ranges() {
                for i in start..end {
                    let w = doc.tokens[i];
                    let old_z = self.z[d][i];
                    let old_x = self.x[d][i];
                    let prev: Option<(u32, u16)> = if i > start {
                        Some((doc.tokens[i - 1], self.z[d][i - 1]))
                    } else {
                        None
                    };
                    // --- remove token i ---
                    self.n_dk[d * k + old_z as usize] -= 1;
                    if old_x == 1 {
                        let (pw, _) = prev.expect("x=1 implies predecessor");
                        let key = (old_z, pw, w);
                        let c = self.m_bigram.get_mut(&key).expect("bigram count");
                        *c -= 1;
                        if *c == 0 {
                            self.m_bigram.remove(&key);
                        }
                        *self.m_ctx.get_mut(&(old_z, pw)).expect("ctx count") -= 1;
                    } else {
                        self.n_wk[w as usize * k + old_z as usize] -= 1;
                        self.n_k[old_z as usize] -= 1;
                    }
                    if let Some((pw, pz)) = prev {
                        self.q.get_mut(&(pz, pw)).expect("q count")[old_x as usize] -= 1;
                    }
                    // The successor's status count is keyed by (z_i, w):
                    // temporarily remove it so the move is exchangeable.
                    let succ_x = if i + 1 < end {
                        Some(self.x[d][i + 1])
                    } else {
                        None
                    };
                    if let Some(sx) = succ_x {
                        self.q.get_mut(&(old_z, w)).expect("succ q")[sx as usize] -= 1;
                    }

                    // --- jointly sample (x, z) ---
                    // States are ordered (x = 0, t = 0..K) then (x = 1,
                    // t = 0..K); their running sums accumulate in that
                    // order. The status probabilities depend only on the
                    // predecessor, not on t.
                    let q = prev.map(|(pw, pz)| self.q.get(&(pz, pw)).copied().unwrap_or([0, 0]));
                    let status = |x: usize, gamma: f64| match q {
                        Some(q) => {
                            (gamma + q[x] as f64)
                                / (self.cfg.gamma0 + self.cfg.gamma1 + (q[0] + q[1]) as f64)
                        }
                        None => 1.0,
                    };
                    let status0 = status(0, self.cfg.gamma0);
                    let mut acc = 0.0;
                    for (t, slot) in cum[..k].iter_mut().enumerate() {
                        let doc_f = self.cfg.alpha + self.n_dk[d * k + t] as f64;
                        // x = 0: unigram emission.
                        let uni = (self.cfg.beta + self.n_wk[w as usize * k + t] as f64)
                            / (self.v as f64 * self.cfg.beta + self.n_k[t] as f64);
                        acc += doc_f * uni * status0;
                        *slot = acc;
                    }
                    let n_states = if let Some((pw, _)) = prev {
                        let status1 = status(1, self.cfg.gamma1);
                        for (t, slot) in cum[k..2 * k].iter_mut().enumerate() {
                            let doc_f = self.cfg.alpha + self.n_dk[d * k + t] as f64;
                            // x = 1: bigram emission from (t, prev word).
                            let m =
                                self.m_bigram.get(&(t as u16, pw, w)).copied().unwrap_or(0) as f64;
                            let mc = self.m_ctx.get(&(t as u16, pw)).copied().unwrap_or(0) as f64;
                            let big = (self.cfg.delta + m) / (self.v as f64 * self.cfg.delta + mc);
                            acc += doc_f * big * status1;
                            *slot = acc;
                        }
                        2 * k
                    } else {
                        k
                    };
                    let choice = sample_cumulative(rng, &cum[..n_states]);
                    let (new_x, new_z) = if choice < k {
                        (0u8, choice as u16)
                    } else {
                        (1u8, (choice - k) as u16)
                    };

                    // --- add token i back ---
                    self.z[d][i] = new_z;
                    self.x[d][i] = new_x;
                    self.n_dk[d * k + new_z as usize] += 1;
                    if new_x == 1 {
                        let (pw, _) = prev.expect("x=1 implies predecessor");
                        *self.m_bigram.entry((new_z, pw, w)).or_insert(0) += 1;
                        *self.m_ctx.entry((new_z, pw)).or_insert(0) += 1;
                    } else {
                        self.n_wk[w as usize * k + new_z as usize] += 1;
                        self.n_k[new_z as usize] += 1;
                    }
                    if let Some((pw, pz)) = prev {
                        self.q.entry((pz, pw)).or_insert([0, 0])[new_x as usize] += 1;
                    }
                    if let Some(sx) = succ_x {
                        self.q.entry((new_z, w)).or_insert([0, 0])[sx as usize] += 1;
                    }
                }
            }
        }
    }

    pub fn n_topics(&self) -> usize {
        self.cfg.n_topics
    }

    /// Extract phrases: maximal `x = 1` chains; phrase topic = topic of the
    /// final word (original TNG convention). Returns per-topic summaries.
    pub fn summarize(
        &self,
        corpus: &Corpus,
        n_unigrams: usize,
        n_phrases: usize,
    ) -> Vec<TopicSummary> {
        let k = self.cfg.n_topics;
        // Phrase TF per topic.
        let mut tf: FxHashMap<topmine_lda::viz::PhraseTopic, u64> = FxHashMap::default();
        for (d, doc) in corpus.docs.iter().enumerate() {
            for (start, end) in doc.chunk_ranges() {
                let mut i = start;
                while i < end {
                    let mut j = i + 1;
                    while j < end && self.x[d][j] == 1 {
                        j += 1;
                    }
                    if j - i >= 2 {
                        let key = (
                            doc.tokens[i..j].to_vec().into_boxed_slice(),
                            self.z[d][j - 1],
                        );
                        *tf.entry(key).or_insert(0) += 1;
                    }
                    i = j;
                }
            }
        }
        let mut phrase_top: Vec<TopK<Box<[u32]>>> = (0..k).map(|_| TopK::new(n_phrases)).collect();
        let mut tf_entries: Vec<(&topmine_lda::viz::PhraseTopic, &u64)> = tf.iter().collect();
        tf_entries.sort_by(|a, b| a.0.cmp(b.0));
        for ((phrase, topic), &c) in tf_entries {
            phrase_top[*topic as usize].push(c as f64, phrase.clone());
        }

        (0..k)
            .map(|t| {
                let mut uni = TopK::new(n_unigrams);
                let den = self.v as f64 * self.cfg.beta + self.n_k[t] as f64;
                for w in 0..self.v {
                    let p = (self.cfg.beta + self.n_wk[w * k + t] as f64) / den;
                    uni.push(p, w as u32);
                }
                TopicSummary {
                    topic: t,
                    top_unigrams: uni
                        .into_sorted_vec()
                        .into_iter()
                        .map(|(p, w)| (corpus.display_word(w).to_string(), p))
                        .collect(),
                    top_phrases: std::mem::replace(&mut phrase_top[t], TopK::new(0))
                        .into_sorted_vec()
                        .into_iter()
                        .map(|(c, p)| (corpus.render_phrase(&p), c as u64))
                        .collect(),
                }
            })
            .collect()
    }

    /// Consistency check of all count tables against (z, x).
    pub fn check_counts(&self, corpus: &Corpus) -> Result<(), String> {
        let k = self.cfg.n_topics;
        let mut n_wk = vec![0u32; self.v * k];
        let mut n_dk = vec![0u32; corpus.n_docs() * k];
        let mut m: FxHashMap<(u16, u32, u32), u32> = FxHashMap::default();
        let mut q: FxHashMap<(u16, u32), [u32; 2]> = FxHashMap::default();
        for (d, doc) in corpus.docs.iter().enumerate() {
            for (start, end) in doc.chunk_ranges() {
                for i in start..end {
                    let w = doc.tokens[i];
                    let z = self.z[d][i];
                    let x = self.x[d][i];
                    n_dk[d * k + z as usize] += 1;
                    if x == 1 {
                        if i == start {
                            return Err(format!("doc {d}: chunk-initial token has x=1"));
                        }
                        *m.entry((z, doc.tokens[i - 1], w)).or_insert(0) += 1;
                    } else {
                        n_wk[w as usize * k + z as usize] += 1;
                    }
                    if i > start {
                        q.entry((self.z[d][i - 1], doc.tokens[i - 1]))
                            .or_insert([0, 0])[x as usize] += 1;
                    }
                }
            }
        }
        if n_wk != self.n_wk {
            return Err("n_wk out of sync".into());
        }
        if n_dk != self.n_dk {
            return Err("n_dk out of sync".into());
        }
        if m != self.m_bigram {
            return Err("bigram counts out of sync".into());
        }
        let q_nonzero: FxHashMap<(u16, u32), [u32; 2]> = self
            .q
            .iter()
            .filter(|(_, v)| v[0] + v[1] > 0)
            .map(|(k, v)| (*k, *v))
            .collect();
        if q != q_nonzero {
            return Err("status counts out of sync".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topmine_synth::{generate, Profile};

    fn small_corpus() -> (Corpus, usize) {
        let s = generate(Profile::Conf20, 0.02, 11);
        (s.corpus, s.n_topics)
    }

    #[test]
    fn counts_stay_consistent() {
        let (corpus, k) = small_corpus();
        let model = TngModel::fit(
            &corpus,
            TngConfig {
                iterations: 5,
                ..TngConfig::new(k)
            },
        );
        model.check_counts(&corpus).unwrap();
    }

    #[test]
    fn extracts_some_phrases() {
        let (corpus, k) = small_corpus();
        let model = TngModel::fit(
            &corpus,
            TngConfig {
                iterations: 30,
                seed: 5,
                ..TngConfig::new(k)
            },
        );
        let summaries = model.summarize(&corpus, 10, 10);
        assert_eq!(summaries.len(), k);
        let total_phrases: usize = summaries.iter().map(|s| s.top_phrases.len()).sum();
        assert!(total_phrases > 0, "TNG found no phrases at all");
        // Unigrams are proper probabilities.
        for s in &summaries {
            for (_, p) in &s.top_unigrams {
                assert!(*p > 0.0 && *p < 1.0);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (corpus, k) = small_corpus();
        let cfg = TngConfig {
            iterations: 5,
            seed: 9,
            ..TngConfig::new(k)
        };
        let a = TngModel::fit(&corpus, cfg.clone());
        let b = TngModel::fit(&corpus, cfg);
        assert_eq!(a.z, b.z);
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn chunk_initial_tokens_never_chain() {
        let (corpus, k) = small_corpus();
        let model = TngModel::fit(
            &corpus,
            TngConfig {
                iterations: 10,
                ..TngConfig::new(k)
            },
        );
        for (d, doc) in corpus.docs.iter().enumerate() {
            for (start, _) in doc.chunk_ranges() {
                assert_eq!(model.x[d][start], 0, "doc {d} pos {start}");
            }
        }
    }
}

#[cfg(test)]
mod planted_tests {
    use super::*;
    use topmine_synth::{generate, Profile};

    /// On a phrase-dense synthetic corpus, TNG's x-chains recover at least
    /// some planted collocations verbatim.
    #[test]
    fn recovers_planted_collocations() {
        let s = generate(Profile::DblpTitles, 0.02, 77);
        let model = TngModel::fit(
            &s.corpus,
            TngConfig {
                iterations: 60,
                seed: 3,
                ..TngConfig::new(s.n_topics)
            },
        );
        let summaries = model.summarize(&s.corpus, 10, 10);
        let planted_hits = summaries
            .iter()
            .flat_map(|t| &t.top_phrases)
            .filter(|(p, _)| {
                p.split(' ')
                    .map(|w| s.corpus.vocab.id(w))
                    .collect::<Option<Vec<u32>>>()
                    .map(|ids| s.truth.is_planted(&ids))
                    .unwrap_or(false)
            })
            .count();
        assert!(
            planted_hits >= 3,
            "only {planted_hits} planted phrases found"
        );
    }
}
