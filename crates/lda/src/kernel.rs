//! The shared Eq. 7 clique-posterior kernel.
//!
//! Every Gibbs update in the workspace — the training sweeps' one
//! per-document update (`sampler::update_doc`, under both sweep
//! schedules), held-out fold-in, and the serving layer's frozen-φ fold-in
//! (`topmine_serve::infer`) — samples a topic for a *clique* of tokens
//! from the same posterior shape:
//!
//! ```text
//! p(C = k | ·) ∝ ∏_{j=0..s-1} (α_k + N_dk + j) · num_k(w_j, m_j) / den_k(j)
//! ```
//!
//! The document side `(α_k + N_dk + j)` is universal; what varies is where
//! the word side reads from. [`CountsView`] abstracts exactly that seam:
//!
//! * training reads Gibbs counts — `num = β + N_wk + m`,
//!   `den = Vβ + N_k + j` (the exact Gamma-ratio form with the
//!   within-clique multiplicity `m`) — from one call site, the update,
//!   which the sequential sweep points at the live tables and the
//!   snapshot sweep at a per-document *gathered* copy of the sweep-start
//!   tables (document-local word ids);
//! * fold-in reads a frozen φ point estimate — `num = φ_{k,w}`, `den = 1`
//!   (φ is fixed, so there is no Gamma-ratio correction).
//!
//! Keeping the loop here means training and serving can never drift: there
//! is exactly one implementation of the posterior and one draw
//! ([`sample_clique`] over [`sample_cumulative`]).
//!
//! The fold-in chain itself lives here too: [`fold_in`] — a random topic
//! per span, then sweeps of Eq. 7 draws with the word side frozen, up to
//! two documents' chains side by side — is the one chain behind held-out
//! perplexity (`PhraseLda::heldout_perplexity`, over [`FixedPhiView`]) and
//! serving's `/infer` (`topmine_serve::infer`, over [`FrozenPhiView`]).
//!
//! # Numerical contract
//!
//! The per-topic weight is a product over clique tokens and underflows for
//! long cliques (a 200-token clique at β = 0.01 is far below `f64::MIN`).
//! The kernel rescales the whole weight vector by a power of two whenever
//! its maximum drifts out of a safe window. Power-of-two scaling is exact
//! in IEEE 754, so the *ratios* between weights — the only thing sampling
//! consumes — are preserved bit-for-bit, and when no rescale triggers the
//! computation is bit-identical to the pre-kernel per-topic loops.
//!
//! # One running-sum draw
//!
//! A dense draw walks K topics once. [`sample_clique`] accumulates the
//! running sums `c_t = w_0 + … + w_t` left to right as the weights are
//! formed (inside the weight loop for a singleton; in one pass after the
//! product and rescale for a longer clique), draws `x = u · c_{K−1}` and
//! bisects for the first `c_t > x`. Those are exactly the partial sums the
//! earlier two-walk draw formed — its total (`Σ w`, left to right) and its
//! second walk (`acc += w` until `x < acc`) — so the same RNG output picks
//! the same topic and consumes the stream identically. Weights are
//! non-negative, so the sums never decrease and the bisection is exact;
//! the first sum above `x` always follows a strictly positive weight, so
//! while the total is positive a zero-weight topic is never drawn.
//! `crates/lda/tests/draw_oracle.rs` keeps the two-walk draw as a test
//! oracle.
//!
//! # Interleaved chains
//!
//! What is left of a dense draw is serial: the K running sums are one
//! chain of dependent adds, the bisection waits on the last of them, and
//! the chain's next clique waits on the draw. Reordering those adds would
//! change bits. The documents of a batch, though, are independent chains,
//! each with its own RNG and counts, so [`fold_in`] runs two of them side
//! by side, one per lane. Each step takes the next clique of both lanes'
//! chains: each lane takes its clique's tokens out of its own counts and
//! forms its weights as [`clique_posterior`] does; one loop then builds
//! both lanes' running sums, each from 0.0 and left to right over the
//! topics; then each lane draws ([`sample_cumulative`]) from its own RNG
//! and puts its counts back. The core overlaps the two lanes' add chains
//! and bisections. A lane also keeps its document side `α_t + N_dt` as a
//! vector, recomputing an entry from the same two operands whenever its
//! count changes, so its weight loops read one operand per topic where
//! [`clique_posterior`] converts a count and adds α.
//!
//! Every chain still runs exactly the operations it runs alone, in the
//! same order: its initial draws when its lane picks it up, then per
//! clique its counts out, the same weights from the same operands, the
//! same running sums (each lane's sums are their own sequence of `f64`
//! adds, and Rust never fuses or reassociates them), the draw on its own
//! RNG, its counts back in. No lane reads another lane's state, so which
//! chains share a step, and when a lane takes its next chain, cannot
//! change a bit. Once no chain is left to start, the running ones finish
//! alone through [`sample_clique`], whose singleton loop forms the same
//! sums as it forms the weights. A one-chain call — held-out perplexity,
//! which draws every document from one RNG stream, or a batch of one —
//! runs that way from the start.
//!
//! # Sparse bucketed singleton kernel (`KERNEL_VERSION = 2`)
//!
//! For singleton cliques — the majority after segmentation — the training
//! weight factors exactly (SparseLDA, Yao et al. 2009):
//!
//! ```text
//! (α_k + N_dk)(β + N_wk)        α_k β         N_dk β       (α_k + N_dk) N_wk
//! ───────────────────────  =  ─────────  +  ─────────  +  ──────────────────
//!       Vβ + N_k                den_k          den_k             den_k
//!                             smoothing s_k  document r_k   topic-word q_k
//! ```
//!
//! `r_k` is nonzero only where `N_dk > 0` and `q_k` only where `N_wk > 0`,
//! so a draw costs O(K_doc + K_word) plus one dense-bucket draw served by
//! a periodically rebuilt alias table ([`SmoothingBucket`]) instead of
//! O(K). The decomposition preserves the sampling **distribution**
//! exactly — per topic, `s_k + r_k + q_k` equals the dense product up to
//! a few ulps of FP reassociation — but it consumes the RNG differently
//! (one stratified draw plus bucket-local walks instead of one dense
//! walk), so chains sampled by the two kernels diverge draw-by-draw while
//! remaining equal in law. [`KERNEL_VERSION`] names the RNG-consumption
//! contract; pinned chain digests are re-recorded exactly when it bumps.
//! Multi-token cliques and the frozen-φ serving/held-out views keep the
//! dense path above.

use rand::{Rng, RngCore};
use topmine_util::FxHashMap;

/// The RNG-consumption contract of the training sweeps. Version 1 was the
/// dense draw ([`sample_clique`]) for every clique; version 2 routes
/// singleton cliques through the bucketed sparse draw
/// ([`sample_singleton_sparse`]), which consumes a different (still fully
/// deterministic) RNG stream. Chain digests in the determinism guards are
/// re-recorded once per version bump and never otherwise. Multi-token
/// cliques take the dense draw under either version. Replacing the dense
/// draw's two walks by one bisected running sum did not bump it: the
/// pick and the RNG consumption are bit-identical (module docs).
pub const KERNEL_VERSION: u32 = 2;

/// Read-side abstraction over the word factor of Eq. 7.
///
/// The numerator receives the token `w` (in whatever id space the view
/// was built over — global vocabulary ids for training views, document-
/// local ids for gathered views) and `m`, the number of earlier occurrences
/// of `w` *within the clique*. The denominator receives `j`, the number
/// of clique tokens already placed under topic `t`.
///
/// Loops over topics take a row once ([`CountsView::numerators`],
/// [`CountsView::denominators`]): its tables are resliced to K there, so
/// the loop checks no bounds.
pub trait CountsView {
    /// Whether the numerator reads its `m` argument. Frozen-φ views
    /// don't (φ carries no Gamma-ratio correction), which lets
    /// [`clique_posterior`] skip the multiplicity pass entirely on the
    /// serving and held-out hot paths.
    const USES_MULTIPLICITY: bool = true;

    fn n_topics(&self) -> usize;

    /// Word `w`'s numerator at every topic `t < K`, as `row(t, m)`.
    fn numerators(&self, w: u32) -> impl Fn(usize, u32) -> f64 + '_;

    /// The denominator at every topic `t < K`, as `row(t, j)`.
    fn denominators(&self) -> impl Fn(usize, u32) -> f64 + '_;

    /// Word `w`'s numerator at topic `t`.
    fn word_numerator(&self, w: u32, t: usize, m: u32) -> f64 {
        self.numerators(w)(t, m)
    }

    /// The denominator at topic `t`.
    fn word_denominator(&self, t: usize, j: u32) -> f64 {
        self.denominators()(t, j)
    }
}

/// Training view over `N_wk`/`N_k` count tables: `num = β + N_wk + m`,
/// `den = Vβ + N_k + j`. The training update builds it over whichever word
/// side it was handed: the live global tables in the sequential sweep, a
/// per-document gathered copy of the sweep-start tables (word ids
/// document-local) in the snapshot sweep — one call site, so the two
/// schedules cannot diverge in anything but schedule.
pub struct TrainView<'a> {
    n_wk: &'a [u32],
    n_k: &'a [u64],
    k: usize,
    beta: f64,
    v_beta: f64,
}

impl<'a> TrainView<'a> {
    pub fn new(n_wk: &'a [u32], n_k: &'a [u64], k: usize, beta: f64, v_beta: f64) -> Self {
        Self {
            n_wk,
            n_k,
            k,
            beta,
            v_beta,
        }
    }
}

impl CountsView for TrainView<'_> {
    #[inline]
    fn n_topics(&self) -> usize {
        self.k
    }

    #[inline]
    fn numerators(&self, w: u32) -> impl Fn(usize, u32) -> f64 + '_ {
        let n_wk = &self.n_wk[w as usize * self.k..][..self.k];
        move |t, m| self.beta + n_wk[t] as f64 + m as f64
    }

    #[inline]
    fn denominators(&self) -> impl Fn(usize, u32) -> f64 + '_ {
        let n_k = &self.n_k[..self.k];
        move |t, j| self.v_beta + n_k[t] as f64 + j as f64
    }
}

/// Fold-in view over a frozen word-major φ block (`n_words × K`, word ids
/// document-local): `num = φ_{k,w}` at `phi[w·K + k]`, `den = 1`. A
/// token's K values are adjacent, so a clique's weight loop reads one
/// contiguous run. φ is a fixed point estimate, so the Gamma-ratio
/// multiplicity correction does not apply.
pub struct FrozenPhiView<'a> {
    phi: &'a [f64],
    k: usize,
}

impl<'a> FrozenPhiView<'a> {
    pub fn new(phi: &'a [f64], n_words: usize, k: usize) -> Self {
        debug_assert_eq!(phi.len(), n_words * k);
        Self { phi, k }
    }
}

impl CountsView for FrozenPhiView<'_> {
    const USES_MULTIPLICITY: bool = false;

    #[inline]
    fn n_topics(&self) -> usize {
        self.k
    }

    #[inline]
    fn numerators(&self, w: u32) -> impl Fn(usize, u32) -> f64 + '_ {
        let phi = &self.phi[w as usize * self.k..][..self.k];
        move |t, _| phi[t]
    }

    #[inline]
    fn denominators(&self) -> impl Fn(usize, u32) -> f64 + '_ {
        |_, _| 1.0
    }
}

/// Held-out fold-in view: φ expressed as counts over a *fixed* denominator
/// (`num = N_wk + β`, `den = N_k + Vβ` precomputed per topic). Like
/// [`FrozenPhiView`] this freezes the word side, so `m`/`j` do not enter.
pub struct FixedPhiView<'a> {
    n_wk: &'a [u32],
    phi_den: &'a [f64],
    k: usize,
    beta: f64,
}

impl<'a> FixedPhiView<'a> {
    pub fn new(n_wk: &'a [u32], phi_den: &'a [f64], k: usize, beta: f64) -> Self {
        Self {
            n_wk,
            phi_den,
            k,
            beta,
        }
    }
}

impl CountsView for FixedPhiView<'_> {
    const USES_MULTIPLICITY: bool = false;

    #[inline]
    fn n_topics(&self) -> usize {
        self.k
    }

    #[inline]
    fn numerators(&self, w: u32) -> impl Fn(usize, u32) -> f64 + '_ {
        let n_wk = &self.n_wk[w as usize * self.k..][..self.k];
        move |t, _| n_wk[t] as f64 + self.beta
    }

    #[inline]
    fn denominators(&self) -> impl Fn(usize, u32) -> f64 + '_ {
        let phi_den = &self.phi_den[..self.k];
        move |t, _| phi_den[t]
    }
}

/// Reusable scratch for [`clique_posterior`]: within-clique multiplicities
/// and the buffers that compute them.
#[derive(Debug, Default, Clone)]
pub struct CliqueScratch {
    mult: Vec<u32>,
    seen: Vec<(u32, u32)>,
    seen_map: FxHashMap<u32, u32>,
}

/// Cliques at or below this length use a linear `seen` scan (cache-friendly
/// and allocation-free); longer ones switch to a hash map so the pass stays
/// O(s) instead of O(s²).
const SMALL_CLIQUE: usize = 32;

/// Fill `scratch.mult[j]` with the number of occurrences of `tokens[j]`
/// among `tokens[..j]`. Computed once per clique (the pre-kernel code
/// rescanned per topic, an O(K·s²) pass).
fn fill_multiplicities(tokens: &[u32], scratch: &mut CliqueScratch) {
    scratch.mult.clear();
    if tokens.len() <= SMALL_CLIQUE {
        scratch.seen.clear();
        for &w in tokens {
            let m = match scratch.seen.iter_mut().find(|(sw, _)| *sw == w) {
                Some((_, c)) => {
                    let m = *c;
                    *c += 1;
                    m
                }
                None => {
                    scratch.seen.push((w, 1));
                    0
                }
            };
            scratch.mult.push(m);
        }
    } else {
        scratch.seen_map.clear();
        for &w in tokens {
            let c = scratch.seen_map.entry(w).or_insert(0);
            scratch.mult.push(*c);
            *c += 1;
        }
    }
}

/// Weights whose maximum leaves `[2⁻²⁵⁶, 2²⁵⁶]` get rescaled by the
/// opposite bound. Both are exact powers of two, so rescaling preserves
/// weight ratios bit-for-bit.
const RESCALE_LO: f64 = f64::from_bits(767 << 52); // 2^-256
const RESCALE_HI: f64 = f64::from_bits(1279 << 52); // 2^256

/// The document side of Eq. 7 before the clique's own tokens, `α_t + N_dt`
/// at topic `t`: formed from α and the counts as it is read
/// ([`DocCounts`]), or read from the vector a [`fold_in`] lane keeps,
/// which recomputes an entry from the same two operands whenever its count
/// changes. Either way a weight reads the same `f64`.
trait DocSide {
    /// The side at every topic `t < k`, resliced to `k` once, so a loop
    /// over topics checks no bounds.
    fn topics(&self, k: usize) -> impl Fn(usize) -> f64 + '_;
}

/// `α_t + N_dt`, formed on every read.
struct DocCounts<'a> {
    alpha: &'a [f64],
    ndk: &'a [u32],
}

impl DocSide for DocCounts<'_> {
    #[inline(always)]
    fn topics(&self, k: usize) -> impl Fn(usize) -> f64 + '_ {
        let (alpha, ndk) = (&self.alpha[..k], &self.ndk[..k]);
        move |t| alpha[t] + ndk[t] as f64
    }
}

impl DocSide for [f64] {
    #[inline(always)]
    fn topics(&self, k: usize) -> impl Fn(usize) -> f64 + '_ {
        let side = &self[..k];
        move |t| side[t]
    }
}

/// The Eq. 7 weight of a singleton clique `[w]` at one topic, from the
/// document side, `w`'s numerator and the denominator there: the general
/// product at s = 1 (`1.0 * x = x` and `y + 0.0 = y` are IEEE 754
/// identities for the positive finite values here, so the two agree bit
/// for bit).
#[inline(always)]
fn singleton_weight(doc: f64, num: f64, den: f64) -> f64 {
    doc * num / den
}

/// Compute the unnormalized Eq. 7 posterior over topics for one clique.
///
/// * `view` — where the word factor reads from (live counts, gathered
///   snapshot, or frozen φ);
/// * `alpha` — the document-topic Dirichlet (length K);
/// * `doc_ndk` — this document's per-topic token counts *excluding the
///   clique being resampled* (length K);
/// * `tokens` — the clique's tokens, in the view's word-id space;
/// * `weights` — output, length K.
///
/// Short cliques reproduce the historical per-topic product bit-for-bit;
/// long cliques additionally rescale (exactly, see module docs) instead of
/// underflowing to the all-zero vector that used to force the draw into
/// its uniform fallback. The samplers draw through [`sample_clique`],
/// which forms the same weights; this entry point returns them.
pub fn clique_posterior<V: CountsView>(
    view: &V,
    alpha: &[f64],
    doc_ndk: &[u32],
    tokens: &[u32],
    scratch: &mut CliqueScratch,
    weights: &mut [f64],
) {
    let doc = DocCounts {
        alpha,
        ndk: doc_ndk,
    };
    clique_weights(view, &doc, tokens, scratch, weights);
}

/// [`clique_posterior`] over any [`DocSide`].
#[inline(always)]
fn clique_weights<V: CountsView, D: DocSide + ?Sized>(
    view: &V,
    doc: &D,
    tokens: &[u32],
    scratch: &mut CliqueScratch,
    weights: &mut [f64],
) {
    if let [w] = tokens {
        // Singleton fast path: after segmentation most cliques are
        // unigrams — no multiplicity pass, no `fill(1.0)`, no rescale.
        let k = view.n_topics();
        let (doc, num, den) = (doc.topics(k), view.numerators(*w), view.denominators());
        for (t, slot) in weights[..k].iter_mut().enumerate() {
            *slot = singleton_weight(doc(t), num(t, 0), den(t, 0));
        }
    } else {
        clique_product(view, doc, tokens, scratch, weights);
    }
}

/// Draw a topic for one clique from its Eq. 7 posterior: the weights of
/// [`clique_posterior`], turned into running sums in `cum` as they are
/// formed, then one [`sample_cumulative`] draw. `cum` (length K) is
/// scratch; it holds the running sums afterwards.
pub fn sample_clique<R: RngCore, V: CountsView>(
    rng: &mut R,
    view: &V,
    alpha: &[f64],
    doc_ndk: &[u32],
    tokens: &[u32],
    scratch: &mut CliqueScratch,
    cum: &mut [f64],
) -> usize {
    let doc = DocCounts {
        alpha,
        ndk: doc_ndk,
    };
    if let [w] = tokens {
        let k = view.n_topics();
        let (doc, num, den) = (doc.topics(k), view.numerators(*w), view.denominators());
        let mut acc = 0.0;
        for (t, slot) in cum[..k].iter_mut().enumerate() {
            acc += singleton_weight(doc(t), num(t, 0), den(t, 0));
            *slot = acc;
        }
    } else {
        clique_product(view, &doc, tokens, scratch, cum);
        let mut acc = 0.0;
        for slot in cum.iter_mut() {
            acc += *slot;
            *slot = acc;
        }
    }
    sample_cumulative(rng, cum)
}

/// How many fold-in chains [`fold_in`] advances side by side (module docs,
/// "Interleaved chains"). Measured on a 2-vCPU Xeon VM with a synthetic
/// harness (K = 50, 64 chains of 96 spans, 28% of them two-word, 20
/// sweeps, [`FrozenPhiView`]; medians of 41 runs, four runs a count): one
/// chain at a time takes 114–181 ns a clique as the host's load varies,
/// and side by side takes 0.67–0.69 of that at two lanes, the same at
/// three, and 0.71–0.74 at four.
const LANES: usize = 2;

/// One document's chain, as [`fold_in`] takes it: the RNG it alone draws
/// from, its tokens (in the view's word-id space), its spans (half-open
/// ranges of `tokens`, one clique each) and its number of sweeps. The
/// chain owns `rng` (a `&mut` to an RNG is an RNG too), so two chains of
/// one call cannot share a stream.
#[derive(Debug)]
pub struct FoldInChain<'a, R> {
    pub rng: R,
    pub tokens: &'a [u32],
    pub spans: &'a [(u32, u32)],
    pub iters: usize,
}

/// Caller-held buffers of [`fold_in`], reused across calls and across
/// the chains of one call: per lane, its chain's per-topic counts and
/// document side, span topics and running sums (zeroed or refilled
/// whenever the lane takes a chain), plus one clique scratch.
#[derive(Debug, Default, Clone)]
pub struct FoldInScratch {
    lanes: [LaneBuffers; LANES],
    clique: CliqueScratch,
}

#[derive(Debug, Default, Clone)]
struct LaneBuffers {
    ndk: Vec<u32>,
    /// `α_t + ndk[t]` per topic ([`DocSide`]), kept while the lane runs
    /// side by side with another; a chain finishing alone draws from
    /// `ndk` and never rejoins a pair.
    doc: Vec<f64>,
    z: Vec<u16>,
    cum: Vec<f64>,
}

impl LaneBuffers {
    /// Start the next chain of `pending` that has sweeps to run: its
    /// initial draws (a uniformly random topic per span, from its own
    /// RNG, counted into a zeroed `ndk`). A chain with no spans or no
    /// sweeps ends there and is reported to `done`.
    fn take_next<'a, R: RngCore>(
        &mut self,
        k: usize,
        alpha: &[f64],
        pending: &mut impl Iterator<Item = (usize, FoldInChain<'a, R>)>,
        done: &mut impl FnMut(usize, &[u32], &[u16]),
    ) -> Option<Running<'a, R>> {
        for (index, mut chain) in pending {
            self.ndk.clear();
            self.ndk.resize(k, 0);
            self.z.clear();
            for &(s, e) in chain.spans {
                let t = chain.rng.gen_range(0..k);
                self.ndk[t] += e - s;
                self.z.push(t as u16);
            }
            if chain.spans.is_empty() || chain.iters == 0 {
                done(index, &self.ndk, &self.z);
                continue;
            }
            self.doc.clear();
            self.doc
                .extend(alpha.iter().zip(&self.ndk).map(|(&a, &n)| a + n as f64));
            return Some(Running {
                index,
                next: 0,
                sweeps_left: chain.iters,
                chain,
            });
        }
        None
    }
}

/// A chain in a lane: its call index, its next span and the sweeps it
/// has left.
struct Running<'a, R> {
    index: usize,
    chain: FoldInChain<'a, R>,
    next: usize,
    sweeps_left: usize,
}

/// Fold documents in with the word side frozen (Eq. 7's document side
/// over a fixed φ view). Each chain starts every span on a uniformly
/// random topic, then each of its `iters` sweeps redraws its spans in
/// order, each as one clique with its own tokens taken out of the counts.
/// A chain with no spans, or no sweeps, ends after its initial draws.
///
/// Two chains run side by side, one per lane (module docs, "Interleaved
/// chains"): a lane whose chain ends reports it and takes the next one.
/// Every chain draws only from its own RNG and counts, so each ends
/// bit-identical to a call that folds it in alone. `done(i, ndk, z)` runs
/// once per chain as it ends, with `i` its position in `chains`, `ndk`
/// its per-topic token counts and `z` the topic of each span.
pub fn fold_in<'a, R: RngCore, V: CountsView>(
    view: &V,
    alpha: &[f64],
    chains: impl IntoIterator<Item = FoldInChain<'a, R>>,
    scratch: &mut FoldInScratch,
    mut done: impl FnMut(usize, &[u32], &[u16]),
) {
    let k = view.n_topics();
    let FoldInScratch { lanes, clique } = scratch;
    for lane in lanes.iter_mut() {
        lane.cum.resize(k, 0.0);
    }
    let mut pending = chains.into_iter().enumerate().fuse();
    let mut running: [Option<Running<'a, R>>; LANES] = std::array::from_fn(|_| None);
    loop {
        for (slot, lane) in running.iter_mut().zip(lanes.iter_mut()) {
            if slot.is_none() {
                *slot = lane.take_next(k, alpha, &mut pending, &mut done);
            }
        }
        if running.iter().all(Option::is_some) {
            let mut runs = running
                .each_mut()
                .map(|r| r.as_mut().expect("every lane is busy"));
            while step(view, alpha, k, &mut runs, &mut lanes.each_mut(), clique) {}
            for (slot, lane) in running.iter_mut().zip(lanes.iter()) {
                if slot.as_ref().is_some_and(|run| run.sweeps_left == 0) {
                    let run = slot.take().expect("checked above");
                    done(run.index, &lane.ndk, &lane.z);
                }
            }
        } else {
            // No chain is left to start: finish the running ones alone.
            for (slot, lane) in running.iter_mut().zip(lanes.iter_mut()) {
                if let Some(mut run) = slot.take() {
                    while step(view, alpha, k, &mut [&mut run], &mut [&mut *lane], clique) {}
                    done(run.index, &lane.ndk, &lane.z);
                }
            }
            return;
        }
    }
}

/// One clique of each of `N` chains: every chain's counts out and weights
/// (as [`clique_posterior`] forms them, from the lane's document side),
/// then one loop building every chain's running sums, each left to right
/// from 0.0, then each chain's own draw ([`sample_cumulative`]) and
/// counts back in. A lone chain draws through [`sample_clique`], which
/// forms a singleton's sums as it forms its weights. Returns whether
/// every chain has sweeps left.
#[inline(always)]
fn step<R: RngCore, V: CountsView, const N: usize>(
    view: &V,
    alpha: &[f64],
    k: usize,
    runs: &mut [&mut Running<'_, R>; N],
    lanes: &mut [&mut LaneBuffers; N],
    clique: &mut CliqueScratch,
) -> bool {
    let spans: [(u32, u32); N] = std::array::from_fn(|l| runs[l].chain.spans[runs[l].next]);
    for ((run, lane), &(s, e)) in runs.iter().zip(lanes.iter_mut()).zip(&spans) {
        let z = lane.z[run.next] as usize;
        lane.ndk[z] -= e - s;
        if N > 1 {
            lane.doc[z] = alpha[z] + lane.ndk[z] as f64;
            let tokens = &run.chain.tokens[s as usize..e as usize];
            clique_weights(view, &lane.doc[..], tokens, clique, &mut lane.cum);
        }
    }
    if N > 1 {
        // Topic-major, lane by lane within a topic: the lanes' adds are
        // independent, so the core overlaps them.
        let cums = lanes.each_mut().map(|lane| lane.cum.as_mut_slice());
        // `fold_in` sized every lane's sums to K; checked once here, the
        // loop below needs no bounds checks.
        assert!(cums.iter().all(|cum| cum.len() == k));
        let mut acc = [0.0f64; N];
        #[allow(clippy::needless_range_loop)]
        for t in 0..k {
            for l in 0..N {
                acc[l] += cums[l][t];
                cums[l][t] = acc[l];
            }
        }
    }
    let mut all_left = true;
    for ((run, lane), &(s, e)) in runs.iter_mut().zip(lanes.iter_mut()).zip(&spans) {
        let t = if N > 1 {
            sample_cumulative(&mut run.chain.rng, &lane.cum)
        } else {
            let tokens = &run.chain.tokens[s as usize..e as usize];
            let rng = &mut run.chain.rng;
            sample_clique(rng, view, alpha, &lane.ndk, tokens, clique, &mut lane.cum)
        };
        lane.z[run.next] = t as u16;
        lane.ndk[t] += e - s;
        if N > 1 {
            lane.doc[t] = alpha[t] + lane.ndk[t] as f64;
        }
        run.next += 1;
        if run.next == run.chain.spans.len() {
            run.next = 0;
            run.sweeps_left -= 1;
            all_left &= run.sweeps_left > 0;
        }
    }
    all_left
}

/// The multi-token Eq. 7 product over topics, written into `weights`.
/// Non-finite inputs (an infinite α, say) give non-finite weights, as
/// they do for a singleton; the draw then takes [`sample_cumulative`]'s
/// uniform fallback, in every build.
fn clique_product<V: CountsView, D: DocSide + ?Sized>(
    view: &V,
    doc: &D,
    tokens: &[u32],
    scratch: &mut CliqueScratch,
    weights: &mut [f64],
) {
    debug_assert_eq!(weights.len(), view.n_topics());
    if V::USES_MULTIPLICITY {
        fill_multiplicities(tokens, scratch);
    }
    // The weights, the document side and each word's row are resliced to
    // K once, so the topic loop below checks no bounds.
    let k = view.n_topics();
    let weights = &mut weights[..k];
    let (doc, den) = (doc.topics(k), view.denominators());
    weights.fill(1.0);
    // Token-major: each weight slot sees the same left-to-right product of
    // `num_doc * num_word / den` factors as the old per-topic loop, so the
    // result is bit-identical — but the multiplicity pass runs once instead
    // of once per topic (or not at all for frozen-φ views), and rescaling
    // can act on the whole vector.
    let rescale_check = tokens.len() > 8;
    for (j, &w) in tokens.iter().enumerate() {
        let m = if V::USES_MULTIPLICITY {
            scratch.mult[j]
        } else {
            0
        };
        let jf = j as f64;
        let num = view.numerators(w);
        for (t, slot) in weights.iter_mut().enumerate() {
            let num_doc = doc(t) + jf;
            *slot *= num_doc * num(t, m) / den(t, j as u32);
        }
        if rescale_check {
            let max = weights.iter().fold(0.0f64, |a, &b| a.max(b));
            if max > 0.0 && max < RESCALE_LO {
                for slot in weights.iter_mut() {
                    *slot *= RESCALE_HI;
                }
            } else if max > RESCALE_HI {
                for slot in weights.iter_mut() {
                    *slot *= RESCALE_LO;
                }
            }
        }
    }
}

/// Draw an index from running sums `cum` (`cum[i] = w_0 + … + w_i`,
/// accumulated left to right from 0.0 over non-negative weights): `x` is
/// uniform below the last sum, and the pick is the first index whose sum
/// exceeds `x`, found by bisection. An all-zero or non-finite total falls
/// back to a uniform index, as a last-resort guard that
/// [`clique_posterior`]'s rescaling keeps well-formed inputs out of.
/// Consumes one `gen_range` call either way.
#[inline]
pub fn sample_cumulative<R: RngCore>(rng: &mut R, cum: &[f64]) -> usize {
    let total = cum[cum.len() - 1];
    if total <= 0.0 || !total.is_finite() {
        return rng.gen_range(0..cum.len());
    }
    first_above(cum, rng.gen_range(0.0..total))
}

/// First index whose running sum exceeds `x`. `x` lies below the last sum,
/// so the index exists, and its weight (`cum[i] − cum[i − 1] > 0`) is
/// strictly positive.
#[inline]
fn first_above(cum: &[f64], x: f64) -> usize {
    cum.partition_point(|&c| c <= x)
}

/// The per-document RNG stream of the parallel sweep: a SplitMix64 mix of
/// `(seed, sweep, doc)`. Every document draws from its own stream, so the
/// sampled chain is a function of the snapshot alone — independent of
/// which worker sweeps the document and of the thread count.
#[inline]
pub fn doc_stream_seed(seed: u64, sweep: u64, doc: u64) -> u64 {
    #[inline]
    fn splitmix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    splitmix(splitmix(seed ^ sweep.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ doc)
}

/// Walker/Vose alias table: O(n) rebuild, O(1) draw from a fixed discrete
/// distribution. Serves the dense smoothing bucket of the sparse kernel.
#[derive(Debug, Default, Clone)]
pub struct AliasTable {
    /// Acceptance threshold per cell, scaled to [0, 1].
    prob: Vec<f64>,
    alias: Vec<u32>,
    // Rebuild scratch (index stacks), kept to stay allocation-free.
    small: Vec<u32>,
    large: Vec<u32>,
}

impl AliasTable {
    /// Rebuild over `weights` (non-negative, summing to `total > 0`).
    /// Deterministic: cells are partitioned and paired in index order.
    pub fn rebuild(&mut self, weights: &[f64], total: f64) {
        let n = weights.len();
        debug_assert!(n > 0 && total > 0.0);
        self.prob.clear();
        self.prob.resize(n, 1.0);
        self.alias.clear();
        self.alias.resize(n, 0);
        self.small.clear();
        self.large.clear();
        let scale = n as f64 / total;
        // First pass: provisional scaled masses, partitioned by side.
        for (i, &w) in weights.iter().enumerate() {
            let p = w * scale;
            self.prob[i] = p;
            if p < 1.0 {
                self.small.push(i as u32);
            } else {
                self.large.push(i as u32);
            }
        }
        // Pair each under-full cell with an over-full donor.
        while let (Some(&s), Some(&l)) = (self.small.last(), self.large.last()) {
            self.small.pop();
            self.alias[s as usize] = l;
            let leftover = self.prob[l as usize] - (1.0 - self.prob[s as usize]);
            self.prob[l as usize] = leftover;
            if leftover < 1.0 {
                self.large.pop();
                self.small.push(l);
            }
        }
        // Leftovers on either stack are exactly full up to FP rounding.
        for &i in self.small.iter().chain(self.large.iter()) {
            self.prob[i as usize] = 1.0;
        }
    }

    /// Draw a cell index. Consumes exactly one `gen_range` call.
    #[inline]
    pub fn sample<R: RngCore>(&self, rng: &mut R) -> usize {
        let n = self.prob.len();
        let u = rng.gen_range(0.0..n as f64);
        let cell = (u as usize).min(n - 1);
        let frac = u - cell as f64;
        if frac < self.prob[cell] {
            cell
        } else {
            self.alias[cell] as usize
        }
    }
}

/// After this many alias draws land on dirty topics in a row, fall back to
/// an exact linear scan over the clean topics. The bound keeps the draw
/// deterministic-time; the fallback draws from the same conditional
/// distribution, so the mixture stays exact.
const ALIAS_RETRIES: usize = 32;

/// The dense smoothing bucket `s_k = α_k β / (Vβ + N_k)`, served by an
/// alias table built against a reference `N_k` (the sweep snapshot in
/// parallel sweeps; the live table at the last rebuild in sequential
/// sweeps). Topics whose `N_k` moved since the rebuild are tracked in a
/// small dirty set and served by a linear walk at their *current* mass,
/// so the sampled distribution stays exact despite the periodic rebuild
/// cadence:
///
/// * total smoothing mass = `Σ s0 − Σ_dirty s0 + Σ_dirty s_current`;
/// * a draw below the dirty mass walks the dirty list at current values;
/// * the remaining mass is exactly `Σ_clean s0`, and an alias draw
///   conditioned on hitting a clean topic selects `t` with probability
///   `s0_t / Σ_clean s0` — the rejection loop changes nothing in law.
#[derive(Debug, Default, Clone)]
pub struct SmoothingBucket {
    /// `s_k` at rebuild time.
    s0: Vec<f64>,
    s0_total: f64,
    alias: AliasTable,
    /// Topics whose `N_k` changed since the rebuild, in mark order.
    dirty: Vec<u16>,
    dirty_mark: Vec<bool>,
    /// `s_k` under the *current* `N_k` (equal to `s0` for clean topics).
    s_live: Vec<f64>,
    /// Running `Σ_dirty s_live` — kept incrementally so the per-draw mass
    /// correction is O(1), not O(|dirty|) divisions.
    s_dirty: f64,
    /// Running `Σ_dirty s0`.
    s0_dirty: f64,
}

impl SmoothingBucket {
    /// Rebuild `s0` and the alias table against the given `(α, β, N_k)`;
    /// clears the dirty set.
    pub fn rebuild(&mut self, alpha: &[f64], beta: f64, v_beta: f64, n_k: &[u64]) {
        let k = alpha.len();
        debug_assert_eq!(n_k.len(), k);
        self.s0.clear();
        self.s0.extend(
            alpha
                .iter()
                .zip(n_k)
                .map(|(&a, &n)| a * beta / (v_beta + n as f64)),
        );
        self.s0_total = self.s0.iter().sum();
        self.alias.rebuild(&self.s0, self.s0_total);
        self.s_live.clear();
        self.s_live.extend_from_slice(&self.s0);
        self.s_dirty = 0.0;
        self.s0_dirty = 0.0;
        self.dirty.clear();
        if self.dirty_mark.len() != k {
            self.dirty_mark.clear();
            self.dirty_mark.resize(k, false);
        } else {
            self.dirty_mark.fill(false);
        }
    }

    /// Record that topic `t`'s `N_k` moved since the last rebuild, and fold
    /// its new mass into the running corrections. `inv_den` is the
    /// caller-precomputed `1 / (Vβ + N_k[t])` at the post-move count — the
    /// caller shares one reciprocal between this and
    /// [`DocBucket::update_topic`], halving the per-move division count.
    /// O(1): the per-draw mass query stays free of the O(|dirty|) division
    /// loop it would otherwise need.
    #[inline]
    pub fn mark_dirty(&mut self, t: usize, alpha_t: f64, beta: f64, inv_den: f64) {
        let w = alpha_t * beta * inv_den;
        if !self.dirty_mark[t] {
            self.dirty_mark[t] = true;
            self.dirty.push(t as u16);
            self.s0_dirty += self.s0[t];
            self.s_dirty += w;
        } else {
            self.s_dirty += w - self.s_live[t];
        }
        self.s_live[t] = w;
    }

    /// Forget the dirty set without rebuilding — valid only when the
    /// reference `N_k` is current again (the parallel sweep does this at
    /// document boundaries: each document starts from the frozen snapshot
    /// the alias table was built over).
    #[inline]
    pub fn clear_dirty(&mut self) {
        for &t in &self.dirty {
            let t = t as usize;
            self.dirty_mark[t] = false;
            self.s_live[t] = self.s0[t];
        }
        self.dirty.clear();
        self.s_dirty = 0.0;
        self.s0_dirty = 0.0;
    }

    #[inline]
    pub fn n_dirty(&self) -> usize {
        self.dirty.len()
    }

    /// Test seam: the current total smoothing mass, exactly as the draw
    /// path computes it (rebuild-time total corrected by the running dirty
    /// sums). Not part of the sampling API.
    #[doc(hidden)]
    pub fn current_total(&self) -> f64 {
        self.masses().0
    }

    /// Current smoothing masses:
    /// `(total, dirty_current_total, dirty_rebuild_total)`. O(1) — the
    /// dirty corrections are maintained by [`Self::mark_dirty`]. The
    /// running `s_dirty` accumulates one rounding error per mark; every
    /// rebuild resets it, and the draw's region walks clamp to the last
    /// positive entry, so the drift is bounded and harmless (the same
    /// contract as [`DocBucket::update_topic`]).
    #[inline]
    fn masses(&self) -> (f64, f64, f64) {
        (
            self.s0_total - self.s0_dirty + self.s_dirty,
            self.s_dirty,
            self.s0_dirty,
        )
    }

    /// Draw a topic from the smoothing bucket given `u ∈ [0, total)` and
    /// the masses returned by [`Self::masses`].
    fn draw<R: RngCore>(&self, rng: &mut R, u: f64, s_dirty: f64, s0_dirty: f64) -> usize {
        let k = self.s0.len();
        if (!self.dirty.is_empty() && u < s_dirty) || self.dirty.len() == k {
            // Dirty region: walk the dirty list at current masses (every
            // term is strictly positive, so the runoff clamp is benign).
            let mut acc = 0.0;
            let mut last = self.dirty[0] as usize;
            for &t in &self.dirty {
                let t = t as usize;
                let w = self.s_live[t];
                acc += w;
                if w > 0.0 {
                    last = t;
                }
                if u < acc {
                    return t;
                }
            }
            return last;
        }
        // Clean region: alias draws at rebuild-time masses, rejecting
        // dirty topics (exact conditional; see type docs).
        for _ in 0..ALIAS_RETRIES {
            let t = self.alias.sample(rng);
            if !self.dirty_mark[t] {
                return t;
            }
        }
        // Exact fallback: linear scan of the clean topics by `s0`.
        let clean_total = self.s0_total - s0_dirty;
        let x = rng.gen_range(0.0..clean_total);
        let mut acc = 0.0;
        let mut last = usize::MAX;
        for t in 0..k {
            if self.dirty_mark[t] {
                continue;
            }
            let w = self.s0[t];
            acc += w;
            if w > 0.0 {
                last = t;
            }
            if x < acc {
                return t;
            }
        }
        debug_assert!(last != usize::MAX, "no clean topic with positive mass");
        last
    }
}

/// The per-document bucket `r_k = N_dk β / (Vβ + N_k)`: dense mirror of
/// the document's sparse `N_dk` row plus its running total, rebuilt at
/// each document start and updated in O(1) per topic move.
#[derive(Debug, Default, Clone)]
pub struct DocBucket {
    r: Vec<f64>,
    r_total: f64,
}

impl DocBucket {
    /// Recompute from scratch for one document (its nonzero topics,
    /// `N_dk` row, and the current `N_k`). O(K_doc) after an O(K) clear.
    pub fn begin_doc(
        &mut self,
        doc_nz: &[u16],
        doc_ndk: &[u32],
        n_k: &[u64],
        beta: f64,
        v_beta: f64,
        k: usize,
    ) {
        if self.r.len() != k {
            self.r.clear();
            self.r.resize(k, 0.0);
        } else {
            self.r.fill(0.0);
        }
        let mut total = 0.0;
        for &t in doc_nz {
            let t = t as usize;
            let w = doc_ndk[t] as f64 * beta / (v_beta + n_k[t] as f64);
            self.r[t] = w;
            total += w;
        }
        self.r_total = total;
    }

    /// Refresh topic `t` after its `N_dk` or `N_k` changed. `ndk_t` is the
    /// post-move `N_dk[t]`; `inv_den` is the caller-precomputed
    /// `1 / (Vβ + N_k[t])` shared with [`SmoothingBucket::mark_dirty`].
    /// The running total accumulates one rounding error per update; the
    /// per-document rebuild in [`Self::begin_doc`] bounds the drift, and
    /// the region walk clamps to the last positive entry.
    #[inline]
    pub fn update_topic(&mut self, t: usize, ndk_t: u32, beta: f64, inv_den: f64) {
        let w = if ndk_t == 0 {
            0.0
        } else {
            ndk_t as f64 * beta * inv_den
        };
        self.r_total += w - self.r[t];
        self.r[t] = w;
    }

    /// Test seam: the document bucket's per-topic mass. Not part of the
    /// sampling API.
    #[doc(hidden)]
    pub fn mass_of(&self, t: usize) -> f64 {
        self.r[t]
    }

    /// Test seam: the document bucket's running total.
    #[doc(hidden)]
    pub fn total(&self) -> f64 {
        self.r_total
    }
}

/// One bucketed singleton draw under the training posterior (Eq. 7 at
/// clique size 1), in O(K_word + K_doc + |dirty|) instead of O(K).
///
/// Caller contract:
/// * `word_row[t] > 0` exactly for `t ∈ word_nz` and `doc_ndk[t] > 0`
///   exactly for `t ∈ doc_nz` (both sorted — order is part of the
///   deterministic RNG-consumption contract);
/// * `doc_bucket` is in sync with `(doc_ndk, n_k)` and `smoothing`'s
///   dirty set covers every topic whose `N_k` differs from its rebuild;
/// * the clique being resampled is already removed from all counts.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn sample_singleton_sparse<R: RngCore>(
    rng: &mut R,
    alpha: &[f64],
    v_beta: f64,
    word_row: &[u32],
    word_nz: &[u16],
    doc_ndk: &[u32],
    doc_nz: &[u16],
    n_k: &[u64],
    doc_bucket: &DocBucket,
    smoothing: &SmoothingBucket,
    q_buf: &mut Vec<f64>,
) -> usize {
    sample_singleton_sparse_split(
        rng, alpha, v_beta, word_row, word_nz, doc_ndk, doc_nz, n_k, doc_bucket, smoothing, q_buf,
    )
    .0
}

/// Which bucket of the stratified singleton draw resolved the sample.
/// Telemetry only — the tag is derived from the already-drawn uniform, so
/// observing it changes neither RNG consumption nor arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SingletonBucket {
    /// Topic-word bucket q (topics where the word has nonzero count).
    TopicWord,
    /// Document bucket r (topics active in the document).
    Doc,
    /// Smoothing bucket s (alias table over the α·β/(Vβ+N_k) floor).
    Smoothing,
}

/// [`sample_singleton_sparse`] plus the resolving [`SingletonBucket`], for
/// callers that track the draw split.
#[allow(clippy::too_many_arguments)]
pub fn sample_singleton_sparse_split<R: RngCore>(
    rng: &mut R,
    alpha: &[f64],
    v_beta: f64,
    word_row: &[u32],
    word_nz: &[u16],
    doc_ndk: &[u32],
    doc_nz: &[u16],
    n_k: &[u64],
    doc_bucket: &DocBucket,
    smoothing: &SmoothingBucket,
    q_buf: &mut Vec<f64>,
) -> (usize, SingletonBucket) {
    // Topic-word bucket q: the only per-draw O(K_word) computation.
    q_buf.clear();
    let mut q_total = 0.0;
    for &t in word_nz {
        let t = t as usize;
        let q = (alpha[t] + doc_ndk[t] as f64) * word_row[t] as f64 / (v_beta + n_k[t] as f64);
        q_buf.push(q);
        q_total += q;
    }
    let (s_total, s_dirty, s0_dirty) = smoothing.masses();
    let r_total = doc_bucket.r_total;
    let total = q_total + r_total + s_total;
    let mut u = rng.gen_range(0.0..total);
    // Stratify: q, then r, then s. Bucket totals are sums of strictly
    // positive terms, so each region walk has a positive entry to clamp to.
    if u < q_total {
        let mut acc = 0.0;
        let mut last = word_nz[0];
        for (i, &t) in word_nz.iter().enumerate() {
            let w = q_buf[i];
            acc += w;
            if w > 0.0 {
                last = t;
            }
            if u < acc {
                return (t as usize, SingletonBucket::TopicWord);
            }
        }
        return (last as usize, SingletonBucket::TopicWord);
    }
    u -= q_total;
    if u < r_total {
        let mut acc = 0.0;
        let mut last = doc_nz[0];
        for &t in doc_nz {
            let w = doc_bucket.r[t as usize];
            acc += w;
            if w > 0.0 {
                last = t;
            }
            if u < acc {
                return (t as usize, SingletonBucket::Doc);
            }
        }
        return (last as usize, SingletonBucket::Doc);
    }
    u -= r_total;
    (
        smoothing.draw(rng, u.min(s_total), s_dirty, s0_dirty),
        SingletonBucket::Smoothing,
    )
}

/// The dense singleton weight per topic, for cross-checking the bucket
/// decomposition: `s_k + r_k + q_k` must equal this within a few ulps.
#[doc(hidden)]
pub fn singleton_dense_weight(
    alpha: f64,
    beta: f64,
    v_beta: f64,
    n_wk: u32,
    n_dk: u32,
    n_k: u64,
) -> f64 {
    (alpha + n_dk as f64) * (beta + n_wk as f64) / (v_beta + n_k as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_train_view<'a>(n_wk: &'a [u32], n_k: &'a [u64], k: usize) -> TrainView<'a> {
        TrainView::new(n_wk, n_k, k, 0.01, 0.01 * (n_wk.len() / k) as f64)
    }

    #[test]
    fn multiplicity_paths_agree() {
        // Same token stream through the linear-scan and hash-map paths.
        let long: Vec<u32> = (0..100u32).map(|i| i % 7).collect();
        let mut a = CliqueScratch::default();
        let mut b = CliqueScratch::default();
        fill_multiplicities(&long[..SMALL_CLIQUE], &mut a);
        fill_multiplicities(&long, &mut b);
        assert_eq!(a.mult[..], b.mult[..SMALL_CLIQUE]);
        // Spot-check: token j has seen j/7 earlier copies of itself.
        for (j, &m) in b.mult.iter().enumerate() {
            assert_eq!(m as usize, j / 7, "position {j}");
        }
    }

    #[test]
    fn singleton_fast_path_is_bit_identical_to_the_general_loop() {
        // The historical general path at s = 1: fill(1.0), then one
        // `*= num_doc * num / den` factor with jf = 0.0 and m = 0.
        let k = 6;
        let v = 30usize;
        let n_wk: Vec<u32> = (0..v * k).map(|i| ((i * 7) % 13) as u32).collect();
        let n_k: Vec<u64> = (0..k).map(|t| 50 + 11 * t as u64).collect();
        let view = tiny_train_view(&n_wk, &n_k, k);
        let alpha: Vec<f64> = (0..k).map(|t| 0.3 + 0.17 * t as f64).collect();
        let doc_ndk: Vec<u32> = (0..k as u32).map(|t| t * 2).collect();
        let mut scratch = CliqueScratch::default();
        let mut fast = vec![0.0f64; k];
        for w in 0..v as u32 {
            clique_posterior(&view, &alpha, &doc_ndk, &[w], &mut scratch, &mut fast);
            for t in 0..k {
                let mut general = 1.0f64;
                let num_doc = alpha[t] + doc_ndk[t] as f64 + 0.0f64;
                general *= num_doc * view.word_numerator(w, t, 0) / view.word_denominator(t, 0);
                assert_eq!(
                    fast[t].to_bits(),
                    general.to_bits(),
                    "w={w} t={t}: {} vs {general}",
                    fast[t]
                );
            }
        }
        // Same bit-identity through a frozen-φ view (the serving path).
        let phi: Vec<f64> = (0..k * 4).map(|i| 1e-3 + (i as f64) * 1e-2).collect();
        let fview = FrozenPhiView::new(&phi, 4, k);
        for w in 0..4u32 {
            clique_posterior(&fview, &alpha, &doc_ndk, &[w], &mut scratch, &mut fast);
            for t in 0..k {
                let general = 1.0f64
                    * ((alpha[t] + doc_ndk[t] as f64 + 0.0) * fview.word_numerator(w, t, 0)
                        / fview.word_denominator(t, 0));
                assert_eq!(fast[t].to_bits(), general.to_bits());
            }
        }
    }

    #[test]
    fn long_clique_does_not_underflow_to_uniform() {
        // 200-token clique with tiny counts: the historical per-topic
        // product underflows to an all-zero weight vector and the draw
        // degrades to its uniform fallback. The kernel's exact rescaling
        // must keep the posterior alive.
        let k = 4;
        let v = 50usize;
        let mut n_wk = vec![0u32; v * k];
        let n_k: Vec<u64> = vec![40, 1, 1, 1];
        // Topic 0 owns every word this clique uses.
        for w in 0..v {
            n_wk[w * k] = 4;
        }
        let view = tiny_train_view(&n_wk, &n_k, k);
        let alpha = vec![0.1; k];
        let doc_ndk = vec![0u32; k];
        let tokens: Vec<u32> = (0..200u32).map(|i| i % v as u32).collect();
        let mut scratch = CliqueScratch::default();
        let mut weights = vec![0.0; k];
        clique_posterior(&view, &alpha, &doc_ndk, &tokens, &mut scratch, &mut weights);
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "posterior underflowed: {weights:?}"
        );
        // Topic 0 must dominate — a uniform fallback would have lost this.
        let best = weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 0);
        assert!(weights[0] > 1e3 * weights[1]);
        // And sampling never takes the uniform-fallback branch: with these
        // weights every draw lands on topic 0.
        let mut rng = StdRng::seed_from_u64(9);
        let mut cum = vec![0.0; k];
        for _ in 0..64 {
            let t = sample_clique(
                &mut rng,
                &view,
                &alpha,
                &doc_ndk,
                &tokens,
                &mut scratch,
                &mut cum,
            );
            assert_eq!(t, 0);
        }
    }

    #[test]
    fn rescaling_preserves_ratios_exactly() {
        let k = 3;
        let v = 10usize;
        let n_wk = vec![1u32; v * k];
        let n_k = vec![10u64; k];
        let view = tiny_train_view(&n_wk, &n_k, k);
        let alpha = vec![0.5; k];
        let doc_ndk = vec![3u32, 1, 0];
        let tokens: Vec<u32> = (0..120u32).map(|i| i % v as u32).collect();
        let mut scratch = CliqueScratch::default();
        let mut weights = vec![0.0; k];
        clique_posterior(&view, &alpha, &doc_ndk, &tokens, &mut scratch, &mut weights);
        // Recompute the same posterior in extended precision via logs; the
        // rescaled weights' ratios must match to FP accuracy.
        let mut logw = vec![0.0f64; k];
        for (j, &w) in tokens.iter().enumerate() {
            let m = scratch.mult[j];
            for (t, lw) in logw.iter_mut().enumerate() {
                *lw += ((alpha[t] + doc_ndk[t] as f64 + j as f64) * view.word_numerator(w, t, m)
                    / view.word_denominator(t, j as u32))
                .ln();
            }
        }
        let r_kernel = weights[1] / weights[0];
        let r_log = (logw[1] - logw[0]).exp();
        assert!(
            (r_kernel.ln() - r_log.ln()).abs() < 1e-9,
            "{r_kernel} vs {r_log}"
        );
    }

    #[test]
    fn running_sum_draw_is_proportional_and_deterministic() {
        // Weights [1, 3, 0, 4] as running sums.
        let cum = [1.0, 4.0, 4.0, 8.0];
        let mut rng = StdRng::seed_from_u64(11);
        let mut hits = [0usize; 4];
        for _ in 0..8000 {
            hits[sample_cumulative(&mut rng, &cum)] += 1;
        }
        assert_eq!(hits[2], 0);
        assert!((hits[1] as f64 / hits[0] as f64 - 3.0).abs() < 0.5);
        assert!((hits[3] as f64 / hits[0] as f64 - 4.0).abs() < 0.6);
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(
                sample_cumulative(&mut a, &cum),
                sample_cumulative(&mut b, &cum)
            );
        }
    }

    #[test]
    fn draw_never_lands_on_a_zero_weight_topic() {
        // A topic with zero weight repeats the previous running sum, so no
        // `x` below the total can stop on it: the bisection lands on the
        // next strictly larger sum. (The earlier two-walk draw needed a
        // clamp here: its total and its walk were separate sums.)
        let trailing_zeros = [2.0, 3.0, 3.0, 3.0]; // weights [2, 1, 0, 0]
        assert_eq!(first_above(&trailing_zeros, 0.0), 0);
        assert_eq!(first_above(&trailing_zeros, 1.9999), 0);
        assert_eq!(first_above(&trailing_zeros, 2.0), 1);
        assert_eq!(first_above(&trailing_zeros, 2.5), 1);
        let below_total = f64::from_bits(3.0f64.to_bits() - 1);
        assert_eq!(first_above(&trailing_zeros, below_total), 1);
        let leading_zero = [0.0, 0.5, 0.5]; // weights [0, 0.5, 0]
        assert_eq!(first_above(&leading_zero, 0.0), 1);
        assert_eq!(first_above(&leading_zero, 0.4999), 1);
        // And sampling through the public entry point never yields a
        // zero-weight index.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..4000 {
            assert!(sample_cumulative(&mut rng, &trailing_zeros) < 2);
            assert_eq!(sample_cumulative(&mut rng, &leading_zero), 1);
        }
    }

    #[test]
    fn an_infinite_weight_draws_uniformly_for_every_clique_length() {
        // A non-finite total takes the documented uniform fallback, for a
        // singleton and a multi-word clique alike, in debug builds too.
        let k = 5;
        let n_wk = vec![1u32; 4 * k];
        let n_k = vec![4u64; k];
        let view = tiny_train_view(&n_wk, &n_k, k);
        let mut alpha = vec![0.5; k];
        alpha[2] = f64::INFINITY;
        let doc_ndk = vec![0u32; k];
        let mut scratch = CliqueScratch::default();
        let mut cum = vec![0.0; k];
        let mut rng = StdRng::seed_from_u64(4);
        for tokens in [&[1u32][..], &[0, 3, 0]] {
            let mut seen = [false; 5];
            for _ in 0..200 {
                let t = sample_clique(
                    &mut rng,
                    &view,
                    &alpha,
                    &doc_ndk,
                    tokens,
                    &mut scratch,
                    &mut cum,
                );
                assert!(t < k, "clique {tokens:?} drew {t}");
                seen[t] = true;
            }
            assert_eq!(seen, [true; 5], "clique {tokens:?}: not uniform");
        }
    }

    /// One document for [`fold_in`]: its tokens, spans and sweeps.
    struct TestDoc {
        tokens: Vec<u32>,
        spans: Vec<(u32, u32)>,
        iters: usize,
    }

    impl TestDoc {
        fn chain(&self, seed: u64) -> FoldInChain<'_, StdRng> {
            FoldInChain {
                rng: StdRng::seed_from_u64(seed),
                tokens: &self.tokens,
                spans: &self.spans,
                iters: self.iters,
            }
        }
    }

    /// Fold `docs` in together, then each alone on fresh scratch, and
    /// check every chain ends with the same counts and topics either way.
    fn check_interleaved<V: CountsView>(view: &V, alpha: &[f64], docs: &[TestDoc]) {
        let seed = |i: usize| 31 + 7 * i as u64;
        let mut together: Vec<Option<(Vec<u32>, Vec<u16>)>> = vec![None; docs.len()];
        let chains = docs.iter().enumerate().map(|(i, d)| d.chain(seed(i)));
        let mut scratch = FoldInScratch::default();
        fold_in(view, alpha, chains, &mut scratch, |i, ndk, z| {
            assert!(together[i].is_none(), "chain {i} reported twice");
            together[i] = Some((ndk.to_vec(), z.to_vec()));
        });
        for (i, d) in docs.iter().enumerate() {
            let mut alone = None;
            let mut fresh = FoldInScratch::default();
            fold_in(view, alpha, [d.chain(seed(i))], &mut fresh, |j, ndk, z| {
                assert_eq!(j, 0);
                alone = Some((ndk.to_vec(), z.to_vec()));
            });
            let alone = alone.expect("a one-chain call reports its chain");
            let n: u32 = d.spans.iter().map(|&(s, e)| e - s).sum();
            assert_eq!(alone.0.iter().sum::<u32>(), n, "chain {i}");
            assert_eq!(alone.1.len(), d.spans.len(), "chain {i}");
            assert_eq!(together[i].as_ref(), Some(&alone), "chain {i} diverged");
        }
    }

    #[test]
    fn interleaved_chains_end_bit_identical_to_one_chain_calls() {
        let (k, n_words) = (7, 40);
        let mut g = StdRng::seed_from_u64(13);
        let phi: Vec<f64> = (0..n_words * k).map(|_| g.gen_range(1e-4..0.2)).collect();
        let n_wk: Vec<u32> = (0..n_words * k).map(|_| g.gen_range(0..30u32)).collect();
        let phi_den: Vec<f64> = (0..k).map(|_| g.gen_range(50.0..400.0)).collect();
        let alpha: Vec<f64> = (0..k).map(|t| 0.1 + 0.05 * t as f64).collect();
        // Seven chains, so lanes are refilled mid-call and the last runs
        // alone: no spans, one span, hundreds of spans; no sweep, one, 20.
        let shapes = [
            (0, 20),
            (250, 20),
            (1, 0),
            (40, 1),
            (3, 20),
            (120, 20),
            (17, 0),
        ];
        let docs: Vec<TestDoc> = shapes
            .iter()
            .map(|&(n_spans, iters)| {
                let mut tokens = Vec::new();
                let mut spans = Vec::new();
                for _ in 0..n_spans {
                    let start = tokens.len() as u32;
                    // Mostly singletons, some two- and three-word spans.
                    let len = [1, 1, 1, 2, 3][g.gen_range(0..5usize)];
                    for _ in 0..len {
                        tokens.push(g.gen_range(0..n_words as u32));
                    }
                    spans.push((start, tokens.len() as u32));
                }
                TestDoc {
                    tokens,
                    spans,
                    iters,
                }
            })
            .collect();
        assert!(docs.iter().any(|d| d.spans.iter().any(|&(s, e)| e - s > 1)));
        check_interleaved(&FrozenPhiView::new(&phi, n_words, k), &alpha, &docs);
        check_interleaved(&FixedPhiView::new(&n_wk, &phi_den, k, 0.01), &alpha, &docs);
    }

    #[test]
    fn alias_table_matches_the_distribution() {
        let weights = [0.05, 4.0, 0.0, 1.0, 0.95];
        let total: f64 = weights.iter().sum();
        let mut alias = AliasTable::default();
        alias.rebuild(&weights, total);
        let mut rng = StdRng::seed_from_u64(17);
        let mut hits = [0u64; 5];
        let n = 200_000;
        for _ in 0..n {
            hits[alias.sample(&mut rng)] += 1;
        }
        assert_eq!(hits[2], 0, "zero-mass cell must never be drawn");
        for (t, &h) in hits.iter().enumerate() {
            let expect = weights[t] / total;
            let got = h as f64 / n as f64;
            assert!((got - expect).abs() < 0.005, "topic {t}: {got} vs {expect}");
        }
        // Rebuild is deterministic: same inputs, same table.
        let mut again = AliasTable::default();
        again.rebuild(&weights, total);
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert_eq!(alias.sample(&mut a), again.sample(&mut b));
        }
    }

    #[test]
    fn bucket_decomposition_sums_to_the_dense_weight() {
        let k = 8;
        let beta = 0.01;
        let v_beta = 500.0 * beta;
        let alpha: Vec<f64> = (0..k).map(|t| 0.1 + 0.37 * t as f64).collect();
        let n_k: Vec<u64> = (0..k).map(|t| 3 + 29 * t as u64).collect();
        let doc_ndk: Vec<u32> = vec![0, 3, 0, 0, 7, 0, 1, 0];
        let word_row: Vec<u32> = vec![2, 0, 0, 5, 0, 0, 1, 0];
        for t in 0..k {
            let s = alpha[t] * beta / (v_beta + n_k[t] as f64);
            let r = doc_ndk[t] as f64 * beta / (v_beta + n_k[t] as f64);
            let q = (alpha[t] + doc_ndk[t] as f64) * word_row[t] as f64 / (v_beta + n_k[t] as f64);
            let dense =
                singleton_dense_weight(alpha[t], beta, v_beta, word_row[t], doc_ndk[t], n_k[t]);
            let sum = s + r + q;
            assert!(
                ((sum - dense) / dense).abs() < 1e-12,
                "topic {t}: {sum} vs {dense}"
            );
        }
    }

    #[test]
    fn smoothing_bucket_stays_exact_with_dirty_topics() {
        // Empirical check: after marking some topics dirty (with moved
        // N_k), the bucket's draw frequencies must match the *current*
        // smoothing distribution, not the rebuild-time one.
        let k = 6;
        let beta = 0.05;
        let v_beta = 40.0 * beta;
        let alpha: Vec<f64> = (0..k).map(|t| 0.4 + 0.2 * t as f64).collect();
        let n_k0: Vec<u64> = vec![10, 20, 30, 40, 50, 60];
        let mut bucket = SmoothingBucket::default();
        bucket.rebuild(&alpha, beta, v_beta, &n_k0);
        // Topics 1 and 4 moved a lot since the rebuild.
        let n_k: Vec<u64> = vec![10, 200, 30, 40, 2, 60];
        bucket.mark_dirty(1, alpha[1], beta, 1.0 / (v_beta + n_k[1] as f64));
        bucket.mark_dirty(4, alpha[4], beta, 1.0 / (v_beta + n_k[4] as f64));
        let s: Vec<f64> = (0..k)
            .map(|t| alpha[t] * beta / (v_beta + n_k[t] as f64))
            .collect();
        let s_total: f64 = s.iter().sum();
        let (m_total, _, _) = bucket.masses();
        assert!(((m_total - s_total) / s_total).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(23);
        let mut hits = vec![0u64; k];
        let n = 300_000;
        for _ in 0..n {
            let (total, s_dirty, s0_dirty) = bucket.masses();
            let u = rng.gen_range(0.0..total);
            hits[bucket.draw(&mut rng, u, s_dirty, s0_dirty)] += 1;
        }
        for t in 0..k {
            let expect = s[t] / s_total;
            let got = hits[t] as f64 / n as f64;
            assert!((got - expect).abs() < 0.005, "topic {t}: {got} vs {expect}");
        }
    }

    #[test]
    fn doc_streams_are_distinct_and_stable() {
        assert_eq!(doc_stream_seed(1, 2, 3), doc_stream_seed(1, 2, 3));
        let mut seen = std::collections::HashSet::new();
        for sweep in 0..8 {
            for doc in 0..64 {
                assert!(seen.insert(doc_stream_seed(42, sweep, doc)));
            }
        }
    }
}
