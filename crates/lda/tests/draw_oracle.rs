//! The dense draw against the two-walk draw it replaced.
//!
//! `sample_clique` forms running sums as it forms the weights and bisects
//! them; `sample_cumulative` bisects running sums a caller formed. The
//! draw they replaced summed the weights once for the total, drew
//! `x = u · total`, and walked the weights a second time to the first
//! partial sum above `x`. Both read the same partial sums, so for every
//! weight vector and every RNG state they must pick the same index and
//! leave the RNG in the same state. [`two_walk`] keeps that draw as the
//! oracle.
//!
//! Covered: `TrainView`, `FixedPhiView` and the word-major `FrozenPhiView`
//! at K from 1 to 300; zero weights, exact ties, the all-zero vector (the
//! uniform fallback), cliques long enough to trigger the kernel's
//! rescale, and uniforms on a coarse grid so that `x` lands exactly on a
//! running sum (where `<` and `<=` part ways).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use topmine_lda::kernel::{
    clique_posterior, sample_clique, sample_cumulative, CliqueScratch, CountsView, FixedPhiView,
    FrozenPhiView, TrainView,
};

/// The two-walk draw: the total by `Iterator::sum`, then a second walk to
/// the first partial sum above `x`, clamped to the last positive weight if
/// `x` runs past the walk.
fn two_walk<R: RngCore>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        return rng.gen_range(0..weights.len());
    }
    let x = rng.gen_range(0.0..total);
    let mut acc = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if x < acc {
            return i;
        }
    }
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .unwrap_or(weights.len() - 1)
}

/// A generator whose uniforms are multiples of `2^-bits` (`bits = 0`: always
/// 0): with tied weights, `x = u · total` then lands exactly on running
/// sums.
#[derive(Debug, Clone)]
struct GridRng {
    inner: StdRng,
    bits: u32,
}

impl GridRng {
    fn new(seed: u64, bits: u32) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
            bits,
        }
    }

    /// The full generator state, for comparing two generators.
    fn state(&self) -> String {
        format!("{:?}", self.inner)
    }
}

impl RngCore for GridRng {
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64() & !(u64::MAX.checked_shr(self.bits).unwrap_or(0))
    }
}

/// Draw a few times from `view`'s posterior for `tokens` with both draws,
/// from identically seeded generators, and compare picks, generator
/// states, and the running sums against the weights.
fn compare_draws<V: CountsView>(
    view: &V,
    alpha: &[f64],
    doc_ndk: &[u32],
    tokens: &[u32],
    seed: u64,
    bits: u32,
) -> Result<(), TestCaseError> {
    let k = view.n_topics();
    let mut scratch = CliqueScratch::default();
    let mut weights = vec![0.0; k];
    clique_posterior(view, alpha, doc_ndk, tokens, &mut scratch, &mut weights);
    let mut cum = vec![f64::NAN; k];
    for draw in 0..4u64 {
        let mut oracle = GridRng::new(seed.wrapping_add(draw), bits);
        let mut rng = oracle.clone();
        let want = two_walk(&mut oracle, &weights);
        let got = sample_clique(
            &mut rng,
            view,
            alpha,
            doc_ndk,
            tokens,
            &mut scratch,
            &mut cum,
        );
        prop_assert_eq!(
            got,
            want,
            "K {} clique {:?} weights {:?}",
            k,
            tokens,
            weights
        );
        prop_assert_eq!(rng.state(), oracle.state(), "RNG state after the draw");
    }
    let mut acc = 0.0;
    for (t, (&w, &c)) in weights.iter().zip(&cum).enumerate() {
        acc += w;
        prop_assert_eq!(c.to_bits(), acc.to_bits(), "running sum {}", t);
    }
    Ok(())
}

/// How a case's inputs are shaped.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// Independent random counts and φ.
    Random,
    /// Every topic sees identical inputs: all weights tie exactly.
    Ties,
    /// φ has zeros, so some weights are exactly zero.
    Zeros,
    /// φ is all zero: every weight is zero and the draw falls back to a
    /// uniform index.
    AllZero,
    /// 60–200 tokens against tiny word factors: the product leaves the
    /// safe window and the kernel rescales.
    Long,
}

const SHAPES: [Shape; 5] = [
    Shape::Random,
    Shape::Ties,
    Shape::Zeros,
    Shape::AllZero,
    Shape::Long,
];

/// Inputs for all three views over one local vocabulary of `v` words.
struct Case {
    k: usize,
    alpha: Vec<f64>,
    doc_ndk: Vec<u32>,
    tokens: Vec<u32>,
    n_wk: Vec<u32>,
    n_k: Vec<u64>,
    beta: f64,
    v_beta: f64,
    phi_den: Vec<f64>,
    /// Topic-major `K × v` φ, the model's in-memory layout.
    phi: Vec<Vec<f64>>,
}

impl Case {
    fn new(seed: u64, k: usize, shape: Shape) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = rng.gen_range(1..=6usize);
        let ties = shape == Shape::Ties;
        let len = match shape {
            Shape::Long => rng.gen_range(60..=200usize),
            _ if rng.gen_bool(0.5) => 1,
            _ => rng.gen_range(2..=12usize),
        };
        let tokens: Vec<u32> = (0..len).map(|_| rng.gen_range(0..v as u32)).collect();
        let a0 = rng.gen_range(0.01..2.0);
        let alpha: Vec<f64> = (0..k)
            .map(|_| if ties { a0 } else { rng.gen_range(0.01..2.0) })
            .collect();
        let d0 = rng.gen_range(0..20u32);
        let doc_ndk: Vec<u32> = (0..k)
            .map(|_| match ties {
                true => d0,
                false if rng.gen_bool(0.5) => 0,
                false => rng.gen_range(0..20u32),
            })
            .collect();
        let long = shape == Shape::Long;
        let mut n_wk = vec![0u32; v * k];
        for w in 0..v {
            let c0 = rng.gen_range(0..30u32);
            for t in 0..k {
                n_wk[w * k + t] = match (ties, long) {
                    (true, _) => c0,
                    (false, true) => rng.gen_range(0..2u32),
                    (false, false) => rng.gen_range(0..30u32),
                };
            }
        }
        let n0 = rng.gen_range(200..2000u64);
        let n_k: Vec<u64> = (0..k)
            .map(|t| {
                let column: u64 = (0..v).map(|w| u64::from(n_wk[w * k + t])).sum();
                let extra = if ties {
                    n0
                } else {
                    rng.gen_range(200..2000u64)
                };
                column + extra
            })
            .collect();
        let beta = rng.gen_range(0.001..1.0);
        let v_beta = beta * (v + 1000) as f64;
        let phi_den: Vec<f64> = n_k.iter().map(|&n| n as f64 + v_beta).collect();
        let (lo, hi) = if long { (1e-7, 1e-5) } else { (1e-4, 1.0) };
        let p0: Vec<f64> = (0..v).map(|_| rng.gen_range(lo..hi)).collect();
        let phi: Vec<Vec<f64>> = (0..k)
            .map(|_| {
                (0..v)
                    .map(|w| match shape {
                        Shape::Ties => p0[w],
                        Shape::AllZero => 0.0,
                        Shape::Zeros if rng.gen_bool(0.4) => 0.0,
                        _ => rng.gen_range(lo..hi),
                    })
                    .collect()
            })
            .collect();
        Self {
            k,
            alpha,
            doc_ndk,
            tokens,
            n_wk,
            n_k,
            beta,
            v_beta,
            phi_den,
            phi,
        }
    }

    /// φ gathered word-major, as a serving backend returns it: word `w`'s
    /// K values at `w · K ..`.
    fn word_major_phi(&self) -> Vec<f64> {
        let v = self.phi[0].len();
        (0..v)
            .flat_map(|w| self.phi.iter().map(move |row| row[w]))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn the_bisected_draw_picks_what_the_two_walk_draw_picks(
        seed in 0u64..u64::MAX,
        k_pick in 0usize..1000,
        shape in 0usize..5,
        view in 0usize..3,
        bits in 0usize..4,
    ) {
        // K from 1 to 300, weighted toward the small end where ties and
        // boundary hits are frequent.
        let k = if k_pick < 500 { 1 + k_pick % 12 } else { 1 + k_pick % 300 };
        let bits = [0, 2, 6, 64][bits];
        let shape = SHAPES[shape];
        let case = Case::new(seed, k, shape);
        // Zero weights exist only under a frozen φ: the count views'
        // factors are all positive.
        let frozen = matches!(shape, Shape::Zeros | Shape::AllZero) || view == 2;
        if frozen {
            let block = case.word_major_phi();
            let fview = FrozenPhiView::new(&block, case.phi[0].len(), k);
            compare_draws(&fview, &case.alpha, &case.doc_ndk, &case.tokens, seed, bits)?;
        } else if view == 0 {
            let tview = TrainView::new(&case.n_wk, &case.n_k, k, case.beta, case.v_beta);
            compare_draws(&tview, &case.alpha, &case.doc_ndk, &case.tokens, seed, bits)?;
        } else {
            let xview = FixedPhiView::new(&case.n_wk, &case.phi_den, k, case.beta);
            compare_draws(&xview, &case.alpha, &case.doc_ndk, &case.tokens, seed, bits)?;
        }
    }

    /// The baselines form their own weights and call `sample_cumulative`
    /// on running sums: arbitrary non-negative vectors, with zeros, ties,
    /// a huge dynamic range, and totals that overflow to infinity.
    #[test]
    fn cumulative_draw_matches_the_two_walk_draw_on_any_weights(
        seed in 0u64..u64::MAX,
        len in 1usize..=300,
        shape in 0usize..4,
        bits in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..len)
            .map(|_| match shape {
                0 => rng.gen_range(0.0..1.0),
                1 => [0.0, 1.0, 2.0][rng.gen_range(0..3usize)],
                2 => match rng.gen_range(0..3u32) {
                    0 => 0.0,
                    1 => rng.gen_range(1e-300..1e-250),
                    _ => rng.gen_range(1e250..1e300),
                },
                _ => [0.0, f64::MAX / 2.0][rng.gen_range(0..2usize)],
            })
            .collect();
        let mut acc = 0.0;
        let cum: Vec<f64> = weights
            .iter()
            .map(|&w| {
                acc += w;
                acc
            })
            .collect();
        let bits = [0, 2, 6, 64][bits];
        for draw in 0..4u64 {
            let mut oracle = GridRng::new(seed.wrapping_add(draw), bits);
            let mut rng = oracle.clone();
            let want = two_walk(&mut oracle, &weights);
            let got = sample_cumulative(&mut rng, &cum);
            prop_assert_eq!(got, want, "weights {:?}", weights);
            prop_assert_eq!(rng.state(), oracle.state());
        }
    }
}

/// The edge cases by name, so each is exercised whatever the random cases
/// happen to draw.
#[test]
fn named_edge_cases_match_the_two_walk_draw() {
    for k in [1usize, 2, 3, 8, 50, 300] {
        for shape in SHAPES {
            for seed in 0..6u64 {
                let case = Case::new(seed * 7919 + k as u64, k, shape);
                let block = case.word_major_phi();
                let fview = FrozenPhiView::new(&block, case.phi[0].len(), k);
                let tview = TrainView::new(&case.n_wk, &case.n_k, k, case.beta, case.v_beta);
                let xview = FixedPhiView::new(&case.n_wk, &case.phi_den, k, case.beta);
                for bits in [0, 2, 6, 64] {
                    let (a, d, tok) = (&case.alpha, &case.doc_ndk, &case.tokens);
                    compare_draws(&fview, a, d, tok, seed, bits).unwrap();
                    compare_draws(&tview, a, d, tok, seed, bits).unwrap();
                    compare_draws(&xview, a, d, tok, seed, bits).unwrap();
                }
            }
        }
    }
}

/// The `Long` shape really does push the unscaled product out of the
/// kernel's safe window `[2^-256, 2^256]`, so the cases above exercise the
/// rescale.
#[test]
fn long_cases_leave_the_unscaled_window() {
    let mut below = 0;
    for seed in 0..20u64 {
        let case = Case::new(seed, 4, Shape::Long);
        let block = case.word_major_phi();
        let view = FrozenPhiView::new(&block, case.phi[0].len(), case.k);
        let max_log2: f64 = (0..case.k)
            .map(|t| {
                case.tokens
                    .iter()
                    .enumerate()
                    .map(|(j, &w)| {
                        let doc = case.alpha[t] + case.doc_ndk[t] as f64 + j as f64;
                        (doc * view.word_numerator(w, t, 0)).log2()
                    })
                    .sum::<f64>()
            })
            .fold(f64::NEG_INFINITY, f64::max);
        below += usize::from(max_log2 < -256.0);
    }
    assert!(
        below >= 15,
        "only {below} of 20 long cliques underflow the window"
    );
}
