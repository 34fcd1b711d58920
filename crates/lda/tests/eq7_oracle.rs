//! `clique_posterior` against Eq. 7 evaluated directly with `ln Γ`.
//!
//! The kernel forms the posterior as a running product of
//! `(α_k + N_dk + j) · num_k(w_j, m_j) / den_k(j)` factors with
//! within-clique multiplicities and exact power-of-two rescaling. The
//! oracle writes Eq. 7 in its Gamma-ratio form instead:
//!
//! ```text
//! p(C = k) ∝ Γ(α_k + N_dk + s) / Γ(α_k + N_dk)
//!          · ∏_{distinct w ∈ C} Γ(β + N_wk + n_w) / Γ(β + N_wk)
//!          / (Γ(Vβ + N_k + s) / Γ(Vβ + N_k))
//! ```
//!
//! (`s` the clique length, `n_w` the count of `w` in it), and with φ
//! frozen the word side becomes `∏_j φ_{k, w_j}`. Both are normalized and
//! compared per topic.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topmine_lda::kernel::{clique_posterior, CliqueScratch, FrozenPhiView, TrainView};
use topmine_util::stats::ln_gamma;

/// Worst absolute difference allowed between normalized posteriors.
const TOLERANCE: f64 = 1e-9;

/// Normalize log-weights into probabilities.
fn normalize_logs(logw: &[f64]) -> Vec<f64> {
    let max = logw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let p: Vec<f64> = logw.iter().map(|&l| (l - max).exp()).collect();
    let total: f64 = p.iter().sum();
    p.iter().map(|&x| x / total).collect()
}

fn normalize(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    weights.iter().map(|&w| w / total).collect()
}

/// A clique of `len` tokens over `v` words, so words repeat.
fn clique(rng: &mut StdRng, len: usize, v: usize) -> Vec<u32> {
    (0..len).map(|_| rng.gen_range(0..v as u32)).collect()
}

fn compare(kernel: &[f64], oracle: &[f64]) -> Result<(), TestCaseError> {
    let kernel = normalize(kernel);
    for (t, (&a, &b)) in kernel.iter().zip(oracle).enumerate() {
        prop_assert!(
            (a - b).abs() <= TOLERANCE,
            "topic {}: kernel {:e} vs Eq. 7 {:e}",
            t,
            a,
            b
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Training view: live counts with the Gamma-ratio multiplicity
    /// correction, cliques of up to 60 tokens over at most 6 words.
    #[test]
    fn train_view_posterior_is_eq7(
        seed in 0u64..u64::MAX,
        k in 1usize..=40,
        len in 1usize..=60,
        v in 1usize..=6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tokens = clique(&mut rng, len, v);
        let alpha: Vec<f64> = (0..k).map(|_| rng.gen_range(0.01..3.0)).collect();
        let doc_ndk: Vec<u32> = (0..k).map(|_| rng.gen_range(0..30u32)).collect();
        let n_wk: Vec<u32> = (0..v * k).map(|_| rng.gen_range(0..40u32)).collect();
        let n_k: Vec<u64> = (0..k)
            .map(|t| (0..v).map(|w| u64::from(n_wk[w * k + t])).sum::<u64>() + rng.gen_range(0..2000u64))
            .collect();
        let beta = rng.gen_range(0.001..1.0);
        let v_beta = beta * (v + rng.gen_range(0..5000usize)) as f64;

        let view = TrainView::new(&n_wk, &n_k, k, beta, v_beta);
        let mut weights = vec![0.0; k];
        clique_posterior(&view, &alpha, &doc_ndk, &tokens, &mut CliqueScratch::default(), &mut weights);

        let s = tokens.len() as f64;
        let mut counts = vec![0u32; v];
        for &w in &tokens {
            counts[w as usize] += 1;
        }
        let logw: Vec<f64> = (0..k)
            .map(|t| {
                let doc = alpha[t] + doc_ndk[t] as f64;
                let mut l = ln_gamma(doc + s) - ln_gamma(doc);
                for (w, &n) in counts.iter().enumerate().filter(|(_, &n)| n > 0) {
                    let b = beta + n_wk[w * k + t] as f64;
                    l += ln_gamma(b + n as f64) - ln_gamma(b);
                }
                let den = v_beta + n_k[t] as f64;
                l - (ln_gamma(den + s) - ln_gamma(den))
            })
            .collect();
        compare(&weights, &normalize_logs(&logw))?;
    }

    /// Fold-in view: φ frozen and gathered word-major, as a serving
    /// backend returns it; no multiplicity correction.
    #[test]
    fn frozen_phi_posterior_is_eq7_with_phi_fixed(
        seed in 0u64..u64::MAX,
        k in 1usize..=60,
        len in 1usize..=60,
        v in 1usize..=6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tokens = clique(&mut rng, len, v);
        let alpha: Vec<f64> = (0..k).map(|_| rng.gen_range(0.01..3.0)).collect();
        let doc_ndk: Vec<u32> = (0..k).map(|_| rng.gen_range(0..30u32)).collect();
        // The model's topic-major φ, then its word-major gather.
        let phi: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..v).map(|_| rng.gen_range(1e-6..1.0)).collect())
            .collect();
        let block: Vec<f64> = (0..v).flat_map(|w| phi.iter().map(move |row| row[w])).collect();

        let view = FrozenPhiView::new(&block, v, k);
        let mut weights = vec![0.0; k];
        clique_posterior(&view, &alpha, &doc_ndk, &tokens, &mut CliqueScratch::default(), &mut weights);

        let s = tokens.len() as f64;
        let logw: Vec<f64> = (0..k)
            .map(|t| {
                let doc = alpha[t] + doc_ndk[t] as f64;
                let words: f64 = tokens.iter().map(|&w| phi[t][w as usize].ln()).sum();
                ln_gamma(doc + s) - ln_gamma(doc) + words
            })
            .collect();
        compare(&weights, &normalize_logs(&logw))?;
    }
}
