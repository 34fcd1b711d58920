//! **Figure 7** — DBLP abstracts: held-out perplexity of PhraseLDA vs. LDA
//! over Gibbs iterations. The paper reports "comparable perplexity to LDA"
//! on this corpus (same protocol as Figure 6: see
//! [`topmine_bench::perplexity_curve`]).

use topmine_bench::{banner, iters, perplexity_curve, scale, seed_for};
use topmine_synth::Profile;

fn main() {
    banner(
        "Figure 7: DBLP-abstracts held-out perplexity, PhraseLDA vs LDA over Gibbs iterations",
        "PhraseLDA demonstrates comparable perplexity to LDA on DBLP abstracts",
    );
    let (pf, lf) = perplexity_curve(
        Profile::DblpAbstracts,
        10,
        seed_for("fig7"),
        scale(),
        iters(400),
        25,
        50,
    );
    println!(
        "final held-out perplexity: PhraseLDA {pf:.2} vs LDA {lf:.2} (gap {:+.2}; paper shape: comparable)",
        lf - pf
    );
}
