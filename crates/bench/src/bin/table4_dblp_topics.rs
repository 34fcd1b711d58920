//! **Table 4** — topics from a ToPMine run on the (synthetic) DBLP
//! abstracts corpus: per topic, the top unigrams block and the top phrases
//! block. The paper shows five topics it interprets as
//! search/optimization, NLP, machine learning, programming languages, and
//! data mining.

use topmine_bench::{banner, fit_topmine_on_profile, iters, print_topic_table, scale, seed_for};
use topmine_synth::Profile;

fn main() {
    banner(
        "Table 4: ToPMine topics on DBLP abstracts (unigrams + phrases per topic)",
        "coherent CS topics with phrases like 'support vector machine', 'data mining', 'programming language'",
    );
    let (synth, model) = fit_topmine_on_profile(
        Profile::DblpAbstracts,
        scale(),
        iters(300),
        seed_for("table4"),
    );
    eprintln!(
        "corpus: {} docs, {} tokens; segmentation: {} multi-word instances; perplexity {:.1}",
        synth.corpus.n_docs(),
        synth.corpus.n_tokens(),
        model.segmentation.n_multiword(),
        model.perplexity()
    );
    print_topic_table(&synth, &model, 10);
    println!(
        "(paper Table 4 shows 5 of a 50-topic run on the real 529K-abstract corpus, which is not \
         redistributable; here K = {} planted topics on the synthetic corpus of topmine_synth)",
        synth.n_topics
    );
}
