//! Watch Algorithm 2 segment a document, merge by merge (the paper's
//! Figure 1 dendrogram, as a trace).
//!
//! Run: `cargo run --release --example segmentation_trace`

use topmine_corpus::CorpusBuilder;
use topmine_phrase::{FrequentPhraseMiner, PhraseConstructor};
use topmine_synth::{generator, Profile};

fn main() {
    // Support corpus + the two titles from the paper's Example 1.
    let mut texts = generator(Profile::Conf20, 0.08).generate_texts(11);
    let titles = [
        "Mining frequent patterns without candidate generation: a frequent pattern tree approach.",
        "Frequent pattern mining: current status and future directions.",
    ];
    for t in titles {
        for _ in 0..5 {
            texts.push(t.to_string());
        }
    }
    let mut builder = CorpusBuilder::default();
    for t in &texts {
        builder.add_document(t);
    }
    let corpus = builder.build();

    let stats = FrequentPhraseMiner::new(5).mine(&corpus);
    println!(
        "mined {} frequent n-grams (longest: {} words) from {} tokens\n",
        stats.n_frequent_ngrams(),
        stats.max_len(),
        stats.total_tokens
    );

    let ctor = PhraseConstructor::new(2.5);
    for (offset, title) in titles.iter().enumerate() {
        let doc_idx = corpus.docs.len() - 2 * 5 + offset * 5;
        println!("title: {title}");
        let (spans, trace) = ctor.construct_doc_traced(&corpus.docs[doc_idx], &stats);
        for step in &trace {
            println!(
                "  merge [{}] + [{}]   sig = {:.2}",
                corpus.render_span(doc_idx, step.left.0 as usize, step.left.1 as usize),
                corpus.render_span(doc_idx, step.right.0 as usize, step.right.1 as usize),
                step.significance
            );
        }
        let rendered: Vec<String> = spans
            .iter()
            .map(|&(s, e)| format!("[{}]", corpus.render_span(doc_idx, s as usize, e as usize)))
            .collect();
        println!("  partition: {}\n", rendered.join(" "));
    }
}
