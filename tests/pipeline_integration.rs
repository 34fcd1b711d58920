//! Cross-crate integration tests: raw text → preprocessing → phrase mining
//! → segmentation → PhraseLDA, checked against the synthetic ground truth.

use topmine::{ToPMine, ToPMineConfig};
use topmine_corpus::CorpusBuilder;
use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::Segmenter;
use topmine_synth::{generate, generator, Profile};

/// The full text pipeline (tokenize/stem/stopwords) feeds ToPMine and
/// produces a structurally valid model that recovers a known collocation.
#[test]
fn text_pipeline_end_to_end() {
    let texts = generator(Profile::Conf20, 0.06).generate_texts(5);
    let mut builder = CorpusBuilder::default();
    for t in &texts {
        builder.add_document(t);
    }
    let corpus = builder.build();
    corpus.validate().unwrap();
    assert!(corpus.n_tokens() > 1000);

    let model = ToPMine::new(ToPMineConfig {
        min_support: ToPMineConfig::support_for_corpus(&corpus),
        significance_alpha: 3.0,
        n_topics: 7,
        iterations: 60,
        seed: 5,
        ..ToPMineConfig::default()
    })
    .fit(&corpus);
    model.segmentation.validate(&corpus).unwrap();
    model.model.check_counts().unwrap();

    // The corpus plants "support vector machine" heavily (ML topic); after
    // stemming it must be mined as a frequent phrase.
    let svm: Option<Vec<u32>> = ["support", "vector", "machin"]
        .iter()
        .map(|w| corpus.vocab.id(w))
        .collect();
    let svm = svm.expect("stemmed svm words in vocabulary");
    assert!(
        model.stats.count(&svm) >= model.stats.min_support,
        "'support vector machin' count = {}",
        model.stats.count(&svm)
    );
}

/// Segmentation recovers the planted phrase spans with high agreement
/// (span-level precision/recall against ground truth).
///
/// Recall is measured over *minable* spans: planted phrase types whose
/// corpus count clears both the minimum support and the α ≈ sqrt(count)
/// significance bar. Rare planted phrases below support are invisible to
/// any frequency-based miner — that is the paper's own precision/recall
/// trade-off (§4.1), exercised separately in the ablation binary.
#[test]
fn segmentation_recovers_planted_spans() {
    let synth = generate(Profile::Conf20, 0.1, 9);
    let corpus = &synth.corpus;
    let alpha = 2.0;
    let (stats, seg) =
        Segmenter::with_params(ToPMineConfig::support_for_corpus(corpus), alpha).segment(corpus);
    seg.validate(corpus).unwrap();

    // A planted type is minable when frequent enough for the merge to clear
    // α (sig ≈ sqrt(f) under a near-zero null expectation).
    let minable = |phrase: &[u32]| stats.count(phrase) as f64 >= (alpha * alpha).ceil() + 2.0;

    let mut true_positive = 0usize;
    let mut predicted_multi = 0usize;
    let mut minable_total = 0usize;
    for (d, spans) in synth.truth.phrase_spans.iter().enumerate() {
        let doc = &corpus.docs[d];
        let predicted: std::collections::HashSet<(u32, u32)> =
            seg.docs[d].spans.iter().copied().collect();
        for &(s, e) in spans {
            if e - s < 2 || !minable(&doc.tokens[s as usize..e as usize]) {
                continue;
            }
            minable_total += 1;
            if predicted.contains(&(s, e)) {
                true_positive += 1;
            }
        }
        predicted_multi += seg.docs[d].n_multiword();
    }
    let recall = true_positive as f64 / minable_total.max(1) as f64;
    let precision = true_positive as f64 / predicted_multi.max(1) as f64;
    assert!(
        minable_total > 200,
        "too few minable spans to be meaningful: {minable_total}"
    );
    assert!(
        recall > 0.6,
        "span recall too low: {recall:.3} ({true_positive}/{minable_total})"
    );
    assert!(
        precision > 0.5,
        "span precision too low: {precision:.3} ({true_positive}/{predicted_multi})"
    );
}

/// PhraseLDA's topics align with the planted topics: the purity of the
/// planted-topic/inferred-topic contingency is far above chance.
#[test]
fn phrase_lda_recovers_planted_topics() {
    let synth = generate(Profile::Conf20, 0.1, 17);
    let corpus = &synth.corpus;
    let model = ToPMine::new(ToPMineConfig {
        min_support: ToPMineConfig::support_for_corpus(corpus),
        significance_alpha: 3.0,
        n_topics: synth.n_topics,
        iterations: 200,
        // Titles average ~7 tokens; the 50/K convention (designed for
        // long documents) would swamp such short documents' counts.
        doc_topic_alpha: 0.3,
        seed: 3,
        ..ToPMineConfig::default()
    })
    .fit(corpus);

    // Contingency of (planted topic of token, inferred topic of its group).
    let k = synth.n_topics;
    let mut table = vec![vec![0u64; k]; k];
    for d in 0..corpus.n_docs() {
        let seg_doc = &model.segmentation.docs[d];
        for (g, &(s, e)) in seg_doc.spans.iter().enumerate() {
            let inferred = model.model.topic_of_group(d, g) as usize;
            for i in s..e {
                if !synth.truth.token_is_background[d][i as usize] {
                    let planted = synth.truth.token_topics[d][i as usize] as usize;
                    table[planted][inferred] += 1;
                }
            }
        }
    }
    // Purity: each planted topic's tokens mostly land in one inferred topic.
    let mut matched = 0u64;
    let mut total = 0u64;
    for row in &table {
        matched += row.iter().copied().max().unwrap_or(0);
        total += row.iter().sum::<u64>();
    }
    let purity = matched as f64 / total.max(1) as f64;
    assert!(
        purity > 0.5,
        "topic purity {purity:.3} barely above chance (1/{k} = {:.3})",
        1.0 / k as f64
    );
}

/// LDA and PhraseLDA agree on the trivial case: when every group is a
/// singleton, the PhraseLDA sampler *is* LDA (identical chains).
#[test]
fn lda_is_phrase_lda_with_singleton_groups() {
    let synth = generate(Profile::AclAbstracts, 0.03, 2);
    let corpus = &synth.corpus;
    let cfg = TopicModelConfig {
        n_topics: 5,
        alpha: 1.0,
        beta: 0.01,
        seed: 42,
        optimize_every: 0,
        burn_in: 0,
        n_threads: 1,
    };
    let mut direct = PhraseLda::lda(corpus, cfg.clone());
    let mut via_groups = PhraseLda::new(GroupedDocs::unigrams(corpus), cfg);
    direct.run(20);
    via_groups.run(20);
    assert_eq!(direct.perplexity(), via_groups.perplexity());
}

/// Held-out perplexity beats the uniform-distribution bound for both
/// grouping modes, on a real profile.
#[test]
fn heldout_perplexity_beats_uniform() {
    use topmine_lda::FoldIn;
    let synth = generate(Profile::YelpReviews, 0.03, 31);
    let corpus = &synth.corpus;
    let (_, seg) = Segmenter::with_params(3, 3.0).segment(corpus);
    let grouped = GroupedDocs::from_segmentation(corpus, &seg);
    let (train, held) = grouped.split_heldout(5);
    let mut model = PhraseLda::new(
        train,
        TopicModelConfig {
            n_topics: 5,
            alpha: 0.5,
            beta: 0.01,
            seed: 9,
            optimize_every: 0,
            burn_in: 0,
            n_threads: 1,
        },
    );
    model.run(80);
    let v = corpus.vocab_size() as f64;
    for fold in [FoldIn::Groups, FoldIn::Tokens] {
        let pp = model.heldout_perplexity(&held, 10, 1, fold);
        assert!(pp.is_finite() && pp > 1.0);
        assert!(pp < v, "held-out perplexity {pp:.1} vs uniform bound {v}");
    }
}
