//! Cross-crate integration: the full train → freeze → save → load → serve
//! path through the umbrella facade, on a synthetic corpus with planted
//! topics.

use topmine_repro::serve::{infer_doc, load_bundle, FrozenModel, InferConfig, ShardedModel};
use topmine_repro::topmine::{ToPMine, ToPMineConfig};

#[test]
fn fitted_pipeline_freezes_and_answers_queries() {
    let synth = topmine_repro::synth::generate(topmine_repro::synth::Profile::Conf20, 0.05, 13);
    let corpus = &synth.corpus;
    let config = ToPMineConfig {
        min_support: 5,
        significance_alpha: 3.0,
        n_topics: synth.n_topics,
        iterations: 30,
        seed: 13,
        ..ToPMineConfig::default()
    };
    let model = ToPMine::new(config).fit(corpus);
    let frozen = model.freeze(corpus, &topmine_repro::corpus::CorpusOptions::raw());
    frozen.validate().unwrap();

    // Round-trip through disk: the save is the one-shard bundle.
    let dir = std::env::temp_dir().join(format!("topmine-serving-int-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    frozen.save(&dir).unwrap();
    let loaded = FrozenModel::load(&dir).unwrap();
    assert_eq!(loaded, frozen);

    // Query a training-like document: fold-in should segment known
    // phrases and produce a proper θ.
    let text = corpus
        .docs
        .iter()
        .find(|d| d.n_tokens() >= 6)
        .map(|d| corpus.render_phrase(&d.tokens))
        .expect("synthetic corpus has a long document");
    let cfg = InferConfig::default();
    let inference = infer_doc(&loaded, &text, &cfg, cfg.seed);
    let sum: f64 = inference.theta.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
    assert!(inference.n_tokens > 0);
    assert_eq!(inference.theta.len(), synth.n_topics);
    assert!(!inference.phrases.is_empty());

    // Save the same fitted model as 3 shards over the one-shard bundle
    // and serve it through `load_bundle`: the answer must be
    // bit-identical to the one-shard bundle's.
    let sharded = ShardedModel::from_frozen(&frozen, 3).unwrap();
    sharded.save(&dir).unwrap();
    let backend = load_bundle(&dir).unwrap();
    assert_eq!(backend.n_shards(), 3);
    assert_eq!(*backend.local(), frozen);
    assert_eq!(
        infer_doc(backend.as_ref(), &text, &cfg, cfg.seed),
        inference
    );

    let _ = std::fs::remove_dir_all(&dir);
}
