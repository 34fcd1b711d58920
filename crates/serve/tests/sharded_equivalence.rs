//! The acceptance bar for sharded bundles: a model saved at any shard
//! count and loaded back must infer **bit-identically** to the fitted
//! `FrozenModel` for the same (text, seed, iters, top) at every thread
//! count and batching — the shards are a disk and process layout, never an
//! observable one. Plus the sharded bundle's disk story: save/load round-trips
//! exactly, re-saving cleans stale shards, and a sharded bundle serves
//! over HTTP end-to-end.

use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use topmine_corpus::{corpus_from_texts, CorpusOptions};
use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::Segmenter;
use topmine_serve::{
    infer_doc, infer_docs_amortized, load_bundle, BatchItem, DocInference, FrozenModel, HttpServer,
    InferConfig, ModelBackend, ServerConfig, ShardedModel, SHARDED_MODEL_FORMAT,
};
use topmine_util::par;

fn fitted_model(seed: u64) -> FrozenModel {
    let texts: Vec<String> = (0..30)
        .flat_map(|i| {
            [
                format!("mining frequent patterns in data streams {i}"),
                format!("support vector machines for classification task {i}"),
                format!("topic models for text corpora volume {i}"),
            ]
        })
        .collect();
    let corpus = corpus_from_texts(texts.iter().map(String::as_str));
    let (stats, seg) = Segmenter::with_params(5, 2.0).segment(&corpus);
    let grouped = GroupedDocs::from_segmentation(&corpus, &seg);
    let mut lda = PhraseLda::new(grouped, TopicModelConfig::new(3).with_seed(seed));
    lda.run(30);
    FrozenModel::freeze(&corpus, &stats, 2.0, &lda, &CorpusOptions::default())
}

/// `frozen` saved as a bundle of `shards` shards and loaded back; `tag`
/// keeps concurrent tests out of each other's directories.
fn reloaded(frozen: &FrozenModel, shards: usize, tag: &str) -> FrozenModel {
    let dir = std::env::temp_dir().join(format!(
        "topmine-sharded-equiv-{tag}-{shards}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    ShardedModel::from_frozen(frozen, shards)
        .unwrap()
        .save(&dir)
        .unwrap();
    let model = FrozenModel::load(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(model.n_shards(), shards);
    model
}

const QUERIES: &[&str] = &[
    "support vector machines in the data streams",
    "a study of mining frequent patterns",
    "topic models, support vector machines",
    "completely unknown querywords here",
    "",
];

#[test]
fn sharded_inference_is_bit_identical_across_shard_counts() {
    let frozen = fitted_model(9);
    for shards in [1usize, 2, 3, 7] {
        let sharded = reloaded(&frozen, shards, "counts");
        for (i, text) in QUERIES.iter().enumerate() {
            for seed in [1u64, 7, 123456789] {
                let cfg = InferConfig {
                    fold_iters: 15 + i,
                    seed,
                    top_topics: 1 + i % 3,
                };
                assert_eq!(
                    infer_doc(&frozen, text, &cfg, cfg.seed),
                    infer_doc(&sharded, text, &cfg, cfg.seed),
                    "shards={shards} text={text:?} seed={seed}"
                );
            }
        }
    }
}

/// `texts` folded in the way `topmine infer` folds in its input lines:
/// blocks of `block` documents, one shared gather each, on `threads`
/// workers; document `i` draws `seed_for_index(i)`.
fn infer_in_blocks(
    model: &dyn ModelBackend,
    texts: &[String],
    cfg: &InferConfig,
    block: usize,
    threads: usize,
) -> Vec<DocInference> {
    let items: Vec<BatchItem> = texts
        .iter()
        .enumerate()
        .map(|(i, text)| BatchItem {
            text: text.clone(),
            config: cfg.clone(),
            seed: cfg.seed_for_index(i),
        })
        .collect();
    let mut blocks = vec![Vec::new(); items.len().div_ceil(block)];
    let units = items.chunks(block).zip(&mut blocks);
    par::for_each(units, &mut vec![(); threads], |_, (block, out)| {
        *out = infer_docs_amortized(model, block)
    });
    blocks.concat()
}

#[test]
fn sharded_engines_match_across_thread_counts() {
    let frozen = fitted_model(11);
    let texts: Vec<String> = (0..12)
        .map(|i| format!("support vector machines and frequent patterns, part {i}"))
        .collect();
    let cfg = InferConfig::default();
    let baseline: Vec<_> = texts
        .iter()
        .enumerate()
        .map(|(i, text)| infer_doc(&frozen, text, &cfg, cfg.seed_for_index(i)))
        .collect();
    for shards in [1usize, 2, 3, 7] {
        let sharded = reloaded(&frozen, shards, "threads");
        for threads in [1usize, 4] {
            assert_eq!(
                infer_in_blocks(&sharded, &texts, &cfg, 3, threads),
                baseline,
                "shards={shards} threads={threads}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any (shard count, seed, iters, top, query mix): the sharded result
    /// equals the monolithic one bit-for-bit.
    #[test]
    fn sharded_equals_monolithic(
        shards in 1usize..9,
        seed in 0u64..1_000_000,
        fold_iters in 1usize..40,
        top in 1usize..5,
        query_idx in 0usize..5,
    ) {
        let frozen = fitted_model(13);
        let sharded = reloaded(&frozen, shards, "prop");
        let cfg = InferConfig { fold_iters, seed, top_topics: top };
        let text = QUERIES[query_idx];
        prop_assert_eq!(infer_doc(&frozen, text, &cfg, cfg.seed), infer_doc(&sharded, text, &cfg, cfg.seed));
    }
}

#[test]
fn sharded_bundle_roundtrips_and_resave_cleans_stale_shards() {
    let dir = std::env::temp_dir().join(format!("topmine-sharded-equiv-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let frozen = fitted_model(17);
    let wide = ShardedModel::from_frozen(&frozen, 7).unwrap();
    wide.save(&dir).unwrap();
    let loaded = FrozenModel::load(&dir).unwrap();
    assert_eq!(loaded, frozen);
    assert_eq!(loaded.shard_starts(), wide.shard_starts());
    // The reloaded bundle serves bit-identically too.
    let cfg = InferConfig::default();
    for text in QUERIES {
        assert_eq!(
            infer_doc(&frozen, text, &cfg, cfg.seed),
            infer_doc(&loaded, text, &cfg, cfg.seed)
        );
    }
    // Re-save with fewer shards: stale shard directories must disappear
    // and `load_bundle` must see exactly the new bundle.
    let narrow = ShardedModel::from_frozen(&frozen, 2).unwrap();
    narrow.save(&dir).unwrap();
    for stale in 2..7 {
        assert!(!dir.join(format!("shard-{stale}")).exists());
    }
    let backend = load_bundle(&dir).unwrap();
    assert_eq!(backend.n_shards(), 2);
    assert_eq!(*backend.local(), frozen);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One raw HTTP/1.1 request; returns (status, body).
fn request(addr: std::net::SocketAddr, head: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let message = format!(
        "{head} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

#[test]
fn sharded_bundle_serves_over_http_end_to_end() {
    let dir =
        std::env::temp_dir().join(format!("topmine-sharded-equiv-http-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let frozen = fitted_model(19);
    ShardedModel::from_frozen(&frozen, 3)
        .unwrap()
        .save(&dir)
        .unwrap();
    let backend = load_bundle(&dir).unwrap();
    assert_eq!(backend.n_shards(), 3);

    let sharded_server = HttpServer::bind("127.0.0.1:0", backend, ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let frozen_server = HttpServer::bind("127.0.0.1:0", Arc::new(frozen), ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");

    let (status, health) = request(sharded_server.addr(), "GET /healthz", "");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"shards\":3"), "{health}");
    assert!(health.contains(SHARDED_MODEL_FORMAT), "{health}");
    assert!(health.contains("\"cache\""), "{health}");

    // Identical queries against both servers produce byte-identical
    // inference bodies.
    let doc = "support vector machines for the data streams";
    let (status_a, body_a) = request(sharded_server.addr(), "POST /infer?seed=42&iters=25", doc);
    let (status_b, body_b) = request(frozen_server.addr(), "POST /infer?seed=42&iters=25", doc);
    assert_eq!((status_a, status_b), (200, 200), "{body_a} {body_b}");
    assert_eq!(body_a, body_b, "sharded and monolithic bodies diverged");
    assert!(body_a.contains("\"theta\""), "{body_a}");

    sharded_server.shutdown();
    frozen_server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
