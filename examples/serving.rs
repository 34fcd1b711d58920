//! Serving: train → freeze → save → load → query, end to end.
//!
//! Fits a small ToPMine model on surface text, freezes it and saves it as
//! a one-shard bundle (what `topmine --save-model` writes), reloads it,
//! and answers queries two ways: in process with `infer_doc`, and over HTTP
//! against a `topmine_serve::HttpServer` bound to an ephemeral port (what
//! `topmine serve` runs).
//!
//! Run: `cargo run --release --example serving`

use std::io::{Read, Write};
use std::sync::Arc;
use topmine_repro::corpus::{CorpusBuilder, CorpusOptions};
use topmine_repro::serve::{
    infer_doc, load_bundle, HttpServer, InferConfig, ServerConfig, ShardedModel,
};
use topmine_repro::synth::{generator, Profile};
use topmine_repro::topmine::{ToPMine, ToPMineConfig};

fn main() {
    // --- train ------------------------------------------------------------
    let texts = generator(Profile::Conf20, 0.08).generate_texts(21);
    let mut builder = CorpusBuilder::default();
    for t in &texts {
        builder.add_document(t);
    }
    let corpus = builder.build();
    let config = ToPMineConfig {
        min_support: ToPMineConfig::support_for_corpus(&corpus),
        significance_alpha: 3.0,
        n_topics: 5,
        iterations: 60,
        seed: 21,
        ..ToPMineConfig::default()
    };
    let model = ToPMine::new(config).fit(&corpus);
    println!(
        "trained on {} docs ({} multi-word phrase instances segmented)",
        corpus.n_docs(),
        model.segmentation.n_multiword()
    );

    // --- freeze + round-trip through disk ----------------------------------
    let bundle =
        std::env::temp_dir().join(format!("topmine-serving-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&bundle);
    let frozen = model.freeze(&corpus, &CorpusOptions::default());
    frozen.save(&bundle).expect("save bundle");
    let loaded = load_bundle(&bundle).expect("load bundle");
    println!(
        "bundle at {}: {} topics, vocabulary {}, {} lexicon phrases, {} shard(s)",
        bundle.display(),
        loaded.n_topics(),
        loaded.vocab_size(),
        loaded.local().lexicon.n_phrases(),
        loaded.n_shards()
    );

    // --- in-process inference ----------------------------------------------
    let query = &texts[0];
    let cfg = InferConfig::default();
    let inference = infer_doc(loaded.as_ref(), query, &cfg, cfg.seed);
    println!("\nquery: {query}");
    println!("  top topics: {:?}", inference.top_topics);
    for p in inference.phrases.iter().filter(|p| p.words.len() > 1) {
        println!("  phrase {:?} -> topic {}", p.text, p.topic);
    }

    // --- the same answer from more shards -----------------------------------
    // Save the model cut into vocabulary-range shards (what
    // `topmine --save-model dir --shards 3` writes) over the same
    // directory: it loads back as the same one model, so inference is
    // bit-identical to one shard.
    ShardedModel::from_frozen(&frozen, 3)
        .and_then(|sharded| sharded.save(&bundle))
        .expect("save 3-shard bundle");
    let sharded = load_bundle(&bundle).expect("load 3-shard bundle");
    assert_eq!(sharded.n_shards(), 3);
    let sharded_inference = infer_doc(sharded.as_ref(), query, &cfg, cfg.seed);
    assert_eq!(
        sharded_inference, inference,
        "sharded inference must be bit-identical"
    );
    println!("  reloaded 3-shard bundle: bit-identical answer");

    // --- the same answer over HTTP ------------------------------------------
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&loaded), ServerConfig::default())
        .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = server.spawn().expect("spawn server");
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /infer?seed=1 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{query}",
        query.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("");
    println!("\nHTTP /infer on {addr}:");
    println!("  {body}");
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "unexpected: {response}"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&bundle);
    println!("\nserver shut down cleanly");
}
