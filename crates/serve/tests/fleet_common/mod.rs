//! Shared scaffolding for the fleet-serving integration tests: fit a tiny
//! model, save it as a sharded bundle, spawn in-process shard servers on
//! ephemeral loopback ports, and connect a router to them.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use topmine_corpus::{corpus_from_texts, CorpusOptions};
use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::Segmenter;
use topmine_serve::{
    FrozenModel, PoolConfig, RemoteShardedModel, ShardServer, ShardServerHandle, ShardSlice,
    ShardedModel,
};

/// The same tiny three-topic corpus the sharded-equivalence suite fits.
pub fn fitted_model(seed: u64) -> FrozenModel {
    fitted_model_with(seed, 30)
}

/// [`fitted_model`] with `sweeps` Gibbs sweeps. No hyperparameter is
/// optimized, so fits that differ only in `seed` share α and β.
pub fn fitted_model_with(seed: u64, sweeps: usize) -> FrozenModel {
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
    lda.run(sweeps);
    FrozenModel::freeze(&corpus, &stats, 2.0, &lda, &CorpusOptions::default())
}

pub const QUERIES: &[&str] = &[
    "support vector machines in the data streams",
    "a study of mining frequent patterns",
    "topic models, support vector machines",
    "completely unknown querywords here",
    "",
];

/// Save `frozen` as an `n_shards`-way bundle under a unique temp dir.
pub fn save_sharded(tag: &str, frozen: &FrozenModel, n_shards: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "topmine-fleet-{tag}-{}-{n_shards}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    ShardedModel::from_frozen(frozen, n_shards)
        .expect("shard model")
        .save(&dir)
        .expect("save sharded bundle");
    dir
}

/// Spawn one in-process shard server per `shard-K/` directory of `dir`,
/// each on an ephemeral loopback port. Returns the handles (kill order is
/// the caller's business) and their addresses in shard order.
pub fn spawn_fleet(dir: &Path, n_shards: usize) -> (Vec<ShardServerHandle>, Vec<String>) {
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for k in 0..n_shards {
        let slice = ShardSlice::load(dir, k).expect("load shard slice");
        let handle = ShardServer::bind("127.0.0.1:0", slice)
            .expect("bind shard")
            .spawn()
            .expect("spawn shard");
        addrs.push(handle.addr().to_string());
        handles.push(handle);
    }
    (handles, addrs)
}

/// A [`PoolConfig`] with short timeouts so failure tests stay fast.
pub fn fast_pool() -> PoolConfig {
    PoolConfig {
        connect_timeout: std::time::Duration::from_millis(500),
        rpc_timeout: std::time::Duration::from_secs(2),
        retries: 1,
        backoff: std::time::Duration::from_millis(10),
        cooldown: std::time::Duration::from_millis(200),
    }
}

/// Save + spawn + connect in one call for the common happy path.
pub fn fleet(
    tag: &str,
    frozen: &FrozenModel,
    n_shards: usize,
) -> (RemoteShardedModel, Vec<ShardServerHandle>, PathBuf) {
    let dir = save_sharded(tag, frozen, n_shards);
    let (handles, addrs) = spawn_fleet(&dir, n_shards);
    let router = RemoteShardedModel::connect(&dir, &addrs, PoolConfig::default())
        .expect("connect router to fleet");
    (router, handles, dir)
}

/// One raw HTTP/1.1 request; returns (status, body).
pub fn request(addr: std::net::SocketAddr, head: &str, body: &str) -> (u16, String) {
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
