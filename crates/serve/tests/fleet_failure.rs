//! Shard failure and recovery through the whole serving stack: kill one
//! shard process → bounded retries → `503` with a JSON error body (and a
//! degraded `/healthz`); restart the shard on the same port → the router
//! reconnects and bit-identity with the monolith holds again.

mod fleet_common;

use fleet_common::{fast_pool, fitted_model, request, save_sharded, spawn_fleet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use topmine_serve::{
    infer_doc, inference_json, HttpServer, InferConfig, RemoteShardedModel, ServerConfig,
    ShardServer, ShardSlice,
};

#[test]
fn killed_shard_yields_503_then_recovery_restores_bit_identity() {
    let frozen = fitted_model(23);
    let dir = save_sharded("failure", &frozen, 2);
    let (mut handles, addrs) = spawn_fleet(&dir, 2);
    let router =
        RemoteShardedModel::connect(&dir, &addrs, fast_pool()).expect("connect router to fleet");

    // The server keeps no responses, so every inference below gathers
    // from the fleet and a dead shard shows in its answer.
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(router), ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");

    // A document touching the whole vocabulary (every content stem plus
    // every per-document number token), so its φ gather must hit BOTH
    // shards — killing either one has to fail the request.
    let doc = (0..30).fold(
        "mining frequent patterns in data streams support vector machines \
         for classification task topic models for text corpora volume"
            .to_string(),
        |acc, i| format!("{acc} {i}"),
    );
    let doc = doc.as_str();
    let monolith = |seed: u64| {
        let cfg = InferConfig {
            fold_iters: 25,
            seed,
            ..InferConfig::default()
        };
        inference_json(&infer_doc(&frozen, doc, &cfg, seed))
    };
    let (status, body) = request(server.addr(), "POST /infer?seed=41&iters=25", doc);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, monolith(41));

    // Healthy fleet: /healthz aggregates both shards as ok.
    let (status, health) = request(server.addr(), "GET /healthz", "");
    assert_eq!(status, 200);
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    // Kill shard 1 (listener closed, live connections severed).
    let dead_addr = addrs[1].clone();
    handles.pop().unwrap().shutdown();

    let started = Instant::now();
    let (status, body) = request(server.addr(), "POST /infer?seed=43&iters=25", doc);
    let elapsed = started.elapsed();
    assert_eq!(status, 503, "want fail-fast 503, got {status}: {body}");
    assert!(
        body.starts_with("{\"error\":"),
        "503 body must be the JSON error shape: {body}"
    );
    assert!(body.contains("shard 1"), "blames the dead shard: {body}");
    assert!(
        elapsed < Duration::from_secs(10),
        "bounded retries took {elapsed:?}"
    );

    // Degraded is visible in /healthz (per-shard detail included).
    let (status, health) = request(server.addr(), "GET /healthz", "");
    assert_eq!(status, 200);
    assert!(health.contains("\"status\":\"degraded\""), "{health}");
    assert!(health.contains("\"ok\":false"), "{health}");
    assert!(health.contains(&dead_addr), "{health}");

    // While the circuit is open, failures are immediate (no full retry
    // ladder) — the request just fails fast with the same 503 contract.
    let started = Instant::now();
    let (status, _) = request(server.addr(), "POST /infer?seed=44&iters=25", doc);
    assert_eq!(status, 503);
    assert!(started.elapsed() < Duration::from_secs(5));

    // Restart the shard on the same port.
    let slice = ShardSlice::load(&dir, 1).expect("reload shard slice");
    let restarted = ShardServer::bind(dead_addr.as_str(), slice)
        .expect("rebind the shard's port")
        .spawn()
        .expect("respawn");

    // The router reconnects once the cooldown lapses; poll until the
    // answer comes back — and when it does, it is byte-identical to the
    // monolith's. Every poll gathers.
    let deadline = Instant::now() + Duration::from_secs(10);
    let recovered = loop {
        let (status, body) = request(server.addr(), "POST /infer?seed=42&iters=25", doc);
        if status == 200 {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "router never recovered; last: {status} {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(
        recovered,
        monolith(42),
        "post-recovery inference diverged from the monolith"
    );

    // Health converges back to ok.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, health) = request(server.addr(), "GET /healthz", "");
        if health.contains("\"status\":\"ok\"") {
            break;
        }
        assert!(Instant::now() < deadline, "health stuck degraded: {health}");
        std::thread::sleep(Duration::from_millis(50));
    }

    server.shutdown();
    restarted.shutdown();
    for handle in handles {
        handle.shutdown();
    }
    let _ = std::fs::remove_dir_all(dir);
}
