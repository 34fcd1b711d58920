//! Zero-divergence acceptance for fleet serving: the router talking to
//! real shard servers over loopback TCP must be **bit-identical** to the
//! in-process monolith for the same (text, seed, iters, top) at every
//! shard count — the wire protocol is an implementation detail, never an
//! observable one. The HTTP end-to-end variants byte-compare `/infer` and
//! `/infer_batch` bodies between a router-backed server and a
//! monolith-backed one.

mod fleet_common;

use fleet_common::{fitted_model, fleet, request, QUERIES};
use proptest::prelude::*;
use std::sync::Arc;
use topmine_serve::{
    infer_doc, HttpServer, InferConfig, ModelBackend, ServerConfig, FLEET_MODEL_FORMAT,
};

#[test]
fn fleet_inference_is_bit_identical_across_shard_counts() {
    let frozen = fitted_model(9);
    for n_shards in [1usize, 2, 3, 5] {
        let (router, handles, dir) = fleet("equiv", &frozen, n_shards);
        assert_eq!(router.format_tag(), FLEET_MODEL_FORMAT);
        for (i, text) in QUERIES.iter().enumerate() {
            for seed in [1u64, 7, 123456789] {
                let cfg = InferConfig {
                    fold_iters: 15 + i,
                    seed,
                    top_topics: 1 + i % 3,
                };
                assert_eq!(
                    infer_doc(&frozen, text, &cfg, seed),
                    infer_doc(&router, text, &cfg, seed),
                    "shards={n_shards} text={text:?} seed={seed}"
                );
            }
        }
        drop(router);
        for handle in handles {
            handle.shutdown();
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any (shard count, seed, iters, top, query): the through-the-wire
    /// result equals the monolithic one bit-for-bit.
    #[test]
    fn fleet_equals_monolithic(
        n_shards in 1usize..5,
        seed in 0u64..1_000_000,
        fold_iters in 1usize..40,
        top in 1usize..5,
        query_idx in 0usize..5,
    ) {
        let frozen = fitted_model(13);
        let (router, handles, dir) = fleet("prop", &frozen, n_shards);
        let cfg = InferConfig { fold_iters, seed, top_topics: top };
        let text = QUERIES[query_idx];
        let want = infer_doc(&frozen, text, &cfg, seed);
        let got = infer_doc(&router, text, &cfg, seed);
        drop(router);
        for handle in handles {
            handle.shutdown();
        }
        let _ = std::fs::remove_dir_all(dir);
        prop_assert_eq!(want, got);
    }
}

#[test]
fn fleet_http_bodies_are_byte_identical_to_the_monolith() {
    let frozen = fitted_model(19);
    let (router, handles, dir) = fleet("http", &frozen, 3);

    let fleet_server = HttpServer::bind("127.0.0.1:0", Arc::new(router), ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mono_server = HttpServer::bind("127.0.0.1:0", Arc::new(frozen), ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");

    // /healthz aggregates per-shard status when the backend is a fleet.
    let (status, health) = request(fleet_server.addr(), "GET /healthz", "");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"fleet\":["), "{health}");
    assert!(health.contains("\"consecutive_failures\":0"), "{health}");

    // Byte-identical /infer.
    let doc = "support vector machines for the data streams";
    let (status_a, body_a) = request(fleet_server.addr(), "POST /infer?seed=42&iters=25", doc);
    let (status_b, body_b) = request(mono_server.addr(), "POST /infer?seed=42&iters=25", doc);
    assert_eq!((status_a, status_b), (200, 200), "{body_a} {body_b}");
    assert_eq!(
        body_a, body_b,
        "fleet and monolithic /infer bodies diverged"
    );
    assert!(body_a.contains("\"theta\""), "{body_a}");

    // Byte-identical /infer_batch (one shared gather spanning shards;
    // the endpoint takes newline-delimited documents).
    let batch = "mining frequent patterns in streams\n\
                 topic models for text\n\
                 support vector machines";
    let (status_a, body_a) = request(fleet_server.addr(), "POST /infer_batch?seed=7", batch);
    let (status_b, body_b) = request(mono_server.addr(), "POST /infer_batch?seed=7", batch);
    assert_eq!((status_a, status_b), (200, 200), "{body_a} {body_b}");
    assert_eq!(body_a, body_b, "fleet and monolithic batch bodies diverged");
    assert!(body_a.starts_with("{\"batch_size\":3"), "{body_a}");

    // /metrics exposes the per-shard fleet counters.
    let (status, metrics) = request(fleet_server.addr(), "GET /metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("topmine_fleet_rpc_seconds"),
        "missing fleet RPC histogram:\n{metrics}"
    );
    assert!(
        metrics.contains("topmine_fleet_bytes_sent_total{shard=\"0\"}"),
        "missing per-shard byte counter:\n{metrics}"
    );

    fleet_server.shutdown();
    mono_server.shutdown();
    for handle in handles {
        handle.shutdown();
    }
    let _ = std::fs::remove_dir_all(dir);
}
