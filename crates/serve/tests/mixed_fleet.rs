//! Fleet provenance: a router refuses shards of a different fit, and its
//! `/healthz` reports the bundle digest its shards advertise.
//!
//! Two fits of one corpus that differ only in the Gibbs seed, at 20
//! sweeps, share every manifest pair: shapes, α and β (no hyperparameter
//! is optimized that early; the CLI's first optimization is at sweep 25),
//! the preprocessing contract and the shard ranges. Only their φ blocks
//! differ, so only a digest over the bundle's files can tell them apart.

mod fleet_common;

use fleet_common::{fast_pool, fitted_model_with, request, save_sharded, spawn_fleet};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use topmine_serve::wire::{self, Opcode};
use topmine_serve::{HttpServer, RemoteShardedModel, ServerConfig};

/// The manifest's `key<TAB>value` pairs, without the file digests and the
/// digest line.
fn manifest_pairs(dir: &Path) -> Vec<String> {
    std::fs::read_to_string(dir.join("manifest.tsv"))
        .unwrap()
        .lines()
        .filter(|l| !l.starts_with("file\t") && !l.starts_with("digest\t"))
        .map(str::to_string)
        .collect()
}

/// The digest a shard advertises in its handshake `Meta` frame.
fn advertised_digest(addr: &str) -> u64 {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    wire::write_frame(&mut writer, 1, Opcode::Hello, &[&wire::encode_hello()]).unwrap();
    let frame = wire::read_frame(&mut reader).unwrap();
    assert_eq!(frame.opcode, Opcode::Meta);
    wire::decode_meta(&frame.payload).unwrap().digest
}

#[test]
fn shards_of_fits_that_differ_only_in_seed_are_refused() {
    let (a, b) = (fitted_model_with(1, 20), fitted_model_with(2, 20));
    assert_ne!(a.phi, b.phi, "the seeds must give different fits");
    let dir_a = save_sharded("mixed-a", &a, 2);
    let dir_b = save_sharded("mixed-b", &b, 2);
    assert_eq!(manifest_pairs(&dir_a), manifest_pairs(&dir_b));
    assert_ne!(
        wire::manifest_digest(&dir_a).unwrap(),
        wire::manifest_digest(&dir_b).unwrap()
    );

    let (handles_a, addrs_a) = spawn_fleet(&dir_a, 2);
    let (handles_b, addrs_b) = spawn_fleet(&dir_b, 2);
    // Shard 0 of fit A and shard 1 of fit B behind A's bundle.
    let mixed = [addrs_a[0].clone(), addrs_b[1].clone()];
    let err = match RemoteShardedModel::connect(&dir_a, &mixed, fast_pool()) {
        Ok(_) => panic!("a router accepted shard 1 of another fit"),
        Err(e) => e.to_string(),
    };
    assert!(err.contains("digest mismatch"), "{err}");
    assert!(err.contains("fleet shard 1 "), "{err}");
    // Each fit's own fleet is accepted.
    for (dir, addrs) in [(&dir_a, &addrs_a), (&dir_b, &addrs_b)] {
        RemoteShardedModel::connect(dir, addrs, fast_pool()).expect("matching fleet");
    }

    for h in handles_a.into_iter().chain(handles_b) {
        h.shutdown();
    }
    let _ = std::fs::remove_dir_all(dir_a);
    let _ = std::fs::remove_dir_all(dir_b);
}

#[test]
fn router_healthz_reports_the_digest_its_shards_advertise() {
    let dir = save_sharded("provenance", &fitted_model_with(5, 20), 2);
    let (handles, addrs) = spawn_fleet(&dir, 2);
    let router = RemoteShardedModel::connect(&dir, &addrs, fast_pool()).expect("connect");
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(router), ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");

    let (status, health) = request(server.addr(), "GET /healthz", "");
    assert_eq!(status, 200, "{health}");
    let digest = wire::manifest_digest(&dir).unwrap();
    assert!(
        health.contains(&format!("\"bundle\":\"{digest:016x}\"")),
        "{health}"
    );
    for addr in &addrs {
        assert_eq!(advertised_digest(addr), digest, "shard at {addr}");
    }

    server.shutdown();
    for h in handles {
        h.shutdown();
    }
    let _ = std::fs::remove_dir_all(dir);
}
