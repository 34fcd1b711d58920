//! Fleet serving with **real processes**: fit once, save the bundle with
//! one and with three shards, spawn one `topmine serve-shard` process per
//! shard plus a `topmine serve --fleet` router, and byte-compare `/infer`
//! and `/infer_batch` responses against an in-process server. This is the
//! fleet's acceptance test at the outermost boundary — separate address
//! spaces, loopback TCP, the shipped binary.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

const CORPUS: &str = "\
mining frequent patterns without candidate generation
frequent pattern mining current status and future directions
fast algorithms for mining association rules in large databases
mining frequent patterns in data streams
frequent pattern mining with constraints
a survey of frequent pattern mining
information retrieval with query expansion
query expansion for information retrieval systems
evaluating information retrieval and query expansion models
latent semantic indexing for information retrieval
query expansion using lexical semantic relations
a study of information retrieval evaluation measures
";

fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("topmine_fleet_proc_{name}_{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_topmine"))
}

/// Kills the child on drop so a failing assertion can't leak processes.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Read lines from `reader` until one starts with `listening on `; returns
/// the announced address. The reader is then handed to a drain thread:
/// dropping the pipe's read end would make the child's next log line fail
/// with `EPIPE` and kill it.
fn await_listening(mut reader: impl BufRead + Send + 'static, who: &str) -> String {
    let addr = loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "{who} exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("address after prefix")
                .to_string();
        }
    };
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut reader, &mut std::io::sink());
    });
    addr
}

/// Spawn `topmine serve-shard` on an ephemeral port; parse the bound
/// address from stdout.
fn spawn_shard(bundle: &std::path::Path, shard: usize) -> (Reaped, String) {
    let mut child = bin()
        .args([
            "serve-shard",
            "--model",
            bundle.to_str().unwrap(),
            "--shard",
            &shard.to_string(),
            "--port",
            "0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let addr = await_listening(stdout, &format!("shard {shard}"));
    (Reaped(child), addr)
}

/// Spawn `topmine serve` (optionally fleet-routed); parse the bound
/// address from stderr.
fn spawn_server(bundle: &std::path::Path, fleet: Option<&str>) -> (Reaped, String) {
    let mut cmd = bin();
    cmd.args([
        "serve",
        "--model",
        bundle.to_str().unwrap(),
        "--port",
        "0",
        "--threads",
        "2",
    ]);
    if let Some(addrs) = fleet {
        cmd.args(["--fleet", addrs]);
    }
    let mut child = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = await_listening(stderr, "server");
    (Reaped(child), addr)
}

/// One raw HTTP/1.1 request; returns (status, body).
fn request(addr: &str, head: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{head} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
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
fn three_process_fleet_matches_the_monolith_byte_for_byte() {
    let dir = scratch_dir("e2e");
    let input = dir.join("corpus.txt");
    std::fs::write(&input, CORPUS).unwrap();
    let mono = dir.join("mono");
    let sharded = dir.join("sharded");

    // Two identical fits (same flags, same seed — the fit is deterministic
    // and the shard count only changes how the bundle is cut), saved with
    // the default single shard and with three.
    for (bundle, shards) in [(&mono, None), (&sharded, Some("3"))] {
        let mut cmd = bin();
        cmd.args([
            "--input",
            input.to_str().unwrap(),
            "--topics",
            "2",
            "--iterations",
            "30",
            "--min-support",
            "3",
            "--seed",
            "7",
            "--save-model",
            bundle.to_str().unwrap(),
        ]);
        if let Some(n) = shards {
            cmd.args(["--shards", n]);
        }
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "fit failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert!(sharded.join("manifest.tsv").is_file());
    for k in 0..3 {
        assert!(sharded.join(format!("shard-{k}")).join("phi.bin").is_file());
    }

    // Three real shard processes on ephemeral loopback ports.
    let fleet: Vec<(Reaped, String)> = (0..3).map(|k| spawn_shard(&sharded, k)).collect();
    let fleet_addrs = fleet
        .iter()
        .map(|(_, a)| a.clone())
        .collect::<Vec<_>>()
        .join(",");

    // Router over the fleet, monolith in-process.
    let (_router, router_addr) = spawn_server(&sharded, Some(&fleet_addrs));
    let (_mono, mono_addr) = spawn_server(&mono, None);

    // /infer byte-identical.
    let doc = "frequent pattern mining for data streams and query expansion";
    let (rs, rb) = request(&router_addr, "POST /infer?seed=5&iters=25", doc);
    let (ms, mb) = request(&mono_addr, "POST /infer?seed=5&iters=25", doc);
    assert_eq!((rs, ms), (200, 200), "router: {rb}\nmono: {mb}");
    assert_eq!(rb, mb, "fleet /infer diverged from the monolith");
    assert!(rb.contains("\"theta\""), "{rb}");

    // /infer_batch byte-identical (newline-delimited documents).
    let batch = "mining frequent patterns\nquery expansion for retrieval\nlatent semantic indexing";
    let (rs, rb) = request(&router_addr, "POST /infer_batch?seed=11&iters=20", batch);
    let (ms, mb) = request(&mono_addr, "POST /infer_batch?seed=11&iters=20", batch);
    assert_eq!((rs, ms), (200, 200), "router: {rb}\nmono: {mb}");
    assert_eq!(rb, mb, "fleet /infer_batch diverged from the monolith");
    assert!(rb.starts_with("{\"batch_size\":3"), "{rb}");

    // The router's /healthz aggregates all three shards; /metrics carries
    // the per-shard fleet counters.
    let (status, health) = request(&router_addr, "GET /healthz", "");
    assert_eq!(status, 200);
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"fleet\":["), "{health}");
    assert!(health.contains("\"shard\":2"), "{health}");
    let (status, metrics) = request(&router_addr, "GET /metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("topmine_fleet_rpc_seconds"),
        "missing fleet histogram:\n{metrics}"
    );
    assert!(
        metrics.contains("topmine_fleet_bytes_sent_total"),
        "missing fleet byte counters:\n{metrics}"
    );

    drop(fleet);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_fleet_with_dead_shards_fails_fast_at_startup() {
    let dir = scratch_dir("dead");
    let input = dir.join("corpus.txt");
    std::fs::write(&input, CORPUS).unwrap();
    let sharded = dir.join("sharded");
    let out = bin()
        .args([
            "--input",
            input.to_str().unwrap(),
            "--topics",
            "2",
            "--iterations",
            "20",
            "--min-support",
            "3",
            "--save-model",
            sharded.to_str().unwrap(),
            "--shards",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Nothing listens on these ports: the router must refuse to start,
    // with a clean error (not a panic, not a hang).
    let out = bin()
        .args([
            "serve",
            "--model",
            sharded.to_str().unwrap(),
            "--fleet",
            "127.0.0.1:1,127.0.0.1:2",
            "--port",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_shard_rejects_out_of_range_and_monolithic_bundles() {
    let dir = scratch_dir("badshard");
    let input = dir.join("corpus.txt");
    std::fs::write(&input, CORPUS).unwrap();
    let sharded = dir.join("sharded");
    let out = bin()
        .args([
            "--input",
            input.to_str().unwrap(),
            "--topics",
            "2",
            "--iterations",
            "20",
            "--min-support",
            "3",
            "--save-model",
            sharded.to_str().unwrap(),
            "--shards",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = bin()
        .args([
            "serve-shard",
            "--model",
            sharded.to_str().unwrap(),
            "--shard",
            "9",
            "--port",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("out of range"), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A fit saved with a plain `--save-model` into `dir/bundle`.
fn default_save(dir: &std::path::Path) -> PathBuf {
    let input = dir.join("corpus.txt");
    std::fs::write(&input, CORPUS).unwrap();
    let bundle = dir.join("bundle");
    let out = bin()
        .args([
            "--input",
            input.to_str().unwrap(),
            "--topics",
            "2",
            "--iterations",
            "30",
            "--min-support",
            "3",
            "--seed",
            "7",
            "--save-model",
            bundle.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "fit failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    bundle
}

#[test]
fn one_serve_shard_hosts_a_default_save() {
    let dir = scratch_dir("default");
    let bundle = default_save(&dir);
    assert!(bundle.join("manifest.tsv").is_file());
    assert!(bundle.join("shard-0").join("phi.bin").is_file());

    let (_shard, shard_addr) = spawn_shard(&bundle, 0);
    let (_router, router_addr) = spawn_server(&bundle, Some(&shard_addr));
    let (_local, local_addr) = spawn_server(&bundle, None);
    let doc = "frequent pattern mining for data streams and query expansion";
    let (rs, rb) = request(&router_addr, "POST /infer?seed=5&iters=25", doc);
    let (ls, lb) = request(&local_addr, "POST /infer?seed=5&iters=25", doc);
    assert_eq!((rs, ls), (200, 200), "router: {rb}\nin-process: {lb}");
    assert_eq!(
        rb, lb,
        "one-shard fleet /infer diverged from in-process serve"
    );
    let batch = "mining frequent patterns\nquery expansion for retrieval\nlatent semantic indexing";
    let (rs, rb) = request(&router_addr, "POST /infer_batch?seed=11&iters=20", batch);
    let (ls, lb) = request(&local_addr, "POST /infer_batch?seed=11&iters=20", batch);
    assert_eq!((rs, ls), (200, 200), "router: {rb}\nin-process: {lb}");
    assert_eq!(
        rb, lb,
        "one-shard fleet /infer_batch diverged from in-process serve"
    );
    assert!(rb.starts_with("{\"batch_size\":3"), "{rb}");

    // The bundle has one shard, so there is no shard 1 to host.
    let out = bin()
        .args([
            "serve-shard",
            "--model",
            bundle.to_str().unwrap(),
            "--shard",
            "1",
            "--port",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("out of range 0..1"), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_retired_header_tsv_bundle_is_refused_naming_the_manifest() {
    let dir = scratch_dir("retired");
    let bundle = default_save(&dir);
    // The retired monolithic layout: the same tables at the top level,
    // fronted by `header.tsv` instead of `manifest.tsv` over `shard-0/`.
    let retired = dir.join("retired");
    std::fs::create_dir_all(&retired).unwrap();
    for file in ["vocab.tsv", "unstem.tsv", "lexicon.tsv", "phi.bin"] {
        std::fs::copy(bundle.join("shard-0").join(file), retired.join(file)).unwrap();
    }
    std::fs::copy(bundle.join("stopwords.txt"), retired.join("stopwords.txt")).unwrap();
    let manifest = std::fs::read_to_string(bundle.join("manifest.tsv")).unwrap();
    let header: String = manifest
        .replace("topmine-sharded-model/2", "topmine-frozen-model/2")
        .replace("shard-0/", "")
        .lines()
        .filter(|line| !line.starts_with("n_shards\t") && !line.starts_with("shard0_start\t"))
        .map(|line| format!("{line}\n"))
        .collect();
    std::fs::write(retired.join("header.tsv"), header).unwrap();

    let unseen = dir.join("unseen.txt");
    std::fs::write(&unseen, "frequent pattern mining for streams\n").unwrap();
    let out = bin()
        .args([
            "infer",
            "--model",
            retired.to_str().unwrap(),
            "--input",
            unseen.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("manifest.tsv"), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
