//! Metrics smoke test: boot a server, drive a few requests through it,
//! then scrape `GET /metrics` and check the exposition is parseable and
//! carries the core serving series. Also pins the `/healthz` contract
//! (JSON content type, uptime, version, kernel fields, and the bundle
//! digest of a model loaded from disk).
//!
//! Everything lives in ONE `#[test]` on purpose: the obs registry is
//! process-global, so separate tests would see each other's samples.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use topmine_corpus::{corpus_from_texts, CorpusOptions};
use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::Segmenter;
use topmine_serve::{load_bundle, FrozenModel, HttpServer, ServerConfig};

fn fitted_model() -> FrozenModel {
    let texts: Vec<String> = (0..30)
        .flat_map(|i| {
            [
                format!("mining frequent patterns in data streams {i}"),
                format!("support vector machines for classification {i}"),
            ]
        })
        .collect();
    let corpus = corpus_from_texts(texts.iter().map(String::as_str));
    let (stats, seg) = Segmenter::with_params(5, 2.0).segment(&corpus);
    let grouped = GroupedDocs::from_segmentation(&corpus, &seg);
    let mut lda = PhraseLda::new(grouped, TopicModelConfig::new(2).with_seed(3));
    lda.run(30);
    FrozenModel::freeze(&corpus, &stats, 2.0, &lda, &CorpusOptions::default())
}

/// One raw HTTP/1.1 request; returns (status, head, body).
fn request(addr: std::net::SocketAddr, head: &str, body: &str) -> (u16, String, String) {
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
    let (head, payload) = response.split_once("\r\n\r\n").expect("blank line");
    (status, head.to_string(), payload.to_string())
}

/// Parse one exposition sample line into (series, value). `series` keeps
/// the label block, e.g. `topmine_http_requests_total{route="/infer",...}`.
fn parse_sample(line: &str) -> (String, f64) {
    let split_at = line
        .rfind(' ')
        .unwrap_or_else(|| panic!("no value in {line:?}"));
    let (series, value) = line.split_at(split_at);
    let value: f64 = match value.trim() {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse()
            .unwrap_or_else(|_| panic!("bad value in {line:?}")),
    };
    (series.to_string(), value)
}

/// The `"bundle"` value of a `/healthz` body: 16 lowercase hex digits.
fn bundle_field(health: &str) -> Option<&str> {
    let start = health.find("\"bundle\":\"")? + "\"bundle\":\"".len();
    let value = &health[start..start + 16];
    assert!(
        value
            .bytes()
            .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')),
        "{health}"
    );
    assert_eq!(&health[start + 16..start + 17], "\"", "{health}");
    Some(value)
}

#[test]
fn scrape_is_parseable_and_carries_core_series() {
    // Served from a saved bundle, so /healthz carries its digest.
    let dir = std::env::temp_dir().join(format!("topmine-metrics-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let model = fitted_model();
    model.save(&dir).unwrap();
    let handle = HttpServer::bind(
        "127.0.0.1:0",
        load_bundle(&dir).unwrap(),
        ServerConfig::default(),
    )
    .unwrap()
    .spawn()
    .unwrap();
    let addr = handle.addr();

    // /healthz: JSON content type plus the new payload fields.
    let (status, head, body) = request(addr, "GET /healthz", "");
    assert_eq!(status, 200, "{body}");
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: application/json"),
        "{head}"
    );
    assert!(body.contains("\"uptime_seconds\":"), "{body}");
    assert!(body.contains("\"version\":"), "{body}");
    assert!(body.contains("\"kernel_version\":"), "{body}");
    // The bundle digest is the value on the last line of manifest.tsv.
    let manifest = std::fs::read_to_string(dir.join("manifest.tsv")).unwrap();
    let sealed = manifest
        .lines()
        .last()
        .unwrap()
        .strip_prefix("digest\t")
        .unwrap();
    assert_eq!(bundle_field(&body), Some(sealed), "{body}");

    // Drive traffic through every stage: two identical /infer calls (each
    // folded in), one 404, one bad request.
    let doc = "support vector machines for data streams";
    for _ in 0..2 {
        let (status, _, body) = request(addr, "POST /infer?seed=7&iters=10", doc);
        assert_eq!(status, 200, "{body}");
    }
    assert_eq!(request(addr, "GET /nope", "").0, 404);
    assert_eq!(request(addr, "POST /infer?seed=bad", "x").0, 400);

    // Scrape.
    let (status, head, text) = request(addr, "GET /metrics", "");
    assert_eq!(status, 200, "{text}");
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "{head}"
    );

    // Every non-comment line must parse as `series value`.
    let mut samples = std::collections::HashMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = parse_sample(line);
        samples.insert(series, value);
    }
    assert!(!samples.is_empty(), "scrape produced no samples:\n{text}");

    let get = |series: &str| {
        *samples
            .get(series)
            .unwrap_or_else(|| panic!("missing series {series}:\n{text}"))
    };

    // Per-route/status counters saw exactly the traffic we sent. (The
    // /metrics request itself is counted after its response is written, so
    // this scrape can't see itself.)
    assert_eq!(
        get("topmine_http_requests_total{route=\"/infer\",status=\"200\"}"),
        2.0
    );
    assert_eq!(
        get("topmine_http_requests_total{route=\"/healthz\",status=\"200\"}"),
        1.0
    );
    assert_eq!(
        get("topmine_http_requests_total{route=\"other\",status=\"404\"}"),
        1.0
    );
    assert_eq!(
        get("topmine_http_requests_total{route=\"/infer\",status=\"400\"}"),
        1.0
    );

    // Per-stage histograms: both identical requests ran a gather and a
    // fold-in pass; no response is kept to answer the second. Parse ran for
    // every request.
    assert_eq!(
        get("topmine_request_stage_seconds_count{stage=\"fold_in\"}"),
        2.0
    );
    assert_eq!(
        get("topmine_request_stage_seconds_count{stage=\"phi_gather\"}"),
        2.0
    );
    let mut stages: Vec<&str> = samples
        .keys()
        .filter_map(|k| {
            k.strip_prefix("topmine_request_stage_seconds_count{stage=\"")?
                .strip_suffix("\"}")
        })
        .collect();
    stages.sort_unstable();
    assert_eq!(stages, ["fold_in", "parse", "phi_gather", "serialize"]);
    // Parse for this scrape itself is already recorded (it happens before
    // route dispatch); its serialize span lands after the body renders.
    assert!(get("topmine_request_stage_seconds_count{stage=\"parse\"}") >= 6.0);
    assert!(get("topmine_request_stage_seconds_count{stage=\"serialize\"}") >= 5.0);
    assert!(get("topmine_request_stage_seconds_sum{stage=\"parse\"}") > 0.0);

    // Route latency histograms and the cumulative-bucket invariant: counts
    // along increasing `le` must be monotone and end at `_count`.
    assert_eq!(
        get("topmine_http_request_seconds_count{route=\"/infer\"}"),
        3.0
    );
    let infer_total = get("topmine_http_request_seconds_count{route=\"/infer\"}");
    let mut last = 0.0;
    let mut saw_inf = false;
    for line in text.lines() {
        if let Some(rest) =
            line.strip_prefix("topmine_http_request_seconds_bucket{route=\"/infer\",le=\"")
        {
            let (_, value) = parse_sample(rest);
            assert!(value >= last, "buckets must be cumulative:\n{text}");
            last = value;
            saw_inf |= rest.starts_with("+Inf");
        }
    }
    assert!(saw_inf, "missing +Inf bucket:\n{text}");
    assert_eq!(last, infer_total, "+Inf bucket must equal _count");

    // Inference counters and scrape-time gauges.
    assert_eq!(get("topmine_infer_documents_total"), 2.0);
    assert!(get("topmine_phi_gather_columns_total") >= 1.0);
    assert!(!text.contains("topmine_cache"), "{text}");
    assert!(get("topmine_uptime_seconds") >= 0.0);

    // A second scrape sees the first one counted.
    let (_, _, text2) = request(addr, "GET /metrics", "");
    let count: f64 = text2
        .lines()
        .find_map(|l| {
            l.strip_prefix("topmine_http_requests_total{route=\"/metrics\",status=\"200\"}")
                .map(|v| v.trim().parse().unwrap())
        })
        .expect("metrics route counter");
    assert_eq!(count, 1.0);
    handle.shutdown();

    // A model that was never saved has no bundle digest to report.
    let handle = HttpServer::bind("127.0.0.1:0", Arc::new(model), ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let (status, _, body) = request(handle.addr(), "GET /healthz", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(bundle_field(&body), None, "{body}");
    assert!(!body.contains("\"bundle\""), "{body}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
