//! HTTP framing at the byte level: where a request ends must not depend
//! on how its bytes arrive, hostile bytes must end in an error or a close
//! (never a stall), and a request whose framing this server does not speak
//! (`Transfer-Encoding`) gets exactly one `501` and a close.

use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use topmine_corpus::{corpus_from_texts, CorpusOptions};
use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::Segmenter;
use topmine_serve::{FrozenModel, HttpServer, ServerConfig, ServerHandle};

/// Pause after each written piece, so the server's reads see the cuts.
const PAUSE: Duration = Duration::from_millis(2);
/// How long any exchange here may take before it counts as a stall.
const BOUND: Duration = Duration::from_secs(3);

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

/// One server for the whole binary; it lives until the process exits.
fn addr() -> SocketAddr {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            HttpServer::bind(
                "127.0.0.1:0",
                Arc::new(fitted_model()),
                ServerConfig::default(),
            )
            .expect("bind")
            .spawn()
            .expect("spawn")
        })
        .addr()
}

/// Write `bytes` cut at the (sorted) positions `cuts`, pausing after each
/// piece; half-close if asked; then read to EOF.
fn exchange(bytes: &[u8], cuts: &[usize], half_close: bool) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr())?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(BOUND))?;
    let mut start = 0;
    for &end in cuts.iter().chain([&bytes.len()]) {
        // The server may already have answered and stopped reading.
        let _ = stream.write_all(&bytes[start..end]);
        let _ = stream.flush();
        std::thread::sleep(PAUSE);
        start = end;
    }
    if half_close {
        stream.shutdown(Shutdown::Write)?;
    }
    let mut out = Vec::new();
    stream.read_to_end(&mut out)?;
    Ok(out)
}

/// The status of each response in `bytes`, which must hold nothing but
/// whole responses framed by Content-Length.
fn statuses(mut bytes: &[u8]) -> Vec<u16> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let head_end = bytes
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .unwrap_or_else(|| panic!("no response head in {bytes:?}"))
            + 4;
        let head = std::str::from_utf8(&bytes[..head_end]).expect("utf-8 head");
        let status = head
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .unwrap_or_else(|| panic!("no status line in {head:?}"));
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no content-length in {head:?}"));
        out.push(status);
        bytes = &bytes[head_end + length..];
    }
    out
}

/// A keep-alive, pipelined request sequence whose last request closes.
/// Line `i` ends in `\r\n` when `crlf[i % crlf.len()]`, else in a bare
/// `\n`. `/healthz` and `/metrics` stay out: their bodies change over time.
fn sequence(crlf: &[bool]) -> Vec<u8> {
    let doc = "support vector machines for the data streams";
    let batch = "support vector machines\nmining frequent patterns\n";
    let requests: [(&str, &str, &str); 7] = [
        ("GET /model", "", ""),
        ("POST /infer?seed=42&iters=25", doc, ""),
        ("POST /infer_batch?seed=42&iters=25", batch, ""),
        ("GET /nowhere", "", ""),
        ("GET /infer", "", ""),
        ("POST /infer?bogus=1", doc, ""),
        ("POST /infer?seed=7&iters=10", doc, "Connection: close"),
    ];
    let mut ends = crlf.iter().cycle();
    let mut out = String::new();
    for (request_line, body, extra) in requests {
        let mut head = vec![format!("{request_line} HTTP/1.1"), "Host: x".to_string()];
        if !body.is_empty() {
            head.push(format!("Content-Length: {}", body.len()));
        }
        if !extra.is_empty() {
            head.push(extra.to_string());
        }
        head.push(String::new()); // the blank line ending the head
        for line in head {
            out.push_str(&line);
            out.push_str(if *ends.next().unwrap() { "\r\n" } else { "\n" });
        }
        out.push_str(body);
    }
    out.into_bytes()
}

/// The responses to the unsplit, all-`\r\n` sequence.
fn reference() -> &'static [u8] {
    static REFERENCE: OnceLock<Vec<u8>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let out = exchange(&sequence(&[true]), &[], false).expect("reference exchange");
        assert_eq!(statuses(&out), vec![200, 200, 200, 404, 405, 400, 200]);
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn responses_do_not_depend_on_where_the_bytes_are_cut(
        crlf in prop::collection::vec(0u8..2, 1..8),
        cuts in prop::collection::vec(0usize..1_000_000, 1..12),
    ) {
        let crlf: Vec<bool> = crlf.iter().map(|&b| b == 1).collect();
        let bytes = sequence(&crlf);
        let mut cuts: Vec<usize> = cuts.iter().map(|c| 1 + c % (bytes.len() - 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let got = exchange(&bytes, &cuts, false).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(
            got == reference(),
            "cut at {:?}:\n{}",
            cuts,
            String::from_utf8_lossy(&got)
        );
    }

    #[test]
    fn garbage_ends_in_an_error_status_or_a_close(
        garbage in prop::collection::vec(0u8..=255, 1..512),
        cuts in prop::collection::vec(0usize..1_000_000, 0..4),
    ) {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % garbage.len()).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let started = Instant::now();
        let got = exchange(&garbage, &cuts, true).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(started.elapsed() < BOUND, "took {:?}", started.elapsed());
        let codes = statuses(&got);
        prop_assert!(codes.iter().all(|&s| s >= 400), "{:?} for {:?}", codes, garbage);
        // The server still answers a valid request.
        let ok = exchange(b"GET /model HTTP/1.1\r\nConnection: close\r\n\r\n", &[], false)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(statuses(&ok), vec![200]);
    }
}

#[test]
fn transfer_encoding_is_answered_with_one_501_then_eof() {
    // With and without a Content-Length beside it. Framing the chunks by
    // Content-Length (or as an empty body) would read them as a second
    // request.
    for head in [
        "POST /infer HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n",
        "POST /infer HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\ntransfer-encoding: chunked\r\n\r\n",
        "POST /infer HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nContent-Length: 12\r\n\r\n",
    ] {
        let request = format!("{head}7\r\nsupport\r\n0\r\n\r\n");
        let got = exchange(request.as_bytes(), &[], false).expect("one response, then EOF");
        assert_eq!(statuses(&got), vec![501], "{}", String::from_utf8_lossy(&got));
        let text = String::from_utf8(got).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 501 Not Implemented\r\n"),
            "{text}"
        );
        assert!(text.contains("Connection: close\r\n"), "{text}");
    }
}
