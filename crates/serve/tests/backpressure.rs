//! Admission-control end-to-end: saturate the bounded queue behind a
//! dispatcher that is deliberately stuck inside inference, and check the
//! whole contract at once — overflow answers `429` + `Retry-After`, the
//! cheap read routes stay responsive while saturated, the queue-depth
//! gauge and rejection counters tell the truth, and draining the gate
//! recovers to normal service.
//!
//! This lives in its own integration-test binary (one `#[test]`) because
//! it asserts exact values of the process-global serving metrics, like
//! `metrics_smoke` does.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use topmine_corpus::{corpus_from_texts, CorpusOptions};
use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::Segmenter;
use topmine_serve::{
    BackendError, FrozenModel, GatherOptions, HttpServer, ModelBackend, ServerConfig,
};

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
    let (headers, payload) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    (status, headers, payload)
}

/// A backend whose φ gathers block until the gate opens; an arrivals
/// counter lets the test wait until the dispatcher is provably stuck.
struct GatedBackend {
    inner: Arc<FrozenModel>,
    state: Mutex<(usize, bool)>, // (arrivals, open)
    cv: Condvar,
}

impl GatedBackend {
    fn new(inner: Arc<FrozenModel>) -> Self {
        Self {
            inner,
            state: Mutex::new((0, false)),
            cv: Condvar::new(),
        }
    }

    fn arrive_and_wait(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 += 1;
        self.cv.notify_all();
        while !state.1 {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn wait_arrivals(&self, n: usize) {
        let mut state = self.state.lock().unwrap();
        while state.0 < n {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn open(&self) {
        let mut state = self.state.lock().unwrap();
        state.1 = true;
        self.cv.notify_all();
    }
}

impl ModelBackend for GatedBackend {
    fn local(&self) -> &FrozenModel {
        &self.inner
    }
    fn try_gather_phi_batch(
        &self,
        words: &[u32],
        opts: &GatherOptions,
    ) -> Result<Vec<f64>, BackendError> {
        self.arrive_and_wait();
        self.inner.try_gather_phi_batch(words, opts)
    }
}

#[test]
fn saturated_queue_rejects_then_recovers() {
    let backend = Arc::new(GatedBackend::new(Arc::new(fitted_model())));
    // Every request below sends a document no earlier one sent, so none is
    // a cache hit: each must reach the gated gather.
    const QUEUE_DEPTH: usize = 2;
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&backend) as Arc<dyn ModelBackend>,
        ServerConfig {
            n_threads: 1,
            queue_depth: QUEUE_DEPTH,
            max_batch: 1,
            deadline: None,
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = server.addr();

    // Occupy the one dispatcher: this request is popped from the queue and
    // blocks inside the gated gather.
    let blocker =
        std::thread::spawn(move || request(addr, "POST /infer", "support vector machines"));
    backend.wait_arrivals(1);

    // Now fire queue_depth + 1 concurrent requests. The queue holds
    // exactly QUEUE_DEPTH of them; exactly one must be turned away with
    // 429 — whichever loses the race, the accounting is the same.
    let contenders: Vec<_> = (0..QUEUE_DEPTH + 1)
        .map(|i| {
            std::thread::spawn(move || {
                request(
                    addr,
                    "POST /infer",
                    &format!("mining frequent patterns number {i}"),
                )
            })
        })
        .collect();

    // The rejection is immediate (it never enters the queue); wait for it
    // by polling the rejection counter rather than racing the threads.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let (status, _, metrics) = request(addr, "GET /metrics", "");
        assert_eq!(status, 200, "metrics must respond under saturation");
        if metrics.contains("topmine_requests_rejected_total 1") {
            // Saturation snapshot: full queue, one rejection, live gauges.
            assert!(
                metrics.contains("topmine_admission_queue_depth 2"),
                "queue gauge should read {QUEUE_DEPTH} while saturated:\n{metrics}"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no rejection observed:\n{metrics}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // The cheap read routes stay responsive while the queue is saturated.
    let (status, _, health) = request(addr, "GET /healthz", "");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    // Open the gate: everything queued drains to 200.
    backend.open();
    let (status, _, body) = blocker.join().unwrap();
    assert_eq!(status, 200, "{body}");
    let mut statuses: Vec<u16> = contenders
        .into_iter()
        .map(|t| {
            let (status, headers, body) = t.join().unwrap();
            if status == 429 {
                assert!(
                    headers.contains("Retry-After: 1"),
                    "429 must carry Retry-After:\n{headers}"
                );
                assert!(body.contains("admission queue full"), "{body}");
            }
            status
        })
        .collect();
    statuses.sort_unstable();
    assert_eq!(statuses, vec![200, 200, 429], "exactly one rejection");

    // Recovery: with the gate open, fresh requests flow normally again.
    let (status, _, body) = request(addr, "POST /infer", "support vector machines again");
    assert_eq!(status, 200, "{body}");
    let (_, _, metrics) = request(addr, "GET /metrics", "");
    assert!(
        metrics.contains("topmine_admission_queue_depth 0"),
        "queue drains back to empty:\n{metrics}"
    );
    assert!(
        metrics.contains("topmine_requests_rejected_total 1"),
        "{metrics}"
    );
    // The batching telemetry observed the dispatches.
    assert!(metrics.contains("topmine_dispatch_batch_docs"), "{metrics}");
    assert!(
        metrics.contains("topmine_batch_phi_columns_gathered_total"),
        "{metrics}"
    );

    server.shutdown();
}
