//! The acceptance bar for batched serving: `/infer_batch` (and the
//! dispatcher's coalescing of queued `/infer` requests) must be
//! **bit-identical** to running each document through a sequential
//! `/infer` with the same per-index seeds — the shared φ gather is an
//! implementation detail, never an observable one. Plus the admission
//! pipeline's contract: the deadline path (`504`), and a shutdown that
//! drains in-flight requests while closing idle connections at once.

use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use topmine_corpus::{corpus_from_texts, CorpusOptions};
use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::Segmenter;
use topmine_serve::{
    batch_inference_json, http::KEEP_ALIVE_IDLE, infer_doc, infer_docs_amortized, inference_json,
    BackendError, BatchItem, FrozenModel, HttpServer, InferConfig, ModelBackend, ServerConfig,
    ShardedModel,
};

fn fitted_model() -> &'static FrozenModel {
    static MODEL: OnceLock<FrozenModel> = OnceLock::new();
    MODEL.get_or_init(|| {
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
        let mut lda = PhraseLda::new(grouped, TopicModelConfig::new(3).with_seed(13));
        lda.run(30);
        FrozenModel::freeze(&corpus, &stats, 2.0, &lda, &CorpusOptions::default())
    })
}

/// Shard counts the batch tests serve bundles at.
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// [`fitted_model`] saved as a bundle of each of [`SHARD_COUNTS`] shards
/// and loaded back.
fn reloaded() -> &'static [FrozenModel] {
    static MODELS: OnceLock<Vec<FrozenModel>> = OnceLock::new();
    MODELS.get_or_init(|| {
        SHARD_COUNTS
            .iter()
            .map(|&n| {
                let dir = std::env::temp_dir()
                    .join(format!("topmine-batch-serving-{n}-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                ShardedModel::from_frozen(fitted_model(), n)
                    .unwrap()
                    .save(&dir)
                    .unwrap();
                let model = FrozenModel::load(&dir).unwrap();
                let _ = std::fs::remove_dir_all(&dir);
                model
            })
            .collect()
    })
}

const DOC_POOL: &[&str] = &[
    "support vector machines in the data streams",
    "a study of mining frequent patterns",
    "topic models, support vector machines",
    "completely unknown querywords here",
    "",
    "frequent patterns of topic models for classification",
];

/// One raw HTTP/1.1 request; returns (status, body).
fn request(addr: std::net::SocketAddr, head: &str, body: &str) -> (u16, String) {
    let (status, _headers, body) = request_full(addr, head, body);
    (status, body)
}

/// Like [`request`] but also returns the raw response head (for header
/// assertions).
fn request_full(addr: std::net::SocketAddr, head: &str, body: &str) -> (u16, String, String) {
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

// ----- bit-identity: batched ≡ sequential ----------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any (shard count, batch composition, seed, iters): the amortized
    /// batch path returns exactly what N sequential single-document
    /// inferences with per-index seeds return — at every batch size and
    /// every shard count.
    #[test]
    fn amortized_batch_equals_sequential_inference(
        shard_idx in 0usize..4,
        doc_idx in proptest::collection::vec(0usize..6, 0..6),
        seed in 0u64..1_000_000,
        fold_iters in 1usize..30,
    ) {
        let sharded = &reloaded()[shard_idx];
        prop_assert_eq!(sharded.n_shards(), SHARD_COUNTS[shard_idx]);
        let cfg = InferConfig { fold_iters, seed, top_topics: 3 };
        let docs: Vec<&str> = doc_idx.iter().map(|&i| DOC_POOL[i]).collect();
        let items: Vec<BatchItem> = docs
            .iter()
            .enumerate()
            .map(|(i, doc)| BatchItem {
                text: doc.to_string(),
                config: cfg.clone(),
                seed: cfg.seed_for_index(i),
            })
            .collect();
        let batched = infer_docs_amortized(sharded, &items);
        prop_assert_eq!(batched.len(), docs.len());
        for (i, doc) in docs.iter().enumerate() {
            let alone = infer_doc(sharded, doc, &cfg, cfg.seed_for_index(i));
            prop_assert_eq!(&batched[i], &alone);
        }
    }
}

// ----- HTTP: /infer_batch ≡ N sequential /infer ----------------------------

#[test]
fn infer_batch_endpoint_is_byte_identical_to_sequential_infers() {
    let backend = Arc::new(reloaded()[2].clone());
    let server = HttpServer::bind("127.0.0.1:0", backend.clone(), ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");

    let docs = [
        "support vector machines in the data streams",
        "a study of mining frequent patterns",
        "completely unknown querywords here",
        "topic models for the frequent patterns",
    ];
    let cfg = InferConfig {
        fold_iters: 25,
        seed: 42,
        top_topics: 3,
    };
    let body = docs.join("\n");
    let (status, batch_body) = request(
        server.addr(),
        "POST /infer_batch?seed=42&iters=25&top=3",
        &body,
    );
    assert_eq!(status, 200, "{batch_body}");

    // Byte-exact against per-document fold-in with per-index seeds.
    let expected: Vec<_> = docs
        .iter()
        .enumerate()
        .map(|(i, doc)| infer_doc(backend.as_ref(), doc, &cfg, cfg.seed_for_index(i)))
        .collect();
    assert_eq!(batch_body, batch_inference_json(&expected));

    // And each entry equals a standalone `/infer` pinned to that index's
    // seed — the batch wrapper is pure packaging.
    for (i, doc) in docs.iter().enumerate() {
        let (status, single) = request(
            server.addr(),
            &format!("POST /infer?seed={}&iters=25&top=3", cfg.seed_for_index(i)),
            doc,
        );
        assert_eq!(status, 200, "{single}");
        assert_eq!(single, inference_json(&expected[i]));
        assert!(batch_body.contains(&single), "entry {i} not embedded");
    }

    // Malformed batches are refused before admission.
    let (status, err) = request(server.addr(), "POST /infer_batch", "\n  \n");
    assert_eq!(status, 400, "{err}");
    assert!(err.contains("empty batch"), "{err}");

    server.shutdown();
}

// ----- deadline expiry: 504 before dispatch --------------------------------

/// A backend whose φ gathers block until the test opens a gate, with an
/// arrivals counter so tests can wait until a dispatcher is provably
/// stuck inside inference.
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

    /// Block until `n` gathers have arrived at the (closed) gate.
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
        deadline: Option<std::time::Instant>,
    ) -> Result<Vec<f64>, BackendError> {
        self.arrive_and_wait();
        self.inner.try_gather_phi_batch(words, deadline)
    }
}

#[test]
fn requests_queued_past_their_deadline_get_504() {
    let backend = Arc::new(GatedBackend::new(Arc::new(fitted_model().clone())));
    // One dispatcher and max_batch=1: the second request cannot coalesce
    // with the first; it sits queued while the first blocks on the gate.
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&backend) as Arc<dyn ModelBackend>,
        ServerConfig {
            n_threads: 1,
            max_batch: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = server.addr();

    let blocker =
        std::thread::spawn(move || request(addr, "POST /infer", "support vector machines"));
    // The dispatcher is now provably inside the gated gather, so the next
    // request can only wait in the admission queue.
    backend.wait_arrivals(1);
    let doomed = std::thread::spawn(move || {
        request(
            addr,
            "POST /infer?deadline_ms=50",
            "mining frequent patterns",
        )
    });
    std::thread::sleep(std::time::Duration::from_millis(150));
    backend.open();

    let (status, body) = blocker.join().unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = doomed.join().unwrap();
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("deadline expired"), "{body}");

    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests_and_closes_idle_connections() {
    let backend = Arc::new(GatedBackend::new(Arc::new(fitted_model().clone())));
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&backend) as Arc<dyn ModelBackend>,
        ServerConfig {
            n_threads: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = server.addr();

    // An idle keep-alive connection: one request served, then nothing.
    let mut idle = TcpStream::connect(addr).expect("connect");
    idle.write_all(b"GET /model HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        idle.read_exact(&mut byte).expect("response head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).unwrap();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("Connection: keep-alive"), "{head}");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("content-length")
        .parse()
        .unwrap();
    idle.read_exact(&mut vec![0u8; length])
        .expect("response body");

    // A request in flight, held inside the gated gather.
    let in_flight =
        std::thread::spawn(move || request(addr, "POST /infer", "support vector machines"));
    backend.wait_arrivals(1);

    let started = std::time::Instant::now();
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        std::time::Instant::now()
    });
    // The idle connection ends at once, not after the keep-alive limit.
    idle.set_read_timeout(Some(KEEP_ALIVE_IDLE * 2)).unwrap();
    let mut rest = Vec::new();
    idle.read_to_end(&mut rest)
        .expect("EOF on the idle connection");
    assert!(rest.is_empty(), "{rest:?}");
    let idle_closed = started.elapsed();
    assert!(
        idle_closed < KEEP_ALIVE_IDLE / 2,
        "idle connection closed after {idle_closed:?}"
    );

    // The drain waits for the in-flight request, which is answered.
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert!(
        !shutdown.is_finished(),
        "shutdown returned with a request in flight"
    );
    let opened = std::time::Instant::now();
    backend.open();
    let (status, body) = in_flight.join().unwrap();
    assert_eq!(status, 200, "{body}");
    let returned = shutdown.join().unwrap();
    assert!(
        returned >= opened,
        "shutdown returned before the gate opened"
    );
}
