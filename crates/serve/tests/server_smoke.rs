//! Server smoke test: bind an ephemeral port, fire concurrent requests
//! from many client threads, and check status codes, response shape, and
//! reproducibility (same body ⇒ same bytes for a fixed seed).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use topmine_corpus::{corpus_from_texts, CorpusOptions};
use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::Segmenter;
use topmine_serve::{
    http::MAX_CONNECTIONS, FrozenModel, HttpServer, ServerConfig, SHARDED_MODEL_FORMAT,
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

/// One raw HTTP/1.1 request; returns (status, body).
fn request(addr: std::net::SocketAddr, head: &str, body: &str) -> (u16, String) {
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

#[test]
fn concurrent_infer_requests_get_consistent_answers() {
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(fitted_model()),
        ServerConfig {
            n_threads: 4,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let handle = server.spawn().expect("spawn server");
    let addr = handle.addr();

    // Health and metadata endpoints.
    let (status, body) = request(addr, "GET /healthz", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"topics\":2"), "{body}");
    let (status, body) = request(addr, "GET /model", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(SHARDED_MODEL_FORMAT), "{body}");
    assert!(body.contains("\"lexicon_phrases\""), "{body}");

    // Concurrent clients: half send document A, half document B, all with
    // the same seed. Within a group every response must be byte-identical.
    let doc_a = "support vector machines for the streams of data";
    let doc_b = "mining frequent patterns";
    let responses: Vec<(usize, u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                scope.spawn(move || {
                    let body = if i % 2 == 0 { doc_a } else { doc_b };
                    let (status, payload) =
                        request(addr, "POST /infer?seed=42&iters=25&top=2", body);
                    (i, status, payload)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, status, payload) in &responses {
        assert_eq!(*status, 200, "request {i}: {payload}");
        assert!(payload.contains("\"theta\""), "request {i}: {payload}");
        assert!(payload.contains("\"phrases\""), "request {i}: {payload}");
    }
    let a_bodies: Vec<&String> = responses
        .iter()
        .filter(|(i, _, _)| i % 2 == 0)
        .map(|(_, _, p)| p)
        .collect();
    let b_bodies: Vec<&String> = responses
        .iter()
        .filter(|(i, _, _)| i % 2 == 1)
        .map(|(_, _, p)| p)
        .collect();
    assert!(a_bodies.windows(2).all(|w| w[0] == w[1]), "doc A diverged");
    assert!(b_bodies.windows(2).all(|w| w[0] == w[1]), "doc B diverged");
    assert_ne!(a_bodies[0], b_bodies[0], "different docs, same answer");

    // Error paths: bad route, bad method, bad parameter, empty body.
    assert_eq!(request(addr, "GET /nope", "").0, 404);
    assert_eq!(request(addr, "GET /infer", "").0, 405);
    assert_eq!(request(addr, "POST /infer?seed=abc", "text").0, 400);
    assert_eq!(request(addr, "POST /infer", "").0, 400);

    handle.shutdown();
}

/// Read exactly one HTTP response (headers + Content-Length-framed body)
/// from a persistent connection.
fn read_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    // Read byte-wise until the blank line ending the head (keeps the rest
    // of the stream untouched for the next response).
    while !buf.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        buf.push(byte[0]);
    }
    let head = String::from_utf8(buf).expect("utf-8 head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_string)
        })
        .expect("content-length header")
        .trim()
        .parse()
        .expect("numeric content-length");
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("response body");
    (status, head, String::from_utf8(body).expect("utf-8 body"))
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let handle = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(fitted_model()),
        ServerConfig::default(),
    )
    .unwrap()
    .spawn()
    .unwrap();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let doc = "support vector machines for data streams";
    let mut bodies = Vec::new();
    for _ in 0..3 {
        // No Connection header: HTTP/1.1 defaults to keep-alive.
        write!(
            stream,
            "POST /infer?seed=5&iters=15 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{doc}",
            doc.len()
        )
        .unwrap();
        let (status, head, body) = read_response(&mut stream);
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("Connection: keep-alive"), "{head}");
        bodies.push(body);
    }
    assert!(
        bodies.windows(2).all(|w| w[0] == w[1]),
        "same request on one connection must reproduce byte-identically"
    );
    // An explicit close is honored: the server answers, then ends the
    // connection (subsequent reads see EOF).
    write!(
        stream,
        "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let (status, head, body) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "{head}");
    // The repeated /infer calls above were cache hits: same server, same
    // key. /healthz reports them.
    assert!(body.contains("\"cache\""), "{body}");
    assert!(body.contains("\"hits\":2"), "{body}");
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("EOF after close");
    assert!(rest.is_empty(), "server must close after Connection: close");

    // HTTP/1.0 without keep-alive closes after one response.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    write!(stream, "GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
    let (status, head, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "{head}");
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("EOF");
    assert!(rest.is_empty());

    handle.shutdown();
}

/// Send raw bytes on a fresh connection and return the status line's code.
fn raw_status(addr: std::net::SocketAddr, message: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(message.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("no status in {response:?}"))
        .parse()
        .expect("numeric status")
}

#[test]
fn malformed_framing_and_versions_are_rejected() {
    let handle = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(fitted_model()),
        ServerConfig::default(),
    )
    .unwrap()
    .spawn()
    .unwrap();
    let addr = handle.addr();

    // Duplicate conflicting Content-Length is the request-smuggling seam:
    // two framings for one message must die with 400, not let the later
    // header win.
    assert_eq!(
        raw_status(
            addr,
            "POST /infer HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nContent-Length: 11\r\n\r\ntext seven!"
        ),
        400
    );
    // Identical duplicates carry one unambiguous framing; serve them. The
    // close lets `raw_status` read to end-of-file without waiting out the
    // keep-alive idle limit.
    assert_eq!(
        raw_status(
            addr,
            "POST /infer?seed=1&iters=5 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nContent-Length: 4\r\nConnection: close\r\n\r\ntext"
        ),
        200
    );
    // Content-Length must be pure digits: no sign, no padding tricks, no
    // empty value (usize::parse alone would accept "+4").
    for cl in ["+4", "-4", " 4 x", "4x", "0x4", ""] {
        assert_eq!(
            raw_status(
                addr,
                &format!("POST /infer HTTP/1.1\r\nHost: x\r\nContent-Length: {cl}\r\n\r\ntext")
            ),
            400,
            "content-length {cl:?} must be rejected"
        );
    }

    // Only exact HTTP/1.0 and HTTP/1.1 are spoken here; lookalike version
    // tokens used to slip through the old starts_with("HTTP/1.") check.
    for version in [
        "HTTP/1.",
        "HTTP/1.2",
        "HTTP/1.1x",
        "HTTP/1.999",
        "HTTP/2.0",
        "ICY/1.1",
    ] {
        assert_eq!(
            raw_status(addr, &format!("GET /healthz {version}\r\nHost: x\r\n\r\n")),
            505,
            "version {version:?} must get 505"
        );
    }
    assert_eq!(
        raw_status(addr, "GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n"),
        200
    );
    // A request line with no version token at all is plain 400.
    assert_eq!(raw_status(addr, "GET /healthz\r\nHost: x\r\n\r\n"), 400);

    handle.shutdown();
}

#[test]
fn server_matches_direct_engine_inference() {
    let model = Arc::new(fitted_model());
    let handle = HttpServer::bind("127.0.0.1:0", model.clone(), ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let cfg = topmine_serve::InferConfig {
        fold_iters: 20,
        seed: 9,
        top_topics: 3,
    };
    let text = "support vector machines, mining frequent patterns";
    let direct = topmine_serve::inference_json(&topmine_serve::infer_doc(
        model.as_ref(),
        text,
        &cfg,
        cfg.seed,
    ));
    let (status, body) = request(handle.addr(), "POST /infer?seed=9&iters=20&top=3", text);
    assert_eq!(status, 200);
    assert_eq!(body, direct, "HTTP body must equal direct inference JSON");
    handle.shutdown();
}

#[test]
fn half_closed_client_still_gets_its_response() {
    // A client may shut down its write half right after a `Connection:
    // close` request; the server must still answer before closing.
    let handle = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(fitted_model()),
        ServerConfig::default(),
    )
    .unwrap()
    .spawn()
    .unwrap();
    let body = "support vector machines";
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    write!(
        stream,
        "POST /infer HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "answered a half-closed client with {response:?}"
    );
    handle.shutdown();
}

#[test]
fn connections_beyond_the_cap_get_503_until_one_closes() {
    let handle = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(fitted_model()),
        ServerConfig::default(),
    )
    .unwrap()
    .spawn()
    .unwrap();
    let addr = handle.addr();
    // Idle connections, each holding a connection thread. The server
    // accepts in order, so all of them are registered before the next.
    let mut held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let mut refused = TcpStream::connect(addr).expect("connect");
    refused
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut response = String::new();
    refused
        .read_to_string(&mut response)
        .expect("503, then EOF");
    assert!(
        response.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
        "{response:?}"
    );
    assert!(response.contains("Connection: close\r\n"), "{response:?}");

    // Once one held connection closes, a fresh one is served.
    drop(held.pop());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        // A refusal may reset the connection under an unread request, so
        // only a whole response counts.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        if response.starts_with("HTTP/1.1 200") {
            break;
        }
        assert!(
            response.is_empty() || response.starts_with("HTTP/1.1 503"),
            "{response:?}"
        );
        assert!(
            std::time::Instant::now() < deadline,
            "no connection slot came free"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    drop(held);
    handle.shutdown();
}
