//! A minimal std-only HTTP/1.1 front end for fold-in inference over one
//! shared `Arc<dyn ModelBackend>`.
//!
//! No async runtime (the build is offline): a `std::net::TcpListener`
//! accept loop gives each connection its own thread, up to
//! [`MAX_CONNECTIONS`] at once; one more is answered `503` and closed.
//! Connections are persistent: HTTP/1.1 requests default to keep-alive
//! (HTTP/1.0 must ask for it), bounded by a per-connection request cap and
//! an idle timeout before each request; `Connection: close` is honored per
//! request. A request must fully arrive within `IO_TIMEOUT` of its first
//! byte, or it is answered `408` and the connection closed.
//! The surface is deliberately tiny:
//!
//! * `GET /healthz` — liveness, model shape, shard count, uptime, bundle
//!   and kernel versions, and the bundle digest (for a model loaded from
//!   disk);
//! * `GET /model`   — bundle metadata (header + preprocessing contract);
//! * `GET /metrics` — Prometheus text exposition of the serving metrics
//!   (per-stage latency histograms, per-route/status counters);
//! * `POST /infer`  — body is one plain-text document; query parameters
//!   `seed`, `iters`, `top`, `deadline_ms` override the per-request knobs;
//! * `POST /infer_batch` — body is newline-delimited documents; one
//!   response carries every result in input order, bit-identical to the
//!   same documents sent as sequential `/infer` calls with per-index
//!   seeds.
//!
//! The cheap read routes are answered on the connection's own thread, so
//! they stay responsive while inference is saturated. Inference requests
//! enter one shared **bounded admission queue** (the private `dispatch`
//! module) — full queue ⇒ `429` + `Retry-After`, deadline expired while
//! queued ⇒ `504` — and dispatcher workers drain them in batches that
//! share one φ gather; the connection's thread waits for its verdict.
//!
//! Responses are JSON (`/metrics` is text exposition), hand-rendered (no
//! serde in the dependency set); floats use Rust's shortest round-trip
//! `Display`, so a fixed seed yields byte-identical bodies across runs,
//! thread counts, and shard counts.

use crate::backend::ModelBackend;
use crate::dispatch::{DispatchOptions, InferJob, InferService, JobKind};
use crate::infer::{DocInference, InferConfig};
use crate::metrics::{serve_metrics, ServeMetrics, Stage};
pub use crate::registry::MAX_CONNECTIONS;
use crate::registry::{Connections, Registration, ACCEPT_RETRY_PAUSE};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use topmine_obs::Registry;

/// Hard cap on request bodies (1 MiB) — inference input is one document.
const MAX_BODY: usize = 1 << 20;
/// Hard cap on the request head (request line + headers). Enforced via
/// `Read::take`, so a newline-free request line cannot allocate past it.
const MAX_HEAD: usize = 16 << 10;
/// The budget of one request: its head and body must arrive within this
/// long of its first byte, or it is answered `408` (a slowloris client
/// cannot hold its connection thread past it). Also the socket write
/// timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Requests served on one keep-alive connection before the server closes
/// it (bounds how long one client can pin a connection thread).
const MAX_REQUESTS_PER_CONN: usize = 100;
/// How long a connection may wait for the first byte of its next request,
/// the first request included, before the server closes it.
pub const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(5);
/// How long a shutdown waits for in-flight responses before severing their
/// connections.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// Most documents accepted in one `/infer_batch` body.
const MAX_BATCH_DOCS: usize = 1024;
/// `Retry-After` seconds advertised with a 429.
const RETRY_AFTER_SECS: u64 = 1;

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Dispatcher worker threads draining the admission queue. Connections
    /// get a thread each, so this does not bound them.
    pub n_threads: usize,
    /// Default inference knobs; `/infer` query parameters override per
    /// request.
    pub infer_defaults: InferConfig,
    /// Admission-queue bound (pending inference requests). One more
    /// request than this is answered `429` + `Retry-After`.
    pub queue_depth: usize,
    /// Most documents a dispatcher folds in per batch (coalescing queued
    /// requests up to this many documents).
    pub max_batch: usize,
    /// Default per-request deadline, checked when a queued request reaches
    /// a dispatcher (`504` if already expired). `None` disables; the
    /// `deadline_ms` query parameter overrides per request.
    pub deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            n_threads: 4,
            infer_defaults: InferConfig::default(),
            queue_depth: 128,
            max_batch: 16,
            deadline: Some(Duration::from_secs(30)),
        }
    }
}

/// A bound, not-yet-running server.
pub struct HttpServer {
    listener: TcpListener,
    model: Arc<dyn ModelBackend>,
    config: ServerConfig,
}

/// What every connection thread shares.
struct Shared {
    model: Arc<dyn ModelBackend>,
    service: InferService,
    config: ServerConfig,
}

impl HttpServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) to serve
    /// `model`.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        model: Arc<dyn ModelBackend>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        // Pin uptime to server start; otherwise the first /healthz or
        // /metrics touch would start the clock and report ~0 uptime.
        topmine_obs::mark_process_start();
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            model,
            config,
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until the process exits (the CLI path).
    pub fn run(self) -> io::Result<()> {
        self.serve(&AtomicBool::new(false));
        Ok(())
    }

    /// Serve on a background thread; the returned handle shuts the server
    /// down (tests, embedding).
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_loop = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("topmine-serve-accept".into())
            .spawn(move || self.serve(&stop_loop))?;
        Ok(ServerHandle {
            addr,
            stop,
            join: Some(join),
        })
    }

    /// Accept until `stop`, one thread per connection, then drain. The
    /// [`InferService`] is dropped after the last connection thread, so
    /// every admitted job is answered before the dispatchers exit.
    fn serve(&self, stop: &AtomicBool) {
        let shared = Arc::new(Shared {
            model: Arc::clone(&self.model),
            service: InferService::start(
                Arc::clone(&self.model),
                DispatchOptions {
                    queue_depth: self.config.queue_depth,
                    max_batch: self.config.max_batch,
                    n_workers: self.config.n_threads,
                },
            ),
            config: self.config.clone(),
        });
        let conns = Arc::new(Connections::default());
        for stream in self.listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else {
                // Most likely out of descriptors, with the pending
                // connection still queued: free one held by an idle
                // keep-alive connection, so the queue moves before any of
                // them reaches `KEEP_ALIVE_IDLE`.
                conns.shed_idlest();
                std::thread::sleep(ACCEPT_RETRY_PAUSE);
                continue;
            };
            if conns.len() >= MAX_CONNECTIONS {
                refuse(&stream, "connection limit reached; retry shortly");
                continue;
            }
            // Responses are small and written whole; with Nagle's
            // algorithm on, a pipelined one can wait on a delayed ACK.
            let _ = stream.set_nodelay(true);
            let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
            let stream = Arc::new(stream);
            let registration = conns.register(&stream);
            let (socket, shared) = (Arc::clone(&stream), Arc::clone(&shared));
            let spawned = std::thread::Builder::new()
                .name("topmine-serve-conn".into())
                .spawn(move || handle_connection(&socket, &registration, &shared));
            if spawned.is_err() {
                refuse(&stream, "cannot start a connection thread; retry shortly");
            }
        }
        // Drain: idle connections see end-of-file at once; one with a
        // request in flight writes its response first.
        conns.shutdown_all(Shutdown::Read);
        if !conns.wait_empty(DRAIN_DEADLINE) {
            conns.shutdown_all(Shutdown::Both);
        }
    }
}

/// Turn a connection away unread: `503` and a close. The write half is
/// shut before the socket closes, so the client reads the response and
/// then end-of-file even if its request bytes are still unread here.
fn refuse(mut stream: &TcpStream, message: &str) {
    serve_metrics().count_request("invalid", 503);
    // Never stall the accept loop on a client's receive window.
    let _ = stream.set_nonblocking(true);
    let _ = stream
        .write_all(render_response(503, &error_json(message), "application/json", true).as_bytes());
    let _ = stream.shutdown(Shutdown::Write);
}

/// Handle to a spawned server; dropping it shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and drain: idle keep-alive connections close at
    /// once, and this returns when every in-flight response is written,
    /// or after a 5 s drain deadline, when what is left is severed.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

// ----- request handling -----------------------------------------------------

struct Request {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    body: String,
    /// The client asked to end the connection after this response
    /// (`Connection: close`, or an HTTP/1.0 request without keep-alive).
    close: bool,
}

#[derive(Debug, PartialEq)]
struct HttpError {
    status: u16,
    message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }
}

/// A successful route result: a body plus its media type (JSON for the
/// API routes, text exposition for `/metrics`).
struct RouteResponse {
    body: String,
    content_type: &'static str,
}

impl RouteResponse {
    fn json(body: String) -> Self {
        Self {
            body,
            content_type: "application/json",
        }
    }
}

/// The read side of a connection. Each socket read waits only as long as
/// is left: up to [`KEEP_ALIVE_IDLE`] for a request's first byte, then
/// until the request's budget, counted from that byte, runs out. Re-arming
/// the timeout before every read is what ends a client that drips one
/// byte at a time; a fixed per-read timeout would wait on it forever.
/// While it waits for a first byte the connection is marked idle, so the
/// accept loop may shed it.
struct ConnReader<'a> {
    stream: &'a TcpStream,
    registration: &'a Registration,
    budget: Duration,
    /// When the current request's first byte arrived; `None` until then.
    first_byte: Option<Instant>,
}

impl<'a> ConnReader<'a> {
    fn new(stream: &'a TcpStream, registration: &'a Registration, budget: Duration) -> Self {
        Self {
            stream,
            registration,
            budget,
            first_byte: None,
        }
    }
}

impl Read for ConnReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let wait = match self.first_byte {
            None => KEEP_ALIVE_IDLE,
            Some(first) => self.budget.saturating_sub(first.elapsed()),
        };
        if wait.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(wait))?;
        let idle = self.first_byte.is_none();
        if idle {
            self.registration.set_idle(true);
        }
        let mut stream = self.stream;
        let n = stream.read(buf);
        if idle {
            self.registration.set_idle(false);
        }
        let n = n?;
        if n > 0 {
            self.first_byte.get_or_insert_with(Instant::now);
        }
        Ok(n)
    }
}

type RequestReader<'a> = BufReader<io::Take<ConnReader<'a>>>;

/// Serve one connection on its own thread: up to
/// [`MAX_REQUESTS_PER_CONN`] requests, closing on client request, idle
/// timeout, being shed, the cap, or any malformed request (framing is
/// unreliable after one). The connection is deregistered on return.
fn handle_connection(stream: &TcpStream, registration: &Registration, shared: &Shared) {
    // The reader lives as long as the connection (buffered bytes of a
    // pipelined next request must survive between requests). The
    // take-limit caps how much a connection can make us buffer per
    // request: the head cap up front, widened to admit the (already
    // length-checked) body once the headers are parsed.
    let mut reader =
        BufReader::new(ConnReader::new(stream, registration, IO_TIMEOUT).take(MAX_HEAD as u64));
    let mut writer = stream;
    let metrics = serve_metrics();
    for served in 0..MAX_REQUESTS_PER_CONN {
        reader.get_mut().set_limit(MAX_HEAD as u64);
        let at_cap = served + 1 == MAX_REQUESTS_PER_CONN;
        match read_request(&mut reader, IO_TIMEOUT) {
            Ok(None) => return, // clean close (EOF or idle timeout)
            Ok(Some(req)) => {
                let handle_start = Instant::now();
                let close = req.close || at_cap;
                let route_label = ServeMetrics::route_label(&req.path);
                let (status, resp) = route(&req, shared);
                let serialize_span = metrics.stage(Stage::Serialize).span();
                let payload = render_response(status, &resp.body, resp.content_type, close);
                if writer.write_all(payload.as_bytes()).is_err() {
                    return;
                }
                serialize_span.stop();
                metrics.observe_request(route_label, status, handle_start.elapsed());
                if close {
                    return;
                }
            }
            Err(e) => {
                metrics.count_request("invalid", e.status);
                let _ = writer.write_all(
                    render_response(e.status, &error_json(&e.message), "application/json", true)
                        .as_bytes(),
                );
                // Close without a reset: send FIN, then discard what the
                // client still sends. Closing over unread bytes would reset
                // the connection, which can destroy the response before
                // the client reads it.
                let _ = stream.shutdown(Shutdown::Write);
                let mut rest = ConnReader::new(stream, registration, KEEP_ALIVE_IDLE);
                rest.first_byte = Some(Instant::now());
                let _ = io::copy(&mut rest, &mut io::sink());
                return;
            }
        }
    }
}

/// Read one request off the connection, all of it within `budget` of its
/// first byte. `Ok(None)` means the client went away cleanly before
/// sending one (EOF or idle timeout at a request boundary) — not an error,
/// just the end of a keep-alive conversation.
fn read_request(
    reader: &mut RequestReader<'_>,
    budget: Duration,
) -> Result<Option<Request>, HttpError> {
    // A pipelined request already buffered starts its clock now; any other
    // starts it when its first byte arrives.
    let buffered = !reader.buffer().is_empty();
    let conn = reader.get_mut().get_mut();
    conn.budget = budget;
    conn.first_byte = buffered.then(Instant::now);

    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        // Nothing of a request arrived: the idle end of a conversation.
        Err(_) if reader.get_ref().get_ref().first_byte.is_none() => return Ok(None),
        Err(e) => return Err(read_error(&e, "unreadable request line")),
    }
    // Time head and body from the request's first byte as the `parse`
    // stage; keep-alive idle waits stay out of the histogram.
    let parse_start = reader
        .get_ref()
        .get_ref()
        .first_byte
        .unwrap_or_else(Instant::now);
    let (method, target, keep_alive_default) = parse_request_line(&line)?;

    let mut content_length: Option<usize> = None;
    let mut close = !keep_alive_default;
    let mut head_bytes = line.len();
    loop {
        let mut header = String::new();
        let n = reader
            .read_line(&mut header)
            .map_err(|e| read_error(&e, "unreadable header"))?;
        head_bytes += n;
        if n == 0 {
            // The head ended without a blank line: either the client hit
            // the take-limit or closed the connection mid-head.
            return if head_bytes >= MAX_HEAD {
                Err(HttpError::new(431, "request head too large"))
            } else {
                Err(HttpError::new(400, "truncated request head"))
            };
        }
        let header = header.trim_end_matches(['\r', '\n']);
        if header.is_empty() {
            break;
        }
        apply_header_line(header, &mut content_length, &mut close)?;
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(HttpError::new(413, "request body too large"));
    }
    // Widen the read cap for the declared (and now validated) body size;
    // any body bytes already buffered were counted against the head cap.
    reader.get_mut().set_limit(content_length as u64);
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| read_error(&e, "body shorter than content-length"))?;
    let body = String::from_utf8(body).map_err(|_| HttpError::new(400, "body is not UTF-8"))?;

    let (path, query) = parse_target(&target);
    serve_metrics()
        .stage(Stage::Parse)
        .record_duration(parse_start.elapsed());
    Ok(Some(Request {
        method,
        path,
        query,
        body,
        close,
    }))
}

/// A failed read partway through a request: `408` once its budget ran
/// out, else `400` with `message`.
fn read_error(e: &io::Error, message: &str) -> HttpError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            HttpError::new(408, "timed out reading request")
        }
        _ => HttpError::new(400, message),
    }
}

/// Parse an HTTP/1.x request line into `(method, target,
/// keep_alive_default)`.
fn parse_request_line(line: &str) -> Result<(String, String, bool), HttpError> {
    let bad = |m: &str| HttpError::new(400, m);
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    // Exact-match the version token: `starts_with("HTTP/1.")` would wave
    // through `HTTP/1.`, `HTTP/1.1x`, `HTTP/1.999`, … — garbage that no
    // peer speaking this protocol sends and whose framing rules we'd be
    // guessing at.
    let version = match parts.next() {
        Some(v @ ("HTTP/1.0" | "HTTP/1.1")) => v,
        Some(_) => return Err(HttpError::new(505, "unsupported HTTP version")),
        None => return Err(bad("missing HTTP version")),
    };
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 must opt in.
    Ok((
        method.to_string(),
        target.to_string(),
        version != "HTTP/1.0",
    ))
}

/// Fold one header line (already stripped of its line terminator) into the
/// request's framing state: Content-Length validation (pure digits,
/// duplicates must agree), Connection tokens, and the refusal of any
/// Transfer-Encoding.
fn apply_header_line(
    header: &str,
    content_length: &mut Option<usize>,
    close: &mut bool,
) -> Result<(), HttpError> {
    let bad = |m: &str| HttpError::new(400, m);
    if let Some((name, value)) = header.split_once(':') {
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9110 §8.6: a pure digit string. `usize::parse` alone
            // would admit a leading `+`, and silently letting a second
            // Content-Length overwrite the first is the classic
            // request-smuggling seam — two parsers, two framings.
            let value = value.trim();
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad("bad content-length"));
            }
            let parsed: usize = value.parse().map_err(|_| bad("bad content-length"))?;
            match *content_length {
                Some(prev) if prev != parsed => {
                    return Err(bad("conflicting content-length headers"))
                }
                _ => *content_length = Some(parsed),
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // No transfer coding is spoken here. Framing such a body by
            // Content-Length instead would parse its chunks as a second
            // request.
            return Err(HttpError::new(501, "Transfer-Encoding is not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            // Token list; "close" and "keep-alive" are what we honor.
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    *close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    *close = false;
                }
            }
        }
    }
    Ok(())
}

/// Split a request target into path and `key=value` query pairs (no
/// percent-decoding: the API's parameters are plain integers).
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, query)) => (
            path.to_string(),
            query
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (kv.to_string(), String::new()),
                })
                .collect(),
        ),
    }
}

/// Parse the inference query parameters: the [`InferConfig`] knobs plus
/// the `deadline_ms` admission override (not part of the config — it never
/// enters the RNG stream).
fn infer_config_from_query(
    query: &[(String, String)],
    defaults: &InferConfig,
) -> Result<(InferConfig, Option<Duration>), HttpError> {
    let mut cfg = defaults.clone();
    let mut deadline = None;
    for (key, value) in query {
        let bad = || HttpError::new(400, format!("bad value for {key}: {value:?}"));
        match key.as_str() {
            "seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "iters" => {
                cfg.fold_iters = value.parse().map_err(|_| bad())?;
                if cfg.fold_iters == 0 || cfg.fold_iters > 10_000 {
                    return Err(HttpError::new(400, "iters must be in 1..=10000"));
                }
            }
            "top" => cfg.top_topics = value.parse().map_err(|_| bad())?,
            "deadline_ms" => {
                let ms: u64 = value.parse().map_err(|_| bad())?;
                if ms == 0 || ms > 600_000 {
                    return Err(HttpError::new(400, "deadline_ms must be in 1..=600000"));
                }
                deadline = Some(Duration::from_millis(ms));
            }
            other => return Err(HttpError::new(400, format!("unknown parameter {other:?}"))),
        }
    }
    Ok((cfg, deadline))
}

/// Route one parsed request to its status and response. The cheap read
/// routes are answered inline; the inference routes wait on the admission
/// queue.
fn route(req: &Request, shared: &Shared) -> (u16, RouteResponse) {
    route_inner(req, shared)
        .unwrap_or_else(|e| (e.status, RouteResponse::json(error_json(&e.message))))
}

fn route_inner(req: &Request, shared: &Shared) -> Result<(u16, RouteResponse), HttpError> {
    let m = &shared.model;
    let defaults = &shared.config.infer_defaults;
    let done = |resp: RouteResponse| Ok((200, resp));
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            // A fleet router aggregates per-shard health: overall status
            // degrades when any shard fails its ping, and the per-shard
            // snapshot rides along under "fleet".
            let fleet = m.fleet_status_json();
            let status = match &fleet {
                Some(json) if json.contains("\"ok\":false") => "degraded",
                _ => "ok",
            };
            let fleet = fleet
                .map(|json| format!(",\"fleet\":{json}"))
                .unwrap_or_default();
            // Provenance: the digest of the bundle served, absent for a
            // model that was never loaded from disk.
            let bundle = m
                .bundle_digest()
                .map(|d| format!(",\"bundle\":\"{d:016x}\""))
                .unwrap_or_default();
            done(RouteResponse::json(format!(
                "{{\"status\":\"{status}\",\"format\":{}{bundle},\"version\":{},\
                 \"kernel_version\":{},\"kernel\":\"frozen-phi\",\"uptime_seconds\":{},\
                 \"topics\":{},\"vocab\":{},\"shards\":{}{fleet}}}",
                json_string(m.format_tag()),
                json_string(env!("CARGO_PKG_VERSION")),
                topmine_lda::KERNEL_VERSION,
                topmine_obs::uptime_seconds(),
                m.n_topics(),
                m.vocab_size(),
                m.n_shards()
            )))
        }
        ("GET", "/metrics") => {
            // Point-in-time gauges are sampled at scrape; everything else
            // accumulated as requests were served.
            serve_metrics().refresh_scrape_gauges();
            done(RouteResponse {
                body: Registry::global().render(),
                content_type: "text/plain; version=0.0.4; charset=utf-8",
            })
        }
        ("GET", "/model") => {
            let h = m.header();
            let p = &m.local().preprocess;
            done(RouteResponse::json(format!(
                "{{\"format\":{},\"topics\":{},\"vocab\":{},\"shards\":{},\"train_docs\":{},\
                 \"train_tokens\":{},\"lexicon_phrases\":{},\"seg_alpha\":{},\"beta\":{},\
                 \"stem\":{},\"remove_stopwords\":{}}}",
                json_string(m.format_tag()),
                h.n_topics,
                h.vocab_size,
                m.n_shards(),
                h.n_docs,
                h.n_tokens,
                m.local().lexicon.n_phrases(),
                h.seg_alpha,
                h.beta,
                p.stem,
                p.remove_stopwords
            )))
        }
        ("POST", "/infer") => {
            let (cfg, deadline) = infer_config_from_query(&req.query, defaults)?;
            if req.body.is_empty() {
                return Err(HttpError::new(400, "empty body: send the document text"));
            }
            Ok(shared.infer(vec![req.body.clone()], cfg, JobKind::Single, deadline))
        }
        ("POST", "/infer_batch") => {
            let (cfg, deadline) = infer_config_from_query(&req.query, defaults)?;
            // One document per non-empty line; document `i` draws
            // `seed_for_index(i)`, exactly as `topmine infer` numbers its
            // input lines.
            let docs: Vec<String> = req
                .body
                .lines()
                .filter(|line| !line.trim().is_empty())
                .map(str::to_string)
                .collect();
            if docs.is_empty() {
                return Err(HttpError::new(
                    400,
                    "empty batch: send newline-delimited documents",
                ));
            }
            if docs.len() > MAX_BATCH_DOCS {
                return Err(HttpError::new(
                    400,
                    format!("batch of {} documents exceeds {MAX_BATCH_DOCS}", docs.len()),
                ));
            }
            Ok(shared.infer(docs, cfg, JobKind::Batch, deadline))
        }
        (_, "/healthz" | "/model" | "/metrics" | "/infer" | "/infer_batch") => Err(HttpError::new(
            405,
            format!("method {} not allowed", req.method),
        )),
        (_, path) => Err(HttpError::new(404, format!("no such endpoint: {path}"))),
    }
}

impl Shared {
    /// Submit documents to the admission queue and wait on this thread for
    /// the verdict: the queue, not the connection threads, bounds
    /// concurrent inference. `deadline` overrides the server default.
    fn infer(
        &self,
        docs: Vec<String>,
        config: InferConfig,
        kind: JobKind,
        deadline: Option<Duration>,
    ) -> (u16, RouteResponse) {
        let (tx, rx) = std::sync::mpsc::channel::<(u16, String)>();
        let job = InferJob {
            docs,
            config,
            kind,
            deadline: deadline
                .or(self.config.deadline)
                .map(|d| Instant::now() + d),
            respond: Box::new(move |status, body| {
                let _ = tx.send((status, body));
            }),
        };
        let (status, body) = match self.service.try_submit(job) {
            Ok(()) => rx
                .recv()
                .unwrap_or_else(|_| (503, error_json("server shutting down before dispatch"))),
            Err(_job) => {
                serve_metrics().requests_rejected_total.inc();
                (429, error_json("admission queue full; retry shortly"))
            }
        };
        (status, RouteResponse::json(body))
    }
}

fn render_response(status: u16, body: &str, content_type: &str, close: bool) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Error",
    };
    let connection = if close { "close" } else { "keep-alive" };
    // Admission rejections advertise when to come back; every response
    // renders through here, so the header can never be forgotten.
    let retry_after = if status == 429 {
        format!("Retry-After: {RETRY_AFTER_SECS}\r\n")
    } else {
        String::new()
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\n{retry_after}Connection: {connection}\r\n\r\n{body}",
        body.len()
    )
}

// ----- JSON rendering -------------------------------------------------------

/// Escape and quote a string for JSON output.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub(crate) fn error_json(message: &str) -> String {
    format!("{{\"error\":{}}}", json_string(message))
}

/// Render a [`DocInference`] as the `/infer` response body.
pub fn inference_json(inference: &DocInference) -> String {
    let mut out = String::new();
    out.push_str("{\"n_tokens\":");
    out.push_str(&inference.n_tokens.to_string());
    out.push_str(",\"n_oov\":");
    out.push_str(&inference.n_oov.to_string());
    out.push_str(",\"theta\":[");
    for (i, t) in inference.theta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_string());
    }
    out.push_str("],\"top_topics\":[");
    for (i, (topic, weight)) in inference.top_topics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"topic\":{topic},\"weight\":{weight}}}"));
    }
    out.push_str("],\"phrases\":[");
    for (i, p) in inference.phrases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"text\":{},\"n_words\":{},\"topic\":{}}}",
            json_string(&p.text),
            p.words.len(),
            p.topic
        ));
    }
    out.push_str("]}");
    out
}

/// Render a batch of results as the `/infer_batch` response body: each
/// entry is exactly what `/infer` would have returned for that document.
pub fn batch_inference_json(results: &[DocInference]) -> String {
    let mut out = String::from("{\"batch_size\":");
    out.push_str(&results.len().to_string());
    out.push_str(",\"results\":[");
    for (i, inference) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&inference_json(inference));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    /// A connected loopback pair: (client, server side).
    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    /// Read one request off `server` within `budget`; also how long it took.
    fn read_within(
        server: &TcpStream,
        budget: Duration,
    ) -> (Result<Option<Request>, HttpError>, Duration) {
        let conns = Arc::new(Connections::default());
        let registration = conns.register(&Arc::new(server.try_clone().unwrap()));
        let mut reader =
            BufReader::new(ConnReader::new(server, &registration, budget).take(MAX_HEAD as u64));
        let started = Instant::now();
        let result = read_request(&mut reader, budget);
        (result, started.elapsed())
    }

    const BUDGET: Duration = Duration::from_millis(100);

    fn timed_out() -> Option<HttpError> {
        Some(HttpError::new(408, "timed out reading request"))
    }

    #[test]
    fn a_stalled_body_is_answered_408_when_the_budget_runs_out() {
        let (mut client, server) = loopback_pair();
        client
            .write_all(b"POST /infer HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
            .unwrap();
        let (result, elapsed) = read_within(&server, BUDGET);
        assert_eq!(result.err(), timed_out());
        assert!(elapsed >= BUDGET, "{elapsed:?}");
    }

    #[test]
    fn a_dripped_head_is_answered_408_though_every_read_makes_progress() {
        let (client, server) = loopback_pair();
        client.set_nodelay(true).unwrap();
        let head = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        let drip_every = Duration::from_millis(30);
        let drip = std::thread::spawn(move || {
            let mut client = client;
            for byte in head {
                if client.write_all(&[*byte]).is_err() {
                    return;
                }
                std::thread::sleep(drip_every);
            }
        });
        // Each read returns a byte well inside any per-read timeout; only
        // the whole-request budget ends the drip.
        let (result, elapsed) = read_within(&server, BUDGET);
        assert_eq!(result.err(), timed_out());
        assert!(elapsed < drip_every * head.len() as u32, "{elapsed:?}");
        drop(server);
        drip.join().unwrap();
    }

    #[test]
    fn the_budget_starts_at_the_first_byte() {
        // An idle wait longer than the budget is not counted against it
        // (bare `\n` line ends are accepted too).
        let (mut client, server) = loopback_pair();
        let late = std::thread::spawn(move || {
            std::thread::sleep(BUDGET * 2);
            client.write_all(b"GET /model HTTP/1.1\n\n").unwrap();
            client
        });
        let (result, _) = read_within(&server, BUDGET);
        let req = result.expect("request").expect("not an idle close");
        assert_eq!((req.method.as_str(), req.path.as_str()), ("GET", "/model"));
        drop(late.join().unwrap());
    }

    #[test]
    fn target_parsing() {
        let (path, query) = parse_target("/infer?seed=7&iters=30");
        assert_eq!(path, "/infer");
        assert_eq!(
            query,
            vec![
                ("seed".to_string(), "7".to_string()),
                ("iters".to_string(), "30".to_string())
            ]
        );
        let (path, query) = parse_target("/healthz");
        assert_eq!(path, "/healthz");
        assert!(query.is_empty());
    }

    #[test]
    fn query_overrides_defaults() {
        let defaults = InferConfig::default();
        let (cfg, deadline) = infer_config_from_query(
            &[
                ("seed".into(), "42".into()),
                ("iters".into(), "5".into()),
                ("top".into(), "2".into()),
            ],
            &defaults,
        )
        .unwrap();
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.fold_iters, 5);
        assert_eq!(cfg.top_topics, 2);
        assert_eq!(deadline, None);
        let (cfg, deadline) =
            infer_config_from_query(&[("deadline_ms".into(), "250".into())], &defaults).unwrap();
        assert_eq!(cfg, defaults, "deadline_ms never enters the config");
        assert_eq!(deadline, Some(Duration::from_millis(250)));
        assert!(infer_config_from_query(&[("seed".into(), "x".into())], &defaults).is_err());
        assert!(infer_config_from_query(&[("iters".into(), "0".into())], &defaults).is_err());
        assert!(infer_config_from_query(&[("deadline_ms".into(), "0".into())], &defaults).is_err());
        assert!(infer_config_from_query(&[("bogus".into(), "1".into())], &defaults).is_err());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn responses_carry_length_type_and_connection_intent() {
        let r = render_response(200, "{\"x\":1}", "application/json", true);
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(r.contains("Content-Type: application/json\r\n"));
        assert!(r.contains("Content-Length: 7\r\n"));
        assert!(r.contains("Connection: close\r\n"));
        assert!(r.ends_with("{\"x\":1}"));
        let r = render_response(200, "{\"x\":1}", "application/json", false);
        assert!(r.contains("Connection: keep-alive\r\n"));
        let r = render_response(
            200,
            "a 1\n",
            "text/plain; version=0.0.4; charset=utf-8",
            true,
        );
        assert!(r.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"));
    }

    #[test]
    fn rejections_carry_retry_after() {
        let r = render_response(429, "{}", "application/json", false);
        assert!(r.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(r.contains(&format!("Retry-After: {RETRY_AFTER_SECS}\r\n")));
        let r = render_response(504, "{}", "application/json", false);
        assert!(r.starts_with("HTTP/1.1 504 Gateway Timeout\r\n"));
        assert!(!r.contains("Retry-After"));
    }

    #[test]
    fn batch_json_wraps_per_document_bodies() {
        let inf = DocInference {
            theta: vec![1.0],
            top_topics: vec![(0, 1.0)],
            phrases: Vec::new(),
            n_tokens: 0,
            n_oov: 2,
        };
        let batch = batch_inference_json(&[inf.clone(), inf.clone()]);
        let single = inference_json(&inf);
        assert_eq!(
            batch,
            format!("{{\"batch_size\":2,\"results\":[{single},{single}]}}")
        );
        assert_eq!(
            batch_inference_json(&[]),
            "{\"batch_size\":0,\"results\":[]}"
        );
    }

    #[test]
    fn inference_json_shape() {
        use crate::infer::PhraseAssignment;
        let inf = DocInference {
            theta: vec![0.75, 0.25],
            top_topics: vec![(0, 0.75)],
            phrases: vec![PhraseAssignment {
                text: "support vector".into(),
                words: vec![1, 2],
                topic: 0,
            }],
            n_tokens: 2,
            n_oov: 1,
        };
        let json = inference_json(&inf);
        assert_eq!(
            json,
            "{\"n_tokens\":2,\"n_oov\":1,\"theta\":[0.75,0.25],\
             \"top_topics\":[{\"topic\":0,\"weight\":0.75}],\
             \"phrases\":[{\"text\":\"support vector\",\"n_words\":2,\"topic\":0}]}"
        );
    }
}
