//! The load generator: closed loop over `conns` keep-alive connections,
//! one blocking thread per connection with one request in flight, sending
//! the next as soon as the previous one returns.
//!
//! The server closes a connection after `MAX_REQUESTS_PER_CONN` (100)
//! requests, announcing it with `Connection: close` on the last response.
//! A thread reconnects after that response (or after 100 requests), so the
//! cap costs no request and counts as no failure.

use crate::http::{Parser, Response};
use crate::sys;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The server's per-connection request cap.
pub const MAX_REQUESTS_PER_CONN: usize = 100;
/// How long one response may take before its request counts as dropped.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// One distinct request and the exact body its response must carry.
pub struct Target {
    pub request: Vec<u8>,
    pub expect: Vec<u8>,
    /// Documents the request carries.
    pub docs: u64,
}

pub struct PhaseSpec<'a> {
    pub addr: SocketAddr,
    pub targets: &'a [Target],
    /// Target index of each request, taken cyclically from `offset`.
    pub order: &'a [u32],
    pub offset: usize,
    /// No request is sent after this long, once `min_requests` were.
    pub duration: Duration,
    pub min_requests: u64,
    pub conns: usize,
}

/// One request's timeline, in nanoseconds from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub seq: u64,
    pub target: u32,
    pub sent_ns: u64,
    pub done_ns: u64,
}

#[derive(Debug, Default)]
pub struct PhaseResult {
    pub sent: u64,
    pub ok: u64,
    /// Non-200 responses, mismatched bodies and dropped requests.
    pub failed: u64,
    pub non200: u64,
    pub mismatched: u64,
    pub dropped: u64,
    /// Documents in requests answered correctly.
    pub docs_ok: u64,
    /// Latency of every answered request from its send, in ms.
    pub latency_ms: Vec<f64>,
    pub connections: u64,
    /// Generator threads' CPU time over phase wall time (1.0 = one core).
    pub cpu_share: f64,
    /// From the phase start to the last response.
    pub wall_s: f64,
    /// Every answered request, ordered by send time.
    pub records: Vec<Record>,
    /// Where the next phase should continue in `order`.
    pub next_offset: usize,
}

impl PhaseResult {
    fn merge(&mut self, other: PhaseResult) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.non200 += other.non200;
        self.mismatched += other.mismatched;
        self.dropped += other.dropped;
        self.docs_ok += other.docs_ok;
        self.latency_ms.extend(other.latency_ms);
        self.connections += other.connections;
        self.records.extend(other.records);
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    Ok(stream)
}

/// Send `request` and read its response.
fn exchange(
    stream: &mut TcpStream,
    parser: &mut Parser,
    buf: &mut [u8],
    request: &[u8],
) -> Result<Response, String> {
    stream.write_all(request).map_err(|e| e.to_string())?;
    loop {
        if let Some(r) = parser.next_response()? {
            return Ok(r);
        }
        match stream.read(buf) {
            Ok(0) => return Err("connection closed".into()),
            Ok(n) => parser.feed(&buf[..n]),
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// One connection's thread: claim the next request, send it, check the
/// answer, repeat until the phase is over. Also returns the thread's CPU
/// time in nanoseconds.
fn drive(spec: &PhaseSpec, t0: Instant, next: &AtomicU64) -> io::Result<(PhaseResult, u64)> {
    let cpu0 = sys::thread_cpu_ns();
    let end = t0 + spec.duration;
    let ns = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
    let mut res = PhaseResult::default();
    let mut buf = vec![0u8; 256 << 10];
    let mut conn: Option<(TcpStream, Parser, usize)> = None;
    loop {
        let seq = next.fetch_add(1, Ordering::Relaxed);
        if Instant::now() >= end && seq >= spec.min_requests {
            break;
        }
        let target = spec.order[(spec.offset + seq as usize) % spec.order.len()];
        let t = &spec.targets[target as usize];
        if conn.is_none() {
            conn = Some((connect(spec.addr)?, Parser::default(), 0));
            res.connections += 1;
        }
        let (stream, parser, used) = conn.as_mut().expect("connected above");
        res.sent += 1;
        *used += 1;
        let sent = Instant::now();
        let resp = match exchange(stream, parser, &mut buf, &t.request) {
            Ok(resp) => resp,
            Err(_) => {
                res.dropped += 1;
                res.failed += 1;
                conn = None;
                continue;
            }
        };
        let done = Instant::now();
        if resp.status != 200 {
            res.non200 += 1;
            res.failed += 1;
        } else if resp.body != t.expect {
            res.mismatched += 1;
            res.failed += 1;
        } else {
            res.ok += 1;
            res.docs_ok += t.docs;
        }
        res.latency_ms
            .push(done.saturating_duration_since(sent).as_secs_f64() * 1e3);
        res.records.push(Record {
            seq,
            target,
            sent_ns: ns(sent),
            done_ns: ns(done),
        });
        if resp.close || *used >= MAX_REQUESTS_PER_CONN {
            conn = None;
        }
    }
    res.wall_s = res.records.last().map_or(0, |r| r.done_ns) as f64 / 1e9;
    Ok((res, sys::thread_cpu_ns() - cpu0))
}

/// Run one phase and account for every request sent.
pub fn run_phase(spec: &PhaseSpec) -> io::Result<PhaseResult> {
    assert!(spec.conns >= 1 && !spec.order.is_empty());
    let next = AtomicU64::new(0);
    let t0 = Instant::now();
    let parts: Vec<io::Result<(PhaseResult, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.conns)
            .map(|_| s.spawn(|| drive(spec, t0, &next)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut res = PhaseResult::default();
    let (mut cpu_ns, mut wall_s) = (0u64, spec.duration.as_secs_f64());
    for part in parts {
        let (part, ns) = part?;
        cpu_ns += ns;
        wall_s = wall_s.max(part.wall_s);
        res.merge(part);
    }
    res.records.sort_by_key(|r| r.sent_ns);
    res.wall_s = wall_s;
    res.cpu_share = cpu_ns as f64 / (wall_s * 1e9);
    res.next_offset = (spec.offset + next.load(Ordering::Relaxed) as usize) % spec.order.len();
    Ok(res)
}
