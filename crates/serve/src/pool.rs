//! Persistent, pipelined connections from the serving router to its
//! shard processes.
//!
//! One [`ShardClient`] per shard, one TCP connection per client (dialed
//! lazily, redialed after failures), and **request-id pipelining** on that
//! connection: any number of dispatcher workers may have RPCs in
//! flight concurrently — each send tags a fresh id, a dedicated reader
//! thread demultiplexes responses back to per-call channels, and nobody
//! ever opens a second socket. This is what keeps the fleet's comms cost
//! flat under concurrency: the expensive things (connect, handshake,
//! digest check) happen once per shard per process lifetime, not once per
//! request.
//!
//! Failure policy, in order of escalation:
//!
//! 1. **Retry** — transport-level failures
//!    ([`crate::wire::WireError::is_retryable`]):
//!    the connection is torn down and the RPC re-sent on a fresh one,
//!    with doubling backoff, up to [`PoolConfig::retries`] times.
//! 2. **Fail fast** — when retries are exhausted the shard is marked down
//!    for [`PoolConfig::cooldown`]; RPCs inside that window fail
//!    immediately (the router serves its 503 without re-paying connect
//!    timeouts per request).
//! 3. **Recover** — health pings ([`ShardClient::ping`]) bypass the
//!    cooldown; one success closes the circuit and normal dialing
//!    resumes.
//!
//! Deadlines propagate: every blocking step (dial, response wait, backoff)
//! is clamped to the caller's deadline, and a deadline expiry is
//! connection-fatal — a stalled shard must not wedge the pipelined
//! connection for every other request multiplexed onto it.

use crate::backend::BackendError;
use crate::metrics::{fleet_shard_metrics, FleetShardMetrics};
use crate::wire::{self, Frame, Opcode, ShardMeta, WIRE_VERSION};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Tunables for the shard connection pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    pub connect_timeout: Duration,
    /// Per-RPC response timeout when the request carries no deadline.
    pub rpc_timeout: Duration,
    /// Re-sends after a retryable transport failure (attempts = 1 + retries).
    pub retries: u32,
    /// First retry backoff; doubles per retry.
    pub backoff: Duration,
    /// Fail-fast window after retries are exhausted.
    pub cooldown: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(1),
            rpc_timeout: Duration::from_secs(10),
            retries: 2,
            backoff: Duration::from_millis(20),
            cooldown: Duration::from_secs(1),
        }
    }
}

/// The identity the router expects a shard to prove in its handshake
/// (derived from the router's own copy of the bundle manifest).
#[derive(Debug, Clone, Copy)]
pub struct ExpectedShard {
    pub index: usize,
    pub lo: u32,
    pub hi: u32,
    pub n_topics: u32,
    /// Bundle digest ([`wire::manifest_digest`]) of the router's bundle.
    pub digest: u64,
}

/// Point-in-time health of one shard, as `/healthz` reports it.
#[derive(Debug, Clone)]
pub struct ShardHealth {
    pub shard: usize,
    pub addr: String,
    pub ok: bool,
    /// Round-trip of the health ping (or how long the failure took).
    pub last_check: Duration,
    pub consecutive_failures: u64,
    /// Failure detail when `!ok`, empty otherwise.
    pub detail: String,
}

/// What a demuxed response resolves to.
type RpcResult = Result<Frame, String>;

/// One live pipelined connection: a writer half shared under a mutex, a
/// pending-call table keyed by request id, and a reader thread that owns
/// the receive half until the connection dies.
struct Conn {
    stream: TcpStream,
    writer: Mutex<TcpStream>,
    pending: Mutex<HashMap<u64, mpsc::Sender<RpcResult>>>,
    broken: AtomicBool,
}

impl Conn {
    /// Mark the connection dead and sever the socket so the reader thread
    /// unblocks; every pending call resolves to a transport error.
    fn poison(&self, why: &str) {
        if self.broken.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        let pending = {
            let mut map = self.pending.lock().unwrap();
            std::mem::take(&mut *map)
        };
        for (_, tx) in pending {
            let _ = tx.send(Err(why.to_string()));
        }
    }
}

/// A pooled, pipelined client for one shard process.
pub struct ShardClient {
    expect: ExpectedShard,
    addr: String,
    config: PoolConfig,
    conn: Mutex<Option<Arc<Conn>>>,
    next_id: AtomicU64,
    /// Fail-fast circuit: RPCs before this instant fail immediately.
    down_until: Mutex<Option<Instant>>,
    consecutive_failures: AtomicU64,
    metrics: FleetShardMetrics,
}

/// An RPC that has been sent (or has already failed to send) and not yet
/// resolved — the router starts one per shard, then finishes them all, so
/// shard round-trips overlap instead of serializing.
pub struct PendingCall {
    opcode: Opcode,
    payload: Vec<u8>,
    expect_reply: Opcode,
    deadline: Option<Instant>,
    state: CallState,
    /// Re-sends still allowed for this call.
    budget: u32,
    next_backoff: Duration,
}

enum CallState {
    InFlight {
        conn: Arc<Conn>,
        request_id: u64,
        rx: mpsc::Receiver<RpcResult>,
        sent_at: Instant,
    },
    /// The last attempt failed before (or instead of) getting a reply.
    Failed(BackendError),
}

impl ShardClient {
    pub fn new(expect: ExpectedShard, addr: String, config: PoolConfig) -> Self {
        Self {
            metrics: fleet_shard_metrics(expect.index),
            expect,
            addr,
            config,
            conn: Mutex::new(None),
            next_id: AtomicU64::new(1),
            down_until: Mutex::new(None),
            consecutive_failures: AtomicU64::new(0),
        }
    }

    pub fn index(&self) -> usize {
        self.expect.index
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn unavailable(&self, detail: impl Into<String>) -> BackendError {
        BackendError::ShardUnavailable {
            shard: self.expect.index,
            addr: self.addr.clone(),
            detail: detail.into(),
        }
    }

    fn protocol(&self, detail: impl Into<String>) -> BackendError {
        BackendError::Protocol {
            shard: self.expect.index,
            addr: self.addr.clone(),
            detail: detail.into(),
        }
    }

    fn timeout(&self) -> BackendError {
        BackendError::Timeout {
            shard: self.expect.index,
            addr: self.addr.clone(),
        }
    }

    /// Remaining time before `deadline`, or the per-RPC timeout when the
    /// request carries none. `Err` when the deadline already passed.
    fn clamp(&self, deadline: Option<Instant>, cap: Duration) -> Result<Duration, BackendError> {
        match deadline {
            None => Ok(cap),
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    Err(self.timeout())
                } else {
                    Ok(left.min(cap))
                }
            }
        }
    }

    /// The live connection, dialing and handshaking a fresh one if needed.
    fn ensure_conn(&self, deadline: Option<Instant>) -> Result<Arc<Conn>, BackendError> {
        let mut slot = self.conn.lock().unwrap();
        if let Some(conn) = slot.as_ref() {
            if !conn.broken.load(Ordering::SeqCst) {
                return Ok(Arc::clone(conn));
            }
            self.metrics.reconnects.inc();
        }
        let conn = Arc::new(self.dial(deadline)?);
        self.spawn_reader(&conn);
        *slot = Some(Arc::clone(&conn));
        Ok(conn)
    }

    /// Dial, `Hello`/`Meta` handshake, identity check. Runs under the
    /// connection lock: concurrent callers wait rather than racing dials.
    fn dial(&self, deadline: Option<Instant>) -> Result<Conn, BackendError> {
        let connect_budget = self.clamp(deadline, self.config.connect_timeout)?;
        let addrs: Vec<SocketAddr> = self
            .addr
            .to_socket_addrs()
            .map_err(|e| self.unavailable(format!("cannot resolve: {e}")))?
            .collect();
        let mut last_err = None;
        let mut stream = None;
        for a in &addrs {
            match TcpStream::connect_timeout(a, connect_budget) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let stream = stream.ok_or_else(|| {
            self.unavailable(match last_err {
                Some(e) => format!("connect failed: {e}"),
                None => "address resolved to nothing".to_string(),
            })
        })?;
        let _ = stream.set_nodelay(true);
        // The handshake is the only read bounded by a socket timeout; once
        // the reader thread owns the receive half, timeouts are enforced
        // caller-side so an idle pipelined connection never times out.
        let handshake_budget = self.clamp(deadline, self.config.rpc_timeout)?;
        stream
            .set_read_timeout(Some(handshake_budget))
            .map_err(|e| self.unavailable(format!("set_read_timeout: {e}")))?;
        let mut writer = stream
            .try_clone()
            .map_err(|e| self.unavailable(format!("try_clone: {e}")))?;
        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| self.unavailable(format!("try_clone: {e}")))?,
        );
        let sent = wire::write_frame(&mut writer, 0, Opcode::Hello, &[&wire::encode_hello()])
            .map_err(|e| self.unavailable(format!("handshake send: {e}")))?;
        self.count_sent(sent);
        let reply = wire::read_frame(&mut reader)
            .map_err(|e| self.unavailable(format!("handshake recv: {e}")))?;
        self.count_received(reply.wire_len());
        let meta = match reply.opcode {
            Opcode::Meta => wire::decode_meta(&reply.payload)
                .map_err(|e| self.protocol(format!("handshake: {e}")))?,
            Opcode::Error => {
                return Err(self.protocol(format!(
                    "shard refused handshake: {}",
                    String::from_utf8_lossy(&reply.payload)
                )))
            }
            other => return Err(self.protocol(format!("handshake answered with {other:?}"))),
        };
        self.check_identity(&meta)?;
        stream
            .set_read_timeout(None)
            .map_err(|e| self.unavailable(format!("clear read timeout: {e}")))?;
        Ok(Conn {
            stream,
            writer: Mutex::new(writer),
            pending: Mutex::new(HashMap::new()),
            broken: AtomicBool::new(false),
        })
    }

    /// The digest/topology comparison that keeps a fleet from silently
    /// mixing artifact versions.
    fn check_identity(&self, meta: &ShardMeta) -> Result<(), BackendError> {
        let e = &self.expect;
        if meta.version != WIRE_VERSION {
            return Err(self.protocol(format!(
                "shard speaks wire version {}, this router speaks {WIRE_VERSION}",
                meta.version
            )));
        }
        if meta.shard_index as usize != e.index {
            return Err(self.protocol(format!(
                "address serves shard {}, expected shard {}",
                meta.shard_index, e.index
            )));
        }
        if (meta.lo, meta.hi) != (e.lo, e.hi) {
            return Err(self.protocol(format!(
                "shard owns [{}, {}), manifest says [{}, {})",
                meta.lo, meta.hi, e.lo, e.hi
            )));
        }
        if meta.n_topics != e.n_topics {
            return Err(self.protocol(format!(
                "shard has {} topics, manifest says {}",
                meta.n_topics, e.n_topics
            )));
        }
        if meta.digest != e.digest {
            return Err(self.protocol(format!(
                "model digest mismatch: shard {:#018x}, router {:#018x} \
                 (different artifact versions?)",
                meta.digest, e.digest
            )));
        }
        Ok(())
    }

    fn spawn_reader(&self, conn: &Arc<Conn>) {
        let conn = Arc::clone(conn);
        let metrics = self.metrics.clone();
        let _ = std::thread::Builder::new()
            .name(format!("fleet-reader-{}", self.expect.index))
            .spawn(move || {
                let mut reader = match conn.stream.try_clone() {
                    Ok(s) => BufReader::new(s),
                    Err(e) => {
                        conn.poison(&format!("reader clone failed: {e}"));
                        return;
                    }
                };
                loop {
                    match wire::read_frame(&mut reader) {
                        Ok(frame) => {
                            let n = frame.wire_len();
                            metrics.bytes_received.add(n);
                            metrics.frames_received.inc();
                            let tx = conn.pending.lock().unwrap().remove(&frame.request_id);
                            if let Some(tx) = tx {
                                let _ = tx.send(Ok(frame));
                            }
                            // No waiter: a response that outlived its
                            // call's timeout. Drop it; the connection was
                            // already poisoned in that case.
                        }
                        Err(e) => {
                            conn.poison(&e.to_string());
                            return;
                        }
                    }
                }
            });
    }

    fn count_sent(&self, n: u64) {
        self.metrics.bytes_sent.add(n);
        self.metrics.frames_sent.inc();
    }

    fn count_received(&self, n: u64) {
        self.metrics.bytes_received.add(n);
        self.metrics.frames_received.inc();
    }

    /// One send attempt on the pooled connection.
    fn send_attempt(
        &self,
        opcode: Opcode,
        payload: &[u8],
        deadline: Option<Instant>,
    ) -> Result<CallState, BackendError> {
        let conn = self.ensure_conn(deadline)?;
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        conn.pending.lock().unwrap().insert(request_id, tx);
        let sent_at = Instant::now();
        let wrote = {
            let mut writer = conn.writer.lock().unwrap();
            wire::write_frame(&mut *writer, request_id, opcode, &[payload])
        };
        match wrote {
            Ok(n) => {
                self.count_sent(n);
                Ok(CallState::InFlight {
                    conn,
                    request_id,
                    rx,
                    sent_at,
                })
            }
            Err(e) => {
                conn.pending.lock().unwrap().remove(&request_id);
                conn.poison(&format!("send failed: {e}"));
                Err(self.unavailable(format!("send failed: {e}")))
            }
        }
    }

    /// Begin an RPC: send (or record the send failure for
    /// [`ShardClient::finish_call`] to retry) and return without waiting.
    /// Fails fast inside the cooldown window after a shard was declared
    /// down.
    pub fn start_call(
        &self,
        opcode: Opcode,
        payload: Vec<u8>,
        expect_reply: Opcode,
        deadline: Option<Instant>,
    ) -> Result<PendingCall, BackendError> {
        if let Some(until) = *self.down_until.lock().unwrap() {
            if Instant::now() < until {
                self.metrics.failures.inc();
                return Err(self.unavailable(format!(
                    "circuit open after {} consecutive failures",
                    self.consecutive_failures.load(Ordering::Relaxed)
                )));
            }
        }
        let state = match self.send_attempt(opcode, &payload, deadline) {
            Ok(state) => state,
            Err(e) => CallState::Failed(e),
        };
        Ok(PendingCall {
            opcode,
            payload,
            expect_reply,
            deadline,
            state,
            budget: self.config.retries,
            next_backoff: self.config.backoff,
        })
    }

    /// Resolve an RPC: wait for the matched reply, re-sending on
    /// retryable transport failures until the retry budget or the
    /// deadline runs out. Exhaustion opens the fail-fast circuit.
    pub fn finish_call(&self, mut call: PendingCall) -> Result<Frame, BackendError> {
        loop {
            let failure = match std::mem::replace(
                &mut call.state,
                CallState::Failed(self.unavailable("resolved")),
            ) {
                CallState::InFlight {
                    conn,
                    request_id,
                    rx,
                    sent_at,
                } => match self.await_reply(&call, &conn, request_id, &rx, sent_at) {
                    Ok(frame) => {
                        self.mark_up();
                        return Ok(frame);
                    }
                    Err(e) => e,
                },
                CallState::Failed(e) => e,
            };
            let retryable = matches!(failure, BackendError::ShardUnavailable { .. });
            if !retryable || call.budget == 0 {
                self.mark_down();
                return Err(failure);
            }
            call.budget -= 1;
            self.metrics.retries.inc();
            let sleep = match self.clamp(call.deadline, call.next_backoff) {
                Ok(d) => d,
                Err(timeout) => {
                    self.mark_down();
                    return Err(timeout);
                }
            };
            std::thread::sleep(sleep);
            call.next_backoff *= 2;
            call.state = match self.send_attempt(call.opcode, &call.payload, call.deadline) {
                Ok(state) => state,
                Err(e) => CallState::Failed(e),
            };
        }
    }

    fn await_reply(
        &self,
        call: &PendingCall,
        conn: &Arc<Conn>,
        request_id: u64,
        rx: &mpsc::Receiver<RpcResult>,
        sent_at: Instant,
    ) -> Result<Frame, BackendError> {
        let wait = self.clamp(call.deadline, self.config.rpc_timeout);
        let wait = match wait {
            Ok(d) => d,
            Err(timeout) => {
                conn.pending.lock().unwrap().remove(&request_id);
                conn.poison("request deadline expired");
                return Err(timeout);
            }
        };
        match rx.recv_timeout(wait) {
            Ok(Ok(frame)) => {
                self.metrics.rpc_seconds.record_duration(sent_at.elapsed());
                match frame.opcode {
                    op if op == call.expect_reply => Ok(frame),
                    Opcode::Error => Err(self.protocol(format!(
                        "shard error: {}",
                        String::from_utf8_lossy(&frame.payload)
                    ))),
                    other => Err(self.protocol(format!(
                        "expected {:?} reply, got {other:?}",
                        call.expect_reply
                    ))),
                }
            }
            Ok(Err(transport)) => Err(self.unavailable(transport)),
            Err(_) => {
                // Caller-side timeout. The connection may be wedged, and
                // a late reply must not be mistaken for a fresh one, so
                // the timeout is connection-fatal.
                conn.pending.lock().unwrap().remove(&request_id);
                conn.poison("rpc timed out");
                Err(self.timeout())
            }
        }
    }

    /// Send-and-wait convenience for unpipelined callers.
    pub fn call(
        &self,
        opcode: Opcode,
        payload: Vec<u8>,
        expect_reply: Opcode,
        deadline: Option<Instant>,
    ) -> Result<Frame, BackendError> {
        let started = self.start_call(opcode, payload, expect_reply, deadline)?;
        self.finish_call(started)
    }

    fn mark_up(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        *self.down_until.lock().unwrap() = None;
    }

    fn mark_down(&self) {
        self.consecutive_failures.fetch_add(1, Ordering::Relaxed);
        self.metrics.failures.inc();
        // Protocol disagreements open the circuit too: the peer is the
        // wrong software or the wrong model, and hammering it can't help.
        *self.down_until.lock().unwrap() = Some(Instant::now() + self.config.cooldown);
    }

    /// Health probe. Bypasses the fail-fast circuit — this is the path a
    /// recovered shard comes back through.
    pub fn ping(&self, timeout: Duration) -> ShardHealth {
        let started = Instant::now();
        let deadline = Some(started + timeout);
        // Bypass start_call's circuit check but reuse the whole retry-free
        // send/await machinery via a zero-budget pending call.
        let result = match self.send_attempt(Opcode::Ping, &[], deadline) {
            Ok(state) => {
                let call = PendingCall {
                    opcode: Opcode::Ping,
                    payload: Vec::new(),
                    expect_reply: Opcode::Pong,
                    deadline,
                    state: CallState::Failed(self.unavailable("unreachable")),
                    budget: 0,
                    next_backoff: self.config.backoff,
                };
                match state {
                    CallState::InFlight {
                        conn,
                        request_id,
                        rx,
                        sent_at,
                    } => self.await_reply(&call, &conn, request_id, &rx, sent_at),
                    CallState::Failed(e) => Err(e),
                }
            }
            Err(e) => Err(e),
        };
        let last_check = started.elapsed();
        match result {
            Ok(_) => {
                self.mark_up();
                ShardHealth {
                    shard: self.expect.index,
                    addr: self.addr.clone(),
                    ok: true,
                    last_check,
                    consecutive_failures: 0,
                    detail: String::new(),
                }
            }
            Err(e) => {
                self.consecutive_failures.fetch_add(1, Ordering::Relaxed);
                ShardHealth {
                    shard: self.expect.index,
                    addr: self.addr.clone(),
                    ok: false,
                    last_check,
                    consecutive_failures: self.consecutive_failures.load(Ordering::Relaxed),
                    detail: e.to_string(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{ShardServer, ShardSlice};

    /// A one-topic shard `index` over word ids `[0, 3)`.
    fn spawn_shard(index: usize, digest: u64) -> (crate::shard::ShardServerHandle, ExpectedShard) {
        let slice =
            ShardSlice::from_parts(index, 0, 3, digest, vec![vec![0.25, 0.5, 0.25]]).unwrap();
        let handle = ShardServer::bind("127.0.0.1:0", slice)
            .unwrap()
            .spawn()
            .unwrap();
        let expect = ExpectedShard {
            index,
            lo: 0,
            hi: 3,
            n_topics: 1,
            digest,
        };
        (handle, expect)
    }

    fn quick_config() -> PoolConfig {
        PoolConfig {
            connect_timeout: Duration::from_millis(200),
            rpc_timeout: Duration::from_millis(500),
            retries: 1,
            backoff: Duration::from_millis(1),
            cooldown: Duration::from_millis(100),
        }
    }

    #[test]
    fn pooled_calls_reuse_one_connection_and_pipeline() {
        // The fleet series are process-global and labeled by shard index;
        // no other test in this binary uses shard 9, so the deltas below
        // count this test's traffic alone.
        let (handle, expect) = spawn_shard(9, 7);
        let series = fleet_shard_metrics(9);
        let rpcs_before = series.rpc_seconds.snapshot().count();
        let frames_before = series.frames_sent.get();
        let client = ShardClient::new(expect, handle.addr().to_string(), quick_config());
        // Two overlapping calls: both started before either finishes.
        let a = client
            .start_call(
                Opcode::GatherPhiBatch,
                wire::encode_gather(&[0, 2]),
                Opcode::PhiBlock,
                None,
            )
            .unwrap();
        let b = client
            .start_call(
                Opcode::GatherPhiBatch,
                wire::encode_gather(&[1]),
                Opcode::PhiBlock,
                None,
            )
            .unwrap();
        let fa = client.finish_call(a).unwrap();
        let fb = client.finish_call(b).unwrap();
        assert_eq!(
            wire::decode_phi_block(&fa.payload, 2, 1).unwrap(),
            vec![0.25, 0.25]
        );
        assert_eq!(
            wire::decode_phi_block(&fb.payload, 1, 1).unwrap(),
            vec![0.5]
        );
        // One handshake + two RPCs, all on one connection.
        assert_eq!(series.rpc_seconds.snapshot().count() - rpcs_before, 2);
        assert_eq!(series.frames_sent.get() - frames_before, 3);
        handle.shutdown();
    }

    #[test]
    fn digest_mismatch_is_a_protocol_error_not_a_retry() {
        let (handle, mut expect) = spawn_shard(0, 7);
        expect.digest = 8;
        let client = ShardClient::new(expect, handle.addr().to_string(), quick_config());
        let err = client
            .call(Opcode::Ping, Vec::new(), Opcode::Pong, None)
            .unwrap_err();
        assert!(matches!(err, BackendError::Protocol { .. }), "{err}");
        assert!(err.to_string().contains("digest mismatch"), "{err}");
        handle.shutdown();
    }

    #[test]
    fn dead_shard_fails_bounded_then_circuit_opens_then_ping_recovers() {
        let (handle, expect) = spawn_shard(0, 7);
        let addr = handle.addr();
        handle.shutdown();
        let client = ShardClient::new(expect, addr.to_string(), quick_config());
        let started = Instant::now();
        let err = client
            .call(Opcode::Ping, Vec::new(), Opcode::Pong, None)
            .unwrap_err();
        assert!(
            matches!(err, BackendError::ShardUnavailable { .. }),
            "{err}"
        );
        // Bounded: two attempts with tiny backoff, well under a second.
        assert!(started.elapsed() < Duration::from_secs(5));
        // Circuit open: the next call fails without dialing.
        let started = Instant::now();
        let err = client
            .call(Opcode::Ping, Vec::new(), Opcode::Pong, None)
            .unwrap_err();
        assert!(err.to_string().contains("circuit open"), "{err}");
        assert!(started.elapsed() < Duration::from_millis(50));
        // Restart on the same port; a health ping closes the circuit.
        let slice = ShardSlice::from_parts(0, 0, 3, 7, vec![vec![0.25, 0.5, 0.25]]).unwrap();
        let revived = ShardServer::bind(addr, slice).unwrap().spawn().unwrap();
        let health = client.ping(Duration::from_secs(2));
        assert!(health.ok, "{}", health.detail);
        let frame = client
            .call(
                Opcode::GatherPhiBatch,
                wire::encode_gather(&[1]),
                Opcode::PhiBlock,
                None,
            )
            .unwrap();
        assert_eq!(
            wire::decode_phi_block(&frame.payload, 1, 1).unwrap(),
            vec![0.5]
        );
        revived.shutdown();
    }
}
