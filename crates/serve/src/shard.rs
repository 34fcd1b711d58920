//! The shard process side of fleet serving: a [`ShardSlice`] holds one
//! `shard-K/` φ block and a [`ShardServer`] answers wire-protocol gathers
//! against it.
//!
//! A shard process is deliberately dumb — it never tokenizes, segments, or
//! samples. It loads exactly one shard directory's φ (the bulk of a
//! bundle; vocabulary and lexicon stay router-side) and answers three
//! questions: *who are you* (`Hello` → `Meta`), *are you alive* (`Ping` →
//! `Pong`), and *give me these φ columns* (`GatherPhiBatch` → `PhiBlock`).
//! That keeps the inter-process contract as small as the LightLDA-style
//! parameter-server split demands: workers own slices of φ, everything
//! else is the caller's problem.
//!
//! Concurrency model: a thread per connection, as in the HTTP front end,
//! each registered in the same connection registry so a shutdown can
//! sever it. Each connection's frames are answered in arrival order —
//! pipelining on one connection overlaps network with compute, and the
//! router opens one connection per shard, so a shard serves its whole
//! fleet role with a handful of threads. Both servers hold at most
//! [`MAX_CONNECTIONS`](crate::http::MAX_CONNECTIONS) connections; one more
//! is closed unread, which a router's dial treats as an unavailable shard
//! and retries. A connection must send its `Hello` within
//! [`HELLO_DEADLINE`], so a silent client cannot hold its thread for as
//! long as it stays connected.
//!
//! Robustness: any [`WireError`] on a connection gets a best-effort
//! `Error` frame (tagged with the offending request id when known) and the
//! connection is closed. A malformed frame can never panic the process or
//! wedge the thread.

use crate::frozen::gather_word_major;
use crate::io::data_err;
use crate::registry::{Connections, ACCEPT_RETRY_PAUSE, MAX_CONNECTIONS};
use crate::sharded::Manifest;
use crate::wire::{self, Frame, Opcode, ShardMeta, WireError, MAX_FRAME, WIRE_VERSION};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a new connection may take to send its `Hello`. A router sends
/// it as soon as it connects; a connection still silent after this long is
/// closed.
pub const HELLO_DEADLINE: Duration = Duration::from_secs(2);

/// One shard's worth of φ plus the identity the handshake advertises.
#[derive(Debug, Clone)]
pub struct ShardSlice {
    pub index: usize,
    /// First owned global word id.
    pub lo: u32,
    /// One past the last owned global word id.
    pub hi: u32,
    pub n_topics: usize,
    /// Bundle digest ([`wire::manifest_digest`]) of the bundle this slice
    /// came from.
    pub digest: u64,
    /// φ block, `n_topics` rows × `hi − lo` columns.
    phi: Vec<Vec<f64>>,
}

impl ShardSlice {
    /// Load shard `index` of the bundle at `dir`: the manifest
    /// (for topology and the digest) plus that one shard's `phi.bin`, each
    /// verified against its digest. Nothing else is read — a shard
    /// process's footprint is its φ slice.
    pub fn load(dir: &Path, index: usize) -> io::Result<Self> {
        let manifest = Manifest::read(dir)?;
        let n_shards = manifest.boundaries.len() - 1;
        if index >= n_shards {
            return Err(data_err(format!(
                "shard index {index} out of range 0..{n_shards}: the bundle has {n_shards} shard(s)"
            )));
        }
        let (lo, hi) = (manifest.boundaries[index], manifest.boundaries[index + 1]);
        let n_topics = manifest.fields.header.n_topics;
        let mut phi = Vec::new();
        let rel = format!("shard-{index}/phi.bin");
        manifest
            .header
            .read_phi(&rel, &mut phi, n_topics, (hi - lo) as usize)?;
        Ok(Self {
            index,
            lo,
            hi,
            n_topics,
            digest: manifest.header.digest(),
            phi,
        })
    }

    /// Build a slice from an in-memory φ block (tests and in-process
    /// fleets).
    pub fn from_parts(
        index: usize,
        lo: u32,
        hi: u32,
        digest: u64,
        phi: Vec<Vec<f64>>,
    ) -> io::Result<Self> {
        let width = (hi - lo) as usize;
        if phi.iter().any(|row| row.len() != width) {
            return Err(data_err(format!(
                "shard {index} φ rows do not all have width {width}"
            )));
        }
        Ok(Self {
            index,
            lo,
            hi,
            n_topics: phi.len(),
            digest,
            phi,
        })
    }

    /// The identity advertised in the handshake's `Meta` frame.
    pub fn meta(&self) -> ShardMeta {
        ShardMeta {
            version: WIRE_VERSION,
            shard_index: self.index as u32,
            lo: self.lo,
            hi: self.hi,
            n_topics: self.n_topics as u32,
            digest: self.digest,
        }
    }

    /// Gather φ columns for owned global ids, word-major (`n × n_topics`)
    /// — the same layout as
    /// [`ModelBackend::try_gather_phi_batch`](crate::ModelBackend::try_gather_phi_batch), so
    /// the router splices each answered word as one K-value copy. Ids
    /// outside `[lo, hi)` are a request error, not a panic.
    pub fn gather(&self, ids: &[u32]) -> Result<Vec<f64>, String> {
        for &id in ids {
            if id < self.lo || id >= self.hi {
                return Err(format!(
                    "word id {id} outside shard {} range [{}, {})",
                    self.index, self.lo, self.hi
                ));
            }
        }
        Ok(gather_word_major(
            &self.phi,
            ids.iter().map(|&id| (id - self.lo) as usize),
        ))
    }
}

/// A bound-but-not-yet-running shard server; [`ShardServer::spawn`] or
/// [`ShardServer::run`] starts accepting.
pub struct ShardServer {
    listener: TcpListener,
    slice: Arc<ShardSlice>,
}

/// Handle to a running shard server: its bound address and a shutdown
/// that also severs in-flight connections (so a "killed" shard drops
/// mid-RPC, which is exactly what the failure tests need).
pub struct ShardServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<Connections>,
    join: Option<JoinHandle<()>>,
}

impl ShardServer {
    pub fn bind(addr: impl ToSocketAddrs, slice: ShardSlice) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            slice: Arc::new(slice),
        })
    }

    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept-and-serve on a background thread; returns the handle.
    pub fn spawn(self) -> io::Result<ShardServerHandle> {
        let addr = self.listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Connections::default());
        let join = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name(format!("shard-{}-accept", self.slice.index))
                .spawn(move || self.accept_loop(&stop, &conns))?
        };
        Ok(ShardServerHandle {
            addr,
            stop,
            conns,
            join: Some(join),
        })
    }

    /// Accept-and-serve on the calling thread until the process dies —
    /// the `topmine serve-shard` entry point.
    pub fn run(self) -> io::Result<()> {
        self.accept_loop(&AtomicBool::new(false), &Arc::new(Connections::default()));
        Ok(())
    }

    fn accept_loop(self, stop: &AtomicBool, conns: &Arc<Connections>) {
        for stream in self.listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else {
                std::thread::sleep(ACCEPT_RETRY_PAUSE);
                continue;
            };
            if conns.len() >= MAX_CONNECTIONS {
                // Dropped, so closed, unread.
                continue;
            }
            // Replies are pipelined: with Nagle's algorithm on, the small
            // tail of one reply waits for the router to acknowledge the
            // tail of the reply before it, which a delayed ACK can hold
            // for tens of milliseconds.
            let _ = stream.set_nodelay(true);
            // Registered so a shutdown can sever the connection even while
            // its thread is blocked mid-read.
            let stream = Arc::new(stream);
            let registration = conns.register(&stream);
            let slice = Arc::clone(&self.slice);
            let _ = std::thread::Builder::new()
                .name(format!("shard-{}-conn", slice.index))
                .spawn(move || {
                    let _registration = registration;
                    serve_connection(&slice, &stream);
                });
        }
    }
}

impl ShardServerHandle {
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting and sever every live connection. Simulates (and is)
    /// a hard shard death from the router's point of view: in-flight RPCs
    /// see the connection drop, not a graceful drain.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        // Joined first, so no connection registers after the severing.
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        self.conns.shutdown_all(Shutdown::Both);
    }
}

/// Serve one connection until it closes or violates the protocol. The
/// first frame must be a valid `Hello`; afterwards `GatherPhiBatch` and
/// `Ping` may arrive in any number and are answered in order under their
/// request ids.
fn serve_connection(slice: &ShardSlice, stream: &TcpStream) {
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);

    // Handshake first, within `HELLO_DEADLINE`: anything else on a fresh
    // connection is a protocol error and the peer learns why before the
    // close. Afterwards reads wait as long as the router stays connected.
    if stream.set_read_timeout(Some(HELLO_DEADLINE)).is_err() {
        return;
    }
    match wire::read_frame(&mut reader) {
        Ok(frame) if frame.opcode == Opcode::Hello => match wire::decode_hello(&frame.payload) {
            Ok(version) if version == WIRE_VERSION => {
                let meta = wire::encode_meta(&slice.meta());
                if wire::write_frame(&mut writer, frame.request_id, Opcode::Meta, &[&meta]).is_err()
                    || stream.set_read_timeout(None).is_err()
                {
                    return;
                }
            }
            Ok(version) => {
                send_error(
                    &mut writer,
                    frame.request_id,
                    &format!(
                        "unsupported wire version {version} (this shard speaks {WIRE_VERSION})"
                    ),
                );
                return;
            }
            Err(e) => {
                send_error(&mut writer, frame.request_id, &e.to_string());
                return;
            }
        },
        Ok(frame) => {
            send_error(&mut writer, frame.request_id, "first frame must be Hello");
            return;
        }
        Err(_) => return,
    }

    loop {
        let Frame {
            request_id,
            opcode,
            payload,
        } = match wire::read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(WireError::Closed) => return,
            Err(e) => {
                // Truncated/oversize/unknown-opcode/io: tell the peer
                // (best effort — it may already be gone) and close. The
                // stream position is unknowable after a framing error, so
                // the connection cannot continue.
                send_error(&mut writer, 0, &e.to_string());
                return;
            }
        };
        let ok = match opcode {
            Opcode::Ping => wire::write_frame(&mut writer, request_id, Opcode::Pong, &[]).is_ok(),
            Opcode::GatherPhiBatch => match wire::decode_gather(&payload) {
                Ok(ids) => match slice.gather(&ids) {
                    Ok(values) => {
                        // Reply without staging the f64 bits into one
                        // contiguous buffer beyond the encode itself.
                        let body = wire::encode_phi_block(ids.len(), &values);
                        debug_assert!(body.len() as u32 <= MAX_FRAME);
                        wire::write_frame(&mut writer, request_id, Opcode::PhiBlock, &[&body])
                            .is_ok()
                    }
                    Err(msg) => {
                        send_error(&mut writer, request_id, &msg);
                        false
                    }
                },
                Err(e) => {
                    send_error(&mut writer, request_id, &e.to_string());
                    false
                }
            },
            Opcode::Hello => {
                send_error(&mut writer, request_id, "duplicate Hello");
                false
            }
            Opcode::Meta | Opcode::PhiBlock | Opcode::Pong | Opcode::Error => {
                send_error(
                    &mut writer,
                    request_id,
                    &format!("response opcode {:?} sent to a shard", opcode),
                );
                false
            }
        };
        if !ok {
            return;
        }
    }
}

fn send_error(writer: &mut impl Write, request_id: u64, msg: &str) {
    let _ = wire::write_frame(writer, request_id, Opcode::Error, &[msg.as_bytes()]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_slice() -> ShardSlice {
        // 2 topics × ids [10, 14)
        ShardSlice::from_parts(
            1,
            10,
            14,
            0xABCD,
            vec![vec![0.1, 0.2, 0.3, 0.4], vec![0.5, 0.6, 0.7, 0.8]],
        )
        .unwrap()
    }

    #[test]
    fn gather_is_word_major_and_range_checked() {
        let s = test_slice();
        let got = s.gather(&[12, 10]).unwrap();
        assert_eq!(got, vec![0.3, 0.7, 0.1, 0.5]);
        assert!(s.gather(&[14]).is_err());
        assert!(s.gather(&[9]).is_err());
        assert_eq!(s.gather(&[]).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn server_answers_handshake_ping_and_gather() {
        let handle = ShardServer::bind("127.0.0.1:0", test_slice())
            .unwrap()
            .spawn()
            .unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        wire::write_frame(&mut writer, 1, Opcode::Hello, &[&wire::encode_hello()]).unwrap();
        let meta = wire::read_frame(&mut reader).unwrap();
        assert_eq!(meta.opcode, Opcode::Meta);
        let meta = wire::decode_meta(&meta.payload).unwrap();
        assert_eq!((meta.shard_index, meta.lo, meta.hi), (1, 10, 14));
        assert_eq!(meta.digest, 0xABCD);

        // Pipelined: two requests down before either answer is read.
        wire::write_frame(
            &mut writer,
            7,
            Opcode::GatherPhiBatch,
            &[&wire::encode_gather(&[11, 13])],
        )
        .unwrap();
        wire::write_frame(&mut writer, 8, Opcode::Ping, &[]).unwrap();
        let phi = wire::read_frame(&mut reader).unwrap();
        assert_eq!((phi.request_id, phi.opcode), (7, Opcode::PhiBlock));
        assert_eq!(
            wire::decode_phi_block(&phi.payload, 2, 2).unwrap(),
            vec![0.2, 0.6, 0.4, 0.8]
        );
        let pong = wire::read_frame(&mut reader).unwrap();
        assert_eq!((pong.request_id, pong.opcode), (8, Opcode::Pong));
        handle.shutdown();
    }

    #[test]
    fn protocol_violations_get_an_error_frame_then_close() {
        let handle = ShardServer::bind("127.0.0.1:0", test_slice())
            .unwrap()
            .spawn()
            .unwrap();
        // Skipping the handshake is a violation.
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        wire::write_frame(&mut writer, 3, Opcode::Ping, &[]).unwrap();
        let err = wire::read_frame(&mut reader).unwrap();
        assert_eq!((err.request_id, err.opcode), (3, Opcode::Error));
        assert!(matches!(
            wire::read_frame(&mut reader),
            Err(WireError::Closed)
        ));

        // Out-of-range gather ids error the request, then the connection
        // closes (the stream itself is still well-framed, but the server
        // treats a bad request as terminal to keep semantics simple).
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        wire::write_frame(&mut writer, 1, Opcode::Hello, &[&wire::encode_hello()]).unwrap();
        assert_eq!(wire::read_frame(&mut reader).unwrap().opcode, Opcode::Meta);
        wire::write_frame(
            &mut writer,
            5,
            Opcode::GatherPhiBatch,
            &[&wire::encode_gather(&[99])],
        )
        .unwrap();
        let err = wire::read_frame(&mut reader).unwrap();
        assert_eq!((err.request_id, err.opcode), (5, Opcode::Error));
        handle.shutdown();
    }
}
