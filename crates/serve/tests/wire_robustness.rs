//! Hostile-input hardening for the fleet wire protocol, both directions:
//!
//! * **shard side** — a rogue client sending truncated frames, oversize
//!   length prefixes, unknown opcodes, or disconnecting mid-frame gets a
//!   best-effort `Error` frame and a clean close; the server never panics
//!   and keeps serving fresh connections; it holds at most
//!   `MAX_CONNECTIONS` connections, and closes one that sends no `Hello`
//!   within `HELLO_DEADLINE`;
//! * **router side** — a rogue or stalled shard (garbage handshake,
//!   silence, mid-RPC disconnect, oversize reply) surfaces as a typed
//!   [`BackendError`] within its deadline; the client never hangs.
//!
//! Both sides refuse a peer speaking another wire version, naming both
//! versions.

mod fleet_common;

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use topmine_serve::http::MAX_CONNECTIONS;
use topmine_serve::pool::ExpectedShard;
use topmine_serve::shard::HELLO_DEADLINE;
use topmine_serve::wire::{self, Opcode, ShardMeta, WIRE_MAGIC};
use topmine_serve::{
    BackendError, PoolConfig, RemoteShardedModel, ShardClient, ShardServer, ShardServerHandle,
    ShardSlice, WireError, WIRE_VERSION,
};

/// The wire version before this build's.
const OLD_VERSION: u16 = WIRE_VERSION - 1;

fn test_slice() -> ShardSlice {
    // 2 topics x ids [10, 14)
    ShardSlice::from_parts(
        0,
        10,
        14,
        0xFEED,
        vec![vec![0.1, 0.2, 0.3, 0.4], vec![0.5, 0.6, 0.7, 0.8]],
    )
    .unwrap()
}

fn spawn_server() -> ShardServerHandle {
    ShardServer::bind("127.0.0.1:0", test_slice())
        .unwrap()
        .spawn()
        .unwrap()
}

/// Connect and complete a valid handshake; returns (reader, writer).
fn handshaken(addr: std::net::SocketAddr) -> (std::io::BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    wire::write_frame(&mut writer, 1, Opcode::Hello, &[&wire::encode_hello()]).unwrap();
    let meta = wire::read_frame(&mut reader).unwrap();
    assert_eq!(meta.opcode, Opcode::Meta);
    (reader, writer)
}

#[test]
fn shard_rejects_oversize_length_prefix_with_error_then_close() {
    let handle = spawn_server();
    let (mut reader, mut writer) = handshaken(handle.addr());
    // A length prefix far past MAX_FRAME; no payload ever follows.
    writer.write_all(&u32::MAX.to_le_bytes()).unwrap();
    writer.flush().unwrap();
    let err = wire::read_frame(&mut reader).unwrap();
    assert_eq!(err.opcode, Opcode::Error);
    assert!(
        String::from_utf8_lossy(&err.payload).contains("cap"),
        "{:?}",
        String::from_utf8_lossy(&err.payload)
    );
    assert!(matches!(
        wire::read_frame(&mut reader),
        Err(WireError::Closed)
    ));
    handle.shutdown();
}

#[test]
fn shard_rejects_unknown_opcode_with_error_then_close() {
    let handle = spawn_server();
    let (mut reader, mut writer) = handshaken(handle.addr());
    // Hand-rolled frame with opcode 99: len=9 (req id + opcode), no payload.
    let mut raw = Vec::new();
    raw.extend_from_slice(&9u32.to_le_bytes());
    raw.extend_from_slice(&77u64.to_le_bytes());
    raw.push(99);
    writer.write_all(&raw).unwrap();
    writer.flush().unwrap();
    let err = wire::read_frame(&mut reader).unwrap();
    assert_eq!(err.opcode, Opcode::Error);
    assert!(matches!(
        wire::read_frame(&mut reader),
        Err(WireError::Closed)
    ));
    handle.shutdown();
}

#[test]
fn shard_reports_truncated_frame_on_half_close() {
    let handle = spawn_server();
    let (mut reader, mut writer) = handshaken(handle.addr());
    // Claim 100 bytes, deliver 10, then half-close: the server must see
    // Truncated, answer with an Error frame, and close — not hang waiting
    // for the other 90 bytes.
    writer.write_all(&100u32.to_le_bytes()).unwrap();
    writer.write_all(&[0u8; 10]).unwrap();
    writer.flush().unwrap();
    writer.shutdown(std::net::Shutdown::Write).unwrap();
    let err = wire::read_frame(&mut reader).unwrap();
    assert_eq!(err.opcode, Opcode::Error);
    assert!(matches!(
        wire::read_frame(&mut reader),
        Err(WireError::Closed)
    ));
    handle.shutdown();
}

#[test]
fn shard_survives_mid_frame_disconnect_and_keeps_serving() {
    let handle = spawn_server();
    for _ in 0..3 {
        let (_reader, mut writer) = handshaken(handle.addr());
        writer.write_all(&1000u32.to_le_bytes()).unwrap();
        writer.write_all(&[1u8; 7]).unwrap();
        writer.flush().unwrap();
        drop(writer); // vanish mid-frame
    }
    // The server is still healthy: a well-behaved connection works.
    let (mut reader, mut writer) = handshaken(handle.addr());
    wire::write_frame(
        &mut writer,
        5,
        Opcode::GatherPhiBatch,
        &[&wire::encode_gather(&[11, 12])],
    )
    .unwrap();
    let phi = wire::read_frame(&mut reader).unwrap();
    assert_eq!((phi.request_id, phi.opcode), (5, Opcode::PhiBlock));
    assert_eq!(
        wire::decode_phi_block(&phi.payload, 2, 2).unwrap(),
        vec![0.2, 0.6, 0.3, 0.7]
    );
    handle.shutdown();
}

#[test]
fn shard_answers_an_old_version_hello_with_an_error_then_close() {
    let handle = spawn_server();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut hello = WIRE_MAGIC.to_le_bytes().to_vec();
    hello.extend_from_slice(&OLD_VERSION.to_le_bytes());
    wire::write_frame(&mut writer, 4, Opcode::Hello, &[&hello]).unwrap();
    let err = wire::read_frame(&mut reader).unwrap();
    assert_eq!((err.request_id, err.opcode), (4, Opcode::Error));
    let msg = String::from_utf8_lossy(&err.payload).into_owned();
    assert!(
        msg.contains(&format!("version {OLD_VERSION}")) && msg.contains(&WIRE_VERSION.to_string()),
        "{msg}"
    );
    assert!(matches!(
        wire::read_frame(&mut reader),
        Err(WireError::Closed)
    ));
    handle.shutdown();
}

/// Try one handshake; `None` if the shard closed the connection first.
fn try_handshake(addr: std::net::SocketAddr) -> Option<Opcode> {
    let stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    wire::write_frame(&mut writer, 1, Opcode::Hello, &[&wire::encode_hello()]).ok()?;
    wire::read_frame(&mut reader).ok().map(|frame| frame.opcode)
}

#[test]
fn shard_closes_a_connection_beyond_max_connections_unread() {
    let handle = spawn_server();
    // An admitted connection stays open at least `HELLO_DEADLINE` after
    // `start`, so a close before then is the cap's.
    let start = Instant::now();
    let mut held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(handle.addr()).unwrap())
        .collect();
    let mut extra = TcpStream::connect(handle.addr()).unwrap();
    extra.set_read_timeout(Some(HELLO_DEADLINE)).unwrap();
    let mut unread = Vec::new();
    extra
        .read_to_end(&mut unread)
        .expect("the connection over the cap is closed");
    assert!(unread.is_empty(), "{unread:?}");
    assert!(start.elapsed() < HELLO_DEADLINE, "{:?}", start.elapsed());
    // Closing a held connection frees its slot for a new handshake.
    drop(held.pop());
    let meta = loop {
        if let Some(opcode) = try_handshake(handle.addr()) {
            break opcode;
        }
        assert!(start.elapsed() < HELLO_DEADLINE, "no slot freed");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(meta, Opcode::Meta);
    assert!(start.elapsed() < HELLO_DEADLINE, "{:?}", start.elapsed());
    drop(held);
    handle.shutdown();
}

#[test]
fn shard_closes_a_connection_silent_past_the_hello_deadline() {
    let handle = spawn_server();
    let (mut reader, mut writer) = handshaken(handle.addr());
    let start = Instant::now();
    let mut silent = TcpStream::connect(handle.addr()).unwrap();
    silent
        .set_read_timeout(Some(HELLO_DEADLINE + Duration::from_secs(1)))
        .unwrap();
    let mut unread = Vec::new();
    silent
        .read_to_end(&mut unread)
        .expect("closed within the deadline plus 1 s");
    assert!(unread.is_empty(), "{unread:?}");
    assert!(
        start.elapsed() >= HELLO_DEADLINE / 2,
        "{:?}",
        start.elapsed()
    );
    // The deadline ends with the handshake: an idle handshaken connection
    // still answers once it has passed.
    std::thread::sleep(HELLO_DEADLINE.saturating_sub(start.elapsed()) + Duration::from_millis(200));
    wire::write_frame(&mut writer, 7, Opcode::Ping, &[]).unwrap();
    let pong = wire::read_frame(&mut reader).unwrap();
    assert_eq!((pong.request_id, pong.opcode), (7, Opcode::Pong));
    handle.shutdown();
}

// ----- router side ----------------------------------------------------------

fn fast_config() -> PoolConfig {
    PoolConfig {
        connect_timeout: Duration::from_millis(500),
        rpc_timeout: Duration::from_millis(700),
        retries: 1,
        backoff: Duration::from_millis(5),
        cooldown: Duration::from_millis(100),
    }
}

fn expected() -> ExpectedShard {
    ExpectedShard {
        index: 0,
        lo: 10,
        hi: 14,
        n_topics: 2,
        digest: 0xFEED,
    }
}

fn client_for(addr: std::net::SocketAddr) -> ShardClient {
    ShardClient::new(expected(), addr.to_string(), fast_config())
}

/// A fake shard: accepts connections forever, handing each to `behave`.
/// The thread is deliberately detached — it dies with the test process.
fn rogue_shard(behave: impl Fn(TcpStream) + Send + Sync + 'static) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            behave(stream);
        }
    });
    addr
}

/// Complete the shard side of a valid handshake on `stream`.
fn answer_handshake(stream: &TcpStream) -> bool {
    let e = expected();
    let meta = ShardMeta {
        version: WIRE_VERSION,
        shard_index: e.index as u32,
        lo: e.lo,
        hi: e.hi,
        n_topics: e.n_topics,
        digest: e.digest,
    };
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return false,
    });
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return false,
    };
    match wire::read_frame(&mut reader) {
        Ok(f) if f.opcode == Opcode::Hello => wire::write_frame(
            &mut writer,
            f.request_id,
            Opcode::Meta,
            &[&wire::encode_meta(&meta)],
        )
        .is_ok(),
        _ => false,
    }
}

fn gather_call(
    client: &ShardClient,
    deadline: Option<Instant>,
) -> Result<wire::Frame, BackendError> {
    client.call(
        Opcode::GatherPhiBatch,
        wire::encode_gather(&[11]),
        Opcode::PhiBlock,
        deadline,
    )
}

#[test]
fn garbage_handshake_is_a_clean_bounded_error() {
    let addr = rogue_shard(|mut stream| {
        let _ = stream.write_all(b"HTTP/1.1 200 OK\r\n\r\nnot a shard");
    });
    let client = client_for(addr);
    let started = Instant::now();
    let err = gather_call(&client, Some(Instant::now() + Duration::from_secs(2)))
        .expect_err("garbage handshake must fail");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "took {:?}",
        started.elapsed()
    );
    // Depending on which byte the framing dies on this is Unavailable
    // (transport) or Protocol (bad Meta) — either way a typed error, 5xx.
    assert!(err.http_status() >= 500, "{err}");
}

#[test]
fn silent_server_times_out_the_handshake() {
    let addr = rogue_shard(|stream| {
        // Accept, say nothing, keep the socket open for a while.
        std::thread::sleep(Duration::from_secs(30));
        drop(stream);
    });
    let client = client_for(addr);
    let started = Instant::now();
    let err = gather_call(&client, Some(Instant::now() + Duration::from_millis(400)))
        .expect_err("silent handshake must time out");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "took {:?}",
        started.elapsed()
    );
    assert!(err.http_status() >= 500, "{err}");
}

#[test]
fn stalled_shard_fires_the_request_deadline() {
    let addr = rogue_shard(|stream| {
        if !answer_handshake(&stream) {
            return;
        }
        // Swallow every request, answer none.
        let mut reader = std::io::BufReader::new(stream);
        while wire::read_frame(&mut reader).is_ok() {}
    });
    let client = client_for(addr);
    let started = Instant::now();
    let err = gather_call(&client, Some(Instant::now() + Duration::from_millis(300)))
        .expect_err("stalled gather must time out");
    let elapsed = started.elapsed();
    assert!(
        matches!(err, BackendError::Timeout { .. }),
        "want Timeout, got {err}"
    );
    assert_eq!(err.http_status(), 504);
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
}

#[test]
fn mid_rpc_disconnect_is_a_bounded_unavailable_error() {
    let addr = rogue_shard(|stream| {
        if !answer_handshake(&stream) {
            return;
        }
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        // Read the gather request, then send half a reply frame and die.
        if wire::read_frame(&mut reader).is_ok() {
            let mut writer = stream;
            let _ = writer.write_all(&500u32.to_le_bytes());
            let _ = writer.write_all(&[0u8; 6]);
            let _ = writer.flush();
        }
    });
    let client = client_for(addr);
    let started = Instant::now();
    let err = gather_call(&client, Some(Instant::now() + Duration::from_secs(2)))
        .expect_err("mid-frame disconnect must fail");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "took {:?}",
        started.elapsed()
    );
    assert!(err.http_status() >= 500, "{err}");
}

#[test]
fn oversize_reply_length_prefix_cannot_wedge_the_client() {
    let addr = rogue_shard(|stream| {
        if !answer_handshake(&stream) {
            return;
        }
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        if wire::read_frame(&mut reader).is_ok() {
            let mut writer = stream;
            let _ = writer.write_all(&u32::MAX.to_le_bytes());
            let _ = writer.flush();
            std::thread::sleep(Duration::from_secs(30));
        }
    });
    let client = client_for(addr);
    let started = Instant::now();
    let err = gather_call(&client, Some(Instant::now() + Duration::from_secs(1)))
        .expect_err("oversize reply must fail");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "took {:?}",
        started.elapsed()
    );
    assert!(err.http_status() >= 500, "{err}");
}

#[test]
fn router_refuses_a_shard_speaking_an_old_version() {
    // A real one-shard bundle; the rogue shard answers every Hello with a
    // Meta frame carrying the previous wire version (the version is
    // checked before anything else in it).
    let dir = fleet_common::save_sharded("old-wire", &fleet_common::fitted_model(3), 1);
    let addr = rogue_shard(|stream| {
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        if let Ok(hello) = wire::read_frame(&mut reader) {
            let meta = wire::encode_meta(&ShardMeta {
                version: OLD_VERSION,
                shard_index: 0,
                lo: 0,
                hi: 0,
                n_topics: 0,
                digest: 0,
            });
            let _ = wire::write_frame(&mut writer, hello.request_id, Opcode::Meta, &[&meta]);
        }
    });
    let err = match RemoteShardedModel::connect(&dir, &[addr.to_string()], fast_config()) {
        Ok(_) => panic!("connect accepted a shard speaking wire version {OLD_VERSION}"),
        Err(e) => e.to_string(),
    };
    assert!(
        err.contains(&format!("wire version {OLD_VERSION}"))
            && err.contains(&format!("speaks {WIRE_VERSION}")),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(dir);
}
