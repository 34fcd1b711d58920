//! The fleet wire protocol: length-prefixed binary frames between the
//! serving router and `topmine serve-shard` processes.
//!
//! Same discipline as the rest of the serving stack — `std` only, no
//! serialization crates, every integer little-endian and every `f64`
//! shipped as its exact bit pattern (`to_bits`), so a φ column crosses the
//! wire bit-identically to the in-process gather. One frame is
//!
//! ```text
//! ┌──────────┬──────────────┬──────────┬───────────────┐
//! │ len: u32 │ req_id: u64  │ op: u8   │ payload       │
//! └──────────┴──────────────┴──────────┴───────────────┘
//!   bytes after `len`  tags pipelined    op-specific
//!                      requests
//! ```
//!
//! `req_id` makes the protocol **pipelined**: a client may have any number
//! of requests in flight on one connection; the shard answers each frame
//! with the same id, so responses can be matched whatever order they
//! arrive in (the reference shard server answers in order, but clients
//! must not rely on it).
//!
//! Opcodes:
//!
//! | op | name             | dir | payload                                        |
//! |----|------------------|-----|------------------------------------------------|
//! | 1  | `Hello`          | →   | magic `u32`, version `u16`                     |
//! | 2  | `Meta`           | ←   | version `u16`, shard `u32`, lo `u32`, hi `u32`, topics `u32`, digest `u64` |
//! | 3  | `GatherPhiBatch` | →   | n `u32`, then n global word ids `u32`          |
//! | 4  | `PhiBlock`       | ←   | n `u32`, then `n × topics` φ values `u64` bits |
//! | 5  | `Ping`           | →   | empty                                          |
//! | 6  | `Pong`           | ←   | empty                                          |
//! | 127| `Error`          | ←   | UTF-8 message                                  |
//!
//! A `PhiBlock` is word-major: the `topics` values of the first requested
//! word, then those of the second, and so on (version 1 sent the block
//! topic-major).
//!
//! The `Hello`/`Meta` exchange is the handshake: the client proves it
//! speaks this protocol version and learns the shard's identity — index,
//! owned id range `[lo, hi)`, topic count, and the **bundle digest**
//! ([`manifest_digest`]), which covers every byte of the model. A router
//! refuses to serve through a shard whose digest differs from its own
//! bundle's, so shards of different fits (or of a modified copy) cannot
//! be mixed into one fleet.
//!
//! Robustness contract (exercised by `tests/wire_robustness.rs`): a
//! truncated frame, an oversize length prefix, an unknown opcode, or a
//! mid-frame disconnect is a clean [`WireError`] on the reading side —
//! never a panic, never an unbounded hang (callers bound reads with socket
//! timeouts or RPC deadlines).

use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::path::Path;

/// `"TPMW"` — the first four payload bytes of every `Hello`.
pub const WIRE_MAGIC: u32 = 0x5450_4D57;
/// Protocol version spoken by this build; bumped on any frame change.
/// Version 2 made the `PhiBlock` body word-major.
pub const WIRE_VERSION: u16 = 2;
/// Hard cap on `len`: larger prefixes are rejected before any allocation.
/// Generous for real traffic (a 64 MiB `PhiBlock` is ~8M φ values) while
/// keeping a malicious or corrupt prefix from ballooning memory.
pub const MAX_FRAME: u32 = 64 << 20;
/// Bytes of frame header before the payload: `req_id` + `opcode`.
const FRAME_OVERHEAD: u32 = 9;

/// Frame type tags. `Error` sits at the top of the range so future
/// request/response pairs can grow downward from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    Hello = 1,
    Meta = 2,
    GatherPhiBatch = 3,
    PhiBlock = 4,
    Ping = 5,
    Pong = 6,
    Error = 127,
}

impl Opcode {
    pub fn from_u8(op: u8) -> Option<Self> {
        match op {
            1 => Some(Opcode::Hello),
            2 => Some(Opcode::Meta),
            3 => Some(Opcode::GatherPhiBatch),
            4 => Some(Opcode::PhiBlock),
            5 => Some(Opcode::Ping),
            6 => Some(Opcode::Pong),
            127 => Some(Opcode::Error),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub request_id: u64,
    pub opcode: Opcode,
    pub payload: Vec<u8>,
}

impl Frame {
    /// Total bytes this frame occupies on the wire (length prefix
    /// included) — what the byte counters account.
    pub fn wire_len(&self) -> u64 {
        4 + FRAME_OVERHEAD as u64 + self.payload.len() as u64
    }
}

/// Everything that can go wrong reading or speaking the protocol.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket error (including read timeouts surfacing as
    /// `WouldBlock`/`TimedOut`).
    Io(io::Error),
    /// Peer closed the connection cleanly between frames.
    Closed,
    /// Peer disconnected mid-frame (a truncated frame).
    Truncated,
    /// Length prefix exceeds [`MAX_FRAME`].
    Oversize(u32),
    /// Length prefix smaller than the fixed frame header.
    Undersize(u32),
    /// Frame carried an opcode this version does not know.
    UnknownOpcode(u8),
    /// Payload did not decode as its opcode requires.
    Malformed(String),
    /// Handshake failed: bad magic, version skew, or digest mismatch.
    Handshake(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated => write!(f, "connection closed mid-frame"),
            WireError::Oversize(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME} byte cap")
            }
            WireError::Undersize(len) => {
                write!(f, "frame length {len} is shorter than the frame header")
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op}"),
            WireError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            WireError::Handshake(msg) => write!(f, "handshake failed: {msg}"),
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// Whether a fresh connection could plausibly succeed where this
    /// attempt failed (drives the router's bounded retry): transport-level
    /// failures are retryable, protocol-level disagreements are not.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            WireError::Io(_) | WireError::Closed | WireError::Truncated
        )
    }
}

/// Read one frame. Blocks per the reader's timeout configuration; any
/// violation of the framing rules is a typed [`WireError`], and no more
/// than `len` bytes are consumed, so the caller decides whether the
/// connection is still usable (it never is after `Truncated`/`Io`).
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_close(r, &mut len_buf)? {
        ReadStatus::Closed => return Err(WireError::Closed),
        ReadStatus::Partial => return Err(WireError::Truncated),
        ReadStatus::Full => {}
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(WireError::Oversize(len));
    }
    if len < FRAME_OVERHEAD {
        return Err(WireError::Undersize(len));
    }
    let mut head = [0u8; FRAME_OVERHEAD as usize];
    match read_exact_or_close(r, &mut head)? {
        ReadStatus::Full => {}
        _ => return Err(WireError::Truncated),
    }
    let request_id = u64::from_le_bytes(head[..8].try_into().expect("8 bytes"));
    let op = head[8];
    let opcode = Opcode::from_u8(op).ok_or(WireError::UnknownOpcode(op))?;
    let mut payload = vec![0u8; (len - FRAME_OVERHEAD) as usize];
    if !payload.is_empty() {
        match read_exact_or_close(r, &mut payload)? {
            ReadStatus::Full => {}
            _ => return Err(WireError::Truncated),
        }
    }
    Ok(Frame {
        request_id,
        opcode,
        payload,
    })
}

enum ReadStatus {
    Full,
    Partial,
    Closed,
}

/// `read_exact` that distinguishes a clean EOF before the first byte from
/// a disconnect partway through.
fn read_exact_or_close(r: &mut impl Read, buf: &mut [u8]) -> io::Result<ReadStatus> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadStatus::Closed
                } else {
                    ReadStatus::Partial
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadStatus::Full)
}

/// Write one frame as a single vectored write: the 13-byte header and the
/// payload parts go down in one `writev` when the transport cooperates
/// (looping on partial writes), so a `GatherPhiBatch` never pays a copy
/// into a contiguous staging buffer. Returns the bytes put on the wire.
pub fn write_frame(
    w: &mut impl Write,
    request_id: u64,
    opcode: Opcode,
    payload: &[&[u8]],
) -> io::Result<u64> {
    let payload_len: usize = payload.iter().map(|p| p.len()).sum();
    let len = FRAME_OVERHEAD as usize + payload_len;
    if len as u64 > MAX_FRAME as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the {MAX_FRAME} byte cap"),
        ));
    }
    let mut head = [0u8; 13];
    head[..4].copy_from_slice(&(len as u32).to_le_bytes());
    head[4..12].copy_from_slice(&request_id.to_le_bytes());
    head[12] = opcode as u8;

    let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(1 + payload.len());
    slices.push(IoSlice::new(&head));
    slices.extend(payload.iter().map(|p| IoSlice::new(p)));
    let mut slices = &mut slices[..];
    loop {
        let written = w.write_vectored(slices)?;
        if written == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "socket accepted zero bytes",
            ));
        }
        IoSlice::advance_slices(&mut slices, written);
        if slices.is_empty() {
            break;
        }
    }
    w.flush()?;
    Ok(4 + len as u64)
}

// ----- payload codecs -------------------------------------------------------

/// The shard identity carried by a `Meta` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMeta {
    pub version: u16,
    pub shard_index: u32,
    /// First owned global word id.
    pub lo: u32,
    /// One past the last owned global word id.
    pub hi: u32,
    pub n_topics: u32,
    /// The bundle digest ([`manifest_digest`]).
    pub digest: u64,
}

pub fn encode_hello() -> [u8; 6] {
    let mut out = [0u8; 6];
    out[..4].copy_from_slice(&WIRE_MAGIC.to_le_bytes());
    out[4..].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    out
}

pub fn decode_hello(payload: &[u8]) -> Result<u16, WireError> {
    if payload.len() != 6 {
        return Err(WireError::Malformed(format!(
            "hello payload is {} bytes, want 6",
            payload.len()
        )));
    }
    let magic = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes"));
    if magic != WIRE_MAGIC {
        return Err(WireError::Handshake(format!(
            "bad magic {magic:#010x} (want {WIRE_MAGIC:#010x})"
        )));
    }
    Ok(u16::from_le_bytes(
        payload[4..6].try_into().expect("2 bytes"),
    ))
}

pub fn encode_meta(meta: &ShardMeta) -> [u8; 26] {
    let mut out = [0u8; 26];
    out[..2].copy_from_slice(&meta.version.to_le_bytes());
    out[2..6].copy_from_slice(&meta.shard_index.to_le_bytes());
    out[6..10].copy_from_slice(&meta.lo.to_le_bytes());
    out[10..14].copy_from_slice(&meta.hi.to_le_bytes());
    out[14..18].copy_from_slice(&meta.n_topics.to_le_bytes());
    out[18..26].copy_from_slice(&meta.digest.to_le_bytes());
    out
}

pub fn decode_meta(payload: &[u8]) -> Result<ShardMeta, WireError> {
    if payload.len() != 26 {
        return Err(WireError::Malformed(format!(
            "meta payload is {} bytes, want 26",
            payload.len()
        )));
    }
    let u32_at = |i: usize| u32::from_le_bytes(payload[i..i + 4].try_into().expect("4 bytes"));
    Ok(ShardMeta {
        version: u16::from_le_bytes(payload[..2].try_into().expect("2 bytes")),
        shard_index: u32_at(2),
        lo: u32_at(6),
        hi: u32_at(10),
        n_topics: u32_at(14),
        digest: u64::from_le_bytes(payload[18..26].try_into().expect("8 bytes")),
    })
}

/// Serialize a gather request's word-id list (the ids a single shard
/// owns, in the router's chosen column order).
pub fn encode_gather(words: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 4 * words.len());
    out.extend_from_slice(&(words.len() as u32).to_le_bytes());
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

pub fn decode_gather(payload: &[u8]) -> Result<Vec<u32>, WireError> {
    if payload.len() < 4 {
        return Err(WireError::Malformed(
            "gather payload shorter than its count".into(),
        ));
    }
    let n = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
    if payload.len() != 4 + 4 * n {
        return Err(WireError::Malformed(format!(
            "gather payload is {} bytes for {n} words",
            payload.len()
        )));
    }
    Ok(payload[4..]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

/// Serialize a φ block response: `n` then `n × n_topics` values as raw
/// `f64` bits, word-major — exactly the layout
/// [`ModelBackend::try_gather_phi_batch`](crate::ModelBackend::try_gather_phi_batch) returns,
/// so the router splices each answered word as one K-value copy.
pub fn encode_phi_block(n_words: usize, values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 * values.len());
    out.extend_from_slice(&(n_words as u32).to_le_bytes());
    for &v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Decode a φ block for `n_words` requested words, returning the
/// word-major value vector (`n_words × n_topics`), checked against that
/// shape.
pub fn decode_phi_block(
    payload: &[u8],
    n_words: usize,
    n_topics: usize,
) -> Result<Vec<f64>, WireError> {
    if payload.len() < 4 {
        return Err(WireError::Malformed(
            "phi block shorter than its count".into(),
        ));
    }
    let n = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
    if n != n_words {
        return Err(WireError::Malformed(format!(
            "phi block answers {n} words, request had {n_words}"
        )));
    }
    let body = &payload[4..];
    if body.len() != 8 * n_topics * n_words {
        return Err(WireError::Malformed(format!(
            "phi block body is {} bytes for {n_topics} topics x {n_words} words",
            body.len()
        )));
    }
    Ok(body
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
        .collect())
}

/// The bundle digest of the sharded bundle at `bundle_dir` — the model
/// digest the handshake compares. It is the value on the last line of
/// `manifest.tsv`, a digest of every byte above it, and those bytes
/// record the digest of every file the bundle holds (every φ block,
/// vocabulary, lexicon, unstem table and the stop list). So two bundles
/// share it only if their files are byte-identical: a re-fit that changes
/// any φ value, a re-shard, or any edit changes it, up to 64-bit digest
/// collisions. Reading it verifies the manifest's own digest.
pub fn manifest_digest(bundle_dir: &Path) -> io::Result<u64> {
    let manifest = crate::io::Header::read(
        bundle_dir,
        "manifest.tsv",
        crate::sharded::SHARDED_MODEL_FORMAT,
    )?;
    Ok(manifest.digest())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_preserves_everything() {
        let mut buf = Vec::new();
        let payload = encode_gather(&[3, 1, 4, 1, 5]);
        let wrote = write_frame(&mut buf, 42, Opcode::GatherPhiBatch, &[&payload]).unwrap();
        assert_eq!(wrote, buf.len() as u64);
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.request_id, 42);
        assert_eq!(frame.opcode, Opcode::GatherPhiBatch);
        assert_eq!(decode_gather(&frame.payload).unwrap(), vec![3, 1, 4, 1, 5]);
        assert_eq!(frame.wire_len(), wrote);
    }

    #[test]
    fn split_payload_parts_write_identically_to_one_buffer() {
        let (a, b) = ([1u8, 2, 3], [4u8, 5]);
        let mut split = Vec::new();
        write_frame(&mut split, 7, Opcode::PhiBlock, &[&a, &b]).unwrap();
        let mut joined = Vec::new();
        write_frame(&mut joined, 7, Opcode::PhiBlock, &[&[1, 2, 3, 4, 5]]).unwrap();
        assert_eq!(split, joined);
    }

    #[test]
    fn eof_between_frames_is_closed_mid_frame_is_truncated() {
        assert!(matches!(
            read_frame(&mut [].as_slice()),
            Err(WireError::Closed)
        ));
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, Opcode::Ping, &[]).unwrap();
        for cut in 1..buf.len() {
            let err = read_frame(&mut &buf[..cut]).unwrap_err();
            assert!(matches!(err, WireError::Truncated), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn hostile_length_prefixes_are_rejected_without_allocating() {
        let oversize = (MAX_FRAME + 1).to_le_bytes();
        assert!(matches!(
            read_frame(&mut oversize.as_slice()),
            Err(WireError::Oversize(_))
        ));
        let undersize = 3u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut undersize.as_slice()),
            Err(WireError::Undersize(3))
        ));
    }

    #[test]
    fn unknown_opcodes_are_a_typed_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 9, Opcode::Pong, &[]).unwrap();
        buf[12] = 99; // stomp the opcode byte
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::UnknownOpcode(99))
        ));
    }

    #[test]
    fn handshake_codecs_roundtrip_and_validate() {
        assert_eq!(decode_hello(&encode_hello()).unwrap(), WIRE_VERSION);
        let mut bad = encode_hello();
        bad[0] ^= 0xff;
        assert!(matches!(decode_hello(&bad), Err(WireError::Handshake(_))));
        let meta = ShardMeta {
            version: WIRE_VERSION,
            shard_index: 2,
            lo: 10,
            hi: 35,
            n_topics: 8,
            digest: 0xDEAD_BEEF_CAFE_F00D,
        };
        assert_eq!(decode_meta(&encode_meta(&meta)).unwrap(), meta);
        assert!(decode_meta(&[0u8; 5]).is_err());
    }

    #[test]
    fn phi_block_roundtrips_bit_exactly() {
        let values = [0.1, f64::MIN_POSITIVE, 1.0 - 1e-16, 0.25];
        let payload = encode_phi_block(2, &values);
        let back = decode_phi_block(&payload, 2, 2).unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(decode_phi_block(&payload, 3, 2).is_err());
        assert!(decode_phi_block(&payload[..payload.len() - 1], 2, 2).is_err());
    }
}
