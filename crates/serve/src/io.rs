//! The on-disk bundle formats, in one place: the versioned key/value
//! header, binary φ, the text tables, and the content digest that ties
//! them together.
//!
//! The one bundle layout ([`crate::sharded`]: `manifest.tsv` over
//! `shard-K/` directories, one shard for a default save) is built from
//! these files:
//!
//! * **`vocab.tsv`** — `id<TAB>word`, ids dense and ascending from the
//!   first id the file owns;
//! * **`unstem.tsv`** — `id<TAB>surface` for the ids that have a display
//!   surface (present iff training stemmed);
//! * **`lexicon.tsv`** — a `total_tokens<TAB>L` line, then
//!   `count<TAB>space-joined ids` for every phrase whose first word the
//!   file owns, in lexicographic word-id order;
//! * **`stopwords.txt`** — one stop word per line (present iff the
//!   contract removes stop words);
//! * **`phi.bin`** — φ in binary: a 24-byte header (magic `"TPMP"`,
//!   layout version `u32`, K `u64`, width `u64`) followed by K × width
//!   little-endian `f64`s, row by row. Loading checks the header against
//!   the shape the bundle header gives and against the file's real length
//!   before it allocates anything; save and load both stream one row at a
//!   time.
//!
//! The bundle header is written **last**, as the commit point. Line 1 is
//! `format<TAB>version`; then the `key<TAB>value` pairs; then one
//! `file<TAB>path<TAB>digest` line for every file the saver wrote; and
//! finally `digest<TAB>d`, where `d` digests every byte above that line.
//! A loader verifies `d` before it trusts any pair, and verifies each file
//! it reads against the digest the header recorded, so `d` — the
//! **bundle digest** that `/healthz` reports and the fleet handshake
//! compares — covers every byte of the model. A listed file that is
//! missing, truncated or modified is an `InvalidData` error naming it.
//!
//! [`Digest`] depends only on the bytes, never on how they were split into
//! writes or reads.

use crate::frozen::{ModelHeader, PreprocessConfig};
use std::fmt::Display;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use topmine_phrase::PhraseStats;
use topmine_util::FxHashMap;

/// `"TPMP"`: the first four bytes of every `phi.bin`.
const PHI_MAGIC: [u8; 4] = *b"TPMP";
/// Layout version of `phi.bin`, bumped with any change to it.
const PHI_VERSION: u32 = 1;
/// Bytes before the first φ value: magic, version, K, width.
const PHI_HEADER_LEN: u64 = 24;

pub(crate) fn data_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// An `InvalidData` error located in bundle file `rel`.
fn in_file(rel: &str, msg: impl Display) -> io::Error {
    data_err(format!("{rel}: {msg}"))
}

// ----- digest ---------------------------------------------------------------

/// A streaming 64-bit content digest: the Fx word step (rotate, xor,
/// multiply) over little-endian 8-byte words, the total length folded in
/// last, then the murmur3 finalizer. Each step is a bijection of the state
/// for a fixed word and of the word for a fixed state, so a change confined
/// to one word (any single bit flip) always changes the result. Bytes are
/// carried across [`Digest::update`] calls, so the value depends only on
/// the byte sequence. Not cryptographic: it detects accidents, not forgers.
#[derive(Debug, Clone)]
pub(crate) struct Digest {
    state: u64,
    tail: [u8; 8],
    tail_len: usize,
    len: u64,
}

const DIGEST_MUL: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Default for Digest {
    fn default() -> Self {
        Self {
            state: 0x243f_6a88_85a3_08d3,
            tail: [0; 8],
            tail_len: 0,
            len: 0,
        }
    }
}

impl Digest {
    pub(crate) fn of(bytes: &[u8]) -> u64 {
        let mut d = Self::default();
        d.update(bytes);
        d.finish()
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(DIGEST_MUL);
    }

    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.mix(u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    pub(crate) fn finish(&self) -> u64 {
        let mut d = self.clone();
        if d.tail_len > 0 {
            d.tail[d.tail_len..].fill(0);
            d.mix(u64::from_le_bytes(d.tail));
        }
        d.mix(d.len);
        let mut h = d.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// A reader or writer that digests every byte passing through it.
struct Digesting<T> {
    inner: T,
    digest: Digest,
}

impl<T> Digesting<T> {
    fn new(inner: T) -> Self {
        Self {
            inner,
            digest: Digest::default(),
        }
    }
}

impl<W: Write> Write for Digesting<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.digest.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<R: Read> Read for Digesting<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.digest.update(&buf[..n]);
        Ok(n)
    }
}

/// Parse a digest as written: exactly 16 lowercase hex digits, so no
/// other spelling of the same value passes (a flipped case bit must not).
fn parse_hex(text: &[u8]) -> Option<u64> {
    let canonical = text.len() == 16 && text.iter().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    canonical
        .then(|| u64::from_str_radix(std::str::from_utf8(text).ok()?, 16).ok())
        .flatten()
}

// ----- writing --------------------------------------------------------------

type Out = BufWriter<Digesting<File>>;

/// Writes one bundle's files into a directory, recording each file's
/// digest for the header that [`BundleWriter::commit`] writes last.
pub(crate) struct BundleWriter<'a> {
    dir: &'a Path,
    files: Vec<(String, u64)>,
}

impl<'a> BundleWriter<'a> {
    pub(crate) fn new(dir: &'a Path) -> Self {
        Self {
            dir,
            files: Vec::new(),
        }
    }

    fn write(
        &mut self,
        rel: &str,
        body: impl FnOnce(&mut Out) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut out = BufWriter::new(Digesting::new(File::create(self.dir.join(rel))?));
        body(&mut out)?;
        let written = out.into_inner().map_err(io::IntoInnerError::into_error)?;
        self.files.push((rel.to_string(), written.digest.finish()));
        Ok(())
    }

    /// `vocab.tsv`: `words[i]` is word id `lo + i`.
    pub(crate) fn vocab<'w>(
        &mut self,
        rel: &str,
        lo: u32,
        words: impl Iterator<Item = &'w str>,
    ) -> io::Result<()> {
        self.write(rel, |out| {
            for (id, word) in (lo..).zip(words) {
                writeln!(out, "{id}\t{word}")?;
            }
            Ok(())
        })
    }

    /// `unstem.tsv`: `surfaces[i]` is the display surface of id `lo + i`;
    /// empty surfaces (display falls back to the vocabulary word) are
    /// left out.
    pub(crate) fn unstem(&mut self, rel: &str, lo: u32, surfaces: &[String]) -> io::Result<()> {
        self.write(rel, |out| {
            for (id, surface) in (lo..).zip(surfaces) {
                if !surface.is_empty() {
                    writeln!(out, "{id}\t{surface}")?;
                }
            }
            Ok(())
        })
    }

    /// `lexicon.tsv`: the phrases of `lexicon` whose first word is in
    /// `first_words`, in lexicographic word-id order.
    pub(crate) fn lexicon(
        &mut self,
        rel: &str,
        lexicon: &PhraseStats,
        first_words: Range<u32>,
    ) -> io::Result<()> {
        self.write(rel, |out| {
            writeln!(out, "total_tokens\t{}", lexicon.total_tokens)?;
            lexicon.try_for_each_phrase(first_words, |phrase, count| {
                write!(out, "{count}\t")?;
                for (i, w) in phrase.iter().enumerate() {
                    if i > 0 {
                        write!(out, " ")?;
                    }
                    write!(out, "{w}")?;
                }
                writeln!(out)
            })
        })
    }

    pub(crate) fn stopwords(&mut self, rel: &str, words: &[String]) -> io::Result<()> {
        self.write(rel, |out| {
            for w in words {
                writeln!(out, "{w}")?;
            }
            Ok(())
        })
    }

    /// `phi.bin`: the header, then columns `cols` of each row as
    /// little-endian `f64`s, one row in memory at a time.
    pub(crate) fn phi(
        &mut self,
        rel: &str,
        rows: &[Vec<f64>],
        cols: Range<usize>,
    ) -> io::Result<()> {
        self.write(rel, |out| {
            out.write_all(&PHI_MAGIC)?;
            out.write_all(&PHI_VERSION.to_le_bytes())?;
            out.write_all(&(rows.len() as u64).to_le_bytes())?;
            out.write_all(&(cols.len() as u64).to_le_bytes())?;
            let mut bytes = Vec::with_capacity(8 * cols.len());
            for (t, row) in rows.iter().enumerate() {
                let values = row.get(cols.clone()).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "{rel}: φ row {t} has {} values, fewer than {}",
                            row.len(),
                            cols.end
                        ),
                    )
                })?;
                bytes.clear();
                for p in values {
                    bytes.extend_from_slice(&p.to_le_bytes());
                }
                out.write_all(&bytes)?;
            }
            Ok(())
        })
    }

    /// Write the bundle header `name` — the commit point, so it goes down
    /// after every other file: the format line, `pairs`, one `file` line
    /// per file written, and the digest line over all of it.
    pub(crate) fn commit(
        self,
        name: &str,
        format: &str,
        pairs: &[(String, String)],
    ) -> io::Result<()> {
        let mut text = format!("format\t{format}\n");
        for (key, value) in pairs {
            text.push_str(&format!("{key}\t{value}\n"));
        }
        for (rel, digest) in &self.files {
            text.push_str(&format!("file\t{rel}\t{digest:016x}\n"));
        }
        let digest = Digest::of(text.as_bytes());
        text.push_str(&format!("digest\t{digest:016x}\n"));
        std::fs::write(self.dir.join(name), text)
    }
}

/// The model's `key<TAB>value` pairs in the manifest — shapes,
/// Algorithm 2 parameters, preprocessing flags, α vector.
/// [`Header::take_fields`] is its inverse; the manifest wraps these with
/// its shard topology.
pub(crate) fn header_pairs(fields: &HeaderFields) -> Vec<(String, String)> {
    let (header, p) = (&fields.header, &fields.preprocess);
    let mut pairs: Vec<(String, String)> = vec![
        ("n_topics".into(), header.n_topics.to_string()),
        ("vocab_size".into(), header.vocab_size.to_string()),
        ("n_docs".into(), header.n_docs.to_string()),
        ("n_tokens".into(), header.n_tokens.to_string()),
        ("seg_alpha".into(), format!("{:.17e}", header.seg_alpha)),
        ("beta".into(), format!("{:.17e}", header.beta)),
        ("min_support".into(), fields.min_support.to_string()),
        ("stem".into(), p.stem.to_string()),
        ("remove_stopwords".into(), p.remove_stopwords.to_string()),
        ("min_token_len".into(), p.min_token_len.to_string()),
    ];
    for (t, a) in fields.alpha.iter().enumerate() {
        pairs.push((format!("alpha{t}"), format!("{a:.17e}")));
    }
    pairs
}

// ----- reading --------------------------------------------------------------

/// The hyperparameters fold-in needs: at least one topic and at most
/// 65 535, the bound training holds too (fold-in stores each span's topic
/// as a `u16`), a finite Algorithm 2 threshold, and α and β finite and
/// positive (an infinite α makes θ NaN). The error names the key at
/// fault. Loaders check this as they parse a bundle header; in-memory
/// models check it in `validate`.
pub(crate) fn check_hyperparameters(header: &ModelHeader, alpha: &[f64]) -> Result<(), String> {
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if header.n_topics == 0 {
        return Err("n_topics is 0: a model needs at least one topic".into());
    }
    if header.n_topics > u16::MAX as usize {
        return Err(format!(
            "n_topics is {}: fold-in stores a topic in 16 bits, so at most {}",
            header.n_topics,
            u16::MAX
        ));
    }
    if !header.seg_alpha.is_finite() {
        return Err(format!(
            "seg_alpha is {}: it must be finite",
            header.seg_alpha
        ));
    }
    if !positive(header.beta) {
        return Err(format!(
            "beta is {}: it must be finite and > 0",
            header.beta
        ));
    }
    match alpha.iter().position(|&a| !positive(a)) {
        Some(t) => Err(format!(
            "alpha{t} is {}: it must be finite and > 0",
            alpha[t]
        )),
        None => Ok(()),
    }
}

/// What the manifest carries about the model. `preprocess.stopwords` is
/// not a header pair: it is filled from `stopwords.txt` by
/// [`Header::read_stopwords`] and written there by the saver.
#[derive(Debug)]
pub(crate) struct HeaderFields {
    pub(crate) header: ModelHeader,
    pub(crate) preprocess: PreprocessConfig,
    pub(crate) min_support: u64,
    pub(crate) alpha: Vec<f64>,
}

/// A bundle header read back and verified, with the digest each listed
/// file must match. Every error it returns names the file at fault.
#[derive(Debug)]
pub(crate) struct Header {
    dir: PathBuf,
    name: &'static str,
    /// `(line, key, value)` in file order, `None` once taken.
    pairs: Vec<Option<(usize, String, String)>>,
    /// Each untaken key's first listing in `pairs`. A later listing of the
    /// same key is never taken, so [`Header::finish`] names its line.
    keys: FxHashMap<String, usize>,
    /// Listed file → recorded digest (the first listing of a path).
    files: FxHashMap<String, u64>,
    digest: u64,
}

impl Header {
    /// Read `dir/name`: its format line must carry `format` (any other
    /// version fails naming both), and its digest line must match every
    /// byte above it.
    pub(crate) fn read(dir: &Path, name: &'static str, format: &str) -> io::Result<Self> {
        let bytes = std::fs::read(dir.join(name))
            .map_err(|e| io::Error::new(e.kind(), format!("{name}: {e}")))?;
        if bytes.is_empty() {
            return Err(in_file(
                name,
                format!("empty: expected a `format\t{format}` versioned header"),
            ));
        }
        let first = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
        match String::from_utf8_lossy(first).split_once('\t') {
            Some(("format", version)) if version == format => {}
            Some(("format", version)) => {
                return Err(in_file(
                    name,
                    format!(
                        "unsupported model bundle format {version:?} (this build reads {format:?})"
                    ),
                ))
            }
            _ => {
                return Err(in_file(
                    name,
                    format!("no versioned header: expected `format\t{format}` on line 1"),
                ))
            }
        }
        // The last line is `digest<TAB>d`, d over every byte before it.
        let sealed = bytes.strip_suffix(b"\n").and_then(|body| {
            let start = body.iter().rposition(|&b| b == b'\n')? + 1;
            Some((start, parse_hex(body[start..].strip_prefix(b"digest\t")?)?))
        });
        let Some((end, recorded)) = sealed else {
            return Err(in_file(
                name,
                "no digest line at the end (truncated, or not written by a saver)",
            ));
        };
        let actual = Digest::of(&bytes[..end]);
        if actual != recorded {
            return Err(in_file(
                name,
                format!(
                    "content digest {actual:016x} does not match the recorded {recorded:016x} \
                     (truncated or modified)"
                ),
            ));
        }
        let text = std::str::from_utf8(&bytes[..end]).map_err(|e| in_file(name, e))?;
        let mut pairs = Vec::new();
        let mut keys = FxHashMap::default();
        let mut files = FxHashMap::default();
        for (i, line) in text.lines().enumerate().skip(1) {
            if line.is_empty() {
                continue;
            }
            let line_no = i + 1;
            let (key, value) = line
                .split_once('\t')
                .ok_or_else(|| in_file(name, format!("line {line_no}: not key<TAB>value")))?;
            if key == "file" {
                let (rel, digest) = value
                    .split_once('\t')
                    .and_then(|(rel, hex)| Some((rel, parse_hex(hex.as_bytes())?)))
                    .ok_or_else(|| {
                        in_file(
                            name,
                            format!("line {line_no}: not file<TAB>path<TAB>digest"),
                        )
                    })?;
                files.entry(rel.to_string()).or_insert(digest);
            } else {
                keys.entry(key.to_string()).or_insert(pairs.len());
                pairs.push(Some((line_no, key.to_string(), value.to_string())));
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            name,
            pairs,
            keys,
            files,
            digest: recorded,
        })
    }

    /// The bundle digest: the value on the header's last line.
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }

    /// Remove and parse the value of `key`.
    pub(crate) fn take<T: FromStr>(&mut self, key: &str) -> io::Result<T> {
        let (line_no, _, value) = self
            .keys
            .remove(key)
            .and_then(|i| self.pairs[i].take())
            .ok_or_else(|| in_file(self.name, format!("missing {key}")))?;
        value.parse().map_err(|_| {
            in_file(
                self.name,
                format!("line {line_no}: bad value for {key}: {value:?}"),
            )
        })
    }

    /// Remove and parse the dense vector `key(0) .. key(n - 1)`. `n` is
    /// checked against the keys left first, so a corrupt count cannot
    /// drive the loop past the real file.
    pub(crate) fn take_vec<T: FromStr>(
        &mut self,
        key: impl Fn(usize) -> String,
        n: usize,
    ) -> io::Result<Vec<T>> {
        if n > self.keys.len() {
            return Err(in_file(
                self.name,
                format!("{n} entries {}.. cannot fit in the file", key(0)),
            ));
        }
        (0..n).map(|i| self.take(&key(i))).collect()
    }

    /// Parse the pairs [`header_pairs`] writes, refusing hyperparameters
    /// fold-in cannot use ([`check_hyperparameters`]).
    pub(crate) fn take_fields(&mut self) -> io::Result<HeaderFields> {
        let header = ModelHeader {
            n_topics: self.take("n_topics")?,
            vocab_size: self.take("vocab_size")?,
            n_docs: self.take("n_docs")?,
            n_tokens: self.take("n_tokens")?,
            seg_alpha: self.take("seg_alpha")?,
            beta: self.take("beta")?,
        };
        let preprocess = PreprocessConfig {
            stem: self.take("stem")?,
            remove_stopwords: self.take("remove_stopwords")?,
            min_token_len: self.take("min_token_len")?,
            stopwords: Vec::new(),
        };
        let min_support = self.take("min_support")?;
        let alpha = self.take_vec(|t| format!("alpha{t}"), header.n_topics)?;
        check_hyperparameters(&header, &alpha).map_err(|msg| in_file(self.name, msg))?;
        Ok(HeaderFields {
            min_support,
            alpha,
            header,
            preprocess,
        })
    }

    /// Fail on the first pair nothing took.
    pub(crate) fn finish(&self) -> io::Result<()> {
        match self.pairs.iter().flatten().next() {
            Some((line_no, key, _)) => Err(in_file(
                self.name,
                format!("line {line_no}: unknown key {key:?}"),
            )),
            None => Ok(()),
        }
    }

    /// Whether the header lists `rel`: an optional file is part of the
    /// bundle exactly when it is listed.
    pub(crate) fn lists(&self, rel: &str) -> bool {
        self.files.contains_key(rel)
    }

    /// The length on disk of file `rel` (0 if it cannot be read): memory
    /// sized by it is bounded by bytes that exist.
    pub(crate) fn file_len(&self, rel: &str) -> u64 {
        std::fs::metadata(self.dir.join(rel)).map_or(0, |m| m.len())
    }

    /// Open listed file `rel`, returning it with its recorded digest.
    fn open(&self, rel: &str) -> io::Result<(File, u64)> {
        let digest = self
            .files
            .get(rel)
            .ok_or_else(|| in_file(self.name, format!("lists no {rel}")))?;
        let file = File::open(self.dir.join(rel)).map_err(|e| match e.kind() {
            io::ErrorKind::NotFound => in_file(rel, format!("listed in {} but missing", self.name)),
            kind => io::Error::new(kind, format!("{rel}: {e}")),
        })?;
        Ok((file, *digest))
    }

    fn verify(rel: &str, recorded: u64, actual: u64) -> io::Result<()> {
        if actual == recorded {
            Ok(())
        } else {
            Err(in_file(
                rel,
                format!(
                    "content digest {actual:016x} does not match the recorded {recorded:016x} \
                     (truncated or modified)"
                ),
            ))
        }
    }

    /// Stream listed text file `rel` line by line into `parse` (the text
    /// without its newline; empty lines skipped), then verify the file's
    /// digest. Errors carry the file and line.
    fn read_lines(
        &self,
        rel: &str,
        mut parse: impl FnMut(&str) -> Result<(), String>,
    ) -> io::Result<()> {
        let (file, recorded) = self.open(rel)?;
        let mut reader = BufReader::new(Digesting::new(file));
        let mut line = String::new();
        for line_no in 1.. {
            line.clear();
            let at_line = |msg: &dyn Display| data_err(format!("{rel} line {line_no}: {msg}"));
            let n = reader.read_line(&mut line).map_err(|e| at_line(&e))?;
            if n == 0 {
                break;
            }
            let text = line.strip_suffix('\n').unwrap_or(&line);
            if !text.is_empty() {
                parse(text).map_err(|msg| at_line(&msg))?;
            }
        }
        Self::verify(rel, recorded, reader.into_inner().digest.finish())
    }

    /// Read `vocab.tsv` owning ids `[lo, lo + width)`: `push` gets each
    /// word in id order, and the file must hold exactly `width` of them.
    pub(crate) fn read_vocab(
        &self,
        rel: &str,
        lo: u32,
        width: usize,
        mut push: impl FnMut(&str) -> Result<(), String>,
    ) -> io::Result<()> {
        let (lo, end) = (u64::from(lo), u64::from(lo) + width as u64);
        let mut next = lo;
        self.read_lines(rel, |line| {
            let (id, word) = line.split_once('\t').ok_or("not id<TAB>word")?;
            let id: u64 = id.parse().map_err(|_| format!("bad id {id:?}"))?;
            if id != next {
                return Err(format!("id {id} out of order (expected {next})"));
            }
            if id >= end {
                return Err(format!("id {id} outside the range [{lo}, {end})"));
            }
            next += 1;
            push(word)
        })?;
        if next != end {
            return Err(in_file(
                rel,
                format!("{} words for a range of width {width}", next - lo),
            ));
        }
        Ok(())
    }

    /// Read listed `unstem.tsv` file `rel` into `table`, the display
    /// surfaces of ids `[lo, lo + table.len())`.
    pub(crate) fn read_unstem(&self, rel: &str, lo: u32, table: &mut [String]) -> io::Result<()> {
        let (lo, end) = (u64::from(lo), u64::from(lo) + table.len() as u64);
        self.read_lines(rel, |line| {
            let (id, surface) = line.split_once('\t').ok_or("not id<TAB>surface")?;
            let id: u64 = id.parse().map_err(|_| format!("bad id {id:?}"))?;
            let slot = id
                .checked_sub(lo)
                .and_then(|i| table.get_mut(i as usize))
                .ok_or_else(|| format!("id {id} outside the range [{lo}, {end})"))?;
            *slot = surface.to_string();
            Ok(())
        })
    }

    /// Read `lexicon.tsv` for the phrases whose first word is in
    /// `first_words` into `lexicon`, returning the file's `total_tokens`. A
    /// word id outside the lexicon's vocabulary, a first word outside
    /// `first_words`, or a phrase listed twice (here or in a file read
    /// before into the same lexicon) is an error naming the line.
    pub(crate) fn read_lexicon(
        &self,
        rel: &str,
        first_words: Range<u32>,
        lexicon: &mut PhraseStats,
    ) -> io::Result<u64> {
        let mut total = None;
        let mut phrase = Vec::new();
        self.read_lines(rel, |line| {
            if total.is_none() {
                let text = line
                    .strip_prefix("total_tokens\t")
                    .ok_or("expected total_tokens<TAB><count>")?;
                let value = text
                    .parse()
                    .map_err(|_| format!("bad total_tokens {text:?}"))?;
                total = Some(value);
                return Ok(());
            }
            let (count, ids) = line.split_once('\t').ok_or("not count<TAB>ids")?;
            let count: u64 = count.parse().map_err(|_| format!("bad count {count:?}"))?;
            phrase.clear();
            for id in ids.split_whitespace() {
                phrase.push(
                    id.parse::<u32>()
                        .map_err(|_| format!("bad word id {id:?}"))?,
                );
            }
            match phrase.first() {
                Some(w) if !first_words.contains(w) => Err(format!(
                    "first word {w} outside the shard's range [{}, {})",
                    first_words.start, first_words.end
                )),
                _ => lexicon.insert(&phrase, count),
            }
        })?;
        total.ok_or_else(|| in_file(rel, "empty: expected a total_tokens line"))
    }

    /// The stop list: `stopwords.txt` if the header lists it, else empty.
    pub(crate) fn read_stopwords(&self) -> io::Result<Vec<String>> {
        let mut words = Vec::new();
        if self.lists("stopwords.txt") {
            self.read_lines("stopwords.txt", |line| {
                words.push(line.to_string());
                Ok(())
            })?;
        }
        Ok(words)
    }

    /// Read listed `phi.bin` file `rel`, a `k × width` block, appending its
    /// `width` values to each of the `k` rows of `phi` (created once the
    /// file has passed its shape checks, if `phi` has none yet): read shard
    /// by shard, in range order, every value lands at its word's column.
    /// Every value must be finite and ≥ 0: fold-in draws from running sums
    /// of φ products, which must not decrease. A value that breaks this is
    /// reported once the digest has vouched for the bytes, so a corrupt
    /// file still reads as corrupt.
    pub(crate) fn read_phi(
        &self,
        rel: &str,
        phi: &mut Vec<Vec<f64>>,
        k: usize,
        width: usize,
    ) -> io::Result<()> {
        let (file, recorded) = self.open(rel)?;
        let (actual, bad) = read_phi_file(rel, file, phi, k, width)?;
        Self::verify(rel, recorded, actual)?;
        match bad {
            Some((t, c, value)) => Err(in_file(
                rel,
                format!(
                    "value {value} at row {t}, column {c}: every φ value must be finite and ≥ 0"
                ),
            )),
            None => Ok(()),
        }
    }
}

/// A `phi.bin` read back: its digest, and the row, column and value of the
/// first value that is negative or not finite, if any.
type PhiFile = (u64, Option<(usize, usize, f64)>);

/// Read a `phi.bin` expected to hold `k × width` values onto the end of
/// the `k` rows of `phi`. The header is checked against that shape and the
/// shape against the file's real length before anything is allocated; `k`
/// itself is bounded by the caller (a header's `n_topics` comes with that
/// many α lines).
fn read_phi_file(
    rel: &str,
    file: File,
    phi: &mut Vec<Vec<f64>>,
    k: usize,
    width: usize,
) -> io::Result<PhiFile> {
    let file_len = file.metadata().map_err(|e| in_file(rel, e))?.len();
    if file_len < PHI_HEADER_LEN {
        return Err(in_file(
            rel,
            format!("{file_len} bytes, shorter than the {PHI_HEADER_LEN}-byte header"),
        ));
    }
    let mut input = Digesting::new(file);
    let mut head = [0u8; PHI_HEADER_LEN as usize];
    input.read_exact(&mut head).map_err(|e| in_file(rel, e))?;
    let u64_at = |i: usize| u64::from_le_bytes(head[i..i + 8].try_into().expect("8 bytes"));
    if head[..4] != PHI_MAGIC {
        return Err(in_file(
            rel,
            format!("bad magic {:?} (want \"TPMP\")", &head[..4]),
        ));
    }
    let version = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    if version != PHI_VERSION {
        return Err(in_file(
            rel,
            format!("layout version {version} (this build reads {PHI_VERSION})"),
        ));
    }
    let (rows, cols) = (u64_at(8), u64_at(16));
    if (rows, cols) != (k as u64, width as u64) {
        return Err(in_file(
            rel,
            format!("holds {rows} × {cols} values, the bundle header says {k} × {width}"),
        ));
    }
    let needed = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(8))
        .and_then(|n| n.checked_add(PHI_HEADER_LEN));
    match needed {
        Some(n) if n == file_len => {}
        Some(n) => {
            return Err(in_file(
                rel,
                format!("{rows} × {cols} values need {n} bytes, the file has {file_len}"),
            ))
        }
        None => {
            return Err(in_file(
                rel,
                format!("{rows} × {cols} values overflow u64 bytes"),
            ))
        }
    }
    // The shape now matches the real file length: every allocation below
    // is bounded by it (the row buffer is sized only once a row exists).
    phi.resize(k, Vec::new());
    let mut bytes = Vec::new();
    let mut bad = None;
    for (t, row) in phi.iter_mut().enumerate() {
        bytes.resize(8 * width, 0);
        input.read_exact(&mut bytes).map_err(|e| in_file(rel, e))?;
        let start = row.len();
        row.reserve_exact(width);
        row.extend(
            bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes"))),
        );
        let values = &row[start..];
        // Fails for NaN as well as for negative and infinite values. A
        // fold without an early exit costs about a quarter of a
        // `position` scan on a clean row; only a row that fails is
        // searched for its first bad value.
        let usable = |p: &f64| (*p >= 0.0) & (*p <= f64::MAX);
        if bad.is_none() && !values.iter().fold(true, |ok, p| ok & usable(p)) {
            bad = values
                .iter()
                .position(|p| !usable(p))
                .map(|c| (t, c, values[c]));
        }
    }
    Ok((input.digest.finish(), bad))
}

/// Recompute the digest line of a bundle header after a test edited it,
/// so the edit reaches the checks behind the digest.
#[cfg(test)]
pub(crate) fn reseal(path: &Path) {
    let text = std::fs::read_to_string(path).unwrap();
    let body = text.trim_end_matches('\n');
    let body = &body[..body.rfind('\n').unwrap() + 1];
    let sealed = format!("{body}digest\t{:016x}\n", Digest::of(body.as_bytes()));
    std::fs::write(path, sealed).unwrap();
}

/// Replace listed file `rel` of the bundle at `dir` with `text`, record
/// its new digest in `manifest.tsv` and reseal the manifest, so only the
/// edited values are wrong.
#[cfg(test)]
pub(crate) fn rewrite_sealed(dir: &Path, rel: &str, text: &str) {
    std::fs::write(dir.join(rel), text).unwrap();
    let manifest = dir.join("manifest.tsv");
    let listed = format!("file\t{rel}\t");
    let edited: String = std::fs::read_to_string(&manifest)
        .unwrap()
        .lines()
        .map(|line| match line.starts_with(&listed) {
            true => format!("{listed}{:016x}\n", Digest::of(text.as_bytes())),
            false => format!("{line}\n"),
        })
        .collect();
    std::fs::write(&manifest, edited).unwrap();
    reseal(&manifest);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("topmine-bundle-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn digest_ignores_how_the_bytes_are_split() {
        let bytes: Vec<u8> = (0..100u8).map(|b| b.wrapping_mul(37)).collect();
        let whole = Digest::of(&bytes);
        for cut in 0..bytes.len() {
            for step in [1, 3, 8, 13] {
                let mut d = Digest::default();
                d.update(&bytes[..cut]);
                for piece in bytes[cut..].chunks(step) {
                    d.update(piece);
                }
                assert_eq!(d.finish(), whole, "cut {cut}, step {step}");
            }
        }
    }

    #[test]
    fn digest_sees_every_bit_and_the_length() {
        let bytes = b"mining frequent patterns\tin data streams\n".to_vec();
        let whole = Digest::of(&bytes);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(Digest::of(&flipped), whole, "byte {i} bit {bit}");
            }
            assert_ne!(Digest::of(&bytes[..i]), whole, "prefix {i}");
        }
        // Zero padding is not invisible.
        assert_ne!(Digest::of(b"ab"), Digest::of(b"ab\0"));
        assert_ne!(Digest::of(b""), Digest::of(&[0u8; 8]));
    }

    #[test]
    fn hex_digests_have_one_spelling() {
        assert_eq!(parse_hex(b"00000000000000ff"), Some(255));
        assert_eq!(parse_hex(b"00000000000000FF"), None);
        assert_eq!(parse_hex(b"ff"), None);
        assert_eq!(parse_hex(b"+0000000000000ff"), None);
    }

    fn write_phi(path: &Path, rows: u64, cols: u64, values: &[f64]) {
        let mut bytes = PHI_MAGIC.to_vec();
        bytes.extend_from_slice(&PHI_VERSION.to_le_bytes());
        bytes.extend_from_slice(&rows.to_le_bytes());
        bytes.extend_from_slice(&cols.to_le_bytes());
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(path, bytes).unwrap();
    }

    fn read(path: &Path, k: usize, width: usize) -> io::Result<(Vec<Vec<f64>>, u64)> {
        let mut phi = Vec::new();
        let file = File::open(path).unwrap();
        let (digest, bad) = read_phi_file("phi.bin", file, &mut phi, k, width)?;
        assert_eq!(bad, None, "unusable φ value");
        Ok((phi, digest))
    }

    fn bits(phi: &[Vec<f64>]) -> Vec<u64> {
        phi.iter().flatten().map(|x| x.to_bits()).collect()
    }

    fn fields() -> HeaderFields {
        HeaderFields {
            header: ModelHeader {
                n_topics: 3,
                vocab_size: 4,
                n_docs: 10,
                n_tokens: 30,
                seg_alpha: 2.5,
                beta: 0.01,
            },
            preprocess: PreprocessConfig {
                stem: true,
                remove_stopwords: false,
                min_token_len: 2,
                stopwords: Vec::new(),
            },
            min_support: 5,
            alpha: vec![0.1, 1.0 / 3.0, 7.25],
        }
    }

    #[test]
    fn phi_roundtrip_preserves_probabilities() {
        let dir = tmpdir("phi");
        let rows = vec![
            vec![0.1, f64::MIN_POSITIVE, 1.0 - 1e-16],
            vec![0.25, 5e-324, -0.0],
        ];
        let mut w = BundleWriter::new(&dir);
        w.phi("phi.bin", &rows, 0..3).unwrap();
        let (back, digest) = read(&dir.join("phi.bin"), 2, 3).unwrap();
        assert_eq!(bits(&back), bits(&rows));
        assert_eq!(digest, w.files[0].1);
        assert_eq!(
            digest,
            Digest::of(&std::fs::read(dir.join("phi.bin")).unwrap())
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn load_phi_rejects_ragged_and_empty() {
        let dir = tmpdir("phi-bad");
        let path = dir.join("phi.bin");
        // Ragged rows are refused at save.
        let err = BundleWriter::new(&dir)
            .phi("phi.bin", &[vec![0.5, 0.5], vec![1.0]], 0..2)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("row 1 has 1 values"), "{err}");
        // A file one value short of its shape, and an empty file.
        write_phi(&path, 2, 2, &[0.5, 0.5, 1.0]);
        let err = read(&path, 2, 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("need 56 bytes, the file has 48"),
            "{err}"
        );
        std::fs::write(&path, b"").unwrap();
        let err = read(&path, 2, 2).unwrap_err();
        assert!(err.to_string().contains("0 bytes, shorter"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bundle_shape_mismatches_are_errors() {
        let dir = tmpdir("phi-shape");
        let path = dir.join("phi.bin");
        // φ holds 2 × 1, the bundle header says 1 × 2.
        write_phi(&path, 2, 1, &[0.5, 0.5]);
        let err = read(&path, 1, 2).unwrap_err();
        assert!(err.to_string().contains("holds 2 × 1"), "{err}");
        // Bad magic and other layout versions.
        write_phi(&path, 1, 1, &[0.5]);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(read(&path, 1, 1).unwrap_err().to_string().contains("magic"));
        bytes[0] = b'T';
        bytes[4] = 9;
        std::fs::write(&path, &bytes).unwrap();
        let err = read(&path, 1, 1).unwrap_err();
        assert!(err.to_string().contains("version 9"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn phi_headers_claiming_more_than_the_file_fail_before_allocating() {
        let dir = tmpdir("phi-hostile");
        let path = dir.join("phi.bin");
        // K × width larger than the file: 2^20 × 2^20 values (8 TiB) in 40
        // bytes, with the bundle header agreeing. Reading it would abort on
        // allocation; it must not get that far.
        write_phi(&path, 1 << 20, 1 << 20, &[0.5, 0.5]);
        let err = read(&path, 1 << 20, 1 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("need"), "{err}");
        // K × width × 8 overflowing u64.
        write_phi(&path, 1 << 40, 1 << 40, &[]);
        let err = read(&path, 1 << 40, 1 << 40).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
        write_phi(&path, u64::MAX, 2, &[]);
        let err = read(&path, usize::MAX, 2).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
        // No rows: an empty block whatever the width, with no row buffer.
        write_phi(&path, 0, u64::from(u32::MAX), &[]);
        let (phi, _) = read(&path, 0, u32::MAX as usize).unwrap();
        assert!(phi.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn versioned_kv_writer_roundtrips_through_the_reader() {
        let dir = tmpdir("kv");
        let mut w = BundleWriter::new(&dir);
        w.stopwords("stopwords.txt", &["of".into(), "the".into()])
            .unwrap();
        w.commit(
            "manifest.tsv",
            "topmine-test-kv/1",
            &[
                ("n_shards".into(), "3".into()),
                ("beta".into(), format!("{:.17e}", 0.01f64)),
            ],
        )
        .unwrap();
        // The file: format line, pairs, one line per file, digest line
        // over everything above it.
        let text = std::fs::read_to_string(dir.join("manifest.tsv")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "format\ttopmine-test-kv/1");
        assert_eq!(lines[1], "n_shards\t3");
        assert!(lines[3].starts_with("file\tstopwords.txt\t"), "{text}");
        let body = &text[..text.len() - lines[4].len() - 1];
        assert_eq!(
            lines[4],
            format!("digest\t{:016x}", Digest::of(body.as_bytes()))
        );

        let mut kv = Header::read(&dir, "manifest.tsv", "topmine-test-kv/1").unwrap();
        assert_eq!(kv.take::<usize>("n_shards").unwrap(), 3);
        assert_eq!(kv.take::<f64>("beta").unwrap(), 0.01);
        kv.finish().unwrap();
        assert!(kv.lists("stopwords.txt"));
        assert_eq!(kv.read_stopwords().unwrap(), vec!["of", "the"]);
        assert_eq!(
            kv.digest(),
            u64::from_str_radix(&lines[4][7..], 16).unwrap()
        );
        let err = kv.take::<usize>("n_shards").unwrap_err();
        assert!(err.to_string().contains("missing n_shards"), "{err}");

        // A pair nothing takes is refused, once the digest lets it through.
        std::fs::write(
            dir.join("manifest.tsv"),
            text.replace("n_shards\t3\n", "n_shards\t3\nextra\t1\n"),
        )
        .unwrap();
        reseal(&dir.join("manifest.tsv"));
        let mut kv = Header::read(&dir, "manifest.tsv", "topmine-test-kv/1").unwrap();
        kv.take::<usize>("n_shards").unwrap();
        kv.take::<f64>("beta").unwrap();
        let err = kv.finish().unwrap_err();
        assert!(
            err.to_string().contains("line 3: unknown key \"extra\""),
            "{err}"
        );

        // A key listed twice: its first listing is taken, and the second is
        // refused naming its line.
        std::fs::write(
            dir.join("manifest.tsv"),
            text.replace("beta\t", "n_shards\t4\nbeta\t"),
        )
        .unwrap();
        reseal(&dir.join("manifest.tsv"));
        let mut kv = Header::read(&dir, "manifest.tsv", "topmine-test-kv/1").unwrap();
        assert_eq!(kv.take::<usize>("n_shards").unwrap(), 3);
        kv.take::<f64>("beta").unwrap();
        let err = kv.finish().unwrap_err();
        assert!(
            err.to_string().contains("line 3: unknown key \"n_shards\""),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_header_of_200_000_topics_is_read_in_seconds() {
        // Taking each key costs the same however many pairs are left, so
        // the K `alpha` pairs load in time linear in K. They are taken
        // directly: `take_fields` refuses a model of more than 65 535
        // topics once it has them.
        const K: usize = 200_000;
        let dir = tmpdir("many-topics");
        let mut many = fields();
        many.header.n_topics = K;
        many.alpha = vec![0.5; K];
        let mut text = String::from("format\ttopmine-test/1\n");
        for (key, value) in header_pairs(&many) {
            text.push_str(&format!("{key}\t{value}\n"));
        }
        text.push_str("digest\t0000000000000000\n");
        let path = dir.join("manifest.tsv");
        std::fs::write(&path, text).unwrap();
        reseal(&path);
        let (tx, rx) = std::sync::mpsc::channel();
        let reader_dir = dir.clone();
        std::thread::spawn(move || {
            let read = Header::read(&reader_dir, "manifest.tsv", "topmine-test/1")
                .and_then(|mut header| header.take_vec::<f64>(|t| format!("alpha{t}"), K))
                .map(|alpha| alpha.len())
                .map_err(|e| e.to_string());
            let _ = tx.send(read);
        });
        let read = rx
            .recv_timeout(std::time::Duration::from_secs(15))
            .expect("reading the header took over 15 s");
        assert_eq!(read, Ok(K));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn version_mismatch_is_a_clean_error() {
        let dir = tmpdir("version");
        BundleWriter::new(&dir)
            .commit("manifest.tsv", "topmine-test/1", &[])
            .unwrap();
        // Another version is refused naming both, not mis-parsed.
        let err = Header::read(&dir, "manifest.tsv", "topmine-test/2").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.starts_with("manifest.tsv: "), "{msg}");
        assert!(msg.contains("\"topmine-test/1\""), "{msg}");
        assert!(msg.contains("\"topmine-test/2\""), "{msg}");
        // So are header-less and empty files.
        std::fs::write(dir.join("manifest.tsv"), "n_topics\t3\n").unwrap();
        let err = Header::read(&dir, "manifest.tsv", "topmine-test/1").unwrap_err();
        assert!(err.to_string().contains("versioned header"), "{err}");
        std::fs::write(dir.join("manifest.tsv"), "").unwrap();
        let err = Header::read(&dir, "manifest.tsv", "topmine-test/1").unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bundle_save_and_hyper_content() {
        // The shared header pairs carry the hyperparameters exactly, and
        // `take_fields` is their inverse.
        let dir = tmpdir("hyper");
        BundleWriter::new(&dir)
            .commit("manifest.tsv", "topmine-test/1", &header_pairs(&fields()))
            .unwrap();
        let text = std::fs::read_to_string(dir.join("manifest.tsv")).unwrap();
        assert!(text.contains("n_topics\t3\n"), "{text}");
        assert!(text.contains("beta\t"), "{text}");
        assert!(text.contains("alpha2\t"), "{text}");
        let mut header = Header::read(&dir, "manifest.tsv", "topmine-test/1").unwrap();
        let back = header.take_fields().unwrap();
        header.finish().unwrap();
        let want = fields();
        assert_eq!(back.header, want.header);
        assert_eq!(back.preprocess, want.preprocess);
        assert_eq!(back.min_support, want.min_support);
        assert_eq!(back.alpha, want.alpha);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn full_bundle_roundtrip() {
        let dir = tmpdir("full");
        std::fs::create_dir_all(dir.join("shard-1")).unwrap();
        let words = ["alpha", "beta", "gamma"];
        let surfaces: Vec<String> = vec!["Alpha".into(), String::new(), "Gammas".into()];
        let mut lexicon = PhraseStats::new(vec![0; 10], 40, 2);
        lexicon.insert(&[7], 9).unwrap();
        lexicon.insert(&[7, 8], 3).unwrap();
        lexicon.insert(&[6, 7], 2).unwrap();
        let phi = vec![vec![0.5, 0.25, 0.25], vec![0.125, 0.375, 0.5]];
        let mut w = BundleWriter::new(&dir);
        w.vocab("shard-1/vocab.tsv", 7, words.iter().copied())
            .unwrap();
        w.unstem("shard-1/unstem.tsv", 7, &surfaces).unwrap();
        w.lexicon("shard-1/lexicon.tsv", &lexicon, 7..10).unwrap();
        w.phi("shard-1/phi.bin", &phi, 0..3).unwrap();
        w.commit("manifest.tsv", "topmine-test/1", &[]).unwrap();

        let header = Header::read(&dir, "manifest.tsv", "topmine-test/1").unwrap();
        let mut back = Vec::new();
        header
            .read_vocab("shard-1/vocab.tsv", 7, 3, |word| {
                back.push(word.to_string());
                Ok(())
            })
            .unwrap();
        assert_eq!(back, words);
        let mut table = vec![String::new(); 3];
        header
            .read_unstem("shard-1/unstem.tsv", 7, &mut table)
            .unwrap();
        assert_eq!(table, surfaces);
        // The file holds the phrases starting in the shard's range only.
        let mut back = PhraseStats::new(vec![0; 10], 0, 2);
        let total = header
            .read_lexicon("shard-1/lexicon.tsv", 7..10, &mut back)
            .unwrap();
        assert_eq!(total, 40);
        assert_eq!(back.phrases(), vec![(vec![7], 9), (vec![7, 8], 3)]);
        // Read into a range or vocabulary it does not fit, or twice, the
        // same file is refused at its first offending line.
        let err = header
            .read_lexicon(
                "shard-1/lexicon.tsv",
                0..7,
                &mut PhraseStats::new(vec![0; 10], 0, 2),
            )
            .unwrap_err();
        assert!(
            err.to_string().contains(
                "shard-1/lexicon.tsv line 2: first word 7 outside the shard's range [0, 7)"
            ),
            "{err}"
        );
        let err = header
            .read_lexicon(
                "shard-1/lexicon.tsv",
                7..10,
                &mut PhraseStats::new(vec![0; 8], 0, 2),
            )
            .unwrap_err();
        assert!(
            err.to_string().contains("line 3: word id 8 outside"),
            "{err}"
        );
        let err = header
            .read_lexicon("shard-1/lexicon.tsv", 7..10, &mut back)
            .unwrap_err();
        assert!(
            err.to_string().contains("line 2: phrase listed twice"),
            "{err}"
        );
        // φ lands after what the rows already hold.
        let mut loaded = vec![vec![1.0], vec![2.0]];
        header
            .read_phi("shard-1/phi.bin", &mut loaded, 2, 3)
            .unwrap();
        assert_eq!(
            bits(&loaded),
            bits(&[vec![1.0, 0.5, 0.25, 0.25], vec![2.0, 0.125, 0.375, 0.5]])
        );
        // Unlisted optional files are absent, not empty.
        assert!(!header.lists("shard-0/unstem.tsv"));
        assert!(header.read_stopwords().unwrap().is_empty());
        // A range the file does not fill, or ids outside it, are refused.
        let err = header
            .read_vocab("shard-1/vocab.tsv", 7, 4, |_| Ok(()))
            .unwrap_err();
        assert!(
            err.to_string().contains("3 words for a range of width 4"),
            "{err}"
        );
        let err = header
            .read_vocab("shard-1/vocab.tsv", 6, 3, |_| Ok(()))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("shard-1/vocab.tsv line 1: id 7 out of order"),
            "{err}"
        );
        let err = header
            .read_unstem("shard-1/unstem.tsv", 7, &mut [String::new(), String::new()])
            .unwrap_err();
        assert!(
            err.to_string().contains("id 9 outside the range [7, 9)"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
