//! File I/O for corpora and artifacts.
//!
//! The paper's datasets are line-oriented (one title / abstract / review per
//! line); this module loads such files through the preprocessing pipeline
//! and writes the two artifacts a downstream user keeps: the vocabulary and
//! the mined/segmented documents (token ids with chunk structure), in plain
//! TSV that any toolchain can consume.

use crate::builder::{CorpusBuilder, CorpusOptions};
use crate::doc::{Corpus, Document};
use crate::vocab::Vocab;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Bytes of text per block of lines, the unit of work a load hands to a
/// worker: large enough that the scheduler's lock is taken rarely, small
/// enough that a window splits into tens of blocks.
const BLOCK_BYTES: usize = 64 << 10;

/// Bytes of a file held at once: a load reads windows of whole lines of
/// about this size (a longer line is held whole), tokenizes, merges and
/// rewrites each before reading the next.
const WINDOW_BYTES: usize = 4 << 20;

/// Most workers a load runs on. Each worker keeps a table of every
/// distinct surface form it meets until the corpus is built. Per form that
/// is a `HashMap<Box<str>, u32>` bucket (24 bytes and a control byte, at
/// 1.1–2.3 buckets a form), the form's own allocation (32 bytes for forms
/// of up to 24 bytes), and its count and global ids (8 bytes each, up to
/// twice that in vector slack): 80–120 bytes a form, so 2.6–3.9 MB for the
/// 32 273 forms of the `fit-abstracts` benchmark corpus. The tables grow
/// with workers × distinct forms; this cap bounds the first factor.
const MAX_INGEST_WORKERS: usize = 8;

/// Load a corpus from a text file with one document per line, applying the
/// given preprocessing options. Empty lines become empty documents (so line
/// numbers keep aligning with document ids).
///
/// The file is read in windows of whole lines of about 4 MiB (a longer
/// line is held whole), so the whole file is never held. Each window is cut
/// into blocks of lines of about 64 KiB, which run on
/// `std::thread::available_parallelism()` workers, at most 8. Each worker
/// interns surface forms into its own table; one merge in file order then
/// hands out ids ([`CorpusBuilder`]), so the corpus is the same, bit for
/// bit, at every worker count.
///
/// The file must be UTF-8: the first invalid sequence fails the load with
/// [`io::ErrorKind::InvalidData`], naming its 1-based line and byte column
/// ([`for_each_line`]).
pub fn load_lines(path: &Path, options: CorpusOptions) -> io::Result<Corpus> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_INGEST_WORKERS);
    load_lines_with(path, options, workers, BLOCK_BYTES, WINDOW_BYTES)
}

/// [`load_lines`] on `workers` workers, with blocks of about `block_bytes`
/// and windows of about `window_bytes`.
pub(crate) fn load_lines_with(
    path: &Path,
    options: CorpusOptions,
    workers: usize,
    block_bytes: usize,
    window_bytes: usize,
) -> io::Result<Corpus> {
    let mut builder = CorpusBuilder::with_workers(options, workers);
    for_each_window(path, window_bytes, |lines| {
        builder.add_lines(lines, block_bytes)
    })?;
    Ok(builder.build())
}

/// Hand every line of the text file at `path` to `visit`, in order, without
/// its trailing `\n`/`\r` bytes. The file is read as bytes and each line
/// checked once: the first invalid UTF-8 sequence fails with
/// [`io::ErrorKind::InvalidData`], naming its 1-based line and byte column
/// (`line 2, byte 5: invalid UTF-8`), after the lines before it were
/// visited.
pub fn for_each_line(path: &Path, mut visit: impl FnMut(&str)) -> io::Result<()> {
    for_each_window(path, BLOCK_BYTES, |lines| lines.for_each(&mut visit))
}

/// Whole lines of a file, the first of them line `first + 1`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lines<'a> {
    pub(crate) text: &'a [u8],
    pub(crate) first: usize,
}

impl<'a> Lines<'a> {
    /// Call `visit` with every line, in order, under the one line rule of
    /// every reader here: trailing `\n`/`\r` bytes are trimmed, and UTF-8
    /// is checked once. The first invalid sequence fails with
    /// [`io::ErrorKind::InvalidData`], naming its 1-based line and byte,
    /// after the lines before it were visited. Returns the number of lines.
    pub(crate) fn for_each(self, mut visit: impl FnMut(&str)) -> io::Result<usize> {
        let mut n = 0;
        for line in self.text.split_inclusive(|&b| b == b'\n') {
            let end = line
                .iter()
                .rposition(|&b| b != b'\n' && b != b'\r')
                .map_or(0, |i| i + 1);
            let text = std::str::from_utf8(&line[..end]).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "line {}, byte {}: invalid UTF-8",
                        self.first + n + 1,
                        e.valid_up_to() + 1
                    ),
                )
            })?;
            visit(text);
            n += 1;
        }
        Ok(n)
    }

    /// Cut into blocks of whole lines, each ending at the first line end
    /// at or after `bytes` bytes (the last may be shorter), with the
    /// number of lines in each.
    pub(crate) fn blocks(self, bytes: usize) -> Vec<(Lines<'a>, usize)> {
        let mut blocks = Vec::new();
        let (mut text, mut first) = (self.text, self.first);
        while !text.is_empty() {
            let from = bytes.clamp(1, text.len()) - 1;
            let end = text[from..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(text.len(), |i| from + i + 1);
            let (block, rest) = text.split_at(end);
            let n = block.iter().filter(|&&b| b == b'\n').count()
                + usize::from(block.last() != Some(&b'\n'));
            blocks.push((Lines { text: block, first }, n));
            (text, first) = (rest, first + n);
        }
        blocks
    }
}

/// Read the file at `path` in windows of whole lines of about
/// `window_bytes` each, handing each to `f`, which returns its number of
/// lines. A line longer than a window is held whole; only the last window
/// may end without a `\n`.
fn for_each_window(
    path: &Path,
    window_bytes: usize,
    mut f: impl FnMut(Lines<'_>) -> io::Result<usize>,
) -> io::Result<()> {
    let mut file = File::open(path)?;
    let mut buf: Vec<u8> = Vec::new();
    let mut first = 0;
    // `buf[..scanned]` holds no `\n`.
    let mut scanned = 0;
    loop {
        // Top the window up; a line already longer than it reads on.
        let room = match window_bytes.saturating_sub(buf.len()) {
            0 => window_bytes.max(1),
            room => room,
        };
        buf.reserve(room);
        let eof = (&mut file).take(room as u64).read_to_end(&mut buf)? < room;
        let end = if eof {
            buf.len()
        } else if let Some(i) = buf[scanned..].iter().rposition(|&b| b == b'\n') {
            scanned + i + 1
        } else {
            scanned = buf.len();
            continue;
        };
        first += f(Lines {
            text: &buf[..end],
            first,
        })?;
        if eof {
            return Ok(());
        }
        buf.drain(..end);
        scanned = 0;
    }
}

/// Attach the 1-based line number to an error from reading line `index`.
fn at_line(kind: &str, index: usize, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{kind} line {}: {e}", index + 1))
}

/// Write the vocabulary as `id<TAB>word` lines, in id order.
pub fn save_vocab(vocab: &Vocab, path: &Path) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    for (id, word) in vocab.iter() {
        writeln!(out, "{id}\t{word}")?;
    }
    out.flush()
}

/// Read a vocabulary written by [`save_vocab`]. Ids must be dense and in
/// order (the save format guarantees it); anything else is a data error.
pub fn load_vocab(path: &Path) -> io::Result<Vocab> {
    let reader = BufReader::new(File::open(path)?);
    let mut vocab = Vocab::new();
    for (line_no, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| at_line("vocab", line_no, e))?;
        if line.is_empty() {
            continue;
        }
        let (id_str, word) = line.split_once('\t').ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("vocab line {} is not id<TAB>word", line_no + 1),
            )
        })?;
        let id: u32 = id_str.parse().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("vocab line {}: bad id {id_str:?}", line_no + 1),
            )
        })?;
        let assigned = vocab.intern(word);
        if assigned != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "vocab line {}: id {id} out of order (expected {assigned})",
                    line_no + 1
                ),
            ));
        }
    }
    Ok(vocab)
}

/// Write the id-stream corpus: one document per line, chunks separated by
/// `|`, token ids space-separated — e.g. `3 17 4 | 99 5`.
pub fn save_documents(corpus: &Corpus, path: &Path) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    for doc in &corpus.docs {
        let mut first_chunk = true;
        for chunk in doc.chunks() {
            if !first_chunk {
                write!(out, " | ")?;
            }
            first_chunk = false;
            let mut first = true;
            for &t in chunk {
                if !first {
                    write!(out, " ")?;
                }
                first = false;
                write!(out, "{t}")?;
            }
        }
        writeln!(out)?;
    }
    out.flush()
}

/// Read documents written by [`save_documents`] against an existing
/// vocabulary (ids are validated against its size).
pub fn load_documents(path: &Path, vocab_size: usize) -> io::Result<Vec<Document>> {
    let reader = BufReader::new(File::open(path)?);
    let mut docs = Vec::new();
    for (line_no, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| at_line("doc", line_no, e))?;
        let mut chunks: Vec<Vec<u32>> = Vec::new();
        for chunk_str in line.split('|') {
            let mut chunk = Vec::new();
            for tok in chunk_str.split_whitespace() {
                let id: u32 = tok.parse().map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("doc line {}: bad token {tok:?}", line_no + 1),
                    )
                })?;
                if id as usize >= vocab_size {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("doc line {}: id {id} outside vocabulary", line_no + 1),
                    ));
                }
                chunk.push(id);
            }
            if !chunk.is_empty() {
                chunks.push(chunk);
            }
        }
        docs.push(Document::from_chunks(chunks));
    }
    Ok(docs)
}

/// Round-trip convenience: save a whole corpus (vocab + documents) into a
/// directory (`vocab.tsv`, `docs.txt`). Provenance is not persisted — it is
/// a preprocessing byproduct, reproducible from the raw text.
pub fn save_corpus(corpus: &Corpus, dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    save_vocab(&corpus.vocab, &dir.join("vocab.tsv"))?;
    save_documents(corpus, &dir.join("docs.txt"))
}

/// Load a corpus saved by [`save_corpus`].
pub fn load_corpus(dir: &Path) -> io::Result<Corpus> {
    let vocab = load_vocab(&dir.join("vocab.tsv"))?;
    let docs = load_documents(&dir.join("docs.txt"), vocab.len())?;
    let corpus = Corpus {
        vocab,
        docs,
        provenance: None,
        unstem: None,
    };
    corpus
        .validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(corpus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::{assert_same_corpus, one_by_one};
    use crate::StopwordSet;
    use proptest::prelude::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("topmine-io-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn load_lines_preserves_line_alignment() {
        let dir = tmpdir("lines");
        let path = dir.join("corpus.txt");
        std::fs::write(
            &path,
            "data mining algorithms\n\nquery processing, index structures\n",
        )
        .unwrap();
        let corpus = load_lines(&path, CorpusOptions::default()).unwrap();
        assert_eq!(corpus.n_docs(), 3);
        assert!(corpus.docs[1].is_empty());
        assert_eq!(corpus.docs[2].n_chunks(), 2);
        corpus.validate().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn load_lines_names_the_first_invalid_utf8_line_and_byte() {
        let dir = tmpdir("badutf8");
        let path = dir.join("corpus.txt");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"data mining\r\nquery processing\n");
        bytes.extend_from_slice(b"caf\xc3\xa9 ab\xffcd\n");
        bytes.extend_from_slice(b"line four\n\n\nseven \xe2\x82\n");
        std::fs::write(&path, &bytes).unwrap();
        let err = load_lines(&path, CorpusOptions::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "line 3, byte 9: invalid UTF-8");
        // A truncated sequence at the end of a line is located too.
        std::fs::write(&path, b"ok\nseven \xe2\x82\r\n").unwrap();
        let err = load_lines(&path, CorpusOptions::default()).unwrap_err();
        assert_eq!(err.to_string(), "line 2, byte 7: invalid UTF-8");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn for_each_line_visits_lines_without_their_ends_until_a_bad_byte() {
        let dir = tmpdir("visit");
        let path = dir.join("lines.txt");
        std::fs::write(&path, b"one\r\n\ntwo words\nthr\xffee\nfour\n").unwrap();
        let mut seen = Vec::new();
        let err = for_each_line(&path, |line| seen.push(line.to_string())).unwrap_err();
        assert_eq!(err.to_string(), "line 4, byte 4: invalid UTF-8");
        assert_eq!(seen, ["one", "", "two words"]);
        std::fs::write(&path, "last line has no end").unwrap();
        seen.clear();
        for_each_line(&path, |line| seen.push(line.to_string())).unwrap();
        assert_eq!(seen, ["last line has no end"]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn vocab_roundtrip() {
        let dir = tmpdir("vocab");
        let mut vocab = Vocab::new();
        for w in ["alpha", "beta", "words with spaces are impossible", "gamma"] {
            // (the middle entry has no tab, spaces are fine)
            vocab.intern(w);
        }
        let path = dir.join("vocab.tsv");
        save_vocab(&vocab, &path).unwrap();
        let loaded = load_vocab(&path).unwrap();
        assert_eq!(loaded.len(), vocab.len());
        for (id, w) in vocab.iter() {
            assert_eq!(loaded.word(id), w);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corpus_roundtrip_with_chunks() {
        let dir = tmpdir("corpus");
        let mut b = CorpusBuilder::new(CorpusOptions::raw());
        b.add_document("one two three, four five");
        b.add_document("");
        b.add_document("six");
        let corpus = b.build();
        save_corpus(&corpus, &dir).unwrap();
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded.n_docs(), corpus.n_docs());
        assert_eq!(loaded.n_tokens(), corpus.n_tokens());
        for (a, b) in corpus.docs.iter().zip(&loaded.docs) {
            assert_eq!(a.tokens, b.tokens);
            assert_eq!(a.chunk_ends, b.chunk_ends);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn load_rejects_corrupt_data() {
        let dir = tmpdir("corrupt");
        std::fs::write(dir.join("vocab.tsv"), "0\ta\n2\tb\n").unwrap();
        assert!(load_vocab(&dir.join("vocab.tsv")).is_err()); // gap in ids
        std::fs::write(dir.join("vocab.tsv"), "0 a\n").unwrap();
        assert!(load_vocab(&dir.join("vocab.tsv")).is_err()); // no tab
        std::fs::write(dir.join("docs.txt"), "0 1 99\n").unwrap();
        assert!(load_documents(&dir.join("docs.txt"), 2).is_err()); // id 99
        std::fs::write(dir.join("docs.txt"), "0 x\n").unwrap();
        assert!(load_documents(&dir.join("docs.txt"), 2).is_err()); // non-int
                                                                    // Read errors name their line.
        std::fs::write(dir.join("vocab.tsv"), b"0\ta\n1\tb\xff\n").unwrap();
        let err = load_vocab(&dir.join("vocab.tsv")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("vocab line 2: "), "{err}");
        std::fs::write(dir.join("docs.txt"), b"0 1\n1\n\xfe 0\n").unwrap();
        let err = load_documents(&dir.join("docs.txt"), 2).unwrap_err();
        assert!(err.to_string().starts_with("doc line 3: "), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn text_pipeline_to_disk_and_back() {
        let dir = tmpdir("pipeline");
        let path = dir.join("raw.txt");
        std::fs::write(
            &path,
            "Mining frequent patterns without candidate generation.\nFrequent pattern mining: status.\n",
        )
        .unwrap();
        let corpus = load_lines(&path, CorpusOptions::default()).unwrap();
        save_corpus(&corpus, &dir).unwrap();
        let loaded = load_corpus(&dir).unwrap();
        // Same mining stream; display metadata (unstem/provenance) is
        // deliberately not persisted.
        assert_eq!(loaded.n_tokens(), corpus.n_tokens());
        assert!(loaded.unstem.is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The lines of `content` as every reader here cuts them: after each
    /// `\n`, trailing `\n`/`\r` trimmed.
    fn split_lines(content: &str) -> Vec<&str> {
        content
            .split_inclusive('\n')
            .map(|line| line.trim_end_matches(['\n', '\r']))
            .collect()
    }

    /// `load_lines_with` on `content` at 1, 2, 3 and 7 workers, with
    /// blocks of one line and of a few lines, and windows of
    /// `window_bytes`, against the corpus built one line at a time.
    fn check_windowed(path: &Path, content: &str, window_bytes: usize, options: &CorpusOptions) {
        std::fs::write(path, content).unwrap();
        let want = one_by_one(options, &split_lines(content));
        for workers in [1, 2, 3, 7] {
            for block_bytes in [1, 24] {
                let got =
                    load_lines_with(path, options.clone(), workers, block_bytes, window_bytes)
                        .unwrap();
                let what =
                    format!("{workers} workers, blocks {block_bytes}, window {window_bytes}");
                assert_same_corpus(&got, &want, &what);
            }
        }
    }

    /// Words and line ends the generator draws from: stop words, case and
    /// non-ASCII forms, `\r\n`, punctuation; a quarter of draws make a
    /// fresh word.
    const PIECES: &[&str] = &[
        "data ", "Mining ", "mined ", "patterns", "the ", "of ", "and ", "été ", "Été ", "İ ",
        "中文 ", "don't ", ", ", ". ", " ", "\n", "\n", "\r\n", "\r", "\n\n",
    ];

    fn text_from(draws: &[u64]) -> String {
        let mut text = String::new();
        for &d in draws {
            if d.is_multiple_of(4) {
                text.push_str(&format!("w{} ", (d >> 8) % 10_000));
            } else {
                text.push_str(PIECES[((d >> 8) % PIECES.len() as u64) as usize]);
            }
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn windows_and_blocks_of_lines_build_the_one_by_one_corpus(
            draws in prop::collection::vec(0u64..u64::MAX, 0..160),
            window_bytes in 1usize..40,
        ) {
            let dir = tmpdir("windowed-prop");
            let path = dir.join("corpus.txt");
            let stemmed = CorpusOptions::default();
            let filtered = CorpusOptions {
                min_token_len: 3,
                keep_provenance: false,
                stopwords: StopwordSet::from_words(["data", "été"]),
                ..CorpusOptions::default()
            };
            for options in [stemmed, filtered, CorpusOptions::raw()] {
                check_windowed(&path, &text_from(&draws), window_bytes, &options);
            }
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn window_and_file_edges_build_the_one_by_one_corpus() {
        let dir = tmpdir("windowed-edges");
        let path = dir.join("corpus.txt");
        let options = CorpusOptions::default();
        // `\r\n` split across a window boundary: the first window's read
        // ends on the `\r` (8 bytes).
        check_windowed(&path, "mining\r\npatterns\r\ndata\n", 7, &options);
        check_windowed(&path, "mining\r\npatterns\r\ndata\n", 8, &options);
        // A final line without `\n`.
        check_windowed(&path, "mining patterns\ndata mining", 6, &options);
        // An empty file, and a file of only newlines.
        check_windowed(&path, "", 4, &options);
        check_windowed(&path, "\n\n\r\n\n", 2, &options);
        // A line longer than the window, between short ones.
        let long = "frequent pattern mining ".repeat(50);
        check_windowed(&path, &format!("data\n{long}\nmining data\n"), 16, &options);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn the_first_bad_line_fails_whichever_block_or_window_holds_it() {
        let dir = tmpdir("windowed-bad");
        let path = dir.join("corpus.txt");
        // Bad bytes on lines 3 and 5, in different blocks (and, at small
        // windows, different windows).
        std::fs::write(&path, b"ok\nfine line\nab\xffcd\nok\nseven \xe2\x82\n").unwrap();
        for workers in [1, 2, 3, 7] {
            for (block_bytes, window_bytes) in [(1, 4), (1, 1 << 10), (6, 1 << 10)] {
                let err = load_lines_with(
                    &path,
                    CorpusOptions::default(),
                    workers,
                    block_bytes,
                    window_bytes,
                )
                .unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert_eq!(err.to_string(), "line 3, byte 3: invalid UTF-8");
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
