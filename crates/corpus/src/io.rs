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
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Load a corpus from a text file with one document per line, applying the
/// given preprocessing options. Empty lines become empty documents (so line
/// numbers keep aligning with document ids).
///
/// The file must be UTF-8: the first invalid sequence fails the load with
/// [`io::ErrorKind::InvalidData`], naming its 1-based line and byte column
/// ([`for_each_line`]).
pub fn load_lines(path: &Path, options: CorpusOptions) -> io::Result<Corpus> {
    let mut builder = CorpusBuilder::new(options);
    for_each_line(path, |text| {
        builder.add_document(text);
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
    let mut reader = BufReader::with_capacity(1 << 16, File::open(path)?);
    let mut line: Vec<u8> = Vec::new();
    let mut line_no = 0usize;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        line_no += 1;
        let end = line
            .iter()
            .rposition(|&b| b != b'\n' && b != b'\r')
            .map_or(0, |i| i + 1);
        let text = std::str::from_utf8(&line[..end]).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "line {line_no}, byte {}: invalid UTF-8",
                    e.valid_up_to() + 1
                ),
            )
        })?;
        visit(text);
    }
    Ok(())
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
}
