//! The ingest contract, enforced: `CorpusBuilder` and `io::load_lines`
//! build exactly the corpus of the straightforward pipeline they replaced,
//! kept here as an oracle — a tokenizer returning one `String` per token, a
//! builder that filters and stems every token, and a `String` per surface
//! token in provenance.
//!
//! Compared field by field: vocabulary order, `tokens`, `chunk_ends`, each
//! document's surface stream (as strings), `origin`, and `unstem`. Serving's
//! `prepare` is compared with the oracle's prepare on the same strings, on
//! the model as built and on it saved as a 3-shard bundle and loaded back.
//!
//! Inputs: a proptest over arbitrary Unicode text (any `char`, plus an
//! alphabet weighted toward what the tokenizer branches on) under three
//! option sets, and `topmine_synth` title and abstract corpora read
//! through `load_lines` (benchmark-sized in release builds).

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use topmine_corpus::{io, porter_stem, Corpus, CorpusBuilder, CorpusOptions, StopwordSet};
use topmine_phrase::PhraseStats;
use topmine_serve::{FrozenModel, ModelBackend, ModelHeader, PreprocessConfig, ShardedModel};
use topmine_synth::{profile_config, CorpusGenerator, Profile};

// ---------------------------------------------------------------------------
// The oracle: the tokenizer, builder and prepare as they were before ingest
// moved to borrowed tokens and interned surface forms.
// ---------------------------------------------------------------------------

fn is_chunk_break(c: char) -> bool {
    matches!(
        c,
        '.' | ','
            | ';'
            | ':'
            | '!'
            | '?'
            | '('
            | ')'
            | '['
            | ']'
            | '{'
            | '}'
            | '"'
            | '\u{201c}'
            | '\u{201d}'
            | '\u{2026}'
            | '/'
            | '\\'
            | '|'
            | '\u{2014}'
            | '\u{2013}'
    )
}

fn is_token_sep(c: char) -> bool {
    c.is_whitespace() || c == '-' || c == '_' || c == '*'
}

fn is_token_char(c: char) -> bool {
    c.is_alphanumeric() || c == '\''
}

/// `(lowercased token, chunk id)` pairs.
fn oracle_tokenize(text: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut chunk: u32 = 0;
    let mut chunk_has_tokens = false;

    let flush = |current: &mut String, out: &mut Vec<(String, u32)>, chunk: u32| -> bool {
        if current.is_empty() {
            return false;
        }
        let trimmed: &str = current.trim_matches('\'');
        if trimmed.is_empty() {
            current.clear();
            return false;
        }
        out.push((trimmed.to_string(), chunk));
        current.clear();
        true
    };

    for c in text.chars() {
        if is_token_char(c) {
            for lc in c.to_lowercase() {
                current.push(lc);
            }
        } else if is_chunk_break(c) {
            chunk_has_tokens |= flush(&mut current, &mut out, chunk);
            if chunk_has_tokens {
                chunk += 1;
                chunk_has_tokens = false;
            }
        } else if is_token_sep(c) {
            chunk_has_tokens |= flush(&mut current, &mut out, chunk);
        } else {
            // Unknown symbol: treat as separator.
            chunk_has_tokens |= flush(&mut current, &mut out, chunk);
        }
    }
    flush(&mut current, &mut out, chunk);
    out
}

/// The oracle's term rule: `None` for a dropped token.
fn oracle_term(options: &CorpusOptions, token: &str) -> Option<String> {
    if token.chars().count() < options.min_token_len {
        return None;
    }
    if options.remove_stopwords && options.stopwords.contains(token) {
        return None;
    }
    let term = if options.stem {
        porter_stem(token)
    } else {
        token.to_string()
    };
    (!term.is_empty()).then_some(term)
}

#[derive(Debug, Default)]
struct OracleDoc {
    tokens: Vec<u32>,
    chunk_ends: Vec<u32>,
    surface: Vec<String>,
    origin: Vec<u32>,
}

#[derive(Debug, Default)]
struct OracleCorpus {
    words: Vec<String>,
    docs: Vec<OracleDoc>,
    unstem: Option<Vec<String>>,
}

fn oracle_build(options: &CorpusOptions, texts: &[&str]) -> OracleCorpus {
    let mut words: Vec<String> = Vec::new();
    let mut index: HashMap<String, u32> = HashMap::new();
    let mut surface_counts: HashMap<u32, HashMap<String, u32>> = HashMap::new();
    let mut docs = Vec::new();
    for text in texts {
        let mut doc = OracleDoc::default();
        let mut current_chunk: Option<u32> = None;
        let mut chunk_token_count = 0usize;
        for (token, chunk) in oracle_tokenize(text) {
            let surface_idx = doc.surface.len() as u32;
            if options.keep_provenance {
                doc.surface.push(token.clone());
            }
            if current_chunk != Some(chunk) {
                if chunk_token_count > 0 {
                    doc.chunk_ends.push(doc.tokens.len() as u32);
                }
                chunk_token_count = 0;
                current_chunk = Some(chunk);
            }
            let Some(term) = oracle_term(options, &token) else {
                continue;
            };
            let id = *index.entry(term.clone()).or_insert_with(|| {
                words.push(term);
                words.len() as u32 - 1
            });
            if options.stem {
                *surface_counts
                    .entry(id)
                    .or_default()
                    .entry(token)
                    .or_insert(0) += 1;
            }
            doc.tokens.push(id);
            if options.keep_provenance {
                doc.origin.push(surface_idx);
            }
            chunk_token_count += 1;
        }
        if chunk_token_count > 0 {
            doc.chunk_ends.push(doc.tokens.len() as u32);
        }
        docs.push(doc);
    }
    let unstem = options.stem.then(|| {
        let mut table = vec![String::new(); words.len()];
        for (id, forms) in &surface_counts {
            if let Some((best, _)) = forms
                .iter()
                .max_by(|(wa, ca), (wb, cb)| ca.cmp(cb).then_with(|| wb.cmp(wa)))
            {
                table[*id as usize] = best.clone();
            }
        }
        table
    });
    OracleCorpus {
        words,
        docs,
        unstem,
    }
}

/// The oracle's serving prepare: `(chunks, n_oov)`, empty chunks dropped.
fn oracle_prepare(
    options: &CorpusOptions,
    lookup: impl Fn(&str) -> Option<u32>,
    text: &str,
) -> (Vec<Vec<u32>>, usize) {
    let mut chunks: Vec<Vec<u32>> = Vec::new();
    let mut current_chunk: Option<u32> = None;
    let mut n_oov = 0usize;
    for (token, chunk) in oracle_tokenize(text) {
        if current_chunk != Some(chunk) {
            chunks.push(Vec::new());
            current_chunk = Some(chunk);
        }
        let Some(term) = oracle_term(options, &token) else {
            continue;
        };
        match lookup(&term) {
            Some(id) => chunks.last_mut().expect("chunk open").push(id),
            None => n_oov += 1,
        }
    }
    chunks.retain(|c| !c.is_empty());
    (chunks, n_oov)
}

/// The lines the replaced `load_lines` read: split after each `\n`, every
/// trailing `\n`/`\r` stripped.
fn oracle_lines(content: &str) -> Vec<&str> {
    content
        .split_inclusive('\n')
        .map(|line| line.trim_end_matches(['\n', '\r']))
        .collect()
}

// ---------------------------------------------------------------------------
// Field-by-field comparison.
// ---------------------------------------------------------------------------

fn assert_same_corpus(
    corpus: &Corpus,
    oracle: &OracleCorpus,
    options: &CorpusOptions,
) -> Result<(), TestCaseError> {
    corpus.validate().map_err(TestCaseError::fail)?;
    let words: Vec<&str> = corpus.vocab.iter().map(|(_, w)| w).collect();
    prop_assert_eq!(&words, &oracle.words, "vocabulary order");
    prop_assert_eq!(corpus.n_docs(), oracle.docs.len(), "document count");
    for (d, (doc, want)) in corpus.docs.iter().zip(&oracle.docs).enumerate() {
        prop_assert_eq!(&doc.tokens, &want.tokens, "doc {} tokens", d);
        prop_assert_eq!(&doc.chunk_ends, &want.chunk_ends, "doc {} chunk_ends", d);
    }
    match &corpus.provenance {
        None => prop_assert!(!options.keep_provenance, "provenance missing"),
        Some(prov) => {
            prop_assert!(options.keep_provenance, "provenance not asked for");
            prop_assert_eq!(prov.docs.len(), oracle.docs.len(), "provenance docs");
            // The table holds each distinct surface form once, in the
            // order the surface stream first shows it.
            let mut first_seen: Vec<&str> = Vec::new();
            let mut seen: HashSet<&str> = HashSet::new();
            for (d, (p, want)) in prov.docs.iter().zip(&oracle.docs).enumerate() {
                let surface: Vec<&str> = p
                    .surface
                    .iter()
                    .map(|&id| prov.surfaces[id as usize].as_str())
                    .collect();
                prop_assert_eq!(&surface, &want.surface, "doc {} surface stream", d);
                prop_assert_eq!(&p.origin, &want.origin, "doc {} origin", d);
                for s in &want.surface {
                    if seen.insert(s.as_str()) {
                        first_seen.push(s);
                    }
                }
            }
            prop_assert_eq!(
                prov.surfaces.iter().map(String::as_str).collect::<Vec<_>>(),
                first_seen,
                "surface table"
            );
        }
    }
    prop_assert_eq!(&corpus.unstem, &oracle.unstem, "unstem table");
    Ok(())
}

/// Serving's prepare on `texts`, on a model whose vocabulary is `corpus`'s,
/// against the oracle's prepare: the model as built, and saved as a
/// 3-shard bundle and loaded back.
fn assert_same_prepare(
    corpus: &Corpus,
    options: &CorpusOptions,
    texts: &[&str],
) -> Result<(), TestCaseError> {
    let v = corpus.vocab_size().max(1);
    let mut vocab = corpus.vocab.clone();
    if vocab.is_empty() {
        vocab.intern("placeholder");
    }
    let model = FrozenModel::from_parts(
        ModelHeader {
            n_topics: 1,
            vocab_size: v,
            n_docs: corpus.n_docs(),
            n_tokens: corpus.n_tokens() as u64,
            seg_alpha: 5.0,
            beta: 0.01,
        },
        PreprocessConfig::from_corpus_options(options),
        vocab.clone(),
        None,
        PhraseStats::new(vec![0; v], corpus.n_tokens() as u64, 1),
        vec![vec![1.0 / v as f64; v]],
        vec![0.1],
    )
    .map_err(|e| TestCaseError::fail(e.to_string()))?;
    static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "topmine-ingest-prepare-{}-{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let sharded = ShardedModel::from_frozen(&model, 3.min(v))
        .and_then(|cut| cut.save(&dir))
        .and_then(|()| FrozenModel::load(&dir))
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    let _ = std::fs::remove_dir_all(&dir);
    for text in texts {
        let (chunks, n_oov) = oracle_prepare(options, |t| vocab.id(t), text);
        for backend in [&model as &dyn ModelBackend, &sharded] {
            let got = backend.prepare(text);
            let got_chunks: Vec<&[u32]> = got.doc.chunks().collect();
            prop_assert_eq!(&got_chunks, &chunks, "prepare chunks of {:?}", text);
            prop_assert_eq!(got.n_oov, n_oov, "prepare n_oov of {:?}", text);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

/// The option sets under test: the paper's, the raw id stream, and a
/// length filter with a custom stop-word list.
fn option_sets() -> Vec<CorpusOptions> {
    vec![
        CorpusOptions::default(),
        CorpusOptions::raw(),
        CorpusOptions {
            min_token_len: 3,
            stopwords: StopwordSet::from_words(["data", "the", "été", "don't", "ab"]),
            ..CorpusOptions::default()
        },
    ]
}

/// Pieces the text generator draws from besides arbitrary `char`s: what
/// the tokenizer branches on (case, digits, apostrophes, every chunk
/// break, separators, line endings), stop words, and Unicode whose
/// lowercase differs in length or case rules. Repeats weight a piece.
const PIECES: &[&str] = &[
    "a",
    "b",
    "e",
    "s",
    "x",
    "A",
    "E",
    "S",
    "Z",
    "0",
    "7",
    "'",
    "'",
    ".",
    ",",
    ";",
    ":",
    "!",
    "?",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    "\"",
    "\u{201c}",
    "\u{201d}",
    "\u{2026}",
    "/",
    "\\",
    "|",
    "\u{2014}",
    "\u{2013}",
    " ",
    " ",
    " ",
    " ",
    "-",
    "_",
    "*",
    "\t",
    "\r",
    "\n",
    "\r\n",
    "\u{a0}",
    "#",
    "@",
    "the",
    "The",
    "and",
    "of",
    "don't",
    "DON'T",
    "data",
    "mining",
    "Mining",
    "minings",
    "mined",
    "patterns",
    "relational",
    "été",
    "Été",
    "İ",
    "Σ",
    "ß",
    "ǅ",
    "é",
    "\u{301}",
    "٣",
    "中",
    "👍",
    "\u{200b}",
    "caresses",
    "ponies",
    "agreed",
    "3d",
];

/// One piece of text from a raw draw: a quarter of draws are any `char`.
fn piece(draw: u64, out: &mut String) {
    if draw.is_multiple_of(4) {
        let code = ((draw >> 8) % 0x11_0000) as u32;
        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
    } else {
        out.push_str(PIECES[((draw >> 8) % PIECES.len() as u64) as usize]);
    }
}

fn texts_from(draws: &[Vec<u64>]) -> Vec<String> {
    draws
        .iter()
        .map(|doc| {
            let mut text = String::new();
            for &d in doc {
                piece(d, &mut text);
            }
            text
        })
        .collect()
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "topmine-ingest-eq-{name}-{}.txt",
        std::process::id()
    ))
}

/// Build with `CorpusBuilder` and with `load_lines` on `content` written
/// to a file, each against the oracle.
fn check_content(content: &str, name: &str) -> Result<(), TestCaseError> {
    let path = tmp_path(name);
    std::fs::write(&path, content).map_err(|e| TestCaseError::fail(e.to_string()))?;
    let lines = oracle_lines(content);
    let result = (|| {
        for options in option_sets() {
            let oracle = oracle_build(&options, &lines);
            let loaded = io::load_lines(&path, options.clone())
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            assert_same_corpus(&loaded, &oracle, &options)?;
            let mut builder = CorpusBuilder::new(options.clone());
            builder.add_documents(lines.iter().copied());
            assert_same_corpus(&builder.build(), &oracle, &options)?;
        }
        Ok(())
    })();
    let _ = std::fs::remove_file(&path);
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn builder_matches_the_oracle_on_arbitrary_unicode(
        draws in prop::collection::vec(prop::collection::vec(0u64..u64::MAX, 0..48), 1..10)
    ) {
        let texts = texts_from(&draws);
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        for options in option_sets() {
            // Texts may hold `\n` here: the builder takes each whole.
            let mut builder = CorpusBuilder::new(options.clone());
            builder.add_documents(refs.iter().copied());
            let corpus = builder.build();
            assert_same_corpus(&corpus, &oracle_build(&options, &refs), &options)?;
            // Serve a vocabulary fit on the first half; prepare every text.
            let half = &refs[..refs.len().div_ceil(2)];
            let mut trained = CorpusBuilder::new(options.clone());
            trained.add_documents(half.iter().copied());
            assert_same_prepare(&trained.build(), &options, &refs)?;
        }
    }

    #[test]
    fn load_lines_matches_the_oracle_on_arbitrary_unicode(
        draws in prop::collection::vec(prop::collection::vec(0u64..u64::MAX, 0..48), 1..10)
    ) {
        // Joined into one file: every `\n` starts a document, and `\r`s
        // before it belong to the line ending.
        check_content(&texts_from(&draws).join("\n"), "prop")?;
    }
}

/// Benchmark-sized synthetic corpora in release builds, smaller in debug.
fn synth_scale(release: f64) -> f64 {
    if cfg!(debug_assertions) {
        release / 20.0
    } else {
        release
    }
}

fn check_synth(texts: &[String], name: &str) {
    let content = texts.join("\n") + "\n";
    check_content(&content, name).unwrap_or_else(|e| panic!("{name}: {e}"));
    // Serving prepare over a vocabulary fit on the first half.
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let options = CorpusOptions::default();
    let mut trained = CorpusBuilder::new(options.clone());
    trained.add_documents(refs[..refs.len() / 2].iter().copied());
    let sample: Vec<&str> = refs.iter().step_by(7).copied().collect();
    assert_same_prepare(&trained.build(), &options, &sample)
        .unwrap_or_else(|e| panic!("{name} prepare: {e}"));
}

#[test]
fn synthetic_titles_load_like_the_oracle() {
    // The titles corpus of the `mine-titles` benchmark workload.
    let texts = CorpusGenerator::new(profile_config(Profile::DblpTitles, synth_scale(5.0)))
        .generate_texts(1);
    check_synth(&texts, "titles");
}

#[test]
fn synthetic_abstracts_load_like_the_oracle() {
    // The abstracts corpus of the `fit-abstracts` benchmark workload.
    let mut cfg = profile_config(Profile::DblpAbstracts, synth_scale(3.0));
    cfg.tail_vocab = 400_000;
    cfg.tail_prob = 0.7;
    let texts = CorpusGenerator::new(cfg).generate_texts(1);
    check_synth(&texts, "abstracts");
}
