//! Corrupt bundles are refused, never loaded: truncating any bundle file at
//! any offset, flipping any single bit of it, or deleting an optional file
//! its header lists makes every loader that reads the file fail with
//! `InvalidData` naming it — never `Ok`, never a panic.
//!
//! A bundle whose digests are intact but whose values fold-in cannot use
//! (an infinite α or `seg_alpha`, more than 65 535 topics, a negative or
//! NaN φ value, a lexicon line with a word id outside the vocabulary, a
//! first word outside its shard's range, a phrase listed twice, or a
//! vocabulary word listed in two shards) is refused the same way, naming
//! the key, or the file (and the line, for a lexicon line).
//!
//! Bundles covered: the one-shard bundle of a default save
//! (`FrozenModel::save`) and a 2-shard bundle. Loaders covered, on both:
//! `load_bundle`, the router's φ-less view
//! (`RemoteShardedModel::connect_lazy`, which reads every file but the φ
//! blocks), and `ShardSlice::load`, which reads the manifest and its own
//! shard's `phi.bin`.

mod fleet_common;

use fleet_common::{fast_pool, fitted_model};
use proptest::prelude::*;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use topmine_serve::{load_bundle, FrozenModel, RemoteShardedModel, ShardSlice, ShardedModel};

fn model() -> &'static FrozenModel {
    static MODEL: OnceLock<FrozenModel> = OnceLock::new();
    MODEL.get_or_init(|| fitted_model(11))
}

/// A fresh, absent directory for `tag`.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("topmine-corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Save `model()` under a fresh directory: one shard through the default
/// save, `FrozenModel::save`; more through `ShardedModel::save`.
fn save(tag: &str, n_shards: usize) -> PathBuf {
    let dir = fresh_dir(tag);
    match n_shards {
        1 => model().save(&dir).unwrap(),
        n => ShardedModel::from_frozen(model(), n)
            .unwrap()
            .save(&dir)
            .unwrap(),
    }
    dir
}

/// Every file of the bundle at `dir`, as paths relative to it, sorted.
fn bundle_files(dir: &Path) -> Vec<String> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap();
                out.push(rel.to_str().unwrap().replace('\\', "/"));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

/// Check that `result` is the refusal of a corrupt `rel`.
fn refused<T>(result: io::Result<T>, rel: &str, loader: &str) -> Result<(), TestCaseError> {
    match result {
        Ok(_) => Err(TestCaseError::fail(format!(
            "{loader} loaded a corrupt {rel}"
        ))),
        Err(e) => {
            prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{}: {}", loader, e);
            prop_assert!(
                e.to_string().contains(rel),
                "{} does not name {}: {}",
                loader,
                rel,
                e
            );
            Ok(())
        }
    }
}

/// Run every loader that reads `rel` against the (now corrupt) bundle at
/// `dir` and check each refuses it, naming `rel`.
fn check_loaders(dir: &Path, rel: &str, n_shards: usize) -> Result<(), TestCaseError> {
    refused(load_bundle(dir), rel, "load_bundle")?;
    let addrs = vec!["127.0.0.1:9".to_string(); n_shards];
    let router = RemoteShardedModel::connect_lazy(dir, &addrs, fast_pool());
    if rel.ends_with("phi.bin") {
        // The router's view does not read φ: it must still load.
        prop_assert!(router.is_ok(), "router view failed on {}", rel);
    } else {
        refused(router, rel, "router view")?;
    }
    for k in 0..n_shards {
        let reads_it = rel == "manifest.tsv" || rel == format!("shard-{k}/phi.bin");
        if reads_it {
            refused(
                ShardSlice::load(dir, k),
                rel,
                &format!("ShardSlice::load({k})"),
            )?;
        }
    }
    Ok(())
}

/// Write `bytes` over `dir/rel`, run the loaders, and restore the file.
fn with_bytes(dir: &Path, rel: &str, bytes: &[u8], n_shards: usize) -> Result<(), TestCaseError> {
    let path = dir.join(rel);
    let original = std::fs::read(&path).unwrap();
    std::fs::write(&path, bytes).unwrap();
    let outcome = check_loaders(dir, rel, n_shards);
    std::fs::write(&path, original).unwrap();
    outcome
}

/// Every file of the bundle, truncated at one offset and with one bit
/// flipped (`pick` chooses both per file).
fn corrupt_every_file(dir: &Path, n_shards: usize, pick: u64) -> Result<(), TestCaseError> {
    for (i, rel) in bundle_files(dir).iter().enumerate() {
        let bytes = std::fs::read(dir.join(rel)).unwrap();
        let len = bytes.len() as u64;
        let spread = pick.rotate_left(7 * i as u32);
        let cut = (spread % len) as usize;
        with_bytes(dir, rel, &bytes[..cut], n_shards)?;
        let mut flipped = bytes.clone();
        flipped[(spread / 8 % len) as usize] ^= 1 << (spread % 8);
        with_bytes(dir, rel, &flipped, n_shards)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncated_or_bit_flipped_files_are_refused(pick in 0u64..u64::MAX) {
        let one = save(&format!("one-{pick}"), 1);
        corrupt_every_file(&one, 1, pick)?;
        let sharded = save(&format!("sharded-{pick}"), 2);
        corrupt_every_file(&sharded, 2, pick)?;
        // Restored, both load again.
        prop_assert!(load_bundle(&one).is_ok());
        prop_assert!(load_bundle(&sharded).is_ok());
        let _ = std::fs::remove_dir_all(one);
        let _ = std::fs::remove_dir_all(sharded);
    }
}

#[test]
fn every_truncation_and_bit_flip_of_the_headers_is_refused() {
    // Exhaustive where the format is densest: every byte of the bundle
    // header (its own digest line included) and of each φ header.
    for (tag, n_shards) in [("walk-one", 1), ("walk-sharded", 2)] {
        let dir = save(tag, n_shards);
        for rel in bundle_files(&dir) {
            let bytes = std::fs::read(dir.join(&rel)).unwrap();
            let walked = match rel.as_str() {
                "manifest.tsv" => bytes.len(),
                r if r.ends_with("phi.bin") => 24,
                _ => continue,
            };
            for cut in 0..walked {
                with_bytes(&dir, &rel, &bytes[..cut], n_shards).unwrap();
            }
            for bit in 0..8 * walked {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                with_bytes(&dir, &rel, &flipped, n_shards).unwrap();
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn deleting_a_listed_optional_file_is_refused() {
    for (tag, n_shards) in [("delete-one", 1), ("delete-sharded", 2)] {
        let dir = save(tag, n_shards);
        let optional: Vec<String> = bundle_files(&dir)
            .into_iter()
            .filter(|rel| rel.ends_with("stopwords.txt") || rel.ends_with("unstem.tsv"))
            .collect();
        // stopwords.txt, plus one unstem.tsv per shard (the model stems).
        assert_eq!(optional.len(), 1 + n_shards, "{optional:?}");
        for rel in optional {
            let path = dir.join(&rel);
            let original = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            check_loaders(&dir, &rel, n_shards).unwrap();
            std::fs::write(&path, original).unwrap();
        }
        assert!(load_bundle(&dir).is_ok());
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn phi_headers_claiming_huge_shapes_fail_before_allocating() {
    // K and width rewritten to sizes whose φ would not fit in memory (or
    // in u64 bytes): the loader compares them with the bundle header and
    // the real file length before allocating, so it fails instead of
    // aborting on a huge allocation.
    for (tag, n_shards, rel) in [
        ("huge-one", 1, "shard-0/phi.bin"),
        ("huge-sharded", 2, "shard-1/phi.bin"),
    ] {
        let dir = save(tag, n_shards);
        let bytes = std::fs::read(dir.join(rel)).unwrap();
        for (k, width) in [
            (1u64 << 20, 1u64 << 20),
            (1 << 40, 1 << 40),
            (u64::MAX, u64::MAX),
        ] {
            let mut huge = bytes.clone();
            huge[8..16].copy_from_slice(&k.to_le_bytes());
            huge[16..24].copy_from_slice(&width.to_le_bytes());
            with_bytes(&dir, rel, &huge, n_shards).unwrap();
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Check that `result` refuses a value fold-in cannot use, naming `what`
/// (a header key, or the φ file) and `file`.
fn refuses_value<T>(result: io::Result<T>, what: &str, file: &str, loader: &str) {
    match result {
        Ok(_) => panic!("{loader} loaded a bundle with a bad {what}"),
        Err(e) => {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{loader}: {e}");
            let msg = e.to_string();
            assert!(
                msg.contains(what) && msg.contains(file),
                "{loader} does not name {what} in {file}: {msg}"
            );
        }
    }
}

/// The bundle content digest, read off its description in the serve
/// crate's `io` module: the Fx word step over little-endian 8-byte words
/// (a zero-padded tail last), the length folded in, then the murmur3
/// finalizer.
fn digest(bytes: &[u8]) -> u64 {
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut mix = |word: u64| {
        state = (state.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    };
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        mix(u64::from_le_bytes(word));
    }
    mix(bytes.len() as u64);
    let mut h = state;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Put `line` in bundle file `rel` under `dir` — over line `line_no`
/// (1-based), or appended when `line_no` is `None` — and seal the edit:
/// the manifest records the file's new digest and is re-digested, so only
/// the edited value is wrong. Returns the edited line's number.
fn edit_sealed(dir: &Path, rel: &str, line_no: Option<usize>, line: &str) -> usize {
    let path = dir.join(rel);
    let mut lines: Vec<String> = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    let line_no = line_no.unwrap_or(lines.len() + 1);
    match lines.get_mut(line_no - 1) {
        Some(old) => *old = line.to_string(),
        None => lines.push(line.to_string()),
    }
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(&path, &text).unwrap();
    let manifest = dir.join("manifest.tsv");
    let listed = format!("file\t{rel}\t");
    let mut body = String::new();
    for old in std::fs::read_to_string(&manifest).unwrap().lines() {
        if old.starts_with("digest\t") {
            break;
        }
        match old.starts_with(&listed) {
            true => body.push_str(&format!("{listed}{:016x}\n", digest(text.as_bytes()))),
            false => body.push_str(&format!("{old}\n")),
        }
    }
    let sealed = format!("{body}digest\t{:016x}\n", digest(body.as_bytes()));
    std::fs::write(&manifest, sealed).unwrap();
    line_no
}

/// Lexicon lines that would put a phrase where no lookup finds it, or
/// index past the unigram nodes, under intact digests.
fn refuses_sealed_lexicon_lines() {
    let v = model().vocab_size() as u32;
    let sharded = ShardedModel::from_frozen(model(), 2).unwrap();
    let shard1_lo = sharded.shard_starts()[1];
    let first = model().lexicon.phrases()[0].0.clone();
    let listed: Vec<String> = first.iter().map(u32::to_string).collect();
    // (tag, shards, line appended to shard-0/lexicon.tsv, the refusal)
    let cases = [
        (
            "word-id",
            1,
            format!("3\t0 {v}"),
            format!("word id {v} outside the vocabulary of {v}"),
        ),
        (
            "first-word-vocab",
            1,
            format!("3\t{} 0", v + 5),
            format!("first word {} outside the shard's range [0, {v})", v + 5),
        ),
        (
            "first-word-shard",
            2,
            format!("3\t{shard1_lo} 0"),
            format!("first word {shard1_lo} outside the shard's range [0, {shard1_lo})"),
        ),
        (
            "twice",
            1,
            format!("7\t{}", listed.join(" ")),
            "phrase listed twice".to_string(),
        ),
    ];
    for (tag, n_shards, line, what) in cases {
        let dir = save(&format!("lexicon-{tag}"), n_shards);
        let rel = "shard-0/lexicon.tsv";
        let line_no = edit_sealed(&dir, rel, None, &line);
        let file = format!("{rel} line {line_no}");
        refuses_value(load_bundle(&dir), &what, &file, "load_bundle");
        let addrs = vec!["127.0.0.1:9".to_string(); n_shards];
        refuses_value(
            RemoteShardedModel::connect_lazy(&dir, &addrs, fast_pool()),
            &what,
            &file,
            "router view",
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn sealed_bundles_with_values_that_break_fold_in_are_refused() {
    // Saved through the savers, so every digest matches: only the values
    // are wrong. An infinite α makes θ NaN; fold-in stores a topic in 16
    // bits, so 65 536 topics are one too many; the draw needs finite,
    // non-negative φ; an infinite threshold breaks Algorithm 2.
    type Edit = fn(&mut FrozenModel);
    let one_shard: [(&str, Edit, &str, &str); 5] = [
        (
            "alpha",
            |m| m.alpha[0] = f64::INFINITY,
            "alpha0",
            "manifest.tsv",
        ),
        (
            "topics",
            // The fitted model's few words keep φ at 65 536 × V small.
            |m| {
                let k = 1 << 16;
                let (alpha, phi) = (&m.alpha, &m.phi);
                let alpha = (0..k).map(|t| alpha[t % alpha.len()]).collect();
                let phi = (0..k).map(|t| phi[t % phi.len()].clone()).collect();
                (m.header.n_topics, m.alpha, m.phi) = (k, alpha, phi);
            },
            "n_topics",
            "manifest.tsv",
        ),
        (
            "seg",
            |m| m.header.seg_alpha = f64::INFINITY,
            "seg_alpha",
            "manifest.tsv",
        ),
        (
            "phi-neg",
            |m| m.phi[1][2] = -1.0,
            "shard-0/phi.bin",
            "shard-0/phi.bin",
        ),
        (
            "phi-nan",
            |m| m.phi[1][2] = f64::NAN,
            "shard-0/phi.bin",
            "shard-0/phi.bin",
        ),
    ];
    let addrs = vec!["127.0.0.1:9".to_string()];
    for (tag, edit, what, file) in one_shard {
        let mut bad = model().clone();
        edit(&mut bad);
        let dir = fresh_dir(&format!("value-{tag}"));
        bad.save(&dir).unwrap();
        refuses_value(load_bundle(&dir), what, file, "load_bundle");
        refuses_value(ShardSlice::load(&dir, 0), what, file, "ShardSlice::load(0)");
        let router = RemoteShardedModel::connect_lazy(&dir, &addrs, fast_pool());
        match file {
            "manifest.tsv" => refuses_value(router, what, file, "router view"),
            // The router's view reads no φ.
            _ => assert!(router.is_ok()),
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    // Sharded: word 2 lives in shard 0, so shard 1 still loads on its own.
    let addrs = vec!["127.0.0.1:9".to_string(); 2];
    for (tag, value) in [("phi-neg", -1.0), ("phi-nan", f64::NAN)] {
        let mut bad = model().clone();
        bad.phi[1][2] = value;
        let dir = fresh_dir(&format!("value-sharded-{tag}"));
        ShardedModel::from_frozen(&bad, 2)
            .unwrap()
            .save(&dir)
            .unwrap();
        let file = "shard-0/phi.bin";
        refuses_value(load_bundle(&dir), file, file, "load_bundle");
        refuses_value(ShardSlice::load(&dir, 0), file, file, "ShardSlice::load(0)");
        assert!(ShardSlice::load(&dir, 1).is_ok());
        // The router's view reads no φ.
        assert!(RemoteShardedModel::connect_lazy(&dir, &addrs, fast_pool()).is_ok());
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut bad = model().clone();
    bad.header.seg_alpha = f64::INFINITY;
    let dir = fresh_dir("value-sharded-seg");
    ShardedModel::from_frozen(&bad, 2)
        .unwrap()
        .save(&dir)
        .unwrap();
    let (what, file) = ("seg_alpha", "manifest.tsv");
    refuses_value(load_bundle(&dir), what, file, "load_bundle");
    refuses_value(
        RemoteShardedModel::connect_lazy(&dir, &addrs, fast_pool()),
        what,
        file,
        "router view",
    );
    for k in 0..2 {
        refuses_value(ShardSlice::load(&dir, k), what, file, "ShardSlice::load");
    }
    let _ = std::fs::remove_dir_all(dir);
    refuses_sealed_lexicon_lines();
    refuses_a_word_listed_in_two_shards();
}

/// A `shard-1/vocab.tsv` line rewritten to repeat a word of shard 0, under
/// intact digests: one vocabulary holds every shard's words, and it is
/// refused naming the file that lists the word again.
fn refuses_a_word_listed_in_two_shards() {
    for n_shards in [2, 3] {
        let sharded = ShardedModel::from_frozen(model(), n_shards).unwrap();
        let lo = sharded.shard_starts()[1];
        let dir = save(&format!("vocab-twice-{n_shards}"), n_shards);
        let rel = "shard-1/vocab.tsv";
        edit_sealed(
            &dir,
            rel,
            Some(1),
            &format!("{lo}\t{}", model().vocab.word(0)),
        );
        let what = format!("a word is listed twice, at ids 0 and {lo}");
        refuses_value(load_bundle(&dir), &what, rel, "load_bundle");
        let addrs = vec!["127.0.0.1:9".to_string(); n_shards];
        refuses_value(
            RemoteShardedModel::connect_lazy(&dir, &addrs, fast_pool()),
            &what,
            rel,
            "router view",
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
