//! Property tests of the one bundle layout, for arbitrarily shaped models
//! — any topic/vocabulary count, any lexicon, any preprocessing
//! configuration, with and without unstem tables — at shard counts 1–4: a
//! saved cut loads back as exactly the model that was cut,
//! `load(save(cut(m, n))) == m`, a second save at the same count writes
//! the same file set byte for byte, and `FrozenModel::save` writes the
//! very bytes of the one-shard `ShardedModel::save`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use topmine_corpus::Vocab;
use topmine_phrase::PhraseStats;
use topmine_serve::{FrozenModel, ModelBackend, ModelHeader, PreprocessConfig, ShardedModel};

fn tmpdir(name: &str, tag: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "topmine-bundle-prop-{name}-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
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

/// The files an `n_shards` bundle holds: the manifest, the stop list when
/// the contract removes stop words, and per shard the vocabulary, lexicon
/// and φ, plus the unstem table when training stemmed.
fn expected_files(n_shards: usize, stem: bool, stopwords: bool) -> Vec<String> {
    let mut files = vec!["manifest.tsv".to_string()];
    if stopwords {
        files.push("stopwords.txt".into());
    }
    for k in 0..n_shards {
        let mut shard = vec!["lexicon.tsv", "phi.bin", "vocab.tsv"];
        if stem {
            shard.push("unstem.tsv");
        }
        files.extend(shard.iter().map(|f| format!("shard-{k}/{f}")));
    }
    files.sort();
    files
}

/// Check that the trees at `a` and `b` hold the same files, byte for byte.
fn same_tree(a: &Path, b: &Path) -> Result<Vec<String>, TestCaseError> {
    let files = bundle_files(a);
    prop_assert_eq!(&files, &bundle_files(b));
    for file in &files {
        let (x, y) = (
            std::fs::read(a.join(file)).unwrap(),
            std::fs::read(b.join(file)).unwrap(),
        );
        prop_assert!(x == y, "{} differs", file);
    }
    Ok(files)
}

/// Build a structurally valid model from free parameters.
fn build_model(k: usize, v: usize, seed: u64, stem: bool, stopwords: bool) -> FrozenModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vocab = Vocab::new();
    for i in 0..v {
        vocab.intern(&format!("w{i}"));
    }
    // Random φ rows, normalized.
    let phi: Vec<Vec<f64>> = (0..k)
        .map(|_| {
            let raw: Vec<f64> = (0..v).map(|_| rng.gen_range(1e-6..1.0)).collect();
            let sum: f64 = raw.iter().sum();
            raw.into_iter().map(|x| x / sum).collect()
        })
        .collect();
    let alpha: Vec<f64> = (0..k).map(|_| rng.gen_range(0.01..5.0)).collect();
    // Random lexicon: unigrams for every word, a handful of n-grams.
    let total_tokens = rng.gen_range(100u64..10_000);
    let unigrams = (0..v).map(|_| rng.gen_range(1u64..50)).collect();
    let mut lexicon = PhraseStats::new(unigrams, total_tokens, rng.gen_range(1u64..6));
    for _ in 0..rng.gen_range(0usize..8) {
        let len = rng.gen_range(2usize..5);
        let phrase: Vec<u32> = (0..len).map(|_| rng.gen_range(0..v as u32)).collect();
        let count = rng.gen_range(1u64..20);
        // A phrase drawn twice keeps its first count.
        if lexicon.count(&phrase) == 0 {
            lexicon.insert(&phrase, count).unwrap();
        }
    }
    let unstem = stem.then(|| {
        (0..v)
            .map(|i| {
                if i % 3 == 0 {
                    String::new() // exercise the sparse-save path
                } else {
                    format!("surface{i}")
                }
            })
            .collect()
    });
    FrozenModel::from_parts(
        ModelHeader {
            n_topics: k,
            vocab_size: v,
            n_docs: rng.gen_range(1usize..1000),
            n_tokens: total_tokens,
            seg_alpha: rng.gen_range(0.1..20.0),
            beta: rng.gen_range(1e-4..0.5),
        },
        PreprocessConfig {
            stem,
            remove_stopwords: stopwords,
            min_token_len: rng.gen_range(1usize..4),
            stopwords: if stopwords {
                vec!["and".into(), "of".into(), "the".into()]
            } else {
                Vec::new()
            },
        },
        vocab,
        unstem,
        lexicon,
        phi,
        alpha,
    )
    .expect("constructed model must validate")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn save_load_is_the_identity(
        k in 1usize..6,
        v in 1usize..40,
        seed in 0u64..1_000_000,
        stem_flag in 0u8..2,
        stopword_flag in 0u8..2,
        shards in 1usize..5,
    ) {
        let (stem, stopwords) = (stem_flag == 1, stopword_flag == 1);
        let model = build_model(k, v, seed, stem, stopwords);
        let sharded = ShardedModel::from_frozen(&model, shards).unwrap();
        let dir = tmpdir("save", seed);
        sharded.save(&dir).unwrap();
        let loaded = FrozenModel::load(&dir).unwrap();
        prop_assert_eq!(&loaded, &model);
        prop_assert_eq!(loaded.shard_starts(), sharded.shard_starts());
        prop_assert_eq!(loaded.n_shards(), shards);
        // φ round-trips bit for bit (phi.bin holds the raw little-endian
        // f64s).
        let words: Vec<u32> = (0..v as u32).collect();
        let bits = |phi: Vec<f64>| -> Vec<u64> { phi.iter().map(|p| p.to_bits()).collect() };
        prop_assert_eq!(
            bits(loaded.gather_phi_batch(&words)),
            bits(model.gather_phi_batch(&words))
        );
        // A second save at the same count produces the same files, byte
        // for byte (canonical form, so the bundle digest is stable too).
        let dir2 = tmpdir("resave", seed);
        ShardedModel::from_frozen(&loaded, shards)
            .unwrap()
            .save(&dir2)
            .unwrap();
        let files = same_tree(&dir, &dir2)?;
        prop_assert_eq!(files, expected_files(shards, stem, stopwords));
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(dir2);
    }

    #[test]
    fn frozen_save_writes_the_one_shard_bundle(
        k in 1usize..6,
        v in 1usize..40,
        seed in 0u64..1_000_000,
        stem_flag in 0u8..2,
        stopword_flag in 0u8..2,
    ) {
        let model = build_model(k, v, seed, stem_flag == 1, stopword_flag == 1);
        let (frozen, one) = (tmpdir("frozen", seed), tmpdir("one-shard", seed));
        model.save(&frozen).unwrap();
        ShardedModel::from_frozen(&model, 1).unwrap().save(&one).unwrap();
        same_tree(&frozen, &one)?;
        let _ = std::fs::remove_dir_all(frozen);
        let _ = std::fs::remove_dir_all(one);
    }
}
