//! Property test: `FrozenModel::save`/`load` round-trips exactly for
//! arbitrarily shaped models — any topic/vocabulary count, any lexicon,
//! any preprocessing configuration, with and without unstem tables — and a
//! second save writes the same file set byte for byte.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topmine_corpus::Vocab;
use topmine_serve::{FrozenModel, ModelHeader, PhraseTrie, PreprocessConfig};

fn tmpdir(tag: u64) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("topmine-frozen-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The names of the files in a bundle directory, sorted.
fn bundle_files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort_unstable();
    names
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
    let mut lexicon = PhraseTrie::new(total_tokens, rng.gen_range(1u64..6));
    for w in 0..v as u32 {
        lexicon.insert(&[w], rng.gen_range(1u64..50));
    }
    for _ in 0..rng.gen_range(0usize..8) {
        let len = rng.gen_range(2usize..5);
        let phrase: Vec<u32> = (0..len).map(|_| rng.gen_range(0..v as u32)).collect();
        lexicon.insert(&phrase, rng.gen_range(1u64..20));
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
    ) {
        let model = build_model(k, v, seed, stem_flag == 1, stopword_flag == 1);
        let dir = tmpdir(seed ^ (k as u64) << 32 ^ v as u64);
        model.save(&dir).unwrap();
        let loaded = FrozenModel::load(&dir).unwrap();
        prop_assert_eq!(&loaded.header, &model.header);
        prop_assert_eq!(&loaded.preprocess, &model.preprocess);
        prop_assert_eq!(&loaded.lexicon, &model.lexicon);
        // φ round-trips bit for bit (phi.bin holds the raw little-endian
        // f64s).
        let bits = |phi: &[Vec<f64>]| -> Vec<u64> { phi.iter().flatten().map(|p| p.to_bits()).collect() };
        prop_assert_eq!(bits(&loaded.phi), bits(&model.phi));
        prop_assert_eq!(loaded.phi.len(), model.phi.len());
        prop_assert_eq!(&loaded.alpha, &model.alpha);
        prop_assert_eq!(loaded.vocab.len(), model.vocab.len());
        for (id, w) in model.vocab.iter() {
            prop_assert_eq!(loaded.vocab.word(id), w);
        }
        prop_assert_eq!(&loaded.unstem, &model.unstem);
        // And a second save produces the same files, byte for byte
        // (canonical form, so the bundle digest is stable too).
        let dir2 = tmpdir(seed ^ 0xdead_beef);
        loaded.save(&dir2).unwrap();
        let files = bundle_files(&dir);
        prop_assert_eq!(&files, &bundle_files(&dir2));
        let mut expected = vec!["header.tsv", "lexicon.tsv", "phi.bin", "vocab.tsv"];
        if stem_flag == 1 {
            expected.push("unstem.tsv");
        }
        if stopword_flag == 1 {
            expected.push("stopwords.txt");
        }
        expected.sort_unstable();
        prop_assert_eq!(&files, &expected);
        for file in &files {
            let a = std::fs::read(dir.join(file)).unwrap();
            let b = std::fs::read(dir2.join(file)).unwrap();
            prop_assert_eq!(a, b, "{} not canonical", file);
        }
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(dir2);
    }
}
