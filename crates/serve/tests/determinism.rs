//! End-to-end determinism: a model fitted, frozen, saved, reloaded, and
//! queried in blocks on different numbers of threads must produce
//! bit-identical inference — θ, annotations, and the rendered JSON bodies —
//! for a fixed seed. This is the acceptance bar for reproducible serving.

use topmine_corpus::{corpus_from_texts, CorpusOptions};
use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::Segmenter;
use topmine_serve::{
    infer_doc, infer_docs_amortized, inference_json, load_bundle, BatchItem, DocInference,
    FrozenModel, InferConfig, ModelBackend,
};
use topmine_util::par;

fn fitted_model() -> FrozenModel {
    let texts: Vec<String> = (0..40)
        .flat_map(|i| {
            [
                format!("mining frequent patterns in data streams {i}"),
                format!("support vector machines for classification {i}"),
            ]
        })
        .collect();
    let corpus = corpus_from_texts(texts.iter().map(String::as_str));
    let (stats, seg) = Segmenter::with_params(5, 2.0).segment(&corpus);
    let grouped = GroupedDocs::from_segmentation(&corpus, &seg);
    let mut lda = PhraseLda::new(grouped, TopicModelConfig::new(2).with_seed(11));
    lda.run(40);
    FrozenModel::freeze(&corpus, &stats, 2.0, &lda, &CorpusOptions::default())
}

/// FNV-1a digest of everything observable in a batch of inferences: θ bits,
/// topic ranking, phrase topics and word ids, token/OOV counts.
fn inference_digest(results: &[topmine_serve::DocInference]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for inf in results {
        for &t in &inf.theta {
            eat(&t.to_bits().to_le_bytes());
        }
        for &(t, w) in &inf.top_topics {
            eat(&(t as u64).to_le_bytes());
            eat(&w.to_bits().to_le_bytes());
        }
        for p in &inf.phrases {
            eat(&p.topic.to_le_bytes());
            for &w in &p.words {
                eat(&w.to_le_bytes());
            }
        }
        eat(&(inf.n_tokens as u64).to_le_bytes());
        eat(&(inf.n_oov as u64).to_le_bytes());
    }
    h
}

/// Training a model and folding in a fixed batch must reproduce this
/// digest bit-for-bit. Fold-in itself always runs the dense frozen-φ
/// kernel, so this only moves when the *training* chain moves: re-recorded
/// once at `KERNEL_VERSION = 2`, when training moved singleton cliques to
/// the sparse bucketed draw (the version-1 value, from the all-dense
/// chain, was 0xa5b6_c7fd_a608_5067).
const INFER_DOC_DIGEST: u64 = 0x2a5d_fe25_979c_cd16;

#[test]
fn infer_doc_outputs_match_recorded_digest() {
    let model = fitted_model();
    let texts: Vec<String> = (0..6)
        .map(|i| format!("frequent patterns of support vector machines, study {i}"))
        .collect();
    let cfg = InferConfig {
        fold_iters: 15,
        seed: 23,
        top_topics: 2,
    };
    let results: Vec<_> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| infer_doc(&model, t, &cfg, cfg.seed_for_index(i)))
        .collect();
    let digest = inference_digest(&results);
    assert_eq!(
        digest, INFER_DOC_DIGEST,
        "serve fold-in no longer reproduces the pre-fast-path kernel (digest {digest:#x})"
    );
}

/// `texts` folded in the way `topmine infer` folds in its input lines:
/// blocks of `block` documents, one shared gather each, on `threads`
/// workers; document `i` draws `seed_for_index(i)`.
fn infer_in_blocks(
    model: &dyn ModelBackend,
    texts: &[String],
    cfg: &InferConfig,
    block: usize,
    threads: usize,
) -> Vec<DocInference> {
    let items: Vec<BatchItem> = texts
        .iter()
        .enumerate()
        .map(|(i, text)| BatchItem {
            text: text.clone(),
            config: cfg.clone(),
            seed: cfg.seed_for_index(i),
        })
        .collect();
    let mut blocks = vec![Vec::new(); items.len().div_ceil(block)];
    let units = items.chunks(block).zip(&mut blocks);
    par::for_each(units, &mut vec![(); threads], |_, (block, out)| {
        *out = infer_docs_amortized(model, block)
    });
    blocks.concat()
}

#[test]
fn theta_is_identical_across_thread_counts_and_reloads() {
    let model = fitted_model();
    let dir =
        std::env::temp_dir().join(format!("topmine-serve-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    model.save(&dir).unwrap();
    let reloaded = load_bundle(&dir).unwrap();

    let texts: Vec<String> = (0..10)
        .map(|i| format!("a study of support vector machines and data streams, part {i}"))
        .collect();
    let cfg = InferConfig {
        fold_iters: 25,
        seed: 7,
        top_topics: 2,
    };

    // In memory, one document a block on 1 thread and blocks of 3 on 6
    // threads; the reloaded (one-shard) bundle in blocks of 4 on 3
    // threads. All must agree exactly.
    let baseline = infer_in_blocks(&model, &texts, &cfg, 1, 1);
    let wide = infer_in_blocks(&fitted_model(), &texts, &cfg, 3, 6);
    let from_disk = infer_in_blocks(reloaded.as_ref(), &texts, &cfg, 4, 3);
    assert_eq!(baseline, wide);
    assert_eq!(baseline, from_disk);

    // Byte-identical rendered responses, run after run.
    let json_a: Vec<String> = baseline.iter().map(inference_json).collect();
    let json_b: Vec<String> = from_disk.iter().map(inference_json).collect();
    assert_eq!(json_a, json_b);

    // A different seed is allowed to (and here does) change something.
    let other = infer_in_blocks(
        &fitted_model(),
        &texts,
        &InferConfig {
            seed: 8,
            ..cfg.clone()
        },
        3,
        2,
    );
    assert_eq!(other.len(), baseline.len());

    let _ = std::fs::remove_dir_all(&dir);
}
