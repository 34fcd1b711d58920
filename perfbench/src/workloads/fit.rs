//! `fit-abstracts`: the full ToPMine fit (mine, segment, PhraseLDA, freeze,
//! save) on an abstract-shaped corpus of about 1M tokens at K=50.

use super::*;
use crate::alloc;
use crate::stats::{median, percentile_of, ratio};
use crate::trace::Trace;
use std::time::Instant;
use topmine::ToPMine;
use topmine_lda::{GroupedDocs, PhraseLda};
use topmine_obs::SweepTelemetry;
use topmine_phrase::Segmenter;
use topmine_serve::FrozenModel;

/// Fits per run at least (the digest check needs two).
const MIN_FITS: usize = 2;
/// Traced fits per traced run at least (so the sweep p90 has 100 sweeps).
const MIN_TRACED_FITS: usize = 4;

/// What one fit produced, for the output checks.
struct FitOutput {
    secs: f64,
    phi: u64,
    seg: u64,
    perplexity: f64,
}

/// `Corpus` to saved bundle through the library's entry points.
fn fit_untraced(
    corpus: &Corpus,
    cfg: &ToPMineConfig,
    dir: &Path,
) -> Result<(FitOutput, topmine::ToPMineModel, FrozenModel), String> {
    let t = Instant::now();
    let model = ToPMine::new(cfg.clone()).fit(corpus);
    let frozen = model.freeze(corpus, &corpus_options());
    frozen
        .save(dir)
        .map_err(|e| format!("saving {}: {e}", dir.display()))?;
    let secs = t.elapsed().as_secs_f64();
    let out = FitOutput {
        secs,
        phi: phi_digest(&frozen.phi),
        seg: segmentation_digest(&model.segmentation),
        perplexity: model.perplexity(),
    };
    Ok((out, model, frozen))
}

/// Per-layer counts gathered by a traced fit.
#[derive(Default)]
struct FitLayers {
    levels: usize,
    candidates: u64,
    frequent: u64,
    phrases: usize,
    multiword: usize,
    sweep: SweepTelemetry,
    allocs: u64,
    sweeps: usize,
    bundle_mb: f64,
}

/// The same fit with a span around every call into a layer.
fn fit_traced(
    tr: &mut Trace,
    id: u64,
    corpus: &Corpus,
    cfg: &ToPMineConfig,
    dir: &Path,
) -> Result<(FitOutput, FitLayers), String> {
    let t = Instant::now();
    let root = tr.begin("fit", id, None);
    let p = Some(root);
    let segmenter = Segmenter::new(segmenter_config(cfg));
    let (stats, tel) = tr.time("miner.mine", id, p, || segmenter.mine(corpus));
    let seg = tr.time("segmenter.segment", id, p, || {
        segmenter.segment_with_stats(corpus, &stats)
    });
    let mut lda = tr.time("lda.init", id, p, || {
        PhraseLda::new(
            GroupedDocs::from_segmentation(corpus, &seg),
            topic_config(cfg),
        )
    });
    let before = lda.sweep_stats();
    let mut allocs = 0;
    for _ in 0..cfg.iterations {
        allocs += alloc::counted(|| tr.time("lda.sweep", id, p, || lda.step())).1;
    }
    let sweep = lda.sweep_stats().since(&before);
    let frozen = tr.time("bundle.freeze", id, p, || {
        FrozenModel::freeze(corpus, &stats, seg.alpha, &lda, &corpus_options())
    });
    tr.time("bundle.save", id, p, || frozen.save(dir))
        .map_err(|e| format!("saving {}: {e}", dir.display()))?;
    tr.end(root);
    let secs = t.elapsed().as_secs_f64();
    lda.check_counts()
        .map_err(|e| format!("traced fit: check_counts: {e}"))?;
    seg.validate(corpus)
        .map_err(|e| format!("traced fit: segmentation: {e}"))?;
    let out = FitOutput {
        secs,
        phi: phi_digest(&frozen.phi),
        seg: segmentation_digest(&seg),
        perplexity: lda.perplexity(),
    };
    let layers = FitLayers {
        levels: tel.levels.len(),
        candidates: tel.candidates(),
        frequent: tel.frequent(),
        phrases: seg.n_phrases(),
        multiword: seg.n_multiword(),
        sweep,
        allocs,
        sweeps: cfg.iterations,
        bundle_mb: dir_mb(dir),
    };
    Ok((out, layers))
}

/// Unigram (no-topic) perplexity of the corpus: the floor any topic model
/// must beat.
fn unigram_perplexity(corpus: &Corpus) -> f64 {
    let counts = corpus.word_counts();
    let n: u64 = counts.iter().sum();
    let ll: f64 = counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| c as f64 * (c as f64 / n as f64).ln())
        .sum();
    (-ll / n as f64).exp()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let path = ctx.path("abstracts.txt");
    let bytes = write_lines(&path, &abstracts_texts(ctx.args.seed))?;
    reset_peak()?;
    let (corpus, _) = ingest(&path)?;
    let ingest_mb = peak_mb()?;
    record_corpus(&mut report, &corpus, bytes);
    let cfg = pipeline_config(ctx, &corpus, FIT_SWEEPS);
    report.input("topics", cfg.n_topics);
    report.input("sweeps", cfg.iterations);
    report.input("min_support", cfg.min_support);
    report.input("threads", ctx.threads);
    let floor = unigram_perplexity(&corpus);

    let dir = ctx.path("bundle");
    let traced = ctx.args.trace;
    let mut tr = Trace::new();
    let (mut plain, mut spanned): (Vec<FitOutput>, Vec<FitOutput>) = (Vec::new(), Vec::new());
    let mut layers = Vec::new();
    let mut problems = Vec::new();
    let mut fit_mb = Vec::new();
    let mut clock = SetupClock::new(&path, ctx.args.seconds);
    // Untraced and traced fits alternate in a traced run, so the overhead
    // compares neighbours.
    while plain.len() < MIN_FITS
        || (traced && spanned.len() < MIN_TRACED_FITS)
        || clock.elapsed() < ctx.args.seconds
    {
        clock.tick()?;
        if traced && spanned.len() < plain.len() {
            let (out, l) = fit_traced(&mut tr, spanned.len() as u64, &corpus, &cfg, &dir)?;
            spanned.push(out);
            layers.push(l);
        } else {
            reset_peak()?;
            let (out, model, _) = fit_untraced(&corpus, &cfg, &dir)?;
            if let Err(e) = model.model.check_counts() {
                problems.push(format!("fit {}: check_counts: {e}", plain.len()));
            }
            if let Err(e) = model.segmentation.validate(&corpus) {
                problems.push(format!("fit {}: segmentation: {e}", plain.len()));
            }
            if plain.is_empty() {
                report.input("bundle_mb", format!("{:.1}", dir_mb(&dir)));
            }
            plain.push(out);
            fit_mb.push(peak_mb()?);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    clock.finish()?;
    let load_s = clock.ingest_s;
    report.notes.push(format!("ingest_s {load_s:?}"));

    // Every fit of one build gives the same φ and segmentation; the traced
    // path must agree with the library's.
    let first = &plain[0];
    for (i, f) in plain.iter().chain(spanned.iter()).enumerate() {
        if (f.phi, f.seg) != (first.phi, first.seg) {
            problems.push(format!(
                "fit {i}: digests phi {:016x} seg {:016x} differ from fit 0 ({:016x}, {:016x})",
                f.phi, f.seg, first.phi, first.seg
            ));
        }
    }
    if !(first.perplexity.is_finite() && first.perplexity < floor) {
        problems.push(format!(
            "perplexity {} does not beat the unigram floor {floor}",
            first.perplexity
        ));
    }
    report.notes.push(format!(
        "digests phi {:016x} segmentation {:016x}; perplexity {:.2} (unigram floor {:.2})",
        first.phi, first.seg, first.perplexity, floor
    ));
    let n_fits = (plain.len() + spanned.len()) as u64;
    let bad = (problems.len() as u64).min(n_fits);
    report.phase("fit", n_fits, n_fits - bad, bad);
    report.correct = problems.is_empty();
    report.notes.extend(problems);

    let fit_s = median(&plain.iter().map(|f| f.secs).collect::<Vec<_>>());
    report.notes.push(format!(
        "fit_s {:?}",
        plain.iter().map(|f| f.secs).collect::<Vec<_>>()
    ));
    report.set("setup_s", median(&load_s));
    report.set("p50_ms", fit_s * 1e3);
    report.set("docs_per_s", corpus.n_docs() as f64 / fit_s);
    report.set("peak_rss_mb", peak_rss_metric(ingest_mb, &fit_mb));

    if traced {
        let l = layers.last().expect("at least one traced fit");
        let med = |name: &str| median(&tr.durations(name));
        report.set("corpus.load_s", median(&load_s));
        report.set("corpus.tokens", corpus.n_tokens() as f64);
        report.set("corpus.vocab", corpus.vocab_size() as f64);
        report.set("miner.mine_s", med("miner.mine"));
        report.set("miner.levels", l.levels as f64);
        report.set("miner.candidates", l.candidates as f64);
        report.set("miner.frequent", l.frequent as f64);
        report.set(
            "miner.frequent_share",
            ratio(l.frequent as f64, l.candidates as f64),
        );
        report.set("segmenter.segment_s", med("segmenter.segment"));
        report.set("segmenter.phrases", l.phrases as f64);
        report.set(
            "segmenter.multiword_share",
            ratio(l.multiword as f64, l.phrases as f64),
        );
        report.set("lda.init_s", med("lda.init"));
        let sweeps = tr.durations("lda.sweep");
        report.set("lda.sweep_s", median(&sweeps));
        match percentile_of(&sweeps, 0.9) {
            Some(p90) => report.set("lda.sweep_p90_s", p90),
            None => report
                .notes
                .push(format!("lda.sweep_p90_s refused: {} sweeps", sweeps.len())),
        }
        let total: (u64, u64, u64, u64, u64) = layers.iter().fold((0, 0, 0, 0, 0), |a, l| {
            (
                a.0 + l.sweep.draws.dense,
                a.1 + l.sweep.draws.total(),
                a.2 + l.sweep.merge_delta_entries,
                a.3 + l.sweep.snapshot_nanos,
                a.4 + l.allocs,
            )
        });
        let n_sweeps = layers.iter().map(|l| l.sweeps).sum::<usize>() as f64;
        report.set(
            "lda.dense_draw_share",
            ratio(total.0 as f64, total.1 as f64),
        );
        report.set("lda.merge_delta_per_sweep", total.2 as f64 / n_sweeps);
        report.set("lda.snapshot_s", total.3 as f64 / 1e9 / n_sweeps);
        report.set("lda.allocs_per_sweep", total.4 as f64 / n_sweeps);
        report.set("lda.perplexity", first.perplexity);
        report.set("bundle.freeze_s", med("bundle.freeze"));
        report.set("bundle.save_s", med("bundle.save"));
        report.set("bundle.mb", l.bundle_mb);

        // Coverage: the layers' self times inside each traced fit against
        // the untraced fit time.
        let selfs = tr.self_ns();
        let per_fit: Vec<f64> = (0..spanned.len() as u64)
            .map(|id| {
                tr.spans
                    .iter()
                    .zip(&selfs)
                    .filter(|(s, _)| s.id == id && s.parent.is_some())
                    .map(|(_, &ns)| ns as f64 / 1e9)
                    .sum()
            })
            .collect();
        let traced_s = median(&spanned.iter().map(|f| f.secs).collect::<Vec<_>>());
        report.set("trace.coverage", median(&per_fit) / fit_s);
        report.set("trace.overhead", (traced_s - fit_s) / fit_s);
        report.set("trace.spans", tr.spans.len() as f64);
        tr.write_json(&ctx.trace_path())
            .map_err(|e| format!("writing trace: {e}"))?;
    }
    Ok(report)
}
