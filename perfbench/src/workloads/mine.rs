//! `mine-titles`: ingest plus Algorithms 1 and 2 only
//! (`ToPMine::mine_only`) on 100k title-length documents — the
//! phrase-only use the paper times separately.

use super::*;
use crate::stats::{median, ratio};
use crate::trace::Trace;
use topmine::ToPMine;
use topmine_phrase::Segmenter;

/// Mines per run at least.
const MIN_MINES: usize = 3;

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let path = ctx.path("titles.txt");
    let bytes = write_lines(&path, &titles_texts(ctx.args.seed))?;
    reset_peak()?;
    let (corpus, _) = ingest(&path)?;
    let ingest_mb = peak_mb()?;
    record_corpus(&mut report, &corpus, bytes);
    let cfg = pipeline_config(ctx, &corpus, 0);
    report.input("min_support", cfg.min_support);
    report.input("threads", ctx.threads);

    let traced = ctx.args.trace;
    let mut tr = Trace::new();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut digests = Vec::new();
    let mut problems = Vec::new();
    let mut last = None;
    let mut mine_mb = Vec::new();
    let mut clock = SetupClock::new(&path, ctx.args.seconds);
    while plain.len() < MIN_MINES
        || (traced && spanned.len() < MIN_MINES)
        || clock.elapsed() < ctx.args.seconds
    {
        clock.tick()?;
        let (stats, seg) = if traced && spanned.len() < plain.len() {
            let id = spanned.len() as u64;
            let t = Instant::now();
            let root = tr.begin("mine", id, None);
            let segmenter = Segmenter::new(segmenter_config(&cfg));
            let (stats, tel) = tr.time("miner.mine", id, Some(root), || segmenter.mine(&corpus));
            let seg = tr.time("segmenter.segment", id, Some(root), || {
                segmenter.segment_with_stats(&corpus, &stats)
            });
            tr.end(root);
            spanned.push(t.elapsed().as_secs_f64());
            last = Some(tel);
            (stats, seg)
        } else {
            reset_peak()?;
            let t = Instant::now();
            let out = ToPMine::new(cfg.clone()).mine_only(&corpus);
            plain.push(t.elapsed().as_secs_f64());
            mine_mb.push(peak_mb()?);
            out
        };
        if let Err(e) = seg.validate(&corpus) {
            problems.push(format!("mine {}: segmentation: {e}", digests.len()));
        }
        if let Err(e) = stats.check_downward_closure() {
            problems.push(format!("mine {}: phrase counts: {e}", digests.len()));
        }
        digests.push((
            segmentation_digest(&seg),
            stats.n_frequent_ngrams(),
            seg.n_phrases(),
            seg.n_multiword(),
        ));
    }
    clock.finish()?;
    let load_s = clock.ingest_s;
    report.notes.push(format!("ingest_s {load_s:?}"));
    if let Some(d) = digests.iter().find(|d| **d != digests[0]) {
        problems.push(format!(
            "digest {d:?} differs from the first mine's {:?}",
            digests[0]
        ));
    }
    let (digest, frequent, phrases, multiword) = digests[0];
    report.notes.push(format!(
        "digest segmentation {digest:016x}; {frequent} frequent phrases, {phrases} phrase instances"
    ));
    report.notes.push(format!("mine_s {plain:?}"));
    let n = digests.len() as u64;
    let bad = (problems.len() as u64).min(n);
    report.phase("mine", n, n - bad, bad);
    report.correct = problems.is_empty();
    report.notes.extend(problems);

    let mine_s = median(&plain);
    report.set("setup_s", median(&load_s));
    report.set("p50_ms", mine_s * 1e3);
    report.set("docs_per_s", corpus.n_docs() as f64 / mine_s);
    report.set("peak_rss_mb", peak_rss_metric(ingest_mb, &mine_mb));

    if traced {
        let tel = last.expect("at least one traced mine");
        let med = |name: &str| median(&tr.durations(name));
        report.set("corpus.load_s", median(&load_s));
        report.set("corpus.tokens", corpus.n_tokens() as f64);
        report.set("corpus.vocab", corpus.vocab_size() as f64);
        report.set("miner.mine_s", med("miner.mine"));
        report.set("miner.levels", tel.levels.len() as f64);
        report.set("miner.candidates", tel.candidates() as f64);
        report.set("miner.frequent", tel.frequent() as f64);
        report.set(
            "miner.frequent_share",
            ratio(tel.frequent() as f64, tel.candidates() as f64),
        );
        report.set("segmenter.segment_s", med("segmenter.segment"));
        report.set("segmenter.phrases", phrases as f64);
        report.set(
            "segmenter.multiword_share",
            ratio(multiword as f64, phrases as f64),
        );
        let selfs = tr.self_ns();
        let per_mine: Vec<f64> = (0..spanned.len() as u64)
            .map(|id| {
                tr.spans
                    .iter()
                    .zip(&selfs)
                    .filter(|(s, _)| s.id == id && s.parent.is_some())
                    .map(|(_, &ns)| ns as f64 / 1e9)
                    .sum()
            })
            .collect();
        report.set("trace.coverage", median(&per_mine) / mine_s);
        report.set("trace.overhead", (median(&spanned) - mine_s) / mine_s);
        report.set("trace.spans", tr.spans.len() as f64);
        tr.write_json(&ctx.trace_path())
            .map_err(|e| format!("writing trace: {e}"))?;
    }
    Ok(report)
}
