//! `batch-abstracts`: the model saved as 2 shards, served by two
//! `topmine serve-shard` processes behind `topmine serve --fleet`, driven
//! closed loop by `nproc` blocking keep-alive connections with one
//! 64-document `/infer_batch` in flight each. The bodies cycle through
//! 2048 distinct abstracts, twice the response cache, so every document
//! misses it.

use super::serve::*;
use super::*;
use crate::loadgen::Target;
use crate::stats::{median, percentile_of, ratio, samples_for};
use crate::trace::Trace;
use std::collections::HashSet;
use std::time::Duration;

pub const SHARDS: usize = 2;
/// Documents per `/infer_batch` body.
pub const BATCH_DOCS: usize = 64;
/// Distinct bodies, cycled in order: 2048 documents, twice the cache.
pub const BODIES: usize = 32;

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let bin = crate::procs::build_topmine(&ctx.root)?;
    let model = fit_model(ctx, SHARDS)?;
    record_model(&mut report, &model);

    let mut seen = HashSet::new();
    let docs: Vec<String> = abstracts_texts_scaled(1.0, ctx.args.seed ^ 0x6261_7463)
        .into_iter()
        .filter(|t| !t.trim().is_empty() && seen.insert(t.clone()))
        .take(BODIES * BATCH_DOCS)
        .collect();
    if docs.len() < BODIES * BATCH_DOCS {
        return Err(format!("only {} distinct abstracts", docs.len()));
    }
    let bodies: Vec<&[String]> = docs.chunks(BATCH_DOCS).collect();
    // The fleet's answers are compared with the in-process monolith.
    let backend = model.backend.as_ref();
    let expect = par_map(bodies.len(), ctx.threads, |b| {
        reference_batch(backend, bodies[b])
    });
    let targets: Vec<Target> = bodies
        .iter()
        .zip(expect)
        .map(|(b, e)| Target {
            request: crate::http::render_post("/infer_batch", &b.join("\n")),
            expect: e.into_bytes(),
            docs: b.len() as u64,
        })
        .collect();
    let order: Vec<u32> = (0..BODIES as u32).collect();
    report.input("shards", SHARDS);
    report.input("batch_docs", BATCH_DOCS);
    report.input("distinct_docs", docs.len());
    let (tokens_per_doc, oov_share) = doc_shape(backend, &docs);
    report.input("tokens_per_doc", format!("{tokens_per_doc:.1}"));
    report.input("oov_share", format!("{oov_share:.3}"));
    report.input("connections", ctx.threads);
    report.input("threads", ctx.threads);

    let deploy = || deploy_fleet(ctx, &bin, &model, SHARDS);
    let (mut deployment, mut setup) = deploy_repeated(deploy)?;
    let addr = deployment.front();
    let mut load = LoadRunner::new(addr, &targets, &order, ctx.threads);
    let secs = ctx.args.seconds;
    load.phase(
        &mut report,
        "warmup",
        Duration::from_secs_f64((secs * 0.1).max(0.5)),
        0,
    )?;
    let measure = Duration::from_secs_f64((secs * 0.8).max(2.0));
    let before = scrape(addr)?;
    let main = load.phase(&mut report, "closed-loop", measure, 0)?;
    let delta = crate::prom::delta(&before, &scrape(addr)?)?;
    let hits = delta.get("topmine_cache_hits");
    report.input(
        "cache_hit_share",
        format!(
            "{:.3}",
            ratio(hits, hits + delta.get("topmine_cache_misses"))
        ),
    );
    let p50 = percentile_of(&main.latency_ms, 0.5).ok_or("too few batches for a p50")?;
    let docs_per_s = main.docs_ok as f64 / main.wall_s;
    report.notes.push(format!(
        "closed loop: {} batches, {docs_per_s:.1} docs/s, p50 {p50:.3} ms, generator cpu {:.2}",
        main.ok, main.cpu_share
    ));

    if !ctx.args.trace {
        deployment.check_alive()?;
        report.set("peak_rss_mb", deployment.peak_rss_mb()?);
        drop(deployment);
        setup.extend(deploy_repeated(deploy)?.1);
        report.notes.push(format!("setup_s {setup:?}"));
        report.correct = true;
        report.set("setup_s", median(&setup));
        report.set("p50_ms", p50);
        report.set("docs_per_s", docs_per_s);
        return Ok(report);
    }

    // As long as the untraced phase, and long enough for a p99.
    let before = scrape(addr)?;
    let traced = load.phase(&mut report, "traced", measure, samples_for(0.99) as u64)?;
    let delta = crate::prom::delta(&before, &scrape(addr)?)?;
    deployment.check_alive()?;
    let mut tr = Trace::new();
    for r in &traced.records {
        tr.record_ns("request", r.seq, None, r.sent_ns, r.done_ns);
    }
    let replayed = replay_phase(&mut tr, backend, &traced, &targets, |b| bodies[b]);
    // Every document misses the cache by construction.
    let misses = traced.docs_ok as f64;
    set_traced_layers(
        &mut report,
        &delta,
        "/infer_batch",
        &traced,
        &replayed,
        misses,
        p50,
    )?;

    const FLEET: &str = "topmine_fleet_";
    report.set(
        "fleet.rpc_us",
        delta.hist_mean("topmine_fleet_rpc_seconds", "") * 1e6,
    );
    let per_shard: Vec<f64> = delta
        .each(&format!("{FLEET}bytes_sent_total"))
        .iter()
        .map(|(labels, sent)| sent + delta.get(&format!("{FLEET}bytes_received_total{labels}")))
        .collect();
    let bytes: f64 = per_shard.iter().sum();
    report.set("fleet.kb_per_doc", ratio(bytes / 1024.0, misses));
    report.set(
        "fleet.max_shard_byte_share",
        ratio(per_shard.iter().copied().fold(0.0, f64::max), bytes),
    );
    report.set(
        "fleet.retries",
        delta.sum(&format!("{FLEET}retries_total"), ""),
    );
    report.set(
        "fleet.failures",
        delta.sum(&format!("{FLEET}failures_total"), ""),
    );
    report.set("bundle.load_s", model.load_s);
    report.set("bundle.mb", model.bundle_mb);
    report.set("trace.spans", tr.spans.len() as f64);
    report.notes.push(
        "uncovered: event loop, socket and kernel time around each batch (http.outside_us)".into(),
    );
    tr.write_json(&ctx.trace_path())
        .map_err(|e| format!("writing trace: {e}"))?;
    report.correct = true;
    Ok(report)
}
