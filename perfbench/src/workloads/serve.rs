//! The serving harness behind `batch-abstracts`: the untimed model fit,
//! the shipped server processes and their set-up timing, `/metrics`
//! scrapes, the in-process references every response is compared with,
//! and the traced in-process replay of served requests.

use super::*;
use crate::loadgen::{self, PhaseResult, PhaseSpec, Target};
use crate::procs::Proc;
use crate::prom;
use crate::stats::{percentile_of, ratio};
use crate::trace::Trace;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use topmine::ToPMine;
use topmine_serve::{
    infer_doc, infer_docs_amortized, load_bundle, serve_metrics, BatchItem, InferConfig,
    ModelBackend, ShardedModel, Stage,
};

/// Server deployments timed before the load, the last of which serves it,
/// and again after the load in an untraced run; `setup_s` is the median of
/// all of them. Spawn times drift with the host over a run, so samples
/// from both ends damp a slow stretch at either.
pub const SETUP_REPS: usize = 5;
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// The fold-in settings every request uses: the server's defaults, passed
/// to it explicitly.
pub fn infer_config() -> InferConfig {
    InferConfig {
        fold_iters: 20,
        seed: 1,
        top_topics: 3,
    }
}

/// The fitted model behind the served deployment.
pub struct Model {
    pub sharded: PathBuf,
    /// The monolithic bundle loaded in-process: the reference.
    pub backend: Arc<dyn ModelBackend>,
    pub load_s: f64,
    pub bundle_mb: f64,
}

/// Fit the `fit-abstracts`-shaped model once (fixed seeds, untimed) and
/// save it monolithic, plus as `shards` vocabulary-range shards.
pub fn fit_model(ctx: &Ctx, shards: usize) -> Result<Model, String> {
    let text = ctx.path("model-corpus.txt");
    write_lines(&text, &abstracts_texts(SERVE_MODEL_CORPUS_SEED))?;
    let (corpus, _) = ingest(&text)?;
    let _ = std::fs::remove_file(&text);
    let cfg = pipeline_config(ctx, &corpus, SERVE_FIT_SWEEPS);
    let model = ToPMine::new(cfg).fit(&corpus);
    let frozen = model.freeze(&corpus, &corpus_options());
    let mono = ctx.path("bundle");
    frozen
        .save(&mono)
        .map_err(|e| format!("saving {}: {e}", mono.display()))?;
    let sharded = ctx.path("bundle-sharded");
    ShardedModel::from_frozen(&frozen, shards)
        .and_then(|s| s.save(&sharded))
        .map_err(|e| format!("saving {shards} shards: {e}"))?;
    drop((model, frozen, corpus));
    // Written back now, the bundles' dirty pages cannot slow the timed
    // deployments that read them.
    sync_tree(&mono)?;
    sync_tree(&sharded)?;
    let t = Instant::now();
    let backend = load_bundle(&mono).map_err(|e| format!("loading {}: {e}", mono.display()))?;
    let load_s = t.elapsed().as_secs_f64();
    Ok(Model {
        bundle_mb: dir_mb(&mono),
        sharded,
        backend,
        load_s,
    })
}

pub fn record_model(report: &mut Report, model: &Model) {
    report.input("model_vocab", model.backend.vocab_size());
    report.input("model_topics", model.backend.n_topics());
    report.input("model_train_docs", model.backend.header().n_docs);
    report.input("bundle_mb", format!("{:.1}", model.bundle_mb));
}

/// Running server processes; the last one is the front end.
pub struct Deployment {
    pub procs: Vec<Proc>,
}

impl Deployment {
    pub fn front(&self) -> SocketAddr {
        self.procs
            .last()
            .expect("a deployment has a front end")
            .addr
    }

    /// Peak resident memory summed over the server processes.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.procs.iter().map(Proc::peak_rss_mb).sum()
    }

    pub fn check_alive(&mut self) -> Result<(), String> {
        match self.procs.iter_mut().all(Proc::alive) {
            true => Ok(()),
            false => Err("a server process died during the run".into()),
        }
    }
}

/// `topmine serve` as the router in front of the shards at `fleet`.
fn router_args(ctx: &Ctx, dir: &Path, fleet: &str) -> Vec<String> {
    let cfg = infer_config();
    [
        "serve",
        "--model",
        &dir.display().to_string(),
        "--port",
        "0",
        "--threads",
        &ctx.threads.to_string(),
        "--iters",
        &cfg.fold_iters.to_string(),
        "--seed",
        &cfg.seed.to_string(),
        "--top",
        &cfg.top_topics.to_string(),
        "--fleet",
        fleet,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// One `topmine serve-shard` per shard, started together, then
/// `topmine serve --fleet` in front: first spawn to the router's first 200
/// on `/healthz`.
pub fn deploy_fleet(
    ctx: &Ctx,
    bin: &Path,
    model: &Model,
    shards: usize,
) -> Result<(Deployment, f64), String> {
    let dir = &model.sharded;
    let t = Instant::now();
    let mut procs = Vec::new();
    for k in 0..shards {
        let args: Vec<String> = [
            "serve-shard",
            "--model",
            &dir.display().to_string(),
            "--shard",
            &k.to_string(),
            "--port",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        procs.push(Proc::start(
            bin,
            &args,
            &ctx.path(&format!("shard-{k}.log")),
        )?);
    }
    let mut addrs = Vec::new();
    for p in &mut procs {
        addrs.push(p.wait_for_address(START_TIMEOUT)?.to_string());
    }
    let mut router = Proc::start(
        bin,
        &router_args(ctx, dir, &addrs.join(",")),
        &ctx.path("router.log"),
    )?;
    router.wait_for_address(START_TIMEOUT)?;
    router.wait_healthy(START_TIMEOUT)?;
    procs.push(router);
    Ok((Deployment { procs }, t.elapsed().as_secs_f64()))
}

/// Deploy [`SETUP_REPS`] times, stopping all but the last deployment.
pub fn deploy_repeated(
    mut deploy: impl FnMut() -> Result<(Deployment, f64), String>,
) -> Result<(Deployment, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (d, s) = deploy()?;
        times.push(s);
        last = Some(d);
    }
    Ok((last.expect("at least one deployment"), times))
}

pub fn scrape(addr: SocketAddr) -> Result<prom::Scrape, String> {
    let r = crate::http::get(addr, "/metrics", Duration::from_secs(5))
        .map_err(|e| format!("GET /metrics from {addr}: {e}"))?;
    if r.status != 200 {
        return Err(format!("GET /metrics from {addr}: status {}", r.status));
    }
    prom::parse(&String::from_utf8_lossy(&r.body))
}

/// Compute `f(i)` for `i in 0..n` on `threads` threads, in order.
pub fn par_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.clamp(1, n.max(1));
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                s.spawn(move || {
                    (t * chunk..((t + 1) * chunk).min(n))
                        .map(f)
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker panicked"))
            .collect()
    })
}

/// Mean in-vocabulary tokens per document of `docs`, and the share of
/// their surface tokens outside the model's vocabulary.
pub fn doc_shape(model: &dyn ModelBackend, docs: &[String]) -> (f64, f64) {
    let (mut known, mut oov) = (0usize, 0usize);
    for d in docs {
        let p = model.prepare(d);
        known += p.doc.tokens.len();
        oov += p.n_oov;
    }
    (
        ratio(known as f64, docs.len() as f64),
        ratio(oov as f64, (known + oov) as f64),
    )
}

/// The reference body of an `/infer_batch` over `docs`: document `i`
/// draws `seed_for_index(i)`.
pub fn reference_batch(model: &dyn ModelBackend, docs: &[String]) -> String {
    let cfg = infer_config();
    let results: Vec<_> = docs
        .iter()
        .enumerate()
        .map(|(i, d)| infer_doc(model, d, &cfg, cfg.seed_for_index(i)))
        .collect();
    topmine_serve::batch_inference_json(&results)
}

/// Per-document costs of the fold-in layers, from the traced replay.
#[derive(Debug, Default)]
pub struct Replay {
    pub docs: u64,
    pub tokens: u64,
    pub oov: u64,
    pub prepare_s: f64,
    pub segment_s: f64,
    pub gather_s: f64,
    pub fold_in_s: f64,
    /// Replayed results that differed from the reference.
    pub mismatched: u64,
}

fn fold_in_stage_s() -> f64 {
    serve_metrics().stage(Stage::FoldIn).snapshot().sum() as f64 / 1e9
}

/// Replay one `/infer_batch` request's documents in-process through the
/// backend's layers (`prepare`, `segment`, the batched φ gather, amortized
/// fold-in) with a span around each call, and check the result against
/// `expect`.
pub fn replay(
    tr: &mut Trace,
    out: &mut Replay,
    model: &dyn ModelBackend,
    id: u64,
    docs: &[String],
    expect: &[u8],
) {
    let root = tr.begin("replay.request", id, None);
    let p = Some(root);
    let mut words: Vec<u32> = Vec::new();
    for text in docs {
        let prepared = tr.time("infer.prepare", id, p, || model.prepare(text));
        let spans = tr.time("infer.segment", id, p, || model.segment(&prepared.doc));
        std::hint::black_box(spans);
        out.tokens += prepared.doc.tokens.len() as u64;
        out.oov += prepared.n_oov as u64;
        words.extend_from_slice(&prepared.doc.tokens);
    }
    words.sort_unstable();
    words.dedup();
    let phi = tr.time("infer.gather", id, p, || model.gather_phi_batch(&words));
    std::hint::black_box(phi);
    let cfg = infer_config();
    let items: Vec<BatchItem> = docs
        .iter()
        .enumerate()
        .map(|(i, d)| BatchItem {
            text: d.clone(),
            config: cfg.clone(),
            seed: cfg.seed_for_index(i),
        })
        .collect();
    let fold0 = fold_in_stage_s();
    let results = tr.time("infer.fold_in", id, p, || {
        infer_docs_amortized(model, &items)
    });
    let body = topmine_serve::batch_inference_json(&results);
    out.fold_in_s += fold_in_stage_s() - fold0;
    tr.end(root);
    out.docs += docs.len() as u64;
    if body.as_bytes() != expect {
        out.mismatched += 1;
    }
}

impl Replay {
    /// Collect the span totals of the replay into per-layer seconds.
    pub fn finish(&mut self, tr: &Trace) {
        let total = |name: &str| tr.durations(name).iter().sum::<f64>();
        self.prepare_s = total("infer.prepare");
        self.segment_s = total("infer.segment");
        self.gather_s = total("infer.gather");
    }

    pub fn per_doc_us(&self, secs: f64) -> f64 {
        ratio(secs * 1e6, self.docs as f64)
    }

    pub fn set_metrics(&self, report: &mut Report) {
        report.set("infer.prepare_us", self.per_doc_us(self.prepare_s));
        report.set("infer.segment_us", self.per_doc_us(self.segment_s));
        report.set("infer.gather_us", self.per_doc_us(self.gather_s));
        report.set("infer.fold_in_us", self.per_doc_us(self.fold_in_s));
        report.set(
            "infer.tokens_per_doc",
            ratio(self.tokens as f64, self.docs as f64),
        );
        report.set(
            "infer.oov_share",
            ratio(self.oov as f64, (self.tokens + self.oov) as f64),
        );
    }
}

/// Runs load phases against one deployment, continuing the request order
/// from phase to phase and recording every phase's counts.
pub struct LoadRunner<'a> {
    pub addr: SocketAddr,
    pub targets: &'a [Target],
    pub order: &'a [u32],
    pub conns: usize,
    offset: usize,
}

impl<'a> LoadRunner<'a> {
    pub fn new(addr: SocketAddr, targets: &'a [Target], order: &'a [u32], conns: usize) -> Self {
        Self {
            addr,
            targets,
            order,
            conns,
            offset: 0,
        }
    }

    /// Run a closed-loop phase for `duration` and at least `min_requests`
    /// requests.
    pub fn phase(
        &mut self,
        report: &mut Report,
        name: &str,
        duration: Duration,
        min_requests: u64,
    ) -> Result<PhaseResult, String> {
        let r = loadgen::run_phase(&PhaseSpec {
            addr: self.addr,
            targets: self.targets,
            order: self.order,
            offset: self.offset,
            duration,
            min_requests,
            conns: self.conns,
        })
        .map_err(|e| format!("{name}: load generator: {e}"))?;
        self.offset = r.next_offset;
        report.phase(name, r.sent, r.ok, r.failed);
        if r.failed > 0 {
            report.notes.push(format!(
                "{name}: {} non-200, {} mismatched, {} dropped",
                r.non200, r.mismatched, r.dropped
            ));
        }
        Ok(r)
    }
}

/// Replay the distinct requests of a traced phase in-process (first
/// occurrence of each target, `docs_of` giving its documents).
pub fn replay_phase<'d>(
    tr: &mut Trace,
    model: &dyn ModelBackend,
    phase: &PhaseResult,
    targets: &[Target],
    docs_of: impl Fn(usize) -> &'d [String],
) -> Replay {
    let mut out = Replay::default();
    let mut seen = std::collections::HashSet::new();
    for r in &phase.records {
        if seen.insert(r.target) {
            let t = r.target as usize;
            replay(tr, &mut out, model, r.seq, docs_of(t), &targets[t].expect);
        }
    }
    out.finish(tr);
    out
}

/// The per-layer metrics a traced phase gives: server stages and caches
/// from the front end's `/metrics` delta, the replayed fold-in layers, the
/// dispatch wait and the time outside the server per request, the
/// generator's own figures, and coverage and overhead against the
/// untraced phase's p50. A percentile the phase has too few requests for
/// is an error.
pub fn set_traced_layers(
    report: &mut Report,
    d: &prom::Delta,
    route: &str,
    traced: &PhaseResult,
    replayed: &Replay,
    misses: f64,
    p50_untraced: f64,
) -> Result<(), String> {
    const STAGE: &str = "topmine_request_stage_seconds";
    let stage_sum = |s: &str| d.hist_sum(STAGE, &format!("stage=\"{s}\""));
    let stage_us = |s: &str| d.hist_mean(STAGE, &format!("stage=\"{s}\"")) * 1e6;
    let route_label = format!("route=\"{route}\"");
    let route_sum = d.hist_sum("topmine_http_request_seconds", &route_label);
    let hits = d.get("topmine_cache_hits");
    report.set(
        "cache.hit_share",
        ratio(hits, hits + d.get("topmine_cache_misses")),
    );
    report.set("cache.lookup_us", stage_us("cache_lookup"));
    report.set(
        "dispatch.batch_docs",
        d.hist_mean("topmine_dispatch_batch_docs", ""),
    );
    report.set(
        "dispatch.gather_amortization",
        ratio(
            d.get("topmine_batch_phi_columns_naive_total"),
            d.get("topmine_batch_phi_columns_gathered_total"),
        ),
    );
    report.set(
        "dispatch.rejected",
        d.get("topmine_requests_rejected_total"),
    );
    report.set("dispatch.expired", d.get("topmine_requests_expired_total"));
    report.set("http.parse_us", stage_us("parse"));
    report.set("http.serialize_us", stage_us("serialize"));
    report.set(
        "http.route_us",
        d.hist_mean("topmine_http_request_seconds", &route_label) * 1e6,
    );
    replayed.set_metrics(report);

    // Route time is dispatch through response write; what the stages and
    // the replayed prepare/segment (paid per cache miss) leave of it is
    // waiting in admission and dispatch.
    let n = traced.records.len() as f64;
    let inner = stage_sum("cache_lookup")
        + stage_sum("phi_gather")
        + stage_sum("fold_in")
        + stage_sum("serialize")
        + ratio(
            replayed.prepare_s + replayed.segment_s,
            replayed.docs as f64,
        ) * misses;
    report.set("dispatch.wait_us", ratio(route_sum - inner, n) * 1e6);
    let client = traced.latency_ms.iter().sum::<f64>() / 1e3;
    let server = stage_sum("parse") + route_sum;
    report.set("http.outside_us", ratio(client - server, n) * 1e6);
    let pct = |q: f64| {
        percentile_of(&traced.latency_ms, q)
            .ok_or_else(|| format!("{n} answered requests are too few for a p{}", q * 100.0))
    };
    report.set("http.p99_ms", pct(0.99)?);
    report.set("loadgen.sent", traced.sent as f64);
    report.set("loadgen.ok", traced.ok as f64);
    report.set("loadgen.failed", traced.failed as f64);
    report.set("loadgen.connections", traced.connections as f64);
    report.set("loadgen.cpu_share", traced.cpu_share);
    report.set("trace.coverage", ratio(server, client));
    report.set("trace.overhead", (pct(0.5)? - p50_untraced) / p50_untraced);
    report.phase(
        "replay",
        replayed.docs,
        replayed.docs - replayed.mismatched,
        replayed.mismatched,
    );
    Ok(())
}
