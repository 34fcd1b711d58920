//! The three workloads and the inputs they share. Every input is generated
//! from `--seed` by `topmine_synth` and handed to the program as text.

mod batch;
mod fit;
mod mine;
mod serve;

use crate::report::Report;
use crate::Ctx;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use topmine::ToPMineConfig;
use topmine_corpus::{Corpus, CorpusOptions};
use topmine_lda::TopicModelConfig;
use topmine_phrase::{MinerConfig, Segmentation, SegmenterConfig};
use topmine_synth::{profile_config, CorpusGenerator, Profile};

pub const NAMES: [&str; 3] = ["fit-abstracts", "mine-titles", "batch-abstracts"];

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    match ctx.args.workload.as_str() {
        "fit-abstracts" => fit::run(ctx),
        "mine-titles" => mine::run(ctx),
        "batch-abstracts" => batch::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Abstract-shaped corpus (DblpAbstracts profile) at this scale: about
/// 1M tokens.
pub const ABSTRACTS_SCALE: f64 = 3.0;
/// Long-tail filler words, widened from the profile's 1 500 so V reaches
/// the tens of thousands and φ the tens of MB.
pub const ABSTRACTS_TAIL_VOCAB: usize = 400_000;
/// Share of background draws taken from that tail (the profile's 0.35,
/// raised so the widened tail is actually reached).
pub const ABSTRACTS_TAIL_PROB: f64 = 0.7;
/// Title-shaped corpus (DblpTitles profile) at this scale: 100k titles.
pub const TITLES_SCALE: f64 = 5.0;
/// Topics K of every fit.
pub const TOPICS: usize = 50;
/// Gibbs sweeps of the timed fit (`fit-abstracts`).
pub const FIT_SWEEPS: usize = 30;
/// Gibbs sweeps of the untimed fit behind `batch-abstracts`: the
/// bundle's size and shape do not depend on it.
pub const SERVE_FIT_SWEEPS: usize = 10;
/// RNG seed of every fit; only the corpus varies with `--seed`.
pub const FIT_SEED: u64 = 7;
/// Corpus seed of the model `batch-abstracts` loads (fixed, so every
/// serving run loads the same model).
pub const SERVE_MODEL_CORPUS_SEED: u64 = 20_140_901;
/// Ingests timed per run; `setup_s` is their median.
pub const INGEST_REPS: usize = 5;

pub fn abstracts_texts(seed: u64) -> Vec<String> {
    abstracts_texts_scaled(ABSTRACTS_SCALE, seed)
}

pub fn abstracts_texts_scaled(scale: f64, seed: u64) -> Vec<String> {
    let mut cfg = profile_config(Profile::DblpAbstracts, scale);
    cfg.tail_vocab = ABSTRACTS_TAIL_VOCAB;
    cfg.tail_prob = ABSTRACTS_TAIL_PROB;
    CorpusGenerator::new(cfg).generate_texts(seed)
}

pub fn titles_texts(seed: u64) -> Vec<String> {
    CorpusGenerator::new(profile_config(Profile::DblpTitles, TITLES_SCALE)).generate_texts(seed)
}

pub fn write_lines(path: &Path, lines: &[String]) -> Result<u64, String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let mut bytes = 0u64;
    for line in lines {
        w.write_all(line.as_bytes())
            .and_then(|_| w.write_all(b"\n"))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        bytes += line.len() as u64 + 1;
    }
    w.flush()
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(bytes)
}

/// The §7.1 preprocessing the `topmine` CLI applies (stemming, stop
/// words, provenance for display).
pub fn corpus_options() -> CorpusOptions {
    CorpusOptions::default()
}

/// `io::load_lines`, timed.
pub fn ingest(path: &Path) -> Result<(Corpus, f64), String> {
    let t = Instant::now();
    let corpus = topmine_corpus::io::load_lines(path, corpus_options())
        .map_err(|e| format!("loading {}: {e}", path.display()))?;
    Ok((corpus, t.elapsed().as_secs_f64()))
}

/// The flag of the internal mode that times one ingest in a fresh process.
pub const INGEST_FLAG: &str = "--ingest-once";

/// `perfbench --ingest-once FILE`: ingest FILE and print the seconds it
/// took.
pub fn ingest_once(path: &Path) -> Result<(), String> {
    let (_, secs) = ingest(path)?;
    println!("{secs}");
    Ok(())
}

/// Time one ingest of `path` in a child process of this executable.
fn ingest_in_child(path: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg(INGEST_FLAG)
        .arg(path)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the ingest process: {e}"))?;
    if !out.status.success() {
        return Err(format!("the ingest process failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("ingest process output: {e}"))
}

/// The clock of a timed loop (fits, mines) that also takes the run's
/// [`INGEST_REPS`] `setup_s` samples, spread evenly over the loop.
///
/// On a shared virtual machine an ingest's time drifts by up to a quarter
/// over seconds and differs between processes, while ingests repeated
/// back to back in one process read alike. So each sample is taken in a
/// fresh process, and between the loop's repetitions: the median then
/// sees the whole run, not its first seconds. Time spent ingesting is not
/// charged to the loop.
pub struct SetupClock {
    path: PathBuf,
    seconds: f64,
    start: Instant,
    paused: Duration,
    pub ingest_s: Vec<f64>,
}

impl SetupClock {
    pub fn new(path: &Path, seconds: f64) -> Self {
        Self {
            path: path.to_path_buf(),
            seconds,
            start: Instant::now(),
            paused: Duration::ZERO,
            ingest_s: Vec::new(),
        }
    }

    /// Seconds the loop has run, ingests excluded.
    pub fn elapsed(&self) -> f64 {
        (self.start.elapsed() - self.paused).as_secs_f64()
    }

    /// Take the ingests due by now; call before each repetition.
    pub fn tick(&mut self) -> Result<(), String> {
        let every = self.seconds / INGEST_REPS as f64;
        while self.ingest_s.len() < INGEST_REPS
            && self.elapsed() >= self.ingest_s.len() as f64 * every
        {
            let t = Instant::now();
            self.ingest_s.push(ingest_in_child(&self.path)?);
            self.paused += t.elapsed();
        }
        Ok(())
    }

    /// Take the ingests still missing once the loop has ended.
    pub fn finish(&mut self) -> Result<(), String> {
        while self.ingest_s.len() < INGEST_REPS {
            self.ingest_s.push(ingest_in_child(&self.path)?);
        }
        Ok(())
    }
}

/// The pipeline configuration of every fit and mine: the paper's support
/// policy, every thread setting at `nproc`.
pub fn pipeline_config(ctx: &Ctx, corpus: &Corpus, sweeps: usize) -> ToPMineConfig {
    ToPMineConfig {
        min_support: ToPMineConfig::support_for_corpus(corpus),
        n_topics: TOPICS,
        iterations: sweeps,
        n_threads: ctx.threads,
        mine_threads: ctx.threads,
        lda_threads: ctx.threads,
        seed: FIT_SEED,
        ..ToPMineConfig::default()
    }
}

/// The segmenter configuration `ToPMine` derives from `cfg` (rebuilt here
/// so the traced run can call each layer itself; the digests check that
/// both paths agree).
pub fn segmenter_config(cfg: &ToPMineConfig) -> SegmenterConfig {
    SegmenterConfig {
        miner: MinerConfig {
            min_support: cfg.min_support,
            max_phrase_len: cfg.max_phrase_len,
            n_threads: cfg.resolved_mine_threads(),
            disable_doc_pruning: false,
        },
        alpha: cfg.significance_alpha,
        n_threads: cfg.n_threads,
    }
}

/// The sampler configuration `ToPMine` derives from `cfg`.
pub fn topic_config(cfg: &ToPMineConfig) -> TopicModelConfig {
    TopicModelConfig {
        alpha: if cfg.doc_topic_alpha > 0.0 {
            cfg.doc_topic_alpha
        } else {
            50.0 / cfg.n_topics as f64
        },
        beta: cfg.topic_word_beta,
        seed: cfg.seed,
        optimize_every: cfg.optimize_every,
        burn_in: cfg.burn_in,
        n_threads: cfg.lda_threads,
        ..TopicModelConfig::new(cfg.n_topics)
    }
}

/// FNV-1a over a stream of 64-bit words.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn segmentation_digest(seg: &Segmentation) -> u64 {
    let mut h = Fnv::default();
    for (d, doc) in seg.docs.iter().enumerate() {
        h.word(d as u64);
        for &(a, b) in &doc.spans {
            h.word((u64::from(a) << 32) | u64::from(b));
        }
    }
    h.finish()
}

pub fn phi_digest(phi: &[Vec<f64>]) -> u64 {
    let mut h = Fnv::default();
    for row in phi {
        for &x in row {
            h.word(x.to_bits());
        }
    }
    h.finish()
}

/// Flush every file under `dir` to disk.
pub fn sync_tree(dir: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry
            .map_err(|e| format!("reading {}: {e}", dir.display()))?
            .path();
        if path.is_dir() {
            sync_tree(&path)?;
        } else {
            std::fs::File::open(&path)
                .and_then(|f| f.sync_all())
                .map_err(|e| format!("syncing {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Total size of the files under `dir`, in MiB.
pub fn dir_mb(dir: &Path) -> f64 {
    fn walk(p: &Path) -> u64 {
        match std::fs::metadata(p) {
            Ok(m) if m.is_dir() => std::fs::read_dir(p)
                .map(|rd| rd.flatten().map(|e| walk(&e.path())).sum())
                .unwrap_or(0),
            Ok(m) => m.len(),
            Err(_) => 0,
        }
    }
    walk(dir) as f64 / (1024.0 * 1024.0)
}

/// Reset this process's peak RSS to its current RSS.
pub fn reset_peak() -> Result<(), String> {
    crate::sys::reset_peak_rss().map_err(|e| format!("resetting peak RSS: {e}"))
}

/// This process's peak RSS since the last [`reset_peak`], in MiB.
pub fn peak_mb() -> Result<f64, String> {
    crate::sys::peak_rss_mb(std::process::id()).map_err(|e| format!("peak RSS: {e}"))
}

/// `peak_rss_mb` of an in-process workload: the larger of the ingest's
/// peak and the median of the timed passes' own peaks. A pass's peak
/// varies with how the work-queue scheduling spread hash-table growth over
/// threads, so one pass's high-water mark would be a draw, not a figure.
pub fn peak_rss_metric(ingest_mb: f64, pass_mb: &[f64]) -> f64 {
    ingest_mb.max(crate::stats::median(pass_mb))
}

/// Record the corpus shape as input properties.
pub fn record_corpus(report: &mut Report, corpus: &Corpus, bytes: u64) {
    report.input("docs", corpus.n_docs());
    report.input("tokens", corpus.n_tokens());
    report.input("vocab", corpus.vocab_size());
    report.input(
        "tokens_per_doc",
        format!(
            "{:.1}",
            corpus.n_tokens() as f64 / corpus.n_docs().max(1) as f64
        ),
    );
    report.input(
        "text_mb",
        format!("{:.1}", bytes as f64 / (1024.0 * 1024.0)),
    );
}
