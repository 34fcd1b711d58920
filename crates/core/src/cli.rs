//! Command-line interface for the `topmine` binary.
//!
//! Argument parsing is hand-rolled (the offline dependency set has no
//! `clap`) and lives here, separate from the binary, so it is unit-testable.
//!
//! Four commands share the binary: the original fit path (no subcommand,
//! for compatibility), `topmine serve` (load a model bundle and answer
//! HTTP queries — in-process, or routing φ gathers to a fleet of shard
//! processes via `--fleet`), `topmine serve-shard` (host one shard of a
//! bundle over the binary wire protocol), and `topmine infer`
//! (one-shot fold-in over a file).

use crate::pipeline::ToPMineConfig;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Input text file: one document per line.
    pub input: String,
    /// Directory to write artifacts into (vocab, docs, topics); stdout only
    /// when absent.
    pub output_dir: Option<String>,
    pub n_topics: usize,
    pub iterations: usize,
    /// `None` = derive from corpus size (the paper's linear-growth policy).
    pub min_support: Option<u64>,
    pub significance_alpha: f64,
    pub n_threads: usize,
    /// Algorithm 1 counting threads; 0 = follow `n_threads`.
    pub mine_threads: usize,
    /// Gibbs worker threads for PhraseLDA training (1 = exact sequential
    /// chain; >= 2 = snapshot sweeps, bit-identical at any thread count).
    pub lda_threads: usize,
    pub seed: u64,
    /// Items per topic in the printed table.
    pub top: usize,
    pub stem: bool,
    pub remove_stopwords: bool,
    /// Apply the §8 background-phrase filter to the visualization.
    pub filter_background: bool,
    /// Freeze the fitted model into a serving bundle at this directory.
    pub save_model: Option<String>,
    /// How many vocabulary-range shards the saved bundle holds (at least
    /// 1, the default). A count other than 1 requires `save_model`.
    pub shards: usize,
    /// Print periodic per-sweep telemetry (sweep rate, singleton-draw
    /// bucket split) to stderr during the Gibbs fit.
    pub progress: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            input: String::new(),
            output_dir: None,
            n_topics: 10,
            iterations: 500,
            min_support: None,
            significance_alpha: 5.0,
            n_threads: 1,
            mine_threads: 0,
            lda_threads: 1,
            seed: 1,
            top: 10,
            stem: true,
            remove_stopwords: true,
            filter_background: false,
            save_model: None,
            shards: 1,
            progress: false,
        }
    }
}

impl CliOptions {
    /// Derive the pipeline configuration for a given corpus.
    pub fn pipeline_config(&self, corpus: &topmine_corpus::Corpus) -> ToPMineConfig {
        ToPMineConfig {
            min_support: self
                .min_support
                .unwrap_or_else(|| ToPMineConfig::support_for_corpus(corpus)),
            significance_alpha: self.significance_alpha,
            n_topics: self.n_topics,
            iterations: self.iterations,
            optimize_every: 25,
            burn_in: self.iterations / 4,
            n_threads: self.n_threads,
            mine_threads: self.mine_threads,
            lda_threads: self.lda_threads,
            seed: self.seed,
            progress: self.progress,
            ..ToPMineConfig::default()
        }
    }
}

/// Usage text printed on `--help` or a parse error.
pub const USAGE: &str = "\
topmine — scalable topical phrase mining (El-Kishky et al., VLDB 2014)

USAGE:
    topmine --input FILE [OPTIONS]          fit a model (mine + segment + PhraseLDA)
    topmine serve --model DIR --port N      serve a frozen model over HTTP
    topmine serve-shard --model DIR --shard K   host one shard of a bundle
                                            over the binary wire protocol
    topmine infer --model DIR --input FILE  one-shot fold-in inference

FIT OPTIONS:
    --input FILE          text corpus, one document per line (required)
    --output-dir DIR      write vocab.tsv/docs.txt/topics.txt here
    --save-model DIR      freeze the fitted model into a serving bundle
    --shards N            vocabulary-range shards in the saved bundle
                          (N > 1 requires --save-model)  [default: 1]
    --topics K            number of topics              [default: 10]
    --iterations N        Gibbs sweeps                  [default: 500]
    --min-support N       phrase minimum support        [default: auto]
    --alpha X             significance threshold, any finite number
                          (negative merges more)        [default: 5.0]
    --threads N           mining/segmentation threads, 1..=256 [default: 1]
    --mine-threads N      Algorithm 1 (phrase mining) threads, 1..=256; the
                          result is bit-identical at any thread count
                          [default: --threads]
    --lda-threads N       Gibbs sweep threads, 1..=256; >=2 runs snapshot
                          sweeps, bit-identical at any thread count [default: 1]
    --seed N              RNG seed                      [default: 1]
    --top N               items per topic in output     [default: 10]
    --no-stem             disable Porter stemming
    --keep-stopwords      keep stop words in the mining stream
    --filter-background   drop high-entropy background phrases (paper §8)
    --progress            print per-sweep telemetry (sweeps/sec, draw split)
                          to stderr during the Gibbs fit; TOPMINE_TRACE=path
                          additionally writes one JSONL event per sweep
    --help                print this message

SERVE OPTIONS:
    --model DIR           bundle from --save-model (required)
    --port N              TCP port (0 = ephemeral)      [default: 7878]
    --host ADDR           bind address                  [default: 127.0.0.1]
    --threads N           dispatcher worker threads, 1..=256 [default: 4]
    --iters N             default fold-in sweeps        [default: 20]
    --seed N              default RNG seed              [default: 1]
    --top N               default top topics reported   [default: 3]
    --queue-depth N       admission queue bound; overflow
                          answers 429 + Retry-After     [default: 128]
    --max-batch N         most documents coalesced into one
                          dispatch (shared phi gather)  [default: 16]
    --deadline-ms N       default per-request deadline; queued
                          past it answers 504 (0 = none) [default: 30000]
    --fleet ADDRS         comma-separated shard addresses (host:port, one per
                          shard of the bundle, in shard order); phi gathers
                          are routed to the fleet over the wire protocol
                          instead of loaded in-process

SERVE-SHARD OPTIONS:
    --model DIR           bundle from --save-model, any --shards (required)
    --shard K             which shard directory to host (required)
    --port N              TCP port (0 = ephemeral)      [default: 7979]
    --host ADDR           bind address                  [default: 127.0.0.1]
                          the bound address is printed to stdout as
                          `listening on HOST:PORT` once ready

INFER OPTIONS:
    --model DIR           bundle from --save-model (required)
    --input FILE          documents to infer, one per line (required)
    --threads N           inference worker threads, 1..=256; the output is
                          byte-identical at any thread count [default: 1]
                          lines are folded in and printed in windows of
                          1024 x N; a line of invalid UTF-8 fails the run
                          after the windows before its own were printed
    --iters N             fold-in sweeps                [default: 20]
    --seed N              RNG seed                      [default: 1]
    --top N               top topics reported           [default: 3]
";

/// Options of `topmine serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Model bundle directory (from `--save-model`).
    pub model_dir: String,
    pub host: String,
    pub port: u16,
    pub n_threads: usize,
    /// Per-request inference defaults (overridable via query parameters).
    pub fold_iters: usize,
    pub seed: u64,
    pub top: usize,
    /// Admission-queue bound (pending inference requests before 429).
    pub queue_depth: usize,
    /// Most documents coalesced into one dispatch batch.
    pub max_batch: usize,
    /// Default per-request deadline in milliseconds; 0 disables.
    pub deadline_ms: u64,
    /// Shard addresses (`host:port`, one per shard, shard order). Empty =
    /// load the bundle in-process; non-empty = route φ gathers to these
    /// shard processes over the wire protocol.
    pub fleet: Vec<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            model_dir: String::new(),
            host: "127.0.0.1".into(),
            port: 7878,
            n_threads: 4,
            fold_iters: 20,
            seed: 1,
            top: 3,
            queue_depth: 128,
            max_batch: 16,
            deadline_ms: 30_000,
            fleet: Vec::new(),
        }
    }
}

/// Options of `topmine serve-shard`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeShardOptions {
    /// Model bundle directory (from `--save-model`, any shard count).
    pub model_dir: String,
    /// Which `shard-K/` directory to host.
    pub shard: usize,
    pub host: String,
    pub port: u16,
}

impl Default for ServeShardOptions {
    fn default() -> Self {
        Self {
            model_dir: String::new(),
            shard: 0,
            host: "127.0.0.1".into(),
            port: 7979,
        }
    }
}

/// Blocks of [`DOC_BLOCK`](topmine_util::par::DOC_BLOCK) lines per
/// `--threads` worker in one window of `topmine infer`: the lines it
/// holds, folds in and prints at a time.
pub const INFER_WINDOW_BLOCKS: usize = 32;

/// Options of `topmine infer`.
#[derive(Debug, Clone, PartialEq)]
pub struct InferOptions {
    pub model_dir: String,
    /// Input file: one document per line.
    pub input: String,
    pub n_threads: usize,
    pub fold_iters: usize,
    pub seed: u64,
    pub top: usize,
}

impl Default for InferOptions {
    fn default() -> Self {
        Self {
            model_dir: String::new(),
            input: String::new(),
            n_threads: 1,
            fold_iters: 20,
            seed: 1,
            top: 3,
        }
    }
}

/// One parsed invocation of the binary.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// The original pipeline run (no subcommand).
    Fit(CliOptions),
    Serve(ServeOptions),
    ServeShard(ServeShardOptions),
    Infer(InferOptions),
}

/// Parse argv (without the program name) into a [`Command`]. `Ok(None)`
/// means `--help` was requested.
pub fn parse_command<I, S>(args: I) -> Result<Option<Command>, String>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut args = args.into_iter().map(Into::into).peekable();
    match args.peek().map(String::as_str) {
        Some("serve") => {
            args.next();
            Ok(parse_serve_args(args)?.map(Command::Serve))
        }
        Some("serve-shard") => {
            args.next();
            Ok(parse_serve_shard_args(args)?.map(Command::ServeShard))
        }
        Some("infer") => {
            args.next();
            Ok(parse_infer_args(args)?.map(Command::Infer))
        }
        _ => Ok(parse_args(args)?.map(Command::Fit)),
    }
}

fn parse_serve_args<I: Iterator<Item = String>>(
    mut args: I,
) -> Result<Option<ServeOptions>, String> {
    let mut opts = ServeOptions::default();
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--model" => opts.model_dir = need(&mut args, "--model")?,
            "--host" => opts.host = need(&mut args, "--host")?,
            "--port" => opts.port = parse_num(&need(&mut args, "--port")?, "--port")?,
            "--threads" => {
                opts.n_threads = parse_threads(&need(&mut args, "--threads")?, "--threads")?
            }
            "--iters" => {
                opts.fold_iters = parse_num(&need(&mut args, "--iters")?, "--iters")?;
                if opts.fold_iters == 0 {
                    return Err("--iters must be at least 1".into());
                }
            }
            "--seed" => opts.seed = parse_num(&need(&mut args, "--seed")?, "--seed")?,
            "--top" => opts.top = parse_num(&need(&mut args, "--top")?, "--top")?,
            "--queue-depth" => {
                opts.queue_depth = parse_num(&need(&mut args, "--queue-depth")?, "--queue-depth")?;
                if opts.queue_depth == 0 {
                    return Err("--queue-depth must be at least 1".into());
                }
            }
            "--max-batch" => {
                opts.max_batch = parse_num(&need(&mut args, "--max-batch")?, "--max-batch")?;
                if opts.max_batch == 0 {
                    return Err("--max-batch must be at least 1".into());
                }
            }
            "--deadline-ms" => {
                opts.deadline_ms = parse_num(&need(&mut args, "--deadline-ms")?, "--deadline-ms")?;
            }
            "--fleet" => {
                let list = need(&mut args, "--fleet")?;
                opts.fleet = list
                    .split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(str::to_string)
                    .collect();
                if opts.fleet.is_empty() {
                    return Err("--fleet requires at least one host:port address".into());
                }
                if let Some(bad) = opts.fleet.iter().find(|a| !a.contains(':')) {
                    return Err(format!("--fleet: {bad:?} is not a host:port address"));
                }
            }
            other => return Err(format!("serve: unknown argument: {other}")),
        }
    }
    if opts.model_dir.is_empty() {
        return Err("serve: --model is required".into());
    }
    Ok(Some(opts))
}

fn parse_serve_shard_args<I: Iterator<Item = String>>(
    mut args: I,
) -> Result<Option<ServeShardOptions>, String> {
    let mut opts = ServeShardOptions::default();
    let mut shard: Option<usize> = None;
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--model" => opts.model_dir = need(&mut args, "--model")?,
            "--shard" => shard = Some(parse_num(&need(&mut args, "--shard")?, "--shard")?),
            "--host" => opts.host = need(&mut args, "--host")?,
            "--port" => opts.port = parse_num(&need(&mut args, "--port")?, "--port")?,
            other => return Err(format!("serve-shard: unknown argument: {other}")),
        }
    }
    if opts.model_dir.is_empty() {
        return Err("serve-shard: --model is required".into());
    }
    opts.shard = shard.ok_or("serve-shard: --shard is required")?;
    Ok(Some(opts))
}

fn parse_infer_args<I: Iterator<Item = String>>(
    mut args: I,
) -> Result<Option<InferOptions>, String> {
    let mut opts = InferOptions::default();
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--model" => opts.model_dir = need(&mut args, "--model")?,
            "--input" => opts.input = need(&mut args, "--input")?,
            "--threads" => {
                opts.n_threads = parse_threads(&need(&mut args, "--threads")?, "--threads")?
            }
            "--iters" => {
                opts.fold_iters = parse_num(&need(&mut args, "--iters")?, "--iters")?;
                if opts.fold_iters == 0 {
                    return Err("--iters must be at least 1".into());
                }
            }
            "--seed" => opts.seed = parse_num(&need(&mut args, "--seed")?, "--seed")?,
            "--top" => opts.top = parse_num(&need(&mut args, "--top")?, "--top")?,
            other => return Err(format!("infer: unknown argument: {other}")),
        }
    }
    if opts.model_dir.is_empty() {
        return Err("infer: --model is required".into());
    }
    if opts.input.is_empty() {
        return Err("infer: --input is required".into());
    }
    Ok(Some(opts))
}

/// Parse argv (without the program name). Returns `Err` with a message for
/// the user on any problem; `Ok(None)` means `--help` was requested.
pub fn parse_args<I, S>(args: I) -> Result<Option<CliOptions>, String>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut opts = CliOptions::default();
    let mut args = args.into_iter().map(Into::into);
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--input" => opts.input = need(&mut args, "--input")?,
            "--output-dir" => opts.output_dir = Some(need(&mut args, "--output-dir")?),
            "--topics" => {
                opts.n_topics = parse_num(&need(&mut args, "--topics")?, "--topics")?;
                if !(1..=u16::MAX as usize).contains(&opts.n_topics) {
                    return Err("--topics must be in 1..=65535".into());
                }
            }
            "--iterations" => {
                opts.iterations = parse_num(&need(&mut args, "--iterations")?, "--iterations")?
            }
            "--min-support" => {
                let n: u64 = parse_num(&need(&mut args, "--min-support")?, "--min-support")?;
                if n == 0 {
                    return Err("--min-support must be at least 1".into());
                }
                opts.min_support = Some(n);
            }
            "--alpha" => {
                let v = need(&mut args, "--alpha")?;
                let alpha: f64 = v
                    .parse()
                    .map_err(|_| format!("--alpha: not a number: {v:?}"))?;
                // NaN would stop every merge (no score is >= NaN) and -inf
                // would merge pairs that never co-occur (their score).
                if !alpha.is_finite() {
                    return Err(format!("--alpha must be finite, got {v:?}"));
                }
                opts.significance_alpha = alpha;
            }
            "--threads" => {
                opts.n_threads = parse_threads(&need(&mut args, "--threads")?, "--threads")?
            }
            "--mine-threads" => {
                opts.mine_threads =
                    parse_threads(&need(&mut args, "--mine-threads")?, "--mine-threads")?
            }
            "--lda-threads" => {
                opts.lda_threads =
                    parse_threads(&need(&mut args, "--lda-threads")?, "--lda-threads")?
            }
            "--seed" => opts.seed = parse_num(&need(&mut args, "--seed")?, "--seed")?,
            "--top" => opts.top = parse_num(&need(&mut args, "--top")?, "--top")?,
            "--save-model" => opts.save_model = Some(need(&mut args, "--save-model")?),
            "--shards" => {
                let n: usize = parse_num(&need(&mut args, "--shards")?, "--shards")?;
                if n == 0 {
                    return Err("--shards must be at least 1".into());
                }
                opts.shards = n;
            }
            "--no-stem" => opts.stem = false,
            "--keep-stopwords" => opts.remove_stopwords = false,
            "--filter-background" => opts.filter_background = true,
            "--progress" => opts.progress = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if opts.input.is_empty() {
        return Err("--input is required".into());
    }
    if opts.shards > 1 && opts.save_model.is_none() {
        return Err("--shards requires --save-model".into());
    }
    Ok(Some(opts))
}

/// Most worker threads any thread-count flag accepts. Each pass allocates
/// in proportion to its thread count (Algorithm 1 counts into T × T
/// partitions, `serve` starts T dispatchers at once), so a larger count is
/// refused when parsed rather than when it runs out of memory.
pub const MAX_THREADS: usize = 256;

/// Parse a thread-count flag: a number in `1..=MAX_THREADS`.
fn parse_threads(value: &str, flag: &str) -> Result<usize, String> {
    match parse_num::<usize>(value, flag)? {
        n @ 1..=MAX_THREADS => Ok(n),
        _ => Err(format!("{flag} must be in 1..={MAX_THREADS}, got {value}")),
    }
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: not a valid number: {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<CliOptions>, String> {
        parse_args(args.iter().copied())
    }

    #[test]
    fn minimal_invocation() {
        let opts = parse(&["--input", "corpus.txt"]).unwrap().unwrap();
        assert_eq!(opts.input, "corpus.txt");
        assert_eq!(opts.n_topics, 10);
        assert_eq!(opts.mine_threads, 0); // 0 = follow --threads
        assert_eq!(opts.lda_threads, 1);
        assert!(opts.stem);
        assert!(opts.min_support.is_none());
    }

    #[test]
    fn all_flags() {
        let opts = parse(&[
            "--input",
            "c.txt",
            "--output-dir",
            "out",
            "--topics",
            "25",
            "--iterations",
            "100",
            "--min-support",
            "7",
            "--alpha",
            "3.5",
            "--threads",
            "4",
            "--mine-threads",
            "2",
            "--lda-threads",
            "3",
            "--seed",
            "42",
            "--top",
            "5",
            "--no-stem",
            "--keep-stopwords",
            "--filter-background",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(opts.output_dir.as_deref(), Some("out"));
        assert_eq!(opts.n_topics, 25);
        assert_eq!(opts.iterations, 100);
        assert_eq!(opts.min_support, Some(7));
        assert_eq!(opts.significance_alpha, 3.5);
        assert_eq!(opts.n_threads, 4);
        assert_eq!(opts.mine_threads, 2);
        assert_eq!(opts.lda_threads, 3);
        assert_eq!(opts.seed, 42);
        assert_eq!(opts.top, 5);
        assert!(!opts.stem);
        assert!(!opts.remove_stopwords);
        assert!(opts.filter_background);
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse(&["--help"]).unwrap(), None);
        assert_eq!(parse(&["--input", "x", "-h"]).unwrap(), None);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&[]).is_err()); // missing input
        assert!(parse(&["--input"]).is_err()); // missing value
        assert!(parse(&["--input", "x", "--topics", "zero"]).is_err());
        assert!(parse(&["--input", "x", "--bogus"]).is_err());
        assert!(parse(&["--input", "x", "--threads", "0"]).is_err());
        assert!(parse(&["--input", "x", "--mine-threads", "0"]).is_err());
        assert!(parse(&["--input", "x", "--lda-threads", "0"]).is_err());
        assert!(parse(&["--input", "x", "--lda-threads", "two"]).is_err());
        // Values the library would reject with a panic fail at parse time.
        for k in ["0", "65536"] {
            assert_eq!(
                parse(&["--input", "x", "--topics", k]),
                Err("--topics must be in 1..=65535".into())
            );
        }
        assert!(parse(&["--input", "x", "--topics", "65535"]).is_ok());
        assert_eq!(
            parse(&["--input", "x", "--min-support", "0"]),
            Err("--min-support must be at least 1".into())
        );
        // A non-finite threshold would stop (NaN) or force (-inf) every
        // merge; finite negative ones stay valid.
        for v in ["nan", "inf", "-inf", "+Infinity"] {
            assert_eq!(
                parse(&["--input", "x", "--alpha", v]),
                Err(format!("--alpha must be finite, got {v:?}"))
            );
        }
        let opts = parse(&["--input", "x", "--alpha", "-2.5"])
            .unwrap()
            .unwrap();
        assert_eq!(opts.significance_alpha, -2.5);
    }

    #[test]
    fn shards_flag_requires_save_model_and_a_positive_count() {
        let opts = parse(&[
            "--input",
            "c.txt",
            "--save-model",
            "bundle",
            "--shards",
            "4",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(opts.shards, 4);
        assert_eq!(
            parse(&["--input", "c.txt", "--save-model", "b"])
                .unwrap()
                .unwrap()
                .shards,
            1
        );
        assert!(parse(&["--input", "c.txt", "--shards", "4"]).is_err());
        assert!(parse(&["--input", "c.txt", "--save-model", "b", "--shards", "0"]).is_err());
        assert!(parse(&["--input", "c.txt", "--save-model", "b", "--shards", "x"]).is_err());
    }

    #[test]
    fn progress_flag_is_parsed_and_reaches_the_pipeline_config() {
        let opts = parse(&["--input", "c.txt", "--progress"]).unwrap().unwrap();
        assert!(opts.progress);
        assert!(!parse(&["--input", "c.txt"]).unwrap().unwrap().progress);
        let corpus = topmine_corpus::corpus_from_texts(["alpha beta gamma"]);
        assert!(opts.pipeline_config(&corpus).progress);
    }

    fn command(args: &[&str]) -> Result<Option<Command>, String> {
        parse_command(args.iter().copied())
    }

    #[test]
    fn thread_counts_are_bounded_when_parsed() {
        let fit = |flag: &str, n: &str| command(&["--input", "x", flag, n]);
        let serve = |flag: &str, n: &str| command(&["serve", "--model", "m", flag, n]);
        let infer =
            |flag: &str, n: &str| command(&["infer", "--model", "m", "--input", "x", flag, n]);
        type Parse<'a> = &'a dyn Fn(&str, &str) -> Result<Option<Command>, String>;
        let cases: [(Parse, &str); 5] = [
            (&fit, "--threads"),
            (&fit, "--mine-threads"),
            (&fit, "--lda-threads"),
            (&serve, "--threads"),
            (&infer, "--threads"),
        ];
        for (parse, flag) in cases {
            assert!(parse(flag, "256").is_ok(), "{flag} 256");
            assert_eq!(
                parse(flag, "257"),
                Err(format!("{flag} must be in 1..=256, got 257"))
            );
            assert!(parse(flag, "0").is_err(), "{flag} 0");
        }
        assert_eq!(MAX_THREADS, 256);
        assert_eq!(USAGE.matches("1..=256").count(), 5, "{USAGE}");
    }

    #[test]
    fn save_model_flag_is_parsed() {
        let opts = parse(&["--input", "c.txt", "--save-model", "bundle"])
            .unwrap()
            .unwrap();
        assert_eq!(opts.save_model.as_deref(), Some("bundle"));
        assert!(parse(&["--input", "c.txt"])
            .unwrap()
            .unwrap()
            .save_model
            .is_none());
        assert!(parse(&["--input", "c.txt", "--save-model"]).is_err());
    }

    #[test]
    fn bare_args_parse_as_fit() {
        match command(&["--input", "c.txt"]).unwrap().unwrap() {
            Command::Fit(opts) => assert_eq!(opts.input, "c.txt"),
            other => panic!("expected Fit, got {other:?}"),
        }
        assert_eq!(command(&["--help"]).unwrap(), None);
    }

    #[test]
    fn serve_subcommand_parses() {
        let cmd = command(&[
            "serve",
            "--model",
            "bundle",
            "--port",
            "9000",
            "--host",
            "0.0.0.0",
            "--threads",
            "8",
            "--iters",
            "30",
            "--seed",
            "5",
            "--top",
            "4",
            "--queue-depth",
            "32",
            "--max-batch",
            "8",
            "--deadline-ms",
            "500",
        ])
        .unwrap()
        .unwrap();
        match cmd {
            Command::Serve(opts) => {
                assert_eq!(opts.model_dir, "bundle");
                assert_eq!(opts.port, 9000);
                assert_eq!(opts.host, "0.0.0.0");
                assert_eq!(opts.n_threads, 8);
                assert_eq!(opts.fold_iters, 30);
                assert_eq!(opts.seed, 5);
                assert_eq!(opts.top, 4);
                assert_eq!(opts.queue_depth, 32);
                assert_eq!(opts.max_batch, 8);
                assert_eq!(opts.deadline_ms, 500);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        // Defaults and error paths.
        match command(&["serve", "--model", "m"]).unwrap().unwrap() {
            Command::Serve(opts) => {
                assert_eq!(opts.port, 7878);
                assert_eq!(opts.host, "127.0.0.1");
                assert_eq!(opts.queue_depth, 128);
                assert_eq!(opts.max_batch, 16);
                assert_eq!(opts.deadline_ms, 30_000);
            }
            other => panic!("{other:?}"),
        }
        // --deadline-ms 0 is the documented way to disable the deadline.
        match command(&["serve", "--model", "m", "--deadline-ms", "0"])
            .unwrap()
            .unwrap()
        {
            Command::Serve(opts) => assert_eq!(opts.deadline_ms, 0),
            other => panic!("{other:?}"),
        }
        assert!(command(&["serve"]).is_err()); // missing --model
        assert!(command(&["serve", "--model", "m", "--threads", "0"]).is_err());
        assert!(command(&["serve", "--model", "m", "--queue-depth", "0"]).is_err());
        assert!(command(&["serve", "--model", "m", "--max-batch", "0"]).is_err());
        assert!(command(&["serve", "--model", "m", "--port", "xyz"]).is_err());
        assert!(command(&["serve", "--model", "m", "--bogus"]).is_err());
        assert_eq!(command(&["serve", "--help"]).unwrap(), None);
    }

    #[test]
    fn serve_fleet_flag_parses_comma_separated_addresses() {
        match command(&[
            "serve",
            "--model",
            "bundle",
            "--fleet",
            "127.0.0.1:7979, 127.0.0.1:7980,127.0.0.1:7981",
        ])
        .unwrap()
        .unwrap()
        {
            Command::Serve(opts) => {
                assert_eq!(
                    opts.fleet,
                    vec!["127.0.0.1:7979", "127.0.0.1:7980", "127.0.0.1:7981"]
                );
            }
            other => panic!("{other:?}"),
        }
        // No --fleet means the in-process backend.
        match command(&["serve", "--model", "m"]).unwrap().unwrap() {
            Command::Serve(opts) => assert!(opts.fleet.is_empty()),
            other => panic!("{other:?}"),
        }
        assert!(command(&["serve", "--model", "m", "--fleet", ""]).is_err());
        assert!(command(&["serve", "--model", "m", "--fleet", ","]).is_err());
        assert!(command(&["serve", "--model", "m", "--fleet", "noport"]).is_err());
        assert!(command(&["serve", "--model", "m", "--fleet"]).is_err());
    }

    #[test]
    fn serve_shard_subcommand_parses() {
        match command(&[
            "serve-shard",
            "--model",
            "bundle",
            "--shard",
            "2",
            "--host",
            "0.0.0.0",
            "--port",
            "9100",
        ])
        .unwrap()
        .unwrap()
        {
            Command::ServeShard(opts) => {
                assert_eq!(opts.model_dir, "bundle");
                assert_eq!(opts.shard, 2);
                assert_eq!(opts.host, "0.0.0.0");
                assert_eq!(opts.port, 9100);
            }
            other => panic!("expected ServeShard, got {other:?}"),
        }
        match command(&["serve-shard", "--model", "m", "--shard", "0"])
            .unwrap()
            .unwrap()
        {
            Command::ServeShard(opts) => {
                assert_eq!(opts.port, 7979);
                assert_eq!(opts.host, "127.0.0.1");
            }
            other => panic!("{other:?}"),
        }
        assert!(command(&["serve-shard", "--shard", "0"]).is_err()); // missing model
        assert!(command(&["serve-shard", "--model", "m"]).is_err()); // missing shard
        assert!(command(&["serve-shard", "--model", "m", "--shard", "x"]).is_err());
        assert!(command(&["serve-shard", "--model", "m", "--shard", "0", "--bogus"]).is_err());
        assert_eq!(command(&["serve-shard", "--help"]).unwrap(), None);
    }

    #[test]
    fn usage_states_the_infer_window() {
        let window = INFER_WINDOW_BLOCKS * topmine_util::par::DOC_BLOCK;
        assert!(USAGE.contains(&format!("windows of\n{:26}{window} x N", "")));
    }

    #[test]
    fn infer_subcommand_parses() {
        let cmd = command(&[
            "infer",
            "--model",
            "bundle",
            "--input",
            "docs.txt",
            "--iters",
            "15",
            "--seed",
            "3",
            "--top",
            "2",
            "--threads",
            "2",
        ])
        .unwrap()
        .unwrap();
        match cmd {
            Command::Infer(opts) => {
                assert_eq!(opts.model_dir, "bundle");
                assert_eq!(opts.input, "docs.txt");
                assert_eq!(opts.fold_iters, 15);
                assert_eq!(opts.seed, 3);
                assert_eq!(opts.top, 2);
                assert_eq!(opts.n_threads, 2);
            }
            other => panic!("expected Infer, got {other:?}"),
        }
        assert!(command(&["infer", "--model", "m"]).is_err()); // missing input
        assert!(command(&["infer", "--input", "f"]).is_err()); // missing model
        assert!(command(&["infer", "--model", "m", "--input", "f", "--iters", "0"]).is_err());
        assert_eq!(command(&["infer", "-h"]).unwrap(), None);
    }

    #[test]
    fn pipeline_config_uses_auto_support() {
        use topmine_corpus::corpus_from_texts;
        let corpus = corpus_from_texts(["data mining", "data mining again"]);
        let opts = parse(&["--input", "x"]).unwrap().unwrap();
        let cfg = opts.pipeline_config(&corpus);
        assert_eq!(cfg.min_support, ToPMineConfig::support_for_corpus(&corpus));
        let opts = parse(&["--input", "x", "--min-support", "9"])
            .unwrap()
            .unwrap();
        assert_eq!(opts.pipeline_config(&corpus).min_support, 9);
    }
}
