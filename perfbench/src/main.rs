//! `perfbench` — the repository benchmark: ToPMine workloads from raw text
//! to JSON, with end-to-end metrics and a traced per-layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mine-titles --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` runs the same inputs with spans recorded around
//! every call into a layer and prints the per-layer metrics instead. The
//! last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! The workloads, their settings and the layer map are documented in
//! `perfbench/README.md`.

mod alloc;
mod http;
mod loadgen;
mod procs;
mod prom;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Command-line arguments; all four are required.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args<I: Iterator<Item = String>>(mut it: I) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything a workload needs from its environment.
pub struct Ctx {
    pub args: Args,
    /// Worker threads for every program thread setting (`nproc`).
    pub threads: usize,
    /// The repository checkout the benchmark runs from.
    pub root: PathBuf,
    /// Scratch directory for generated inputs and bundles; removed on exit.
    pub work: PathBuf,
}

impl Ctx {
    fn new(args: Args) -> Result<Self, String> {
        let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
        if !root.join("crates/core/Cargo.toml").is_file() {
            return Err(format!(
                "{} is not the repository root (no crates/core/Cargo.toml)",
                root.display()
            ));
        }
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let work =
            root.join(".perfbench-work")
                .join(format!("{}-{}", args.workload, std::process::id()));
        std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
        Ok(Self {
            args,
            threads,
            root,
            work,
        })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        self.root.join(".perfbench-work").join(format!(
            "trace-{}-seed{}.json",
            self.args.workload, self.args.seed
        ))
    }
}

fn remove_dir(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        eprintln!("perfbench: could not remove {}: {e}", dir.display());
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, path] = argv.as_slice() {
        if flag == workloads::INGEST_FLAG {
            return match workloads::ingest_once(Path::new(path)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("perfbench: {msg}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!(
                "perfbench: {msg}\nusage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let ctx = match Ctx::new(args) {
        Ok(ctx) => ctx,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let result = workloads::run(&ctx);
    remove_dir(&ctx.work);
    match result.and_then(|r| r.render(ctx.args.trace)) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {} failed: {msg}", ctx.args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Args, String> {
        parse_args(args.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_parse_and_are_all_required() {
        let a = parse("--workload mine-titles --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("mine-titles", 3, 10.0, true)
        );
        assert!(parse("--workload mine-titles --seed 3 --seconds 10").is_err());
        assert!(parse("--workload nope --seed 3 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload mine-titles --seed 3 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload mine-titles --seed 3 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload mine-titles --seed x --seconds 1 --trace 0").is_err());
    }
}
