//! End-to-end smoke tests for the `topmine` binary: run the real
//! executable on a tiny corpus file and check exit status and output
//! shape. `CARGO_BIN_EXE_topmine` is provided by Cargo for integration
//! tests of packages with a binary target.

use std::path::PathBuf;
use std::process::Command;
use topmine::cli::INFER_WINDOW_BLOCKS;
use topmine_serve::{infer_doc, inference_json, load_bundle, InferConfig};
use topmine_util::par::DOC_BLOCK;

const CORPUS: &str = "\
mining frequent patterns without candidate generation
frequent pattern mining current status and future directions
fast algorithms for mining association rules in large databases
mining frequent patterns in data streams
frequent pattern mining with constraints
a survey of frequent pattern mining
information retrieval with query expansion
query expansion for information retrieval systems
evaluating information retrieval and query expansion models
latent semantic indexing for information retrieval
query expansion using lexical semantic relations
a study of information retrieval evaluation measures
";

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("topmine_cli_smoke_{name}_{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_topmine"))
}

#[test]
fn runs_on_tiny_corpus_and_prints_topics() {
    let dir = scratch_dir("basic");
    let input = dir.join("corpus.txt");
    std::fs::write(&input, CORPUS).unwrap();

    let out = bin()
        .args([
            "--input",
            input.to_str().unwrap(),
            "--topics",
            "2",
            "--iterations",
            "30",
            "--min-support",
            "3",
            "--alpha",
            "1.0",
            "--seed",
            "7",
            "--top",
            "5",
        ])
        .output()
        .expect("failed to launch the topmine binary");

    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit {:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status.code()
    );
    // The progress log reports the corpus; the table reports both topics
    // (1-indexed, matching the paper's table layout).
    assert!(stderr.contains("12 documents"), "stderr:\n{stderr}");
    assert!(stdout.contains("Topic 1"), "stdout:\n{stdout}");
    assert!(stdout.contains("Topic 2"), "stdout:\n{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn writes_artifacts_to_output_dir() {
    let dir = scratch_dir("artifacts");
    let input = dir.join("corpus.txt");
    std::fs::write(&input, CORPUS).unwrap();
    let out_dir = dir.join("run1");

    let out = bin()
        .args([
            "--input",
            input.to_str().unwrap(),
            "--output-dir",
            out_dir.to_str().unwrap(),
            "--topics",
            "2",
            "--iterations",
            "20",
            "--min-support",
            "3",
        ])
        .output()
        .expect("failed to launch the topmine binary");
    assert!(
        out.status.success(),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let topics = out_dir.join("topics.txt");
    assert!(topics.is_file(), "missing {}", topics.display());
    let rendered = std::fs::read_to_string(&topics).unwrap();
    assert!(rendered.contains("Topic"), "topics.txt:\n{rendered}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn help_exits_zero_and_prints_usage() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("topmine serve"), "{stdout}");
    assert!(stdout.contains("topmine infer"), "{stdout}");
}

/// Fit [`CORPUS`] and freeze it into `dir/bundle`; returns the fit's
/// output and the bundle path.
fn fit_and_save(dir: &std::path::Path) -> (std::process::Output, PathBuf) {
    let input = dir.join("corpus.txt");
    std::fs::write(&input, CORPUS).unwrap();
    let bundle = dir.join("bundle");
    let out = bin()
        .args([
            "--input",
            input.to_str().unwrap(),
            "--topics",
            "2",
            "--iterations",
            "30",
            "--min-support",
            "3",
            "--alpha",
            "1.0",
            "--seed",
            "7",
            "--save-model",
            bundle.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    (out, bundle)
}

/// Run `topmine infer` on `bundle` over `input` at `--seed 9 --iters 25`
/// and `threads` workers.
fn infer(bundle: &std::path::Path, input: &std::path::Path, threads: &str) -> std::process::Output {
    bin()
        .args([
            "infer",
            "--model",
            bundle.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--seed",
            "9",
            "--iters",
            "25",
            "--threads",
            threads,
        ])
        .output()
        .unwrap()
}

#[test]
fn save_model_then_infer_roundtrip() {
    let dir = scratch_dir("save_infer");
    // Fit and freeze.
    let (out, bundle) = fit_and_save(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr:\n{stderr}");
    assert!(stderr.contains("frozen model"), "stderr:\n{stderr}");
    // The default save is the one-shard bundle.
    for file in [
        "manifest.tsv",
        "stopwords.txt",
        "shard-0/vocab.tsv",
        "shard-0/unstem.tsv",
        "shard-0/lexicon.tsv",
        "shard-0/phi.bin",
    ] {
        assert!(bundle.join(file).is_file(), "missing {file}");
    }
    assert!(!bundle.join("shard-1").exists());

    // One-shot inference over unseen text; JSON-lines on stdout.
    let unseen = dir.join("unseen.txt");
    std::fs::write(
        &unseen,
        "frequent pattern mining for streams\nquery expansion for retrieval\n",
    )
    .unwrap();
    let infer = |threads: &str| {
        let out = infer(&bundle, &unseen, threads);
        assert!(
            out.status.success(),
            "stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let stdout = infer("1");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "stdout:\n{stdout}");
    for line in &lines {
        assert!(line.starts_with("{\"n_tokens\":"), "line: {line}");
        assert!(line.contains("\"theta\""), "line: {line}");
        assert!(line.contains("\"top_topics\""), "line: {line}");
    }
    // Byte-identical across runs and thread counts (fixed seed).
    assert_eq!(stdout, infer("1"));
    assert_eq!(stdout, infer("4"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What `infer` (`--seed 9 --iters 25`) must print for `lines`, computed
/// in-process: one `inference_json(infer_doc(..))` per line, line `i` on
/// `seed_for_index(i)`.
fn reference_infer(bundle: &std::path::Path, lines: &[&str]) -> String {
    let model = load_bundle(bundle).unwrap();
    let config = InferConfig {
        fold_iters: 25,
        seed: 9,
        ..InferConfig::default()
    };
    lines
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let inference = infer_doc(model.as_ref(), text, &config, config.seed_for_index(i));
            inference_json(&inference) + "\n"
        })
        .collect()
}

#[test]
fn infer_over_several_blocks_is_identical_at_any_thread_count() {
    let dir = scratch_dir("infer_blocks");
    let (out, bundle) = fit_and_save(&dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // More lines than one window at `--threads 3`, ending in a partial
    // window that ends in a partial block of 32 documents.
    let n_lines = INFER_WINDOW_BLOCKS * DOC_BLOCK * 3 + 70;
    let lines: Vec<&str> = CORPUS.lines().cycle().take(n_lines).collect();
    let unseen = dir.join("unseen.txt");
    std::fs::write(&unseen, lines.join("\n")).unwrap();
    let expected = reference_infer(&bundle, &lines);
    for threads in ["1", "2", "3"] {
        let out = infer(&bundle, &unseen, threads);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stdout) == expected,
            "--threads {threads}: output differs from one infer_doc per line"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn infer_prints_the_windows_before_a_line_of_invalid_utf8() {
    let dir = scratch_dir("infer_bad_window");
    let (out, bundle) = fit_and_save(&dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // At `--threads 1` a window is `INFER_WINDOW_BLOCKS * DOC_BLOCK`
    // lines: one full window, five lines of the next, then a bad line.
    let window = INFER_WINDOW_BLOCKS * DOC_BLOCK;
    let lines: Vec<&str> = CORPUS.lines().cycle().take(window + 5).collect();
    let mut bytes = lines.join("\n").into_bytes();
    bytes.extend_from_slice(b"\nquery \xff expansion\n");
    let unseen = dir.join("bad.txt");
    std::fs::write(&unseen, bytes).unwrap();
    let out = infer(&bundle, &unseen, "1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    let bad_line = format!("line {}, byte 7: invalid UTF-8", window + 6);
    assert!(stderr.contains(&bad_line), "stderr:\n{stderr}");
    // The first window is printed whole; the five lines after it are not.
    assert!(
        String::from_utf8_lossy(&out.stdout) == reference_infer(&bundle, &lines[..window]),
        "stdout is not the first window"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn infer_names_the_line_and_byte_of_invalid_utf8() {
    let dir = scratch_dir("infer_bad_utf8");
    let (out, bundle) = fit_and_save(&dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let unseen = dir.join("bad.txt");
    std::fs::write(&unseen, b"frequent pattern mining\nquery \xff expansion\n").unwrap();
    let out = infer(&bundle, &unseen, "1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("line 2, byte 7: invalid UTF-8"),
        "stderr:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "stdout: {:?}", out.stdout);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn infer_on_missing_bundle_is_a_clean_error() {
    let out = bin()
        .args([
            "infer",
            "--model",
            "/nonexistent/bundle",
            "--input",
            "/nonexistent/docs.txt",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}

#[test]
fn serve_answers_http_requests() {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = scratch_dir("serve");
    let input = dir.join("corpus.txt");
    std::fs::write(&input, CORPUS).unwrap();
    let bundle = dir.join("bundle");
    let out = bin()
        .args([
            "--input",
            input.to_str().unwrap(),
            "--topics",
            "2",
            "--iterations",
            "20",
            "--min-support",
            "3",
            "--save-model",
            bundle.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Ephemeral port; the chosen address is announced on stderr.
    let mut child = bin()
        .args([
            "serve",
            "--model",
            bundle.to_str().unwrap(),
            "--port",
            "0",
            "--threads",
            "2",
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).unwrap() > 0,
            "server exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("address after prefix")
                .to_string();
        }
    };

    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    let body = "frequent pattern mining for data streams";
    write!(
        stream,
        "POST /infer?seed=5 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"theta\""), "{response}");

    child.kill().unwrap();
    let _ = child.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_input_fails_with_usage_on_stderr() {
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--input is required"), "stderr:\n{stderr}");
    assert!(stderr.contains("USAGE"), "stderr:\n{stderr}");
}

#[test]
fn bad_flag_fails_cleanly() {
    // Exit code 1 is the clean error path; a panic exits 101, which
    // `!success()` alone would also accept. The input exists, so a value
    // that slipped past parsing would reach the library.
    let dir = scratch_dir("bad_flag");
    let input = dir.join("corpus.txt");
    std::fs::write(&input, CORPUS).unwrap();
    for (flags, message) in [
        (&["--bogus"][..], "unknown argument"),
        (&["--topics", "70000"][..], "--topics must be in 1..=65535"),
        (
            &["--min-support", "0"][..],
            "--min-support must be at least 1",
        ),
        (&["--alpha", "nan"][..], "--alpha must be finite"),
        (&["--alpha", "-inf"][..], "--alpha must be finite"),
    ] {
        let out = bin()
            .arg("--input")
            .arg(&input)
            .args(flags)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: stderr:\n{stderr}");
        assert!(stderr.contains(message), "{flags:?}: stderr:\n{stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_file_is_a_clean_error_not_a_panic() {
    let out = bin()
        .args(["--input", "/nonexistent/definitely_missing.txt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}

#[test]
fn invalid_utf8_input_names_the_first_bad_line() {
    let dir = scratch_dir("bad_utf8");
    let input = dir.join("corpus.txt");
    let mut bytes = Vec::new();
    for (i, line) in CORPUS.lines().enumerate() {
        bytes.extend_from_slice(line.as_bytes());
        match i + 1 {
            3 => bytes.extend_from_slice(b" caf\xe9"),
            7 => bytes.extend_from_slice(b" \xff"),
            _ => {}
        }
        bytes.push(b'\n');
    }
    std::fs::write(&input, &bytes).unwrap();
    let out = bin()
        .args(["--input", input.to_str().unwrap(), "--topics", "2"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    let bad_column = CORPUS.lines().nth(2).unwrap().len() + " caf".len() + 1;
    assert!(
        stderr.contains(&format!("line 3, byte {bad_column}: invalid UTF-8")),
        "stderr:\n{stderr}"
    );
    assert!(!stderr.contains("line 7"), "stderr:\n{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
