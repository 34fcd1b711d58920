//! An accept loop that runs out of file descriptors must wait, not spin.
//! `topmine serve` and `topmine serve-shard` are started under
//! `ulimit -n 48` and held at that limit for 2 s by 80 idle connections,
//! so `accept` fails while connections stay queued. Each server's CPU time
//! over the window must stay far below one second per second, and once the
//! connections close it must serve again.
//!
//! Out of descriptors, `serve` also sheds its idlest keep-alive
//! connections, so a new connection is served well before any idle one
//! would time out, while a request already in flight keeps its connection.
//!
//! Linux only: the CPU time comes from `/proc/<pid>/stat`.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

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

/// Descriptors the server may hold, and connections held against it.
const FD_LIMIT: usize = 48;
const HELD: usize = 80;
const WINDOW: Duration = Duration::from_secs(2);
/// Linux reports utime and stime in USER_HZ ticks, 100 per second on
/// every architecture it supports.
const TICKS_PER_SEC: f64 = 100.0;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_topmine")
}

/// Kills the child on drop so a failing assertion can't leak processes.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A fit saved with a plain `--save-model` into `dir/bundle`.
fn fit_bundle(name: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("topmine_fd_limit_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("corpus.txt");
    std::fs::write(&input, CORPUS).unwrap();
    let bundle = dir.join("bundle");
    let out = Command::new(bin())
        .args(["--input", input.to_str().unwrap(), "--topics", "2"])
        .args(["--iterations", "20", "--min-support", "3", "--save-model"])
        .arg(&bundle)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "fit failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (dir, bundle)
}

/// Start `topmine ARGS`, under `ulimit -n FD_LIMIT` when `limited`, and
/// return it with the address it announces (`listening on ADDR`): on
/// stdout for `serve-shard`, on stderr for `serve`.
fn spawn(args: &[&str], limited: bool) -> (Reaped, String) {
    let mut cmd = match limited {
        true => {
            let mut sh = Command::new("sh");
            let script = format!("ulimit -n {FD_LIMIT} && exec \"$0\" \"$@\"");
            sh.args(["-c", &script, bin()]);
            sh
        }
        false => Command::new(bin()),
    };
    cmd.args(args);
    let on_stdout = args[0] == "serve-shard";
    let mut child = match on_stdout {
        true => cmd.stdout(Stdio::piped()).stderr(Stdio::null()).spawn(),
        false => cmd.stdout(Stdio::null()).stderr(Stdio::piped()).spawn(),
    }
    .unwrap();
    let pipe: Box<dyn Read + Send> = match on_stdout {
        true => Box::new(child.stdout.take().unwrap()),
        false => Box::new(child.stderr.take().unwrap()),
    };
    let mut reader = BufReader::new(pipe);
    let addr = loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "{args:?} exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    // Keep draining, so a later log line cannot fail on a closed pipe.
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut reader, &mut std::io::sink());
    });
    (Reaped(child), addr)
}

/// User plus system CPU time of process `pid`, in seconds.
fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 1..]
        .split_whitespace()
        .collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    ticks as f64 / TICKS_PER_SEC
}

/// Hold `HELD` idle connections to `addr` for `WINDOW` and return the
/// server's CPU seconds per second over it. The connections close on
/// return.
fn cpu_share_while_held(server: &Reaped, addr: &str) -> f64 {
    let held: Vec<TcpStream> = (0..HELD)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    // Let the server accept what its descriptors allow.
    std::thread::sleep(Duration::from_millis(200));
    let pid = server.0.id();
    let (cpu, start) = (cpu_seconds(pid), Instant::now());
    std::thread::sleep(WINDOW);
    let share = (cpu_seconds(pid) - cpu) / start.elapsed().as_secs_f64();
    drop(held);
    share
}

/// `GET /healthz` on `addr`, retried for up to 10 s while the server
/// recovers its descriptors; returns the status.
fn healthz(addr: &str) -> u16 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let attempt = || -> std::io::Result<String> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(2)))?;
            stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")?;
            let mut response = String::new();
            stream.read_to_string(&mut response)?;
            Ok(response)
        };
        match attempt() {
            Ok(response) if !response.is_empty() => {
                return response.split_whitespace().nth(1).unwrap().parse().unwrap()
            }
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            outcome => panic!("/healthz never answered: {outcome:?}"),
        }
    }
}

/// One `GET /healthz` on a fresh connection, without retries: the status,
/// and how long the response took from connecting.
fn healthz_once(addr: &str) -> (u16, Duration) {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(SERVED_WITHIN + Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    if let Err(e) = stream.read_to_string(&mut response) {
        panic!("/healthz unanswered after {:?}: {e}", start.elapsed());
    }
    let status = response.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, start.elapsed())
}

/// How soon a new connection must be answered at the descriptor limit:
/// far less than `KEEP_ALIVE_IDLE` (5 s), after which an idle connection
/// closes on its own.
const SERVED_WITHIN: Duration = Duration::from_secs(1);

fn assert_waits(share: f64, who: &str) {
    assert!(
        share < 0.25,
        "{who} spent {share:.2} s of CPU per second at its descriptor limit"
    );
}

#[test]
fn serve_waits_when_out_of_descriptors() {
    let (dir, bundle) = fit_bundle("serve");
    let model = bundle.to_str().unwrap();
    let (server, addr) = spawn(&["serve", "--model", model, "--port", "0"], true);
    assert_waits(cpu_share_while_held(&server, &addr), "serve");
    assert_eq!(healthz(&addr), 200);
    drop(server);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn serve_sheds_idle_connections_at_its_descriptor_limit() {
    let (dir, bundle) = fit_bundle("shed");
    let model = bundle.to_str().unwrap();
    let (server, addr) = spawn(&["serve", "--model", model, "--port", "0"], true);
    // A request in flight: its head stops before the blank line.
    let mut in_flight = TcpStream::connect(&addr).unwrap();
    in_flight
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let held: Vec<TcpStream> = (0..HELD)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    let (status, took) = healthz_once(&addr);
    assert_eq!(status, 200);
    assert!(
        took < SERVED_WITHIN,
        "/healthz took {took:?} at the descriptor limit"
    );
    // The request in flight was not shed: finished now, it is answered.
    in_flight
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    in_flight.write_all(b"Connection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    in_flight.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response:?}");
    drop((held, server));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn serve_shard_waits_when_out_of_descriptors() {
    let (dir, bundle) = fit_bundle("shard");
    let model = bundle.to_str().unwrap();
    let args = [
        "serve-shard",
        "--model",
        model,
        "--shard",
        "0",
        "--port",
        "0",
    ];
    let (shard, shard_addr) = spawn(&args, true);
    assert_waits(cpu_share_while_held(&shard, &shard_addr), "serve-shard");
    // Serving again: a router starts only once its handshake with the
    // shard succeeds.
    let router_args = [
        "serve",
        "--model",
        model,
        "--port",
        "0",
        "--fleet",
        &shard_addr,
    ];
    let (router, addr) = spawn(&router_args, false);
    assert_eq!(healthz(&addr), 200);
    drop((router, shard));
    std::fs::remove_dir_all(dir).unwrap();
}
