//! Building and supervising the shipped `topmine` binary: `cargo build`
//! in the checkout, spawn with output to a log file, read the bound
//! address it announces, wait for `/healthz`, and stop it (kill + wait)
//! when dropped.

use crate::http;
use std::fs::{File, OpenOptions};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Build `topmine` in release mode from the checkout at `root` and return
/// the executable's path (as Cargo reports it).
pub fn build_topmine(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--bin",
            "topmine",
            "--message-format=json-render-diagnostics",
        ])
        .current_dir(root)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running cargo build: {e}"))?;
    if !out.status.success() {
        return Err(format!("cargo build --bin topmine failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .filter_map(|l| l.split("\"executable\":\"").nth(1))
        .filter_map(|rest| rest.split('"').next())
        .find(|p| p.ends_with("/topmine"))
        .map(PathBuf::from)
        .ok_or_else(|| "cargo build reported no topmine executable".to_string())
}

/// A running `topmine` process. Dropping it kills the process and waits
/// for it to exit.
pub struct Proc {
    child: Child,
    log: PathBuf,
    pub addr: SocketAddr,
}

impl Proc {
    /// Spawn `bin args…` with stdout and stderr appended to `log`; the
    /// address is known once [`Proc::wait_for_address`] returns.
    pub fn start(bin: &Path, args: &[String], log: &Path) -> Result<Self, String> {
        let open = || -> Result<File, String> {
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(log)
                .map_err(|e| format!("opening {}: {e}", log.display()))
        };
        let _ = std::fs::remove_file(log);
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(open()?)
            .stderr(open()?)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        Ok(Self {
            child,
            log: log.to_path_buf(),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn log_text(&self) -> String {
        std::fs::read_to_string(&self.log).unwrap_or_default()
    }

    /// Wait (up to `timeout`) for the `listening on ADDR` line and record
    /// the address.
    pub fn wait_for_address(&mut self, timeout: Duration) -> Result<SocketAddr, String> {
        let t0 = Instant::now();
        loop {
            let text = self.log_text();
            // Only a complete line: the process may be mid-write.
            if let Some((line, _)) = text
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_once('\n'))
            {
                let addr = line.split_whitespace().next().unwrap_or_default();
                self.addr = addr
                    .parse()
                    .map_err(|e| format!("bad listening address {addr:?}: {e}"))?;
                return Ok(self.addr);
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!(
                    "topmine exited ({status}) before listening:\n{text}"
                ));
            }
            if t0.elapsed() > timeout {
                return Err(format!(
                    "topmine did not announce an address within {timeout:?}:\n{text}"
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Poll `GET /healthz` until it answers 200.
    pub fn wait_healthy(&mut self, timeout: Duration) -> Result<(), String> {
        let t0 = Instant::now();
        loop {
            if let Ok(r) = http::get(self.addr, "/healthz", Duration::from_secs(2)) {
                if r.status == 200 {
                    return Ok(());
                }
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("topmine exited ({status}):\n{}", self.log_text()));
            }
            if t0.elapsed() > timeout {
                return Err(format!("/healthz not 200 within {timeout:?}"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Peak resident memory so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::sys::peak_rss_mb(self.pid()).map_err(|e| format!("peak RSS of {}: {e}", self.pid()))
    }

    /// Still running? (A server that died mid-run fails the run.)
    pub fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
