//! Std-only observability for the ToPMine reproduction.
//!
//! The serving stack and the Gibbs trainer both need continuous runtime
//! signals — request-stage latencies, sweep rates, barrier-merge volume,
//! sparse-kernel bucket splits — without pulling a metrics dependency into
//! an offline workspace. This crate provides the minimal pieces:
//!
//! - [`Counter`] / [`Gauge`]: relaxed atomic scalars.
//! - [`Histogram`]: lock-free log₂-bucketed distribution with mergeable
//!   [`HistogramSnapshot`]s and rank-based quantile estimation.
//! - [`SpanTimer`]: RAII scope timing into a histogram (nanoseconds).
//! - [`Registry`]: named metric families rendered in the Prometheus text
//!   exposition format (`Registry::global()` for the process-wide one).
//! - [`TraceSink`]: append-only JSONL event sink, opened from the
//!   `TOPMINE_TRACE` environment variable.
//! - [`SweepTelemetry`] / [`DrawSplit`]: the shared per-sweep training
//!   telemetry structs consumed by benches and the `--progress` flag.
//! - [`MiningTelemetry`] / [`MiningLevel`]: per-level Algorithm 1 phrase
//!   mining telemetry (candidates, frequent survivors, active documents,
//!   level timings), same consumers.
//!
//! Everything is `std`-only and cheap enough to stay compiled in: recording
//! is a handful of relaxed atomic adds, and the trace sink is entirely
//! absent unless the environment opts in.

mod histogram;
mod metrics;
mod registry;
mod telemetry;
mod timer;
mod trace;

pub use histogram::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, N_BUCKETS};
pub use metrics::{Counter, Gauge};
pub use registry::{MetricKind, Registry};
pub use telemetry::{DrawSplit, MiningLevel, MiningTelemetry, SweepTelemetry};
pub use timer::SpanTimer;
pub use trace::{TraceEvent, TraceSink};

use std::sync::OnceLock;
use std::time::Instant;

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Pin the process start time for [`uptime_seconds`]. Idempotent; calling
/// it early (e.g. in `main`) makes uptime measure the whole process instead
/// of the span since the first metrics touch.
pub fn mark_process_start() {
    let _ = PROCESS_START.set(Instant::now());
}

/// Seconds since [`mark_process_start`] (or since the first call to either
/// function, whichever came first).
pub fn uptime_seconds() -> f64 {
    PROCESS_START
        .get_or_init(Instant::now)
        .elapsed()
        .as_secs_f64()
}
