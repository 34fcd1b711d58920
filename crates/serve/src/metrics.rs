//! Serving-stack metrics, registered in the process-wide
//! [`topmine_obs::Registry`] and exposed by `GET /metrics`.
//!
//! Handles are resolved once through a `OnceLock`, so the per-request cost
//! is a few `Instant` reads and relaxed atomic adds — cheap enough to stay
//! compiled in whether or not anything ever scrapes.

use std::sync::{Arc, OnceLock};
use topmine_obs::{Counter, Gauge, Histogram, Registry};

/// Pipeline stages of one served inference request, each with its own
/// latency histogram (`topmine_request_stage_seconds{stage=...}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Reading and parsing the request head + body (keep-alive idle time
    /// between requests is not counted).
    Parse,
    /// Gathering φ columns for the document's distinct words
    /// (scatter-gather across shards when the bundle is sharded).
    PhiGather,
    /// The fold-in Gibbs sweeps over the gathered columns.
    FoldIn,
    /// Rendering the response and writing it to the socket.
    Serialize,
}

impl Stage {
    pub const ALL: [Stage; 4] = [
        Stage::Parse,
        Stage::PhiGather,
        Stage::FoldIn,
        Stage::Serialize,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::PhiGather => "phi_gather",
            Stage::FoldIn => "fold_in",
            Stage::Serialize => "serialize",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::PhiGather => 1,
            Stage::FoldIn => 2,
            Stage::Serialize => 3,
        }
    }
}

/// Known routes, for bounded label cardinality: anything else (404 paths)
/// is grouped under `other`, and unparseable requests under `invalid`.
const ROUTES: [&str; 5] = ["/healthz", "/model", "/infer", "/infer_batch", "/metrics"];

/// One-time-registered handles for everything the serving stack records.
#[derive(Debug)]
pub struct ServeMetrics {
    stage_seconds: [Arc<Histogram>; 4],
    /// Per-route handling time (dispatch through response write), indexed
    /// like [`ROUTES`] with `other` at the end.
    route_seconds: [Arc<Histogram>; 6],
    /// Documents run through fold-in inference.
    pub infer_docs_total: Arc<Counter>,
    /// φ columns gathered for inference (distinct in-vocabulary words).
    pub phi_columns_total: Arc<Counter>,
    /// Distribution of gathered column counts per sharded scatter-gather.
    pub sharded_gather_columns: Arc<Histogram>,
    /// Inference jobs currently waiting in the admission queue.
    pub admission_queue_depth: Arc<Gauge>,
    /// Documents folded in per dispatcher batch (how well coalescing and
    /// `/infer_batch` fill each dispatch).
    pub dispatch_batch_docs: Arc<Histogram>,
    /// φ columns actually gathered by batched dispatches (one column per
    /// distinct word across the whole batch).
    pub batch_phi_columns_gathered: Arc<Counter>,
    /// φ columns the same batches would have gathered one document at a
    /// time (Σ per-document distinct words). The ratio naive/gathered is
    /// the cross-document amortization factor.
    pub batch_phi_columns_naive: Arc<Counter>,
    /// Requests refused at admission (429: queue full).
    pub requests_rejected_total: Arc<Counter>,
    /// Requests whose deadline expired while queued (504).
    pub requests_expired_total: Arc<Counter>,
    uptime_seconds: Arc<Gauge>,
}

static METRICS: OnceLock<ServeMetrics> = OnceLock::new();

/// The process-wide serving metrics, registered on first use.
pub fn serve_metrics() -> &'static ServeMetrics {
    METRICS.get_or_init(|| {
        let r = Registry::global();
        let stage_help = "Per-stage request latency in seconds";
        let route_help = "Request handling time in seconds (route dispatch through \
                          response write), by route";
        ServeMetrics {
            stage_seconds: Stage::ALL.map(|s| {
                r.histogram(
                    "topmine_request_stage_seconds",
                    stage_help,
                    &[("stage", s.as_str())],
                    1e-9,
                )
            }),
            route_seconds: [
                ROUTES[0], ROUTES[1], ROUTES[2], ROUTES[3], ROUTES[4], "other",
            ]
            .map(|route| {
                r.histogram(
                    "topmine_http_request_seconds",
                    route_help,
                    &[("route", route)],
                    1e-9,
                )
            }),
            infer_docs_total: r.counter(
                "topmine_infer_documents_total",
                "Documents run through fold-in inference",
                &[],
            ),
            phi_columns_total: r.counter(
                "topmine_phi_gather_columns_total",
                "Phi columns gathered for inference (distinct in-vocabulary words)",
                &[],
            ),
            sharded_gather_columns: r.histogram(
                "topmine_sharded_gather_columns",
                "Columns gathered per sharded phi scatter-gather",
                &[],
                1.0,
            ),
            admission_queue_depth: r.gauge(
                "topmine_admission_queue_depth",
                "Inference jobs waiting in the admission queue",
                &[],
            ),
            dispatch_batch_docs: r.histogram(
                "topmine_dispatch_batch_docs",
                "Documents folded in per dispatcher batch",
                &[],
                1.0,
            ),
            batch_phi_columns_gathered: r.counter(
                "topmine_batch_phi_columns_gathered_total",
                "Phi columns gathered by batched dispatches (union of distinct words)",
                &[],
            ),
            batch_phi_columns_naive: r.counter(
                "topmine_batch_phi_columns_naive_total",
                "Phi columns the same batches would gather one document at a time",
                &[],
            ),
            requests_rejected_total: r.counter(
                "topmine_requests_rejected_total",
                "Requests refused at admission because the queue was full (429)",
                &[],
            ),
            requests_expired_total: r.counter(
                "topmine_requests_expired_total",
                "Requests whose deadline expired while queued (504)",
                &[],
            ),
            uptime_seconds: r.gauge(
                "topmine_uptime_seconds",
                "Seconds since process start (sampled at scrape)",
                &[],
            ),
        }
    })
}

impl ServeMetrics {
    /// The latency histogram for one request stage.
    #[inline]
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stage_seconds[stage.index()]
    }

    /// Bounded-cardinality route label for a request path.
    pub fn route_label(path: &str) -> &'static str {
        ROUTES
            .iter()
            .find(|&&r| r == path)
            .copied()
            .unwrap_or("other")
    }

    /// Record one completed request: handling-time histogram plus the
    /// `{route, status}` counter.
    pub fn observe_request(&self, route: &'static str, status: u16, elapsed: std::time::Duration) {
        let idx = ROUTES
            .iter()
            .position(|&r| r == route)
            .unwrap_or(ROUTES.len());
        self.route_seconds[idx].record_duration(elapsed);
        self.count_request(route, status);
    }

    /// Count a request that never reached a route handler (unparseable
    /// head, oversized body, ...), without polluting the latency series.
    pub fn count_request(&self, route: &'static str, status: u16) {
        Registry::global()
            .counter(
                "topmine_http_requests_total",
                "HTTP requests by route and status",
                &[("route", route), ("status", status_label(status))],
            )
            .inc();
    }

    /// Refresh the point-in-time gauges rendered by a scrape.
    pub fn refresh_scrape_gauges(&self) {
        self.uptime_seconds.set(topmine_obs::uptime_seconds());
    }
}

/// Per-shard fleet RPC metrics, labeled `{shard="K"}`. Registered once
/// per shard client at pool construction (shard counts are small and
/// fixed for a process lifetime, so the label stays bounded).
#[derive(Debug, Clone)]
pub struct FleetShardMetrics {
    /// Round-trip latency of one shard RPC (send through matched reply).
    pub rpc_seconds: Arc<Histogram>,
    pub bytes_sent: Arc<Counter>,
    pub bytes_received: Arc<Counter>,
    pub frames_sent: Arc<Counter>,
    pub frames_received: Arc<Counter>,
    /// RPC attempts re-sent after a retryable transport failure.
    pub retries: Arc<Counter>,
    /// Fresh connections dialed after the first (reconnects after drops).
    pub reconnects: Arc<Counter>,
    /// RPCs that exhausted retries (or hit the deadline) and surfaced an
    /// error to the caller.
    pub failures: Arc<Counter>,
}

/// Build (or re-resolve — the registry dedupes) the metric handles for
/// shard `shard` of the fleet.
pub fn fleet_shard_metrics(shard: usize) -> FleetShardMetrics {
    let r = Registry::global();
    let label = shard.to_string();
    let labels: &[(&str, &str)] = &[("shard", &label)];
    FleetShardMetrics {
        rpc_seconds: r.histogram(
            "topmine_fleet_rpc_seconds",
            "Fleet shard RPC round-trip latency in seconds",
            labels,
            1e-9,
        ),
        bytes_sent: r.counter(
            "topmine_fleet_bytes_sent_total",
            "Bytes written to fleet shard connections",
            labels,
        ),
        bytes_received: r.counter(
            "topmine_fleet_bytes_received_total",
            "Bytes read from fleet shard connections",
            labels,
        ),
        frames_sent: r.counter(
            "topmine_fleet_frames_sent_total",
            "Frames written to fleet shard connections",
            labels,
        ),
        frames_received: r.counter(
            "topmine_fleet_frames_received_total",
            "Frames read from fleet shard connections",
            labels,
        ),
        retries: r.counter(
            "topmine_fleet_retries_total",
            "Fleet RPC attempts re-sent after a retryable transport failure",
            labels,
        ),
        reconnects: r.counter(
            "topmine_fleet_reconnects_total",
            "Fresh fleet shard connections dialed after the first",
            labels,
        ),
        failures: r.counter(
            "topmine_fleet_failures_total",
            "Fleet RPCs that surfaced an error after exhausting retries",
            labels,
        ),
    }
}

/// Static status label for the statuses this server emits (bounds label
/// cardinality and avoids a per-request allocation).
fn status_label(status: u16) -> &'static str {
    match status {
        200 => "200",
        400 => "400",
        404 => "404",
        405 => "405",
        408 => "408",
        413 => "413",
        429 => "429",
        431 => "431",
        501 => "501",
        503 => "503",
        504 => "504",
        505 => "505",
        _ => "other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_labels_are_bounded() {
        assert_eq!(ServeMetrics::route_label("/infer"), "/infer");
        assert_eq!(ServeMetrics::route_label("/metrics"), "/metrics");
        assert_eq!(ServeMetrics::route_label("/nope"), "other");
    }

    #[test]
    fn status_labels_are_bounded() {
        assert_eq!(status_label(200), "200");
        assert_eq!(status_label(418), "other");
    }

    #[test]
    fn recording_reaches_the_global_registry() {
        let m = serve_metrics();
        m.stage(Stage::FoldIn).record(1_000);
        m.observe_request("/infer", 200, std::time::Duration::from_micros(5));
        let text = Registry::global().render();
        assert!(text.contains("topmine_request_stage_seconds_bucket{stage=\"fold_in\""));
        assert!(text.contains("topmine_http_requests_total{route=\"/infer\",status=\"200\"}"));
        assert!(text.contains("topmine_http_request_seconds_count{route=\"/infer\"}"));
    }
}
