//! The metric tables and the result rendering: human-readable lines
//! (inputs, phases, digests, every metric with its unit), then the one
//! JSON result object as the last line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("docs_per_s", "docs/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// a workload never reaches reads 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("corpus.load_s", "s"),
    ("corpus.tokens", "count"),
    ("corpus.vocab", "count"),
    ("miner.mine_s", "s"),
    ("miner.levels", "count"),
    ("miner.candidates", "count"),
    ("miner.frequent", "count"),
    ("miner.frequent_share", "ratio"),
    ("segmenter.segment_s", "s"),
    ("segmenter.phrases", "count"),
    ("segmenter.multiword_share", "ratio"),
    ("lda.init_s", "s"),
    ("lda.sweep_s", "s"),
    ("lda.sweep_p90_s", "s"),
    ("lda.dense_draw_share", "ratio"),
    ("lda.merge_delta_per_sweep", "count"),
    ("lda.snapshot_s", "s"),
    ("lda.allocs_per_sweep", "count"),
    ("lda.perplexity", "ppl"),
    ("bundle.freeze_s", "s"),
    ("bundle.save_s", "s"),
    ("bundle.load_s", "s"),
    ("bundle.mb", "MB"),
    ("infer.prepare_us", "us"),
    ("infer.segment_us", "us"),
    ("infer.gather_us", "us"),
    ("infer.fold_in_us", "us"),
    ("infer.tokens_per_doc", "count"),
    ("infer.oov_share", "ratio"),
    ("cache.hit_share", "ratio"),
    ("cache.lookup_us", "us"),
    ("dispatch.batch_docs", "count"),
    ("dispatch.gather_amortization", "ratio"),
    ("dispatch.rejected", "count"),
    ("dispatch.expired", "count"),
    ("dispatch.wait_us", "us"),
    ("http.parse_us", "us"),
    ("http.serialize_us", "us"),
    ("http.route_us", "us"),
    ("http.outside_us", "us"),
    ("http.p99_ms", "ms"),
    ("fleet.rpc_us", "us"),
    ("fleet.kb_per_doc", "KiB"),
    ("fleet.max_shard_byte_share", "ratio"),
    ("fleet.retries", "count"),
    ("fleet.failures", "count"),
    ("loadgen.sent", "count"),
    ("loadgen.ok", "count"),
    ("loadgen.failed", "count"),
    ("loadgen.connections", "count"),
    ("loadgen.cpu_share", "ratio"),
    ("run.error_rate", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// Sent, succeeded and failed requests (or operations) of one phase.
#[derive(Debug, Clone)]
pub struct PhaseCount {
    pub name: String,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    pub phases: Vec<PhaseCount>,
    /// Input properties and other context, printed before the metrics.
    pub inputs: Vec<(String, String)>,
    pub notes: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn input(&mut self, key: &str, value: impl std::fmt::Display) {
        self.inputs.push((key.to_string(), value.to_string()));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|m| m.0 == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn phase(&mut self, name: &str, sent: u64, ok: u64, failed: u64) {
        self.phases.push(PhaseCount {
            name: name.to_string(),
            sent,
            ok,
            failed,
        });
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// Render the human-readable lines and the final JSON line. An
    /// end-to-end metric that was not measured, or any non-finite value,
    /// is an error, never a silent default.
    pub fn render(mut self, traced: bool) -> Result<String, String> {
        let attempted = self.attempted();
        let failed = self.failed();
        if attempted == 0 {
            return Err("no operation was attempted".into());
        }
        self.metrics
            .entry("run.error_rate")
            .or_insert(failed as f64 / attempted as f64);
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut out = String::new();
        for (k, v) in &self.inputs {
            let _ = writeln!(out, "input {k} = {v}");
        }
        for p in &self.phases {
            let _ = writeln!(
                out,
                "phase {}: sent {} ok {} failed {}",
                p.name, p.sent, p.ok, p.failed
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "note {n}");
        }
        let mut json = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let _ = writeln!(out, "metric {name} = {value} {unit}");
            let _ = write!(
                json,
                "{}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}",
                if i > 0 { "," } else { "" }
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{json}}}}}",
            self.correct && failed == 0
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn untraced_render_requires_every_end_to_end_metric() {
        let mut r = Report {
            correct: true,
            ..Report::default()
        };
        r.phase("fit", 3, 3, 0);
        r.set("setup_s", 0.5);
        r.set("p50_ms", 1.25);
        r.set("docs_per_s", 100.0);
        assert!(r.render(false).unwrap_err().contains("peak_rss_mb"));

        let mut r = Report {
            correct: true,
            ..Report::default()
        };
        r.phase("fit", 3, 3, 0);
        for (name, _) in END_TO_END {
            r.set(name, 2.5);
        }
        let text = r.render(false).unwrap();
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"));
        assert!(last.contains("\"p50_ms\":{\"value\":2.5,\"unit\":\"ms\"}"));
        assert!(!last.contains("lda."));
    }

    #[test]
    fn failures_make_the_result_incorrect() {
        let mut r = Report {
            correct: true,
            ..Report::default()
        };
        r.phase("load", 10, 9, 1);
        let text = r.render(true).unwrap();
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\":false,\"attempted\":10,\"failed\":1,"));
        assert!(last.contains("\"run.error_rate\":{\"value\":0.1,"));
        assert!(last.contains("\"lda.sweep_s\":{\"value\":0,"));
    }
}
