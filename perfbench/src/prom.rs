//! Reading the servers' `GET /metrics` (Prometheus text format) and taking
//! deltas between two scrapes. A monotone series that goes down means the
//! process restarted or a counter was reset between scrapes; the delta
//! then fails loudly instead of reporting a negative or wrapped count.

use std::collections::BTreeMap;

/// One scrape: series key (name plus label block, exactly as rendered) to
/// value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(pub BTreeMap<String, f64>);

/// Gauges the serving stack renders that only ever grow.
const MONOTONE_GAUGES: [&str; 3] = [
    "topmine_cache_hits",
    "topmine_cache_misses",
    "topmine_uptime_seconds",
];

fn series_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// Counters and histogram parts (`_total`, `_sum`, `_count`, `_bucket`)
/// plus the monotone gauges may never decrease between scrapes.
fn is_monotone(key: &str) -> bool {
    let name = series_name(key);
    name.ends_with("_total")
        || name.ends_with("_sum")
        || name.ends_with("_count")
        || name.ends_with("_bucket")
        || MONOTONE_GAUGES.contains(&name)
}

pub fn parse(text: &str) -> Result<Scrape, String> {
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // The value follows the last space (label values never contain
        // one in this exporter's output).
        let (key, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("metrics line {}: no value: {line:?}", n + 1))?;
        let value = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v
                .parse::<f64>()
                .map_err(|e| format!("metrics line {}: {e}: {line:?}", n + 1))?,
        };
        out.insert(key.to_string(), value);
    }
    Ok(Scrape(out))
}

/// The change between two scrapes of one process.
#[derive(Debug, Clone, Default)]
pub struct Delta(pub BTreeMap<String, f64>);

/// `after − before` for monotone series (series absent before count from
/// 0), the `after` value for gauges. Fails when a monotone series
/// decreased or disappeared.
pub fn delta(before: &Scrape, after: &Scrape) -> Result<Delta, String> {
    let mut out = BTreeMap::new();
    for key in before.0.keys() {
        if is_monotone(key) && !after.0.contains_key(key) {
            return Err(format!(
                "counter reset: series {key} disappeared between scrapes"
            ));
        }
    }
    for (key, &new) in &after.0 {
        if !is_monotone(key) {
            out.insert(key.clone(), new);
            continue;
        }
        let old = before.0.get(key).copied().unwrap_or(0.0);
        if new < old {
            return Err(format!(
                "counter reset: series {key} went from {old} to {new} between scrapes"
            ));
        }
        out.insert(key.clone(), new - old);
    }
    Ok(Delta(out))
}

impl Delta {
    /// Value of one exact series key, 0 when absent.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Sum over every series of metric `name` whose label block contains
    /// `label` (e.g. `stage="parse"`; empty matches all).
    pub fn sum(&self, name: &str, label: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| series_name(k) == name && k.contains(label))
            .map(|(_, v)| v)
            .sum()
    }

    /// Per-label-block values of metric `name`, in key order.
    pub fn each(&self, name: &str) -> Vec<(String, f64)> {
        self.0
            .iter()
            .filter(|(k, _)| series_name(k) == name)
            .map(|(k, v)| (k[name.len()..].to_string(), *v))
            .collect()
    }

    /// Mean of a histogram in its rendered unit: Δsum / Δcount, 0 when
    /// nothing was observed.
    pub fn hist_mean(&self, name: &str, label: &str) -> f64 {
        crate::stats::ratio(
            self.sum(&format!("{name}_sum"), label),
            self.sum(&format!("{name}_count"), label),
        )
    }

    /// Total observed value of a histogram.
    pub fn hist_sum(&self, name: &str, label: &str) -> f64 {
        self.sum(&format!("{name}_sum"), label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP topmine_infer_documents_total Documents run through fold-in inference
# TYPE topmine_infer_documents_total counter
topmine_infer_documents_total 10
topmine_request_stage_seconds_bucket{stage=\"parse\",le=\"0.000001\"} 3
topmine_request_stage_seconds_sum{stage=\"parse\"} 0.5
topmine_request_stage_seconds_count{stage=\"parse\"} 4
topmine_request_stage_seconds_sum{stage=\"fold_in\"} 2
topmine_request_stage_seconds_count{stage=\"fold_in\"} 2
topmine_admission_queue_depth 3
topmine_cache_hits 5
";

    const AFTER: &str = "\
topmine_infer_documents_total 25
topmine_request_stage_seconds_bucket{stage=\"parse\",le=\"0.000001\"} 9
topmine_request_stage_seconds_bucket{stage=\"parse\",le=\"+Inf\"} 12
topmine_request_stage_seconds_sum{stage=\"parse\"} 1.5
topmine_request_stage_seconds_count{stage=\"parse\"} 12
topmine_request_stage_seconds_sum{stage=\"fold_in\"} 6
topmine_request_stage_seconds_count{stage=\"fold_in\"} 4
topmine_admission_queue_depth 1
topmine_cache_hits 9
topmine_fleet_bytes_sent_total{shard=\"0\"} 300
topmine_fleet_bytes_sent_total{shard=\"1\"} 100
";

    #[test]
    fn delta_of_counters_histograms_and_gauges() {
        let d = delta(&parse(BEFORE).unwrap(), &parse(AFTER).unwrap()).unwrap();
        assert_eq!(d.get("topmine_infer_documents_total"), 15.0);
        assert_eq!(
            d.sum("topmine_request_stage_seconds_count", "stage=\"parse\""),
            8.0
        );
        assert_eq!(
            d.hist_mean("topmine_request_stage_seconds", "stage=\"parse\""),
            0.125
        );
        assert_eq!(
            d.hist_mean("topmine_request_stage_seconds", "stage=\"fold_in\""),
            2.0
        );
        // Gauges report the latest value, monotone gauges their growth.
        assert_eq!(d.get("topmine_admission_queue_depth"), 1.0);
        assert_eq!(d.get("topmine_cache_hits"), 4.0);
        // A series first seen after the baseline counts from zero.
        assert_eq!(d.sum("topmine_fleet_bytes_sent_total", ""), 400.0);
        assert_eq!(d.each("topmine_fleet_bytes_sent_total").len(), 2);
        // Nothing observed: a zero mean, not NaN.
        assert_eq!(d.hist_mean("topmine_fleet_rpc_seconds", ""), 0.0);
    }

    #[test]
    fn a_counter_reset_fails_loudly() {
        let after = AFTER.replace(
            "topmine_infer_documents_total 25",
            "topmine_infer_documents_total 2",
        );
        let err = delta(&parse(BEFORE).unwrap(), &parse(&after).unwrap()).unwrap_err();
        assert!(
            err.contains("counter reset") && err.contains("topmine_infer_documents_total"),
            "{err}"
        );
        // A monotone gauge going down is a restart too.
        let after = AFTER.replace("topmine_cache_hits 9", "topmine_cache_hits 1");
        assert!(delta(&parse(BEFORE).unwrap(), &parse(&after).unwrap()).is_err());
        // So is a histogram series vanishing.
        let after = AFTER.replace(
            "topmine_request_stage_seconds_sum{stage=\"fold_in\"} 6\n",
            "",
        );
        assert!(delta(&parse(BEFORE).unwrap(), &parse(&after).unwrap()).is_err());
        // A gauge going down is not a reset.
        assert!(delta(&parse(BEFORE).unwrap(), &parse(AFTER).unwrap()).is_ok());
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(parse("topmine_x_total").is_err());
        assert!(parse("topmine_x_total abc").is_err());
        assert_eq!(parse("x_bucket{le=\"+Inf\"} +Inf").unwrap().0.len(), 1);
    }
}
