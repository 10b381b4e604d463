//! The metric catalogue and the result line.

use crate::stats::Tally;

/// Metrics of an untraced run, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of a traced run, with their units.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("matrix.load_ms", "ms"),
    ("core.index_build_ms", "ms"),
    ("core.fingerprint_ms", "ms"),
    ("core.enumerate_ms", "ms"),
    ("core.nodes", "count"),
    ("core.clusters", "count"),
    ("core.ns_per_node", "ns"),
    ("core.postprocess_ms", "ms"),
    ("core.teardown_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.seal_ms", "ms"),
    ("store.bytes", "bytes"),
    ("store.open_ms", "ms"),
    ("store.query_us", "us"),
    ("store.merge_ms", "ms"),
    ("serve.gene_p50_us", "us"),
    ("serve.cond_top_p50_us", "us"),
    ("serve.by_id_p50_us", "us"),
    ("serve.p99_us", "us"),
    ("serve.socket_us", "us"),
    ("cluster.single_node_ms", "ms"),
    ("cluster.overhead_ms", "ms"),
    ("cluster.worker_ms", "ms"),
    ("cluster.leases_granted", "count"),
    ("cluster.renewals", "count"),
    ("cluster.reassignments", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_ms", "ms"),
];

/// The result of one run: its checked ops and its metrics.
pub struct Report {
    attempted: u64,
    failed: u64,
    catalogue: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Report {
    /// An empty report that must end up holding every metric of
    /// `catalogue`.
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Report {
        Report {
            attempted: 0,
            failed: 0,
            catalogue,
            values: vec![None; catalogue.len()],
        }
    }

    /// Counts the ops of `tally` as checked ops of this run.
    pub fn count(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
    }

    /// Sets metric `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .catalogue
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values[i] = Some(value);
    }

    /// The result line, or why there is none: a metric missing or not a
    /// finite number, or no op attempted.
    pub fn to_json(&self) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no op was attempted".into());
        }
        let mut metrics = Vec::new();
        for ((name, unit), value) in self.catalogue.iter().zip(&self.values) {
            match value {
                Some(v) if v.is_finite() => metrics.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                )),
                Some(v) => return Err(format!("metric {name} is {v}")),
                None => return Err(format!("metric {name} was not measured")),
            }
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let declared = include_str!("../../BENCHMARK.json");
        let mut n = 0;
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
            n += 1;
        }
        assert_eq!(declared.matches("\"unit\"").count(), n);
    }

    #[test]
    fn the_result_line_needs_every_metric_and_a_checked_op() {
        let mut report = Report::new(&END_TO_END);
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        assert!(report.to_json().is_err(), "no op attempted");
        let mut tally = Tally::default();
        tally.record(1.0, Ok(()));
        tally.record(1.0, Err("HTTP 503".into()));
        report.count(&tally);
        let line = report.to_json().unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        report.set("setup_s", f64::NAN);
        assert!(report.to_json().is_err());
    }
}
