//! The metric vocabulary, what one benchmark run measured, and how it is
//! printed.

use std::fmt::Write as _;

use crate::stats::{median, spread};

/// End-to-end metrics, in output order, with their units. Every workload
/// reports all of them with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, in output order, with their units. Every workload
/// reports all of them with tracing on; a layer the workload does not
/// reach from outside reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("cache.probes", "count"),
    ("cache.scans", "count"),
    ("cache.hits", "count"),
    ("cache.fills", "count"),
    ("cache.evictions", "count"),
    ("cache.invalidations", "count"),
    ("cache.fused_probes", "count"),
    ("cache.hint_hits", "count"),
    ("cache.empty_skips", "count"),
    ("cache.stripe_probes", "count"),
    ("cache.scans_per_event", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("sim.events", "count"),
    ("sim.cycles", "cycles"),
    ("soc.invocations", "count"),
    ("soc.self_s", "s"),
    ("soc.ns_per_event", "ns"),
    ("core.decide.calls", "count"),
    ("core.decide_s", "s"),
    ("core.observe.calls", "count"),
    ("core.observe_s", "s"),
    ("core.share", "ratio"),
    ("exp.cells", "count"),
    ("exp.cell_s.p50", "s"),
    ("exp.cell_s.max", "s"),
    ("exp.busy_share", "ratio"),
    ("fleet.overhead_ms_per_cell", "ms"),
    ("fleet.leases", "count"),
    ("fleet.speculative", "count"),
    ("fleet.duplicates", "count"),
    ("serve.batches", "count"),
    ("serve.errors", "count"),
    ("serve.mismatches", "count"),
    ("serve.conn_errors", "count"),
    ("serve.batch_p50_us", "us"),
    ("serve.batch_p99_us", "us"),
    ("mem.offchip", "count"),
    ("mem.true_dram", "count"),
    ("workloads.generate_s", "s"),
    ("trace.overhead", "ratio"),
    ("paper.speedup_gap", "x"),
    ("paper.offchip_gap", "ratio"),
];

/// The unit of a metric in either list.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Per-rep samples behind `value`, when it is their median.
    pub samples: Vec<f64>,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells or decisions).
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Measured metrics, end-to-end and per-layer.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (reference numbers, caveats).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts `n` operations, `bad` of which failed their check.
    pub fn check(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Records a single-valued metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            value,
            samples: Vec::new(),
        });
    }

    /// Records the median of per-rep `samples`.
    pub fn median_of(&mut self, name: &'static str, samples: Vec<f64>) {
        self.metrics.push(Metric {
            name,
            value: median(&samples),
            samples,
        });
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable `name=value unit` lines, each median with its
    /// sample count and rep-to-rep spread (interquartile range over
    /// median).
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for m in &self.metrics {
            let mut line = format!("{}={} {}", m.name, m.value, unit_of(m.name));
            if !m.samples.is_empty() {
                let _ = write!(
                    line,
                    "  (samples={} spread={:.4})",
                    m.samples.len(),
                    spread(&m.samples)
                );
            }
            out.push(line);
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        out.push(format!(
            "error_rate={rate} ratio  ({} of {} operations failed)",
            self.failed, self.attempted
        ));
        out.extend(self.notes.iter().cloned());
        out
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, where `metrics` is the end-to-end set untraced and
    /// the per-layer set traced.
    pub fn json(&self, traced: bool) -> String {
        let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut body = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
        )
    }
}
