//! The run's result: a human-readable table, then one JSON line.

use crate::check::Checks;
use crate::stats::Summary;
use crate::trace::CallStats;

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (publishes).
    pub attempted: u64,
    /// Publish errors + `waitfor` timeouts + messages never stabilized.
    pub failed: u64,
    /// Metrics for the final JSON line.
    pub metrics: Vec<Metric>,
    /// Extra lines for the table (metric aliases, sample counts).
    pub notes: Vec<String>,
    /// Output checks.
    pub checks: Checks,
}

impl Report {
    /// Add a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Add a free-form table line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Add the four metrics of a timed call: `.calls`, `.self_ms`,
    /// `.p50_ns`, `.p99_ns`.
    pub fn put_calls(&mut self, name: &str, s: CallStats) {
        self.put(&format!("{name}.calls"), s.calls as f64, "count");
        self.put(&format!("{name}.self_ms"), s.self_ms, "ms");
        self.put(&format!("{name}.p50_ns"), nan_zero(s.p50_ns), "ns");
        self.put(&format!("{name}.p99_ns"), nan_zero(s.p99_ns), "ns");
    }

    /// A table line for a latency summary, with its sample count and
    /// the highest percentile that has ten samples beyond it.
    pub fn note_summary(&mut self, what: &str, unit: &str, s: &Summary) {
        let tail = match s.tail {
            Some((p, v)) => format!(" p{p}={}", fmt(v)),
            None => String::new(),
        };
        self.note(format!(
            "{what}: n={} p50={} p99={}{tail} max={} {unit}",
            s.n,
            fmt(s.p50),
            fmt(s.p99),
            fmt(s.max)
        ));
    }

    /// Print the table, then the JSON result as the last stdout line.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) {
        println!(
            "# stabbench workload={workload} seed={seed} trace={}",
            trace as u8
        );
        for line in &self.notes {
            println!("#   {line}");
        }
        for m in &self.metrics {
            println!("{:<40} {:>18} {}", m.name, fmt(m.value), m.unit);
        }
        for f in self.checks.messages() {
            println!("# CHECK FAILED: {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.ok(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn nan_zero(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v
    }
}

fn fmt(v: f64) -> String {
    if v.is_infinite() {
        "inf".into()
    } else {
        format!("{v:.4}")
    }
}

/// JSON has no infinity: a failed operation's latency prints as the
/// largest finite double, which still ranks it above everything else.
fn json_num(v: f64) -> String {
    if v.is_nan() {
        "0".into()
    } else if v.is_infinite() {
        format!("{:e}", f64::MAX)
    } else {
        format!("{v}")
    }
}
