//! What one run reports, and the JSON line that ends its output.

use crate::stats::Latencies;

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The outcome of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every checked output was correct.
    pub correct: bool,
    /// Operations issued in the timed region.
    pub attempted: u64,
    /// Operations that returned an error or were refused.
    pub failed: u64,
    /// The end-to-end metrics (untraced runs) or per-layer metrics
    /// (traced runs).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Adds, for each latency class `(metric, what, samples)`, the median
    /// as `metric` and a [`Self::note_latency`] line. The tail figures stay
    /// out of the metrics: on a shared host they vary from run to run by
    /// more than any useful bound. A class with fewer than 20 samples fails
    /// the run's checks.
    pub fn latencies(&mut self, classes: &[(&'static str, &str, &Latencies)]) {
        for &(metric, what, samples) in classes {
            match self.note_latency(what, samples) {
                Some(p50_us) => self.metric(metric, "us", p50_us),
                None => self.mismatch(format!("too few {what} samples: {}", samples.len())),
            }
        }
    }

    /// Notes a latency class: the sample count, the median, the 99th
    /// percentile and the highest percentile with ten samples beyond it.
    /// Returns the median, or `None` with too few samples.
    pub fn note_latency(&mut self, what: &str, samples: &Latencies) -> Option<f64> {
        let s = samples.summary()?;
        let p99 = s
            .p99_us
            .map_or_else(|| "n/a (n < 1000)".into(), |v| format!("{v:.2} us"));
        let tail = if s.tail_pm == 990 {
            String::new()
        } else {
            format!(", p{} {:.2} us", f64::from(s.tail_pm) / 10.0, s.tail_us)
        };
        self.notes.push(format!(
            "{what}: n={} p50 {:.2} us, p99 {p99}{tail}",
            s.n, s.p50_us
        ));
        Some(s.p50_us)
    }

    /// Notes a throughput: `what` per second of busy time.
    pub fn throughput(&mut self, what: &str, per_s: f64) {
        self.notes.push(format!("{what} per second: {per_s:.0}"));
    }

    /// Records a failed output check.
    pub fn mismatch(&mut self, what: String) {
        self.correct = false;
        if self
            .notes
            .iter()
            .filter(|n| n.starts_with("MISMATCH"))
            .count()
            < 8
        {
            self.notes.push(format!("MISMATCH {what}"));
        }
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; such a value is reported as `null`, which
/// the reader rejects rather than misreads.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        o.metric("setup_s", "s", 0.5);
        o.metric("get_p50_us", "us", 2.25);
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"get_p50_us\": {\"value\": 2.25, \"unit\": \"us\"}}}"
        );
        o.mismatch("x".into());
        assert!(!o.correct);
        assert_eq!(json_number(f64::NAN), "null");
    }
}
