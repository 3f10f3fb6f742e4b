//! What one workload run produced, and how it is printed: a table of
//! metrics for people, then one JSON line as the last line of stdout.

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (requests, runs, spans, calls).
    pub samples: usize,
    /// How the value was taken, when the name does not say (e.g. which
    /// percentile stood in for p99).
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: `figures` runs, or cells sent to the daemon.
    pub attempted: u64,
    /// Operations that failed, were refused, or gave a wrong answer.
    pub failed: u64,
    /// Output-check failures; any makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Records a failed check, keeping the first few messages.
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            eprintln!("check failed: {msg}");
        }
        self.errors.push(msg);
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// The human-readable table.
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!(
            "{workload}: {} attempted, {} failed, {}\n",
            self.attempted,
            self.failed,
            if self.correct() {
                "all output checks passed".to_string()
            } else {
                format!("{} output check(s) FAILED", self.errors.len())
            }
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<28} {:>16.6} {:<9} n={}{}\n",
                m.name,
                m.value,
                m.unit,
                m.samples,
                if m.note.is_empty() {
                    String::new()
                } else {
                    format!("  ({})", m.note)
                }
            ));
        }
        out
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A JSON number with every digit the value has; non-finite values,
/// which JSON cannot hold, become 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.push(Metric::new("p50_ms", "ms", 1.203456789, 10));
        let v = Json::parse(&o.json()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").and_then(|m| m.get("p50_ms")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.203456789));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
        o.error("boom".into());
        assert!(o.json().starts_with("{\"correct\":false"));
    }
}
