//! Percentiles, the metric list, and the result line.

use std::fmt::Write as _;

/// The `q`-quantile (0 < q ≤ 1) of `samples` by nearest rank; NaN
/// (written as `null`) when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the figure (1 for a single measurement or a count).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// A latency figure at quantile `q` in milliseconds, or `None` when
/// fewer than ten samples lie beyond it.
pub fn latency_ms(name: &str, secs: &[f64], q: f64) -> Option<Metric> {
    let beyond = (secs.len() as f64 * (1.0 - q)).floor() as usize;
    if secs.is_empty() || (q > 0.5 && beyond < 10) {
        return None;
    }
    Some(Metric::new(name, quantile(secs, q) * 1e3, "ms", secs.len()))
}

/// Prints the human-readable table, one metric a line.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("== {title}");
    for m in metrics {
        println!(
            "  {:<44} {:>14.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: every digit as measured; non-finite values (which no
/// metric should produce) become `null` so the line stays valid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// One span as a JSON object (the span dump format).
pub fn span_json(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

pub fn quote(s: &str) -> String {
    json_str(s)
}
