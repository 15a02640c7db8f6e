//! Turning workload outcomes into the reported metrics and the final JSON
//! line.

use crate::spans::{self, SpanRec};
use crate::stats::{median, percentile, Summary};
use crate::Outcome;
use std::collections::BTreeMap;

/// A metric as printed: value and unit.
pub type Metrics = BTreeMap<String, (f64, String)>;

/// The end-to-end metrics every workload reports (the `--trace 0` set).
pub fn end_to_end(out: &Outcome, peak_rss_mb: f64) -> Metrics {
    let mut m = Metrics::new();
    let mut put = |k: &str, v: f64, u: &str| {
        m.insert(k.to_string(), (v, u.to_string()));
    };
    put("setup_s", median(&out.setup_s), "s");
    put("peak_rss_mb", peak_rss_mb, "MB");
    put("pass_s", median(&out.pass_s), "s");
    put("throughput_per_s", out.throughput, "1/s");
    put("op_p50_ms", median(&out.op_ms), "ms");
    m
}

/// How a per-layer time is folded from its spans.
#[derive(Debug, Clone, Copy)]
enum Fold {
    /// Median span duration.
    Median,
    /// Total span time divided by the number of timed passes.
    PerPass,
    /// Total span time divided by the number of set-up repeats.
    PerSetup,
}

/// Per-layer times, in seconds, read from the benchmark's own spans:
/// (metric, span name, fold).
const SPAN_METRICS: [(&str, &str, Fold); 7] = [
    ("video.trace_s", "video.trace", Fold::Median),
    ("core.fit_s", "core.fit", Fold::Median),
    ("core.pd_project_s", "core.pd_project", Fold::PerSetup),
    ("is.valley_s", "is.valley_search", Fold::PerPass),
    ("is.estimator_new_s", "is.estimator_new", Fold::PerPass),
    ("is.final_s", "is.run_to_relative_error", Fold::PerPass),
    (
        "queue.lindley_s",
        "queue.tail_curve_from_path",
        Fold::PerPass,
    ),
];

/// Per-layer metrics of one traced workload run: those read from its
/// spans, then those the workload recorded itself.
pub fn layer_metrics(out: &Outcome, spans: &[SpanRec]) -> Metrics {
    let mut m = Metrics::new();
    for (metric, span, fold) in SPAN_METRICS {
        let durs = spans::durations_s(spans, span);
        if durs.is_empty() {
            continue;
        }
        let total: f64 = durs.iter().sum();
        let v = match fold {
            Fold::Median => median(&durs),
            Fold::PerPass => total / out.pass_s.len().max(1) as f64,
            Fold::PerSetup => total / out.setup_s.len().max(1) as f64,
        };
        m.insert(metric.to_string(), (v, "s".to_string()));
    }
    for (k, v, u) in &out.layers {
        m.insert(k.clone(), (*v, u.clone()));
    }
    m
}

/// Human-readable lines: every metric the workload names, with the sample
/// counts behind each timing.
pub fn human_lines(workload: &str, out: &Outcome, e2e: &Metrics) -> Vec<String> {
    let mut lines = vec![format!("workload {workload}")];
    for (k, (v, u)) in e2e {
        lines.push(format!("  {k:<28} {v:>14.6} {u}"));
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    lines.push(format!(
        "  {:<28} {failed_share:>14.6} ratio ({} of {} ops)",
        "failed_share", out.failed, out.attempted
    ));
    for (k, v, u) in &out.headlines {
        lines.push(format!("  {k:<28} {v:>14.6} {u}"));
    }
    let s = Summary::of(&out.op_ms);
    lines.push(format!(
        "  op latency: p50 {:.3} ms, p{} {:.3} ms over n = {} ops",
        s.p50, s.tail_p, s.tail, s.n
    ));
    for (what, xs) in [("pass", &out.pass_s), ("set-up", &out.setup_s)] {
        lines.push(format!(
            "  {what} times (s): n = {}, min {:.4}, median {:.4}, max {:.4}",
            xs.len(),
            percentile(xs, 0.0),
            median(xs),
            percentile(xs, 100.0)
        ));
    }
    for f in &out.failures {
        lines.push(format!("  CHECK FAILED: {f}"));
    }
    lines
}

/// The final JSON line.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, u))| {
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_string()
            };
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut m = Metrics::new();
        m.insert("setup_s".into(), (0.8127, "s".into()));
        m.insert("x".into(), (f64::NAN, "ms".into()));
        let line = json_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"x\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }
}
