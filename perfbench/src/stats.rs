//! Percentiles, span self time and the aggregations the report is built
//! from.

use std::collections::HashMap;

/// The minimum number of samples that must lie strictly above a reported
/// percentile: a tail statistic resting on fewer points is noise.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank percentile of `samples` (`q` in `(0, 1]`): the smallest
/// sample with at least a `q` share of all samples at or below it.
///
/// Returns `None` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "percentile rank must lie in (0, 1]");
    let sorted = sorted(samples);
    let rank = nearest_rank(sorted.len(), q)?;
    Some(sorted[rank - 1])
}

/// [`percentile`], but only when at least [`MIN_TAIL_SAMPLES`] samples lie
/// strictly above it — the rule for reporting a tail percentile at all.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let value = percentile(samples, q)?;
    let beyond = samples.iter().filter(|&&s| s > value).count();
    (beyond >= MIN_TAIL_SAMPLES).then_some(value)
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some(0.5 * (sorted[n / 2 - 1] + sorted[n / 2])),
    }
}

/// The largest sample divided by the mean sample: 1 when every parallel
/// job takes equally long, higher when the slowest one holds the others.
pub fn imbalance(samples: &[f64]) -> Option<f64> {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (!samples.is_empty() && mean > 0.0).then(|| max / mean)
}

fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    (n > 0).then(|| ((q * n as f64).ceil() as usize).clamp(1, n))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A recorded span: a named interval of one trace, linked to the span
/// that caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span within its trace.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The layer boundary this span times (`vqe.optimizer.step`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the trace's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span, in input order: its duration minus the part of
/// its interval that its child spans cover (overlapping children count
/// once, and child time outside the parent's interval not at all).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children_of: HashMap<usize, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children_of.entry(p).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|parent| {
            let mut children: Vec<(u64, u64)> = children_of
                .get(&parent.id)
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            children.sort_unstable();
            let mut covered = 0;
            let mut reach = parent.start_ns;
            for (a, b) in children {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            parent.duration_ns() - covered
        })
        .collect()
}

/// Busy and self time (seconds) and span count of every span named `name`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Summed durations.
    pub busy_s: f64,
    /// Summed self times.
    pub self_s: f64,
    /// Number of spans.
    pub calls: u64,
}

impl SpanTotals {
    /// Totals of the spans called `name`.
    pub fn of(spans: &[Span], name: &str) -> SpanTotals {
        let selfs = self_times_ns(spans);
        let mut t = SpanTotals::default();
        for (s, self_ns) in spans.iter().zip(selfs) {
            if s.name == name {
                t.busy_s += s.duration_ns() as f64 * 1e-9;
                t.self_s += self_ns as f64 * 1e-9;
                t.calls += 1;
            }
        }
        t
    }

    /// Adds another trace's totals.
    pub fn add(&mut self, other: SpanTotals) {
        self.busy_s += other.busy_s;
        self.self_s += other.self_s;
        self.calls += other.calls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent.is_none() { "step" } else { "eval" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&v, 0.01), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p90 of 1..=99 is 90: only 9 samples lie above it.
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&short, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&short, 0.9), None);
        // p90 of 1..=100 is 90 with exactly 10 above.
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&enough, 0.9), Some(90.0));
        // Ties at the percentile are not "beyond" it.
        let mut tied = vec![5.0; 95];
        tied.extend([9.0; 5]);
        assert_eq!(percentile(&tied, 0.9), Some(5.0));
        assert_eq!(tail_percentile(&tied, 0.9), None);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(imbalance(&[1.0, 1.0]), Some(1.0));
        assert_eq!(imbalance(&[1.0, 3.0]), Some(1.5));
        assert_eq!(imbalance(&[]), None);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 40]);
    }

    #[test]
    fn self_time_counts_overlapping_and_overhanging_children_once() {
        let spans = [
            span(0, None, 100, 200),
            // Overlapping children: [120, 160) ∪ [140, 180) covers 60.
            span(1, Some(0), 120, 160),
            span(2, Some(0), 140, 180),
            // Overhangs the parent's end: only [190, 200) is inside.
            span(3, Some(0), 190, 230),
            // Not a child: ignored.
            span(4, None, 150, 170),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn span_totals_aggregate_by_name() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 0, 80),
            span(2, None, 100, 150),
            span(3, Some(2), 110, 150),
        ];
        let step = SpanTotals::of(&spans, "step");
        assert_eq!(step.calls, 2);
        assert!((step.busy_s - 150e-9).abs() < 1e-18);
        assert!((step.self_s - 30e-9).abs() < 1e-18);
        let mut eval = SpanTotals::of(&spans, "eval");
        assert!((eval.busy_s - eval.self_s).abs() < 1e-18);
        eval.add(step);
        assert_eq!(eval.calls, 4);
    }
}
