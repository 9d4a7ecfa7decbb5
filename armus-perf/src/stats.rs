//! Sample summaries, metric collection and failure accounting.

use std::collections::BTreeMap;

/// Sorts samples for the percentile helpers.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of sorted samples: the middle one, or the mean of the middle two
/// (NaN if empty).
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The median of `num[i] / den[i]` over paired samples.
pub fn paired_ratio(num: &[f64], den: &[f64]) -> f64 {
    median(&sorted(num.iter().zip(den).map(|(n, d)| n / d).collect()))
}

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample (its percentile follows from the sample count). With
/// fewer than 11 samples no percentile qualifies and the largest sample
/// stands in; below 21 samples it falls under the median.
pub fn tail(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n if n < 11 => sorted[n - 1],
        n => sorted[n - 11],
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics with units, in name order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets `name` to `value` in `unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// Adds every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Why, for the first few failures.
    pub notes: Vec<String>,
}

impl Tally {
    const MAX_NOTES: usize = 16;

    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.fail_n(1, why);
    }

    /// Counts `n` failed operations with one reason.
    pub fn fail_n(&mut self, n: u64, why: impl Into<String>) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.notes.len() < Self::MAX_NOTES {
            self.notes.push(why.into());
        }
    }

    /// Adds `other`'s counts.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in &other.notes {
            if self.notes.len() < Self::MAX_NOTES {
                self.notes.push(note.clone());
            }
        }
    }
}

/// What one part of the benchmark hands back.
#[derive(Clone, Debug, Default)]
pub struct PartResult {
    /// Median set-up time of the part, in seconds.
    pub setup_s: f64,
    /// End-to-end metrics.
    pub end_to_end: Metrics,
    /// Per-layer metrics (only filled by traced runs).
    pub per_layer: Metrics,
    /// Failure accounting.
    pub tally: Tally,
    /// Sample counts behind the timings, for the record.
    pub samples: BTreeMap<String, usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let value = tail(&v);
        assert_eq!(value, 30.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert_eq!(median(&v), 20.5);
        assert_eq!(median(&v[..39]), 20.0);
        assert_eq!(tail(&[3.0]), 3.0);
    }

    #[test]
    fn paired_ratio_pairs_samples_by_index() {
        // A slow second round slows both of its passes; the pairs still
        // read 2.
        assert_eq!(paired_ratio(&[2.0, 8.0, 2.2], &[1.0, 4.0, 1.0]), 2.0);
    }
}
