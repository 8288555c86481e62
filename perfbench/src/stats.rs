//! The benchmark's own arithmetic: percentiles, medians, histogram means
//! and the `/proc` memory parser. Kept free of I/O so every rule is unit
//! tested.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; with fewer, the tail is not measured.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The 1-based ceil rank of quantile `q` in `n` sorted samples: the
/// smallest rank with at least a `q` share of the samples at or below it.
pub fn ceil_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The `q` quantile of ascending `sorted` samples by the ceil-rank rule,
/// or `None` when fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn reportable_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ceil_rank(sorted.len(), q);
    (sorted.len() - rank >= MIN_SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// The median of a handful of repetitions (set-up or restart times): the
/// middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `part / whole`, 0 when `whole` is 0 (a layer the workload never used).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// One histogram series as the `metrics` op reports it: the exact sum and
/// count of every observation (bucket counts are not needed for a mean).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramTotals {
    /// Sum of all observations.
    pub sum: f64,
    /// Number of observations.
    pub count: f64,
}

impl HistogramTotals {
    /// The observations made between two scrapes of a monotone series.
    pub fn since(&self, earlier: &HistogramTotals) -> HistogramTotals {
        HistogramTotals {
            sum: self.sum - earlier.sum,
            count: self.count - earlier.count,
        }
    }

    /// Mean observation, 0 when nothing was observed.
    pub fn mean(&self) -> f64 {
        ratio(self.sum, self.count)
    }
}

/// The peak resident set (`VmHWM`) in kB from a `/proc/<pid>/status` text.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        let mut fields = rest.split_whitespace();
        let value = fields.next()?.parse().ok()?;
        (fields.next() == Some("kB")).then_some(value)
    })
}

/// CPU time stolen by the hypervisor and total CPU time, in ticks, from
/// the aggregate `cpu` line of a `/proc/stat` text.
pub fn parse_cpu_steal(stat: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = stat
        .lines()
        .find(|line| line.starts_with("cpu "))?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_rank_rounds_up_and_stays_in_range() {
        assert_eq!(ceil_rank(100, 0.5), 50);
        assert_eq!(ceil_rank(101, 0.5), 51);
        assert_eq!(ceil_rank(100, 0.99), 99);
        assert_eq!(ceil_rank(10, 0.0), 1);
        assert_eq!(ceil_rank(10, 1.0), 10);
        assert_eq!(ceil_rank(1, 0.9), 1);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sorted: Vec<f64> = (1..=20).map(f64::from).collect();
        // Rank 10 of 20 leaves exactly 10 beyond: reported.
        assert_eq!(reportable_percentile(&sorted, 0.5), Some(10.0));
        // Rank 18 leaves 2 beyond: withheld.
        assert_eq!(reportable_percentile(&sorted, 0.9), None);
        let sorted: Vec<f64> = (1..=19).map(f64::from).collect();
        // Rank 10 of 19 leaves 9 beyond: withheld.
        assert_eq!(reportable_percentile(&sorted, 0.5), None);
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(reportable_percentile(&sorted, 0.99), Some(990.0));
        assert_eq!(reportable_percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn histogram_mean_from_scraped_sum_and_count() {
        let before = HistogramTotals {
            sum: 1.5,
            count: 10.0,
        };
        let after = HistogramTotals {
            sum: 4.5,
            count: 16.0,
        };
        let window = after.since(&before);
        assert_eq!(window.count, 6.0);
        assert_eq!(window.mean(), 0.5);
        assert_eq!(HistogramTotals::default().mean(), 0.0);
    }

    #[test]
    fn steal_parser_reads_the_aggregate_line() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 18 0 0\n";
        assert_eq!(parse_cpu_steal(stat), Some((35, 1000)));
        assert_eq!(parse_cpu_steal("cpu0 1 2 3\n"), None);
        assert_eq!(parse_cpu_steal("cpu  1 2 3\n"), None);
    }

    #[test]
    fn vmhwm_parser_reads_kilobytes() {
        let status = "Name:\tserve\nVmPeak:\t  123456 kB\nVmHWM:\t   40960 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(40960));
        assert_eq!(parse_vmhwm_kb("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t junk kB\n"), None);
    }
}
