//! Order statistics for timing samples.

/// A tail percentile chosen by the "at least ten samples beyond it" rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value sits at (100 when no percentile has ten
    /// samples beyond it, i.e. fewer than 11 samples).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Number of samples strictly beyond the reported one.
    pub beyond: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the sample of ascending rank `n - 11`, at percentile
/// `(n - 10) / n`. With fewer than 11 samples no percentile qualifies and
/// the maximum is reported with `beyond == 0`. `None` for no samples.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let (rank, beyond) = if n > TAIL_BEYOND {
        (n - TAIL_BEYOND - 1, TAIL_BEYOND)
    } else {
        (n - 1, 0)
    };
    Some(Tail {
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        value: sorted[rank],
        samples: n,
        beyond,
    })
}

/// The median (mean of the two middle samples for an even count); 0 for
/// no samples.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helper's own sort is exercised.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn tail_keeps_exactly_ten_samples_beyond() {
        let t = tail(&ramp(100)).expect("samples");
        assert_eq!((t.value, t.samples, t.beyond), (90.0, 100, 10));
        assert!((t.percentile - 90.0).abs() < 1e-9);

        let t = tail(&ramp(60)).expect("samples");
        assert_eq!((t.value, t.beyond), (50.0, 10));
        assert!((t.percentile - 100.0 * 50.0 / 60.0).abs() < 1e-9);
        let beyond = ramp(60).iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_of_eleven_is_the_minimum_and_of_ten_the_maximum() {
        let t = tail(&ramp(11)).expect("samples");
        assert_eq!((t.value, t.beyond, t.samples), (1.0, 10, 11));
        let t = tail(&ramp(10)).expect("samples");
        assert_eq!((t.value, t.beyond, t.samples), (10.0, 0, 10));
        assert_eq!(t.percentile, 100.0);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
