//! Order statistics over timing samples.

/// Nearest-rank percentile of `samples` (any order): the smallest sample
/// such that at least `p` percent of all samples are at or below it.
/// Panics on an empty slice or a `p` outside `(0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Rounded to the nearest 1e-9 first so that e.g. 90% of 100 is rank 90,
    // not 91 through a floating-point carry.
    let exact = (p / 100.0 * n as f64 * 1e9).round() / 1e9;
    (exact.ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The median (nearest rank, so the lower middle of an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The mean of the middle half of `samples` (a quarter dropped from each
/// end; everything when there are fewer than four). Unlike the median it
/// moves smoothly when samples fall into two clusters in varying shares.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The highest percentile of `ladder` (ascending) that leaves at least ten
/// samples beyond it among `n`; the first rung when none does.
pub fn tail_percentile(n: usize, ladder: &[f64]) -> f64 {
    ladder
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= 10)
        .unwrap_or(ladder[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.1), 1.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), 9.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        assert_eq!(percentile(&[3.5], 1.0), 3.5);
        assert_eq!(percentile(&[3.5], 99.0), 3.5);
    }

    #[test]
    fn rank_of_exact_fractions_does_not_carry() {
        assert_eq!(rank(100, 90.0), 90);
        assert_eq!(rank(1000, 99.0), 990);
        assert_eq!(rank(3, 50.0), 2);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ladder = [50.0, 90.0, 99.0];
        assert_eq!(tail_percentile(99, &ladder), 50.0);
        assert_eq!(tail_percentile(100, &ladder), 90.0);
        assert_eq!(tail_percentile(999, &ladder), 90.0);
        assert_eq!(tail_percentile(1000, &ladder), 99.0);
        assert_eq!(tail_percentile(5, &ladder), 50.0);
        assert_eq!(beyond(100, 90.0), 10);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_from_each_end() {
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]),
            3.5
        );
        assert_eq!(interquartile_mean(&[2.0, 4.0]), 3.0);
        // Two clusters: the median jumps between them as their shares
        // cross one half, the interquartile mean moves by a fraction.
        let mix = |slow: usize| {
            let v: Vec<f64> = (0..20).map(|i| if i < slow { 7.0 } else { 4.0 }).collect();
            (median(&v), interquartile_mean(&v))
        };
        let (m9, q9) = mix(9);
        let (m11, q11) = mix(11);
        assert_eq!((m9, m11), (4.0, 7.0));
        assert!((q11 - q9).abs() < 1.0, "{q9} {q11}");
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_is_refused() {
        percentile(&[], 50.0);
    }
}
