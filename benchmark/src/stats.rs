//! Order statistics and the fuzzer's seed stream.

use crate::api::splitmix64;

/// Median of `values` (the mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile (0 < q < 1) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = q * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Samples strictly beyond the `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    (n as f64 * (1.0 - q)).floor() as usize
}

/// A percentile is reported as resolved only when at least ten samples
/// lie beyond it.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// Coefficient of variation in percent; 0 with fewer than two values.
pub fn cv_pct(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    var.sqrt() / mean * 100.0
}

/// The first `n` values of the splitmix64 stream seeded with `seed` —
/// the same stream `fuzz --seed` draws its case seeds from.
pub fn seed_stream(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n).map(|_| splitmix64(&mut state)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.95), 96.0);
        assert_eq!(percentile(&[10.0, 20.0], 0.25), 12.5);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn p95_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(220, 0.95), 11);
        assert!(percentile_supported(220, 0.95));
        assert!(percentile_supported(200, 0.95));
        assert!(!percentile_supported(199, 0.95));
        assert!(!percentile_supported(22, 0.95));
        // The median is resolved from 20 samples on.
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
    }

    #[test]
    fn cv_of_constant_and_spread_values() {
        assert_eq!(cv_pct(&[5.0, 5.0, 5.0]), 0.0);
        assert!((cv_pct(&[9.0, 11.0]) - 14.142).abs() < 0.01);
        assert_eq!(cv_pct(&[1.0]), 0.0);
    }

    #[test]
    fn seed_stream_is_the_fuzzers_case_stream() {
        // Pinned: a change here means `fuzz_diff` runs other cases.
        let s = seed_stream(crate::api::FUZZ_DEFAULT_SEED, 3);
        let mut state = crate::api::FUZZ_DEFAULT_SEED;
        let direct: Vec<u64> = (0..3).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(s, direct);
        assert_eq!(
            seed_stream(0, 2),
            vec![0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4]
        );
        assert_ne!(seed_stream(7, 1), seed_stream(8, 1));
    }
}
