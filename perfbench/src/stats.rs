//! Quantiles and latency summaries.

/// Linear-interpolation quantile of ascending `sorted` (`q` in `[0, 1]`):
/// rank `q·(n−1)`, interpolated between its neighbours.
///
/// # Panics
/// If `sorted` is empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    if hi == lo || sorted[hi] == sorted[lo] {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median of unsorted samples (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// A latency distribution: median and p99 with the sample count. A failed
/// operation enters as `+∞`, so it misses every latency limit and is never
/// dropped from the percentiles.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Samples, failed operations included.
    pub n: usize,
    /// Samples behind each p99 estimate (`n`, or the smallest chunk).
    pub chunk: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarize `samples` (reordered in place).
    pub fn of(samples: &mut [f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        samples.sort_by(f64::total_cmp);
        Summary {
            n: samples.len(),
            chunk: samples.len(),
            p50: quantile(samples, 0.5),
            p99: quantile(samples, 0.99),
            max: samples[samples.len() - 1],
        }
    }

    /// Like [`Summary::of`], but the p99 is the median of the p99s of
    /// `chunks` consecutive, equally sized chunks of `samples` (given in
    /// time order), so a stall of the machine that lasts a small part of
    /// the run moves one chunk's p99 rather than the result.
    pub fn chunked(samples: &[f64], chunks: usize) -> Summary {
        let mut all = samples.to_vec();
        let mut s = Summary::of(&mut all);
        let k = chunks.clamp(1, samples.len().max(1));
        let bounds: Vec<usize> = (0..=k).map(|i| i * samples.len() / k).collect();
        let p99s: Vec<f64> = bounds
            .windows(2)
            .map(|w| {
                let mut c = samples[w[0]..w[1]].to_vec();
                Summary::of(&mut c).p99
            })
            .collect();
        if !samples.is_empty() {
            s.p99 = median(&p99s);
            s.chunk = samples.len() / k;
        }
        s
    }

    /// Samples strictly beyond the p99 rank of each p99 estimate.
    pub fn beyond_p99(&self) -> usize {
        self.chunk - (0.99 * self.chunk as f64).ceil() as usize
    }

    /// Whether at least ten samples lie beyond the p99.
    pub fn p99_supported(&self) -> bool {
        self.beyond_p99() >= 10
    }
}

/// Mean of each part over the samples whose total lies in the middle band
/// `[q_lo, q_hi]` of the totals: the parts of the median operation. The
/// parts of each sample sum to its total, so the returned parts sum to the
/// band's mean total, which sits at the median. Returns `(band mean total,
/// part means)`.
pub fn median_split(rows: &[(f64, Vec<f64>)], q_lo: f64, q_hi: f64) -> (f64, Vec<f64>) {
    let finite: Vec<&(f64, Vec<f64>)> = rows.iter().filter(|(t, _)| t.is_finite()).collect();
    if finite.is_empty() {
        return (f64::NAN, Vec::new());
    }
    let mut totals: Vec<f64> = finite.iter().map(|(t, _)| *t).collect();
    totals.sort_by(f64::total_cmp);
    let (lo, hi) = (quantile(&totals, q_lo), quantile(&totals, q_hi));
    let band: Vec<&&(f64, Vec<f64>)> =
        finite.iter().filter(|(t, _)| *t >= lo && *t <= hi).collect();
    let parts = finite[0].1.len();
    let k = band.len().max(1) as f64;
    let total = band.iter().map(|(t, _)| t).sum::<f64>() / k;
    let means = (0..parts).map(|i| band.iter().map(|(_, p)| p[i]).sum::<f64>() / k).collect();
    (total, means)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_samples() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.99), 100.0);
    }

    #[test]
    fn failures_count_against_the_tail() {
        let mut v: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        v[3] = f64::INFINITY;
        let s = Summary::of(&mut v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.max, f64::INFINITY);
        assert!(s.p99 > 989.0 && s.p99.is_finite());
        assert_eq!(s.beyond_p99(), 10);
        assert!(s.p99_supported());
        let mut few: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(!Summary::of(&mut few).p99_supported());
    }

    #[test]
    fn chunked_p99_is_the_median_chunk_tail() {
        // ten chunks of 1000; one chunk carries a stall
        let mut v: Vec<f64> = (0..10_000).map(|i| (i % 1000) as f64).collect();
        for x in &mut v[3000..3200] {
            *x = 1e6;
        }
        let s = Summary::chunked(&v, 10);
        assert_eq!((s.n, s.chunk), (10_000, 1000));
        assert!(
            (s.p99 - quantile(&(0..1000).map(f64::from).collect::<Vec<_>>(), 0.99)).abs() < 1e-9
        );
        assert_eq!(s.max, 1e6);
        assert!(s.p99_supported());
        assert!(Summary::of(&mut v.clone()).p99 > 1e5);
        assert!(!Summary::chunked(&v[..9990], 10).p99_supported());
    }

    #[test]
    fn median_split_adds_up_to_the_median_band() {
        let rows: Vec<(f64, Vec<f64>)> =
            (1..=9).map(|i| (i as f64 * 10.0, vec![i as f64 * 4.0, i as f64 * 6.0])).collect();
        let (total, parts) = median_split(&rows, 0.45, 0.55);
        assert_eq!(total, 50.0);
        assert_eq!(parts, vec![20.0, 30.0]);
        let sum: f64 = parts.iter().sum();
        assert_eq!(sum, total);
    }
}
