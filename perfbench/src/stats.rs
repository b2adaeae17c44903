//! Summary statistics and the run's operation accounting.

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive samples; `None` when empty or when a
/// sample is not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// The `q`-quantile of `xs`, refused (`None`) when fewer than ten
/// samples lie beyond its nearest rank: such a value is one of the few
/// slowest samples, not a tail.
///
/// The estimate is Harrell–Davis: a mean of all order statistics
/// weighted by a Beta((n+1)q, (n+1)(1-q)) density. A single order
/// statistic jumps when samples of very different cost sit on either
/// side of the rank (in `serve_mix`, cache hits next to engine runs);
/// the weighted mean moves smoothly.
pub fn tail_percentile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n < rank + 10 {
        return None;
    }
    Some(harrell_davis(xs, q))
}

fn harrell_davis(xs: &[f64], q: f64) -> f64 {
    // Each order statistic's weight is the Beta mass over its interval
    // ((i-1)/n, i/n], summed from the density at STEPS midpoints.
    const STEPS: usize = 32;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let ln_density: Vec<f64> = (0..v.len() * STEPS)
        .map(|j| {
            let x = (j as f64 + 0.5) / (n * STEPS as f64);
            (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
        })
        .collect();
    let top = ln_density.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut sum, mut mass) = (0.0, 0.0);
    for (j, l) in ln_density.iter().enumerate() {
        let w = (l - top).exp();
        sum += w * v[j / STEPS];
        mass += w;
    }
    sum / mass
}

/// What became of one attempted operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// The program answered, and the answer checked out.
    Ok,
    /// The program gave no answer: a timeout or an `Unknown` verdict.
    Failed(String),
    /// The program answered wrongly: a wrong verdict, a counterexample
    /// that does not replay, or a partition that disagrees with the
    /// reference. One such answer fails the whole run.
    Wrong(String),
}

/// Attempted, failed and wrong operations of a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Failed(why) => {
                self.failed += 1;
                eprintln!("failed: {what}: {why}");
            }
            Outcome::Wrong(why) => {
                eprintln!("WRONG: {what}: {why}");
                self.wrong.push(format!("{what}: {why}"));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_refused_without_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.9), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
        // 25 checks: a median has 12 beyond it, a p90 only 2.
        let xs: Vec<f64> = (1..=25).map(f64::from).collect();
        assert!(tail_percentile(&xs, 0.5).is_some());
        assert_eq!(tail_percentile(&xs, 0.9), None);
    }

    #[test]
    fn harrell_davis_quantiles() {
        let close = |x: f64, want: f64| assert!((x - want).abs() < 0.05, "{x} vs {want}");
        // On 1..=100 the q-quantile estimate is 100q + 0.5.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        close(tail_percentile(&xs, 0.9).unwrap(), 90.5);
        close(tail_percentile(&xs, 0.5).unwrap(), 50.5);
        close(tail_percentile(&[7.0; 40], 0.5).unwrap(), 7.0);
        // A cliff at the rank: 90 fast samples and 20 slow ones. The
        // nearest rank (99) is slow; the estimate sits between.
        let mut xs = vec![1.0; 90];
        xs.extend([100.0; 20]);
        let p90 = tail_percentile(&xs, 0.9).unwrap();
        assert!(p90 > 1.0 && p90 < 100.0, "{p90}");
    }

    #[test]
    fn geometric_mean() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12, "{g}");
        let g = geomean(&[2.0, 8.0, 4.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn unknown_counts_as_attempted_and_failed() {
        let mut t = Tally::default();
        t.record("s208", Outcome::Ok);
        t.record("s3384", Outcome::Failed("timeout".into()));
        t.record("s6669", Outcome::Failed("unknown".into()));
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert!(t.correct());
        t.record("s386", Outcome::Wrong("inequivalent".into()));
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert!(!t.correct());
    }
}
