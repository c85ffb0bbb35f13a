//! Seeded randomness, arrival and key samplers, percentiles and `/proc`
//! readers shared by every part of the harness.

use std::time::Duration;

/// SplitMix64: a small, well-mixed generator. The harness owns its own so
/// the inputs a seed produces do not depend on any other crate's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so adding a stream
    /// never shifts the draws of another.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Exponential gap of a Poisson process with `rate` events per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Arrival offsets (seconds from the start) of a Poisson stream at `rate`
/// events per second over `[0, seconds)`.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = rng.exp_gap(rate);
    while t < seconds {
        out.push(t);
        t += rng.exp_gap(rate);
    }
    out
}

/// Zipf(`s`) over ranks `0..n` (rank 0 hottest) by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += (r as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability of rank `r`.
    #[cfg(test)]
    pub fn probability(&self, r: usize) -> f64 {
        if r == 0 {
            self.cdf[0]
        } else {
            self.cdf[r] - self.cdf[r - 1]
        }
    }
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of unsorted samples: the
/// smallest sample with at least `p`% of the samples at or below it.
/// `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed at
/// 100 by the Linux ABI on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// CPU time (user + system) of a process so far, from `/proc/<pid>/stat`.
pub fn process_cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set (`VmHWM`) of a process in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(steal, total)` ticks summed over all CPUs, from `/proc/stat`.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.5), Some(1.0));
        // Unsorted input, small sample: rank = ceil(p * n).
        let w = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&w, 50.0), Some(3.0));
        assert_eq!(percentile(&w, 99.0), Some(5.0));
        assert_eq!(percentile(&w, 20.0), Some(1.0));
        assert_eq!(percentile(&w, 21.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let mut r = Rng::new(3, 3);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn zipf_matches_its_law() {
        let zipf = Zipf::new(2048, 1.1);
        let mut rng = Rng::new(11, 0);
        let draws = 400_000;
        let mut counts = vec![0usize; 2048];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for r in [0usize, 1, 2, 9, 99] {
            let expected = zipf.probability(r) * draws as f64;
            let got = counts[r] as f64;
            // Five standard deviations of a binomial count.
            let tol = 5.0 * expected.sqrt();
            assert!(
                (got - expected).abs() < tol,
                "rank {r}: {got} vs {expected}"
            );
        }
        // Rank r+1 is (r+1/r+2)^1.1 as likely as rank r.
        let ratio = zipf.probability(1) / zipf.probability(0);
        assert!((ratio - 0.5f64.powf(1.1)).abs() < 1e-12);
    }

    #[test]
    fn poisson_arrivals_have_the_requested_rate_and_exponential_gaps() {
        let mut rng = Rng::new(5, 9);
        let rate = 200.0;
        let seconds = 500.0;
        let arrivals = poisson_arrivals(&mut rng, rate, seconds);
        let expected = rate * seconds;
        assert!((arrivals.len() as f64 - expected).abs() < 5.0 * expected.sqrt());
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
        let gaps: Vec<f64> = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
        // Exponential: mean 1/rate and P(gap > mean) = e^-1.
        assert!((mean(&gaps) * rate - 1.0).abs() < 0.02);
        let above = gaps.iter().filter(|&&g| g > 1.0 / rate).count() as f64 / gaps.len() as f64;
        assert!((above - (-1.0f64).exp()).abs() < 0.01);
    }
}
