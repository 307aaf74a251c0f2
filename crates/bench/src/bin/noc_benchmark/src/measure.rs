//! Run statistics: quartiles, the tail-percentile rule, process memory
//! and CPU time, and the output digest.

/// Quartiles `(q1, median, q3)` by Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the spreads printed here are the ones a reader computes
/// from the same values. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// The median (the middle quartile; the value itself for one sample).
pub fn median(values: &[f64]) -> f64 {
    match values {
        [] => f64::NAN,
        [v] => *v,
        _ => quartiles(values).expect("two or more values").1,
    }
}

/// The highest whole percentile that still has at least ten samples
/// beyond it among `n` samples — the tail a timing may be reported at.
/// `None` below 20 samples, where not even the median qualifies.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..100).rev().find(|&p| n * (100 - p as usize) >= 1000)
}

/// Nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

/// Resident set size of this process now, in MB (`VmRSS`).
pub fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU time of this process, all threads, in seconds.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of proc(5), 12 and 13 here.
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    // USER_HZ is 100 on every Linux target this benchmark runs on.
    Some(ticks / 100.0)
}

/// FNV-1a over everything fed in: the digest of a workload's outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feeds an integer.
    pub fn u64(&mut self, v: u64) -> &mut Digest {
        self.bytes(&v.to_le_bytes())
    }

    /// Feeds a float by its bits, so equal digests mean bit-identical
    /// values.
    pub fn f64(&mut self, v: f64) -> &mut Digest {
        self.u64(v.to_bits())
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[4.0]), None);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(99), Some(89));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(140), Some(92));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 20..2000 {
            let p = tail_percentile(n).expect("n >= 20") as usize;
            assert!(n * (100 - p) >= 1000, "n={n}: p{p} has ten beyond");
            assert!(p == 99 || n * (99 - p) < 1000, "n={n}: p{p} is the highest");
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn digest_separates_values() {
        let a = Digest::default().u64(1).f64(2.0).value();
        let b = Digest::default().u64(1).f64(2.0).value();
        let c = Digest::default().u64(2).f64(1.0).value();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
