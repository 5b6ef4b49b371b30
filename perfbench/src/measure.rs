//! Measurement primitives: timing samples with medians and tails,
//! process CPU time and peak RSS, and the FNV-1a hash the output checks
//! fold results into.

use std::time::Instant;

/// Timing (or other) samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median (mean of the middle pair for an even count); 0 when empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The highest of p90/p99/p99.9/p99.99 that has at least ten
    /// samples beyond it, as `(percentile, value)` by nearest rank.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let v = self.sorted();
        // Percentiles in hundredths, so ranks are exact integers.
        [9_999, 9_990, 9_900, 9_000]
            .into_iter()
            .find_map(|p: usize| {
                let rank = (v.len() * p).div_ceil(10_000);
                (rank >= 1 && v.len() - rank >= 10).then(|| (p as f64 / 100.0, v[rank - 1]))
            })
    }

    /// `median <unit> [pNN <value>] (n=<count>)`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail() {
            Some((p, v)) => format!(" p{p}={v:.6}"),
            None => String::new(),
        };
        format!(
            "median={:.6} {unit}{tail} (n={})",
            self.median(),
            self.len()
        )
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Milliseconds since `start`.
pub fn millis(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1_000.0
}

/// User plus system CPU seconds of the whole process (all threads,
/// including ones that have exited), from `/proc/self/stat`. Linux
/// reports these in clock ticks of 1/100 s.
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / TICKS_PER_S,
        _ => f64::NAN,
    }
}

/// Peak resident set size of the process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a hash.
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 50.5);
        assert_eq!(s.tail(), Some((90.0, 90.0)));
        let mut small = Samples::default();
        small.push(3.0);
        assert_eq!(small.median(), 3.0);
        assert_eq!(small.tail(), None);
    }
}
