//! Small measurement helpers: a seeded generator, order statistics with the
//! "ten samples beyond" rule, and a byte digest for output oracles.

/// splitmix64: the workload generator. The same seed always yields the same
/// inputs, and nothing in the program under test ever sees the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank quantile of `values` and the number of samples strictly
/// above its rank. `None` when the sample is empty.
pub fn quantile(values: &[f64], q: f64) -> Option<(f64, usize)> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

/// The quantile, but only when at least ten samples lie beyond it — a
/// percentile read off fewer tail samples than that is the max of a
/// handful of runs, not a percentile.
pub fn supported_quantile(values: &[f64], q: f64) -> Option<f64> {
    quantile(values, q).and_then(|(v, beyond)| (beyond >= 10).then_some(v))
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).map_or(f64::NAN, |(v, _)| v)
}

/// 64-bit FNV-1a, the digest the golden file records for large outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one), in
/// MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let sample = nn_baton::telemetry::procfs::parse_status(&status)?;
    Some(sample.peak_resident_bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_support() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some((50.0, 50)));
        assert_eq!(quantile(&v, 0.9), Some((90.0, 10)));
        assert_eq!(supported_quantile(&v, 0.9), Some(90.0));
        assert_eq!(supported_quantile(&v, 0.99), None);
        assert_eq!(supported_quantile(&v[..19], 0.5), None);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }
}
