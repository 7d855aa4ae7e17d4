//! Small measurement helpers: quantiles, a seeded RNG, digests, and
//! before/after deltas of the counters and histograms the crates record
//! in `iris_telemetry::global()`.

use iris_telemetry::Snapshot;

/// Nearest-rank `q`-quantile of `values` (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted_quantile(&sorted, q)
}

/// [`quantile`] of an already sorted slice.
pub fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// SplitMix64: the benchmark's input generator, seeded by `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over a stream of 64-bit words.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of FCT records, bit for bit.
pub fn records_digest(records: &[iris_simnet::FlowRecord]) -> u64 {
    let mut d = Digest::new();
    d.word(records.len() as u64);
    for r in records {
        d.word(r.pair.0 as u64);
        d.word(r.pair.1 as u64);
        d.word(r.size_bytes.to_bits());
        d.word(r.start_s.to_bits());
        d.word(r.fct_s.to_bits());
    }
    d.finish()
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A snapshot of the global telemetry registry.
pub fn registry() -> Snapshot {
    iris_telemetry::global().snapshot()
}

/// `after - before` of one counter (0 if it never existed).
pub fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    let get = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
    get(after).saturating_sub(get(before))
}

/// The samples one histogram gained between two snapshots.
#[derive(Debug, Clone, Default)]
pub struct HistDelta {
    pub count: u64,
    pub sum: f64,
    /// `(bucket upper bound, samples)`, ascending, non-cumulative.
    buckets: Vec<(f64, u64)>,
}

impl HistDelta {
    pub fn between(before: &Snapshot, after: &Snapshot, name: &str) -> Self {
        let per_bucket = |s: &Snapshot| -> Vec<(f64, u64)> {
            let Some(h) = s.histograms.get(name) else {
                return Vec::new();
            };
            let mut prev = 0;
            h.buckets
                .iter()
                .map(|&(upper, cum)| {
                    let n = cum - prev;
                    prev = cum;
                    (upper, n)
                })
                .collect()
        };
        let old = per_bucket(before);
        let buckets = per_bucket(after)
            .into_iter()
            .map(|(upper, n)| {
                let was = old
                    .iter()
                    .find(|(u, _)| u.to_bits() == upper.to_bits())
                    .map_or(0, |&(_, n)| n);
                (upper, n - was)
            })
            .filter(|&(_, n)| n > 0)
            .collect();
        let read = |s: &Snapshot| {
            s.histograms
                .get(name)
                .map_or((0, 0.0), |h| (h.count, h.sum))
        };
        let ((c0, s0), (c1, s1)) = (read(before), read(after));
        let (count, sum) = (c1.saturating_sub(c0), s1 - s0);
        Self {
            count,
            sum,
            buckets,
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile, interpolated inside its quarter-log2 bucket the
    /// way the registry's own histograms report it.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.buckets.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for &(upper, n) in &self.buckets {
            if seen + n >= target {
                let lower = upper / 2f64.powf(0.25);
                return lower + (target - seen) as f64 / n as f64 * (upper - lower);
            }
            seen += n;
        }
        self.buckets.last().map_or(0.0, |&(upper, _)| upper)
    }
}
