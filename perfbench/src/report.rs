//! Result plumbing: a minimal JSON writer, order statistics, the process
//! memory high-water mark and the reference kernel that normalises
//! timings for host speed.

use std::fmt::Write as _;
use std::time::Instant;

/// A JSON value. Objects keep insertion order so results files diff well.
#[derive(Debug, Clone)]
pub enum Json {
    /// A finite number, printed with all its digits.
    Num(f64),
    /// An integer.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An ordered object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object.
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Append `key: value` to an object (no-op on other variants).
    pub fn put(&mut self, key: impl Into<String>, value: Json) {
        if let Json::Obj(items) = self {
            items.push((key.into(), value));
        }
    }

    /// Serialise on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // JSON has no NaN/inf; a non-finite measurement is a bug the
            // caller should have caught, so it renders as null and fails
            // the consumer loudly rather than looking like a number.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                let _ = write!(out, "{x:?}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Obj(items) => {
                out.push('{');
                for (i, (k, v)) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Median of `xs` (mean of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latency histogram with 10 ns buckets up to 2 ms (exact samples beyond):
/// constant memory however many calls a run makes, so the benchmark's own
/// footprint does not grow with the program's throughput.
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    overflow: Vec<u64>,
    count: u64,
}

impl LatencyHistogram {
    const BUCKET_NS: u64 = 10;
    const BUCKETS: usize = 200_000;

    /// Empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; Self::BUCKETS],
            overflow: Vec::new(),
            count: 0,
        }
    }

    /// Record one sample, ns.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        match self.buckets.get_mut((ns / Self::BUCKET_NS) as usize) {
            Some(b) => *b += 1,
            None => self.overflow.push(ns),
        }
    }

    /// Fold `other` in.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow.extend(&other.overflow);
        self.count += other.count;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile `p` (0..=100), ns (bucket midpoint).
    pub fn percentile(&self, p: f64) -> f64 {
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (i as u64 * Self::BUCKET_NS) as f64 + Self::BUCKET_NS as f64 / 2.0;
            }
        }
        let mut rest = self.overflow.clone();
        rest.sort_unstable();
        let idx = (rank - seen).saturating_sub(1) as usize;
        rest.get(idx.min(rest.len().saturating_sub(1)))
            .map_or(0.0, |&ns| ns as f64)
    }
}

/// The process's resident-set high-water mark, MB (`VmHWM`).
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
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reference kernel time a reference host takes, ns. Normalised timings
/// read as on a host where [`reference_kernel`] takes exactly this long.
pub const REF_NOMINAL_NS: f64 = 1e6;

/// A fixed reference kernel owned by the benchmark (it calls no repository
/// code, so no change to the program moves it): ordered-map inserts and
/// lookups over pseudo-random keys, a dot product and a sort, the
/// pointer-chasing plus arithmetic mix the simulator runs. Returns its
/// wall time, ns.
pub fn reference_kernel() -> u64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = std::collections::BTreeMap::new();
    for _ in 0..4096 {
        map.insert(next() % 16_384, next());
    }
    let mut hits = 0u64;
    for _ in 0..8192 {
        if let Some(v) = map.get(&(next() % 16_384)) {
            hits = hits.wrapping_add(*v);
        }
    }
    let a: Vec<f64> = (0..4096).map(|i| f64::from(i).sin()).collect();
    let dot: f64 = a.iter().zip(a.iter().rev()).map(|(p, q)| p * q).sum();
    let mut v: Vec<u64> = (0..4096).map(|_| next()).collect();
    v.sort_unstable();
    std::hint::black_box((hits, dot, v[2048]));
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Samples of the reference kernel taken between slices of the workload,
/// so they see the same host conditions the workload saw. Their median
/// turns wall times into reference-host times.
pub struct RefClock {
    samples: Vec<u64>,
    last: Instant,
}

impl RefClock {
    /// Minimum wall time between two samples taken by [`RefClock::tick`];
    /// a sample costs about 1 ms, so this keeps the overhead near 5%.
    const PERIOD_NS: u128 = 20_000_000;

    /// No samples yet.
    pub fn new() -> Self {
        Self {
            samples: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Take a sample when [`Self::PERIOD_NS`] has passed since the last
    /// one; returns the ns spent sampling (0 when none was due).
    pub fn tick(&mut self) -> u64 {
        if self.last.elapsed().as_nanos() < Self::PERIOD_NS {
            return 0;
        }
        let ns = self.sample(1);
        self.last = Instant::now();
        ns
    }

    /// Take `n` samples now; returns the ns they took.
    pub fn sample(&mut self, n: usize) -> u64 {
        (0..n)
            .map(|_| {
                let ns = reference_kernel();
                self.samples.push(ns);
                ns
            })
            .sum()
    }

    /// Samples taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Median sample, ns.
    pub fn median_ns(&self) -> f64 {
        self.median_since(0)
    }

    /// Median of the samples taken since [`RefClock::len`] read `mark`
    /// (of all samples when none was taken since), ns.
    pub fn median_since(&self, mark: usize) -> f64 {
        let recent = self.samples.get(mark..).filter(|s| !s.is_empty());
        let v: Vec<f64> = recent
            .unwrap_or(&self.samples)
            .iter()
            .map(|&ns| ns as f64)
            .collect();
        median(&v)
    }

    /// Host speed relative to the reference host over the samples since
    /// `mark`: a wall time times this reads as on the reference host, a
    /// wall rate divided by it likewise.
    pub fn speed_since(&self, mark: usize) -> f64 {
        REF_NOMINAL_NS / self.median_since(mark)
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_numbers_with_all_digits() {
        let mut o = Json::obj();
        o.put("x", Json::Num(0.1 + 0.2));
        o.put("s", Json::Str("a\"b".into()));
        assert_eq!(o.render(), r#"{"x": 0.30000000000000004, "s": "a\"b"}"#);
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        let mut h = LatencyHistogram::new();
        for ns in (1..=100).map(|i| i * 1_000) {
            h.record(ns);
        }
        h.record(5_000_000);
        assert_eq!(h.count(), 101);
        assert_eq!(h.percentile(50.0), 51_005.0);
        assert_eq!(h.percentile(100.0), 5_000_000.0);
    }
}
