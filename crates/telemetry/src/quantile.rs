//! Streaming quantile estimation (the P² algorithm, Jain & Chlamtac 1985).
//!
//! The §4 maintenance rule needs the 99th percentile of knob values "during
//! all last recommendations", and monitoring agents want latency quantiles
//! without retaining every sample. P² maintains five markers in O(1) space
//! per quantile and adjusts them with piecewise-parabolic interpolation.

/// P² estimator for a single quantile `q`.
///
/// # Examples
///
/// ```
/// use autodbaas_telemetry::P2Quantile;
///
/// let mut p99 = P2Quantile::new(0.99);
/// for i in 0..10_000 {
///     p99.observe(i as f64);
/// }
/// let est = p99.estimate();
/// assert!((est - 9_900.0).abs() < 200.0, "p99 ~ 9900, got {est}");
/// ```
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (estimated quantile curve).
    heights: [f64; 5],
    /// Marker positions (1-based observation ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per observation.
    increments: [f64; 5],
    count: usize,
    init: Vec<f64>,
}

impl P2Quantile {
    /// Estimator for quantile `q ∈ (0, 1)`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1)");
        Self {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            init: Vec::with_capacity(5),
        }
    }

    /// Observations fed so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feed one observation.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        if self.init.len() < 5 {
            self.init.push(x);
            if self.init.len() == 5 {
                self.init.sort_by(f64::total_cmp);
                for (h, v) in self.heights.iter_mut().zip(&self.init) {
                    *h = *v;
                }
            }
            return;
        }

        // Find the cell k such that heights[k] <= x < heights[k+1].
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut cell = 0;
            for i in 0..4 {
                if self.heights[i] <= x && x < self.heights[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(&self.increments) {
            *d += inc;
        }

        // Adjust interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let s = d.signum();
                let candidate = self.parabolic(i, s);
                let new_h = if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                    candidate
                } else {
                    self.linear(i, s)
                };
                self.heights[i] = new_h;
                self.positions[i] += s;
            }
        }
    }

    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let p = &self.positions;
        let h = &self.heights;
        h[i] + s / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + s) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - s) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = (i as f64 + s) as usize;
        self.heights[i]
            + s * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current estimate. Before five observations, falls back to the exact
    /// value over what has been seen.
    pub fn estimate(&self) -> f64 {
        if self.init.len() < 5 {
            if self.init.is_empty() {
                return 0.0;
            }
            let mut sorted = self.init.clone();
            sorted.sort_by(f64::total_cmp);
            let idx = ((sorted.len() - 1) as f64 * self.q).round() as usize;
            return sorted[idx];
        }
        self.heights[2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn tracks_median_of_uniform_stream() {
        let mut p2 = P2Quantile::new(0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let mut all = Vec::new();
        for _ in 0..20_000 {
            let x: f64 = rng.gen::<f64>() * 100.0;
            p2.observe(x);
            all.push(x);
        }
        let exact = percentile(&all, 50.0);
        let est = p2.estimate();
        assert!((est - exact).abs() < 2.0, "est {est} vs exact {exact}");
    }

    #[test]
    fn tracks_p99_of_skewed_stream() {
        let mut p2 = P2Quantile::new(0.99);
        let mut rng = StdRng::seed_from_u64(2);
        let mut all = Vec::new();
        for _ in 0..50_000 {
            // Log-normal-ish latency distribution (moderate tail — P² is
            // documented to lose accuracy on tails spanning many orders of
            // magnitude, which is fine for latency monitoring).
            let x: f64 = (-(1.0 - rng.gen::<f64>()).ln()).exp();
            p2.observe(x);
            all.push(x);
        }
        let exact = percentile(&all, 99.0);
        let est = p2.estimate();
        assert!(
            (est - exact).abs() / exact < 0.30,
            "est {est} vs exact {exact} (rel err too big)"
        );
    }

    #[test]
    fn small_streams_are_exact() {
        let mut p2 = P2Quantile::new(0.5);
        assert_eq!(p2.estimate(), 0.0);
        for &x in &[3.0, 1.0, 2.0] {
            p2.observe(x);
        }
        assert_eq!(p2.estimate(), 2.0);
        assert_eq!(p2.count(), 3);
    }

    #[test]
    fn monotone_stream_estimate_is_sane() {
        let mut p2 = P2Quantile::new(0.9);
        for i in 0..1_000 {
            p2.observe(i as f64);
        }
        let est = p2.estimate();
        assert!((850.0..950.0).contains(&est), "p90 of 0..1000 was {est}");
    }

    #[test]
    #[should_panic]
    fn rejects_degenerate_quantiles() {
        let _ = P2Quantile::new(1.0);
    }
}
