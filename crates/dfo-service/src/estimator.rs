//! Learned admission footprints: an EWMA over measured job footprints.
//!
//! Admission control charges each job an up-front byte estimate against the
//! service's `mem_budget`. The static hint (`state_bytes_per_vertex` ×
//! per-node vertex share) is deliberately pessimistic — it assumes every
//! algorithm materializes every declared array at full width — so real
//! queues serialize jobs that would happily fit together. This module
//! closes the loop: every completed job reports its **measured** peak
//! footprint (vertex arrays — on disk or resident in the memory pool —,
//! checkpoints and spills of the job's private scratch scope, message
//! chunks and filter lists the pool holds, on the busiest rank), and the
//! estimator
//! folds it into an exponentially-weighted moving average keyed by
//! `(algorithm, graph)`. The next submission of the same pair is admitted
//! against the learned value instead of the static hint.
//!
//! Explicit [`dfo_types::JobSpec::mem_estimate`] always wins — the operator
//! knows best — and an entry only forms after one completed observation, so
//! cold pairs still use the static hint. A safety factor keeps the learned
//! value slightly above the observed average to absorb run-to-run noise.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Default smoothing factor: the newest observation contributes 30%.
const DEFAULT_ALPHA: f64 = 0.3;

/// Learned estimates are padded by this factor over the moving average so a
/// slightly-heavier-than-average rerun still fits its admission charge.
const SAFETY_FACTOR: f64 = 1.2;

/// EWMA footprint estimator keyed by `(algorithm, graph)`.
pub(crate) struct FootprintEstimator {
    alpha: f64,
    avg: Mutex<BTreeMap<(String, String), f64>>,
}

impl FootprintEstimator {
    pub fn new() -> Self {
        Self::with_alpha(DEFAULT_ALPHA)
    }

    pub fn with_alpha(alpha: f64) -> Self {
        Self { alpha: alpha.clamp(0.0, 1.0), avg: Mutex::new(BTreeMap::new()) }
    }

    /// The learned admission estimate for `(algorithm, graph)`, or `None`
    /// before the first completed observation (caller falls back to the
    /// static hint).
    pub fn estimate(&self, algorithm: &str, graph: &str) -> Option<u64> {
        let avg = self.avg.lock().unwrap();
        avg.get(&(algorithm.to_string(), graph.to_string()))
            .map(|a| (a * SAFETY_FACTOR).ceil() as u64)
    }

    /// Folds one measured peak footprint (bytes, busiest rank) into the
    /// average and returns the updated learned estimate.
    pub fn record(&self, algorithm: &str, graph: &str, measured: u64) -> u64 {
        let mut avg = self.avg.lock().unwrap();
        let key = (algorithm.to_string(), graph.to_string());
        let next = match avg.get(&key) {
            Some(prev) => prev + self.alpha * (measured as f64 - prev),
            None => measured as f64,
        };
        avg.insert(key, next);
        (next * SAFETY_FACTOR).ceil() as u64
    }

    /// Number of `(algorithm, graph)` pairs with a learned estimate.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.avg.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_pair_has_no_estimate() {
        let e = FootprintEstimator::new();
        assert_eq!(e.estimate("pagerank", "g"), None);
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn first_observation_seeds_the_average() {
        let e = FootprintEstimator::new();
        e.record("pagerank", "g", 1000);
        assert_eq!(e.estimate("pagerank", "g"), Some(1200)); // ×SAFETY_FACTOR
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn ewma_converges_to_the_steady_footprint() {
        let e = FootprintEstimator::new();
        e.record("pagerank", "g", 10_000); // outlier first run
        for _ in 0..30 {
            e.record("pagerank", "g", 2_000); // steady state
        }
        let learned = e.estimate("pagerank", "g").unwrap();
        // converged to ≈ 2000 × 1.2 = 2400, well clear of the outlier
        assert!((2_300..=2_600).contains(&learned), "EWMA did not converge: learned {learned}");
    }

    #[test]
    fn pairs_are_independent() {
        let e = FootprintEstimator::new();
        e.record("pagerank", "g1", 1000);
        e.record("wcc", "g1", 50);
        e.record("pagerank", "g2", 9000);
        assert_eq!(e.estimate("pagerank", "g1"), Some(1200));
        assert_eq!(e.estimate("wcc", "g1"), Some(60));
        assert_eq!(e.estimate("pagerank", "g2"), Some(10_800));
        assert_eq!(e.estimate("wcc", "g2"), None);
    }

    #[test]
    fn learned_estimate_tracks_upward_drift_too() {
        let e = FootprintEstimator::with_alpha(0.5);
        e.record("sssp", "g", 100);
        for _ in 0..20 {
            e.record("sssp", "g", 400);
        }
        let learned = e.estimate("sssp", "g").unwrap();
        assert!(learned >= 450, "learned {learned} should approach 400×1.2");
    }
}
