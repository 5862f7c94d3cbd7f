//! Accumulator contract for UDF return values.
//!
//! "Return values of `work` are summed and returned by `ProcessVertices`"
//! (and likewise for `slot` in `ProcessEdges`). The sum spans every vertex
//! on every node, so the type must know how to merge locally and reduce
//! across the cluster.

use dfo_net::Endpoint;
use dfo_types::Result;

/// Values that can be summed within a node and all-reduced across nodes.
pub trait Accum: Sized + Send + 'static {
    fn zero() -> Self;
    fn merge(self, other: Self) -> Self;
    /// Cluster-wide reduction of per-node partial values; a mesh failure
    /// is the collective's error.
    fn allreduce(self, net: &Endpoint) -> Result<Self>;
}

impl Accum for u64 {
    fn zero() -> Self {
        0
    }
    fn merge(self, other: Self) -> Self {
        self + other
    }
    fn allreduce(self, net: &Endpoint) -> Result<Self> {
        net.try_allreduce_sum_u64(self)
    }
}

impl Accum for f64 {
    fn zero() -> Self {
        0.0
    }
    fn merge(self, other: Self) -> Self {
        self + other
    }
    fn allreduce(self, net: &Endpoint) -> Result<Self> {
        net.try_allreduce_sum_f64(self)
    }
}

impl Accum for () {
    fn zero() -> Self {}
    fn merge(self, _other: Self) -> Self {}
    fn allreduce(self, net: &Endpoint) -> Result<Self> {
        // still participate in the collective so nodes stay in lockstep
        net.try_allreduce_sum_u64(0).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_merges() {
        assert_eq!(u64::zero().merge(3).merge(4), 7);
    }

    #[test]
    fn f64_merges() {
        assert!((f64::zero().merge(0.5).merge(0.25) - 0.75).abs() < 1e-12);
    }
}
