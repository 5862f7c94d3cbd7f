//! Intra-node vertex batch sizing (paper §2.2).
//!
//! "By default, we choose the batch size to be as large as possible, either
//! limited by the memory amount (fully-out-of-core) or by the requirement of
//! load balancing (semi-out-of-core). In fully-out-of-core processing, the
//! size is chosen that vertex data of each batch multiplied by `T` is less
//! than half of total memory. For the semi-out-of-core case, the size is
//! chosen by experience that each partition contains at least `1.5 T`
//! batches."

use dfo_types::{BatchPolicy, VertexRange};

/// Number of vertices per batch for a partition of `range` vertices under
/// `policy`, with `threads` workers and `mem_budget` bytes of node memory.
pub fn choose_batch_size(
    policy: BatchPolicy,
    range: &VertexRange,
    threads: usize,
    mem_budget: u64,
) -> u64 {
    let n = range.len().max(1);
    match policy {
        BatchPolicy::FixedVertices(k) => k.max(1),
        BatchPolicy::FullyOutOfCore { widest_vertex_bytes } => {
            let widest = widest_vertex_bytes.max(1);
            // batch_bytes * T <= mem/2  =>  batch_vertices <= mem / (2 T widest)
            let by_memory = (mem_budget / (2 * threads as u64 * widest)).max(1);
            by_memory.min(n)
        }
        BatchPolicy::SemiOutOfCore => {
            // at least 1.5 T batches per partition. Every batch but the last
            // has the chosen size, so take the largest size whose leftover
            // batch is still at least half of it: trying the even splits
            // into 1.5 T, 1.5 T + 1, … batches finds it (the first already
            // does once the partition has a few hundred vertices)
            let min_batches = (3 * threads as u64).div_ceil(2).max(1);
            (min_batches..=n)
                .map(|k| n.div_ceil(k))
                .find(|&size| {
                    let batches = n.div_ceil(size);
                    batches >= min_batches && 2 * (n - (batches - 1) * size) >= size
                })
                .unwrap_or(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfo_types::ids::split_into_batches;

    #[test]
    fn fixed_is_fixed() {
        let r = VertexRange::new(0, 1000);
        assert_eq!(choose_batch_size(BatchPolicy::FixedVertices(64), &r, 4, 0), 64);
    }

    #[test]
    fn fully_ooc_respects_memory_rule() {
        let r = VertexRange::new(0, 1 << 20);
        // 8-byte vertex data, 4 threads, 64 KB budget:
        // batch <= 65536 / (2*4*8) = 1024
        let bs = choose_batch_size(
            BatchPolicy::FullyOutOfCore { widest_vertex_bytes: 8 },
            &r,
            4,
            64 << 10,
        );
        assert_eq!(bs, 1024);
        // invariant: batch_bytes * T <= mem/2
        assert!(bs * 8 * 4 <= (64 << 10) / 2);
    }

    #[test]
    fn semi_ooc_gives_at_least_1_5t_batches() {
        let r = VertexRange::new(0, 1200);
        let threads = 4;
        let bs = choose_batch_size(BatchPolicy::SemiOutOfCore, &r, threads, 0);
        let batches = split_into_batches(r, bs);
        assert!(
            batches.len() as f64 >= 1.5 * threads as f64,
            "got {} batches for {threads} threads",
            batches.len()
        );
    }

    #[test]
    fn semi_ooc_leaves_no_degenerate_batch() {
        let sizes = |n: u64, threads: usize| {
            let r = VertexRange::new(10, 10 + n);
            let bs = choose_batch_size(BatchPolicy::SemiOutOfCore, &r, threads, 0);
            split_into_batches(r, bs).iter().map(|b| b.len()).collect::<Vec<_>>()
        };
        // used to be six batches of 200 and a seventh of one vertex
        assert_eq!(sizes(1201, 4), [201, 201, 201, 201, 201, 196]);
        for (threads, n) in (1..9).flat_map(|t| (1..2_000).map(move |n| (t, n))) {
            let s = sizes(n, threads);
            assert!(s.len() as u64 >= (3 * threads as u64).div_ceil(2).min(n), "n={n} T={threads}");
            assert!(2 * s[s.len() - 1] >= s[0], "n={n} T={threads}: {s:?}");
        }
    }

    #[test]
    fn tiny_partition_still_gets_one_batch() {
        let r = VertexRange::new(5, 6);
        for policy in [
            BatchPolicy::FixedVertices(100),
            BatchPolicy::FullyOutOfCore { widest_vertex_bytes: 8 },
            BatchPolicy::SemiOutOfCore,
        ] {
            let bs = choose_batch_size(policy, &r, 4, 1 << 20);
            assert!(bs >= 1);
        }
    }
}
