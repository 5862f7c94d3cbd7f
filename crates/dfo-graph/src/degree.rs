//! Degree computation used by the inter-node partitioner.

use crate::edge::{Edge, EdgeList};
use dfo_types::Pod;
use rayon::prelude::*;

/// Out-degree of every vertex.
pub fn out_degrees<E: Pod>(g: &EdgeList<E>) -> Vec<u32> {
    let mut d = vec![0u32; g.n_vertices as usize];
    for e in &g.edges {
        d[e.src as usize] += 1;
    }
    d
}

/// In-degree of every vertex.
pub fn in_degrees<E: Pod>(g: &EdgeList<E>) -> Vec<u32> {
    let mut d = vec![0u32; g.n_vertices as usize];
    for e in &g.edges {
        d[e.dst as usize] += 1;
    }
    d
}

/// `(in, out)` degrees of the edges in `slices`, one slice per rayon task:
/// each counts its own, and the counts are summed.
pub fn degrees<E: Pod>(n_vertices: u64, slices: &[&[Edge<E>]]) -> (Vec<u32>, Vec<u32>) {
    let n = n_vertices as usize;
    let counted: Vec<(Vec<u32>, Vec<u32>)> = slices
        .par_iter()
        .map(|edges| {
            let (mut din, mut dout) = (vec![0u32; n], vec![0u32; n]);
            for e in edges.iter() {
                dout[e.src as usize] += 1;
                din[e.dst as usize] += 1;
            }
            (din, dout)
        })
        .collect();
    let mut counted = counted.into_iter();
    let (mut din, mut dout) = counted.next().unwrap_or_else(|| (vec![0; n], vec![0; n]));
    for (i, o) in counted {
        din.iter_mut().zip(i).for_each(|(a, b)| *a += b);
        dout.iter_mut().zip(o).for_each(|(a, b)| *a += b);
    }
    (din, dout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::{Edge, EdgeList};

    fn toy() -> EdgeList<()> {
        EdgeList::new(
            4,
            vec![
                Edge::new(0, 1, ()),
                Edge::new(0, 2, ()),
                Edge::new(1, 2, ()),
                Edge::new(3, 3, ()),
            ],
        )
    }

    #[test]
    fn out_and_in() {
        let g = toy();
        assert_eq!(out_degrees(&g), vec![2, 1, 0, 1]);
        assert_eq!(in_degrees(&g), vec![0, 1, 2, 1]);
    }

    #[test]
    fn combined_matches_individual() {
        let g = toy();
        for cut in 0..=g.edges.len() {
            let (a, b) = g.edges.split_at(cut);
            let (din, dout) = degrees(g.n_vertices, &[a, b]);
            assert_eq!(din, in_degrees(&g));
            assert_eq!(dout, out_degrees(&g));
        }
        assert_eq!(degrees::<()>(4, &[]), (vec![0; 4], vec![0; 4]));
    }

    #[test]
    fn degree_sums_equal_edge_count() {
        let g = toy();
        let (din, dout) = degrees(g.n_vertices, &[&g.edges]);
        let si: u32 = din.iter().sum();
        let so: u32 = dout.iter().sum();
        assert_eq!(si as u64, g.n_edges());
        assert_eq!(so as u64, g.n_edges());
    }
}
