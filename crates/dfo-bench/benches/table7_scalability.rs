//! Table 7 — DFOGraph scalability on 1, 2, 4, 8 and 16 nodes (RMAT-like):
//! preprocessing (wall and process CPU-seconds) and the four algorithms,
//! with speedups relative to P = 1.
//!
//! Expected shape (paper): overall 1.42× / 3.01× / 6.56× / 21.32× at
//! P = 2/4/8/16 (super-linear tail from aggregate page cache).

use dfo_bench::{describe, dfo_suite, fmt_secs, geomean, rmat_like};
use tempfile::TempDir;

fn main() {
    let g = rmat_like();
    println!("=== Table 7: scalability (RMAT-like) ===");
    println!("{}", describe("RMAT-like", &g));
    let td = TempDir::new().unwrap();
    println!(
        "\n{:<6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>12}",
        "P", "Prep", "Prep CPU", "PR", "BFS", "WCC", "SSSP", "overall-x"
    );
    let mut base: Option<(f64, f64, f64, f64, f64, f64)> = None;
    for p in [1usize, 2, 4, 8, 16] {
        let t = dfo_suite(&td.path().join(format!("p{p}")), p, &g, 5);
        let overall = match &base {
            None => {
                base = Some(t);
                1.0
            }
            Some(b) => geomean(&[b.1 / t.1, b.2 / t.2, b.3 / t.3, b.4 / t.4]),
        };
        println!(
            "{p:<6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11.2}x",
            fmt_secs(t.0),
            fmt_secs(t.5),
            fmt_secs(t.1),
            fmt_secs(t.2),
            fmt_secs(t.3),
            fmt_secs(t.4),
            overall
        );
    }
    println!("(paper overall speedups: 1.42x / 3.01x / 6.56x / 21.32x)");
}
