//! Table 4 — single-machine comparison: DFOGraph vs GridGraph-like vs
//! FlashGraph-like on a twitter-like and a uk-like graph; Prep / PR(5) /
//! BFS / WCC / SSSP, plus the paper's "relative time" geometric mean.
//!
//! Expected shape (paper): DFOGraph ≥2.52× over GridGraph overall, ~1.06×
//! over FlashGraph; GridGraph collapses on the long-diameter graph's
//! sparse iterations; FlashGraph's selective adjacency fetch keeps BFS
//! competitive.

use dfo_baselines::{bfs_spec, pagerank_rounds, spec::out_degrees, sssp_spec, wcc_spec};
use dfo_baselines::{FlashGraphEngine, GridGraphEngine};
use dfo_bench::{
    describe, dfo_suite, fmt_secs, geomean, timed, twitter_like, uk_like, weighted, DISK_BW,
};
use dfo_storage::NodeDisk;
use tempfile::TempDir;

fn gridgraph_suite(
    dir: &std::path::Path,
    g: &dfo_graph::EdgeList<()>,
) -> (f64, f64, f64, f64, f64) {
    let q = 16;
    let deg = out_degrees(g);
    let sym = dfo_algos::wcc::symmetrize(g);
    let w = weighted(g);
    let disk = NodeDisk::new(dir.join("gg"), Some(DISK_BW), false).unwrap();
    let (e, prep) = timed(|| GridGraphEngine::preprocess(disk, g, q).unwrap());
    let (_, pr) = timed(|| e.pagerank(&pagerank_rounds(5), &deg).unwrap());
    let (_, bfs) = timed(|| e.run_push(&bfs_spec(0)).unwrap());
    let disk = NodeDisk::new(dir.join("gg_sym"), Some(DISK_BW), false).unwrap();
    let es = GridGraphEngine::preprocess(disk, &sym, q).unwrap();
    let (_, wcc) = timed(|| es.run_push(&wcc_spec()).unwrap());
    let disk = NodeDisk::new(dir.join("gg_w"), Some(DISK_BW), false).unwrap();
    let ew = GridGraphEngine::preprocess(disk, &w, q).unwrap();
    let (_, sssp) = timed(|| ew.run_push(&sssp_spec(0)).unwrap());
    (prep, pr, bfs, wcc, sssp)
}

fn flashgraph_suite(
    dir: &std::path::Path,
    g: &dfo_graph::EdgeList<()>,
) -> (f64, f64, f64, f64, f64) {
    let mem = 4u64 << 30;
    let deg = out_degrees(g);
    let sym = dfo_algos::wcc::symmetrize(g);
    let w = weighted(g);
    let disk = NodeDisk::new(dir.join("fg"), Some(DISK_BW), false).unwrap();
    let (e, prep) = timed(|| FlashGraphEngine::preprocess(disk, g, mem).unwrap());
    let (_, pr) = timed(|| e.pagerank(&pagerank_rounds(5), &deg).unwrap());
    let (_, bfs) = timed(|| e.run_push(&bfs_spec(0)).unwrap());
    let disk = NodeDisk::new(dir.join("fg_sym"), Some(DISK_BW), false).unwrap();
    let es = FlashGraphEngine::preprocess(disk, &sym, mem).unwrap();
    let (_, wcc) = timed(|| es.run_push(&wcc_spec()).unwrap());
    let disk = NodeDisk::new(dir.join("fg_w"), Some(DISK_BW), false).unwrap();
    let ew = FlashGraphEngine::preprocess(disk, &w, mem).unwrap();
    let (_, sssp) = timed(|| ew.run_push(&sssp_spec(0)).unwrap());
    (prep, pr, bfs, wcc, sssp)
}

fn print_rows(name: &str, t: (f64, f64, f64, f64, f64)) {
    println!(
        "{name:<14} {:>9} {:>9} {:>9} {:>9} {:>9}",
        fmt_secs(t.0),
        fmt_secs(t.1),
        fmt_secs(t.2),
        fmt_secs(t.3),
        fmt_secs(t.4)
    );
}

fn main() {
    println!("=== Table 4: single-machine comparison (P=1) ===");
    let td = TempDir::new().unwrap();
    let mut ratios_gg = Vec::new();
    let mut ratios_fg = Vec::new();
    for (gname, g) in [("twitter-like", twitter_like()), ("uk-like", uk_like())] {
        println!("\n--- {} ---", describe(gname, &g));
        println!(
            "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "system", "Prep", "PR", "BFS", "WCC", "SSSP"
        );
        let dir = td.path().join(gname);
        // Table 7 reports the last field, preprocessing's CPU-seconds
        let (prep, pr, bfs, wcc, sssp, _) = dfo_suite(&dir.join("dfo"), 1, &g, 5);
        let dfo = (prep, pr, bfs, wcc, sssp);
        print_rows("DFOGraph", dfo);
        let gg = gridgraph_suite(&dir, &g);
        print_rows("GridGraph", gg);
        let fg = flashgraph_suite(&dir, &g);
        print_rows("FlashGraph", fg);
        for (d, o) in [(dfo.1, gg.1), (dfo.2, gg.2), (dfo.3, gg.3), (dfo.4, gg.4)] {
            ratios_gg.push(o / d);
        }
        for (d, o) in [(dfo.1, fg.1), (dfo.2, fg.2), (dfo.3, fg.3), (dfo.4, fg.4)] {
            ratios_fg.push(o / d);
        }
    }
    println!(
        "\nRelative time (geomean, vs DFOGraph): GridGraph {:.2}x, FlashGraph {:.2}x",
        geomean(&ratios_gg),
        geomean(&ratios_fg)
    );
    println!("(paper: >2.52x and 1.06x)");
}
