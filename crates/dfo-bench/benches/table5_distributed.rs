//! Table 5 — distributed comparison on 8 (simulated) nodes: DFOGraph vs
//! Chaos-like vs HybridGraph-like vs Gemini-like, plus one PageRank
//! iteration on the big Kronecker graph for the fully-out-of-core headline.
//!
//! Expected shape (paper): DFOGraph >12.94× over Chaos, >10.82× over
//! HybridGraph, ~0.21× of in-memory Gemini.

use dfo_baselines::{
    bfs_spec, pagerank_rounds, spec::out_degrees, sssp_spec, wcc_spec, BaselineCluster,
    ChaosEngine, GeminiEngine, HybridGraphEngine,
};
use dfo_bench::{
    describe, dfo_suite, fmt_secs, geomean, kron_like, rmat_like, timed, twitter_like, uk_like,
    weighted, DISK_BW, NET_BW,
};
use tempfile::TempDir;

const P: usize = 8;

type Suite = (f64, f64, f64, f64, f64);

fn chaos_suite(dir: &std::path::Path, g: &dfo_graph::EdgeList<()>) -> Suite {
    let deg = out_degrees(g);
    let sym = dfo_algos::wcc::symmetrize(g);
    let w = weighted(g);
    let mk = |sub: &str| {
        BaselineCluster::create(P, dir.join(sub), Some(DISK_BW), Some(NET_BW), false).unwrap()
    };
    let (e, prep) = timed(|| ChaosEngine::preprocess(mk("c"), g).unwrap());
    let (_, pr) = timed(|| e.pagerank(&pagerank_rounds(5), &deg).unwrap());
    let (_, bfs) = timed(|| e.run_push(&bfs_spec(0)).unwrap());
    let es = ChaosEngine::preprocess(mk("cs"), &sym).unwrap();
    let (_, wcc) = timed(|| es.run_push(&wcc_spec()).unwrap());
    let ew = ChaosEngine::preprocess(mk("cw"), &w).unwrap();
    let (_, sssp) = timed(|| ew.run_push(&sssp_spec(0)).unwrap());
    (prep, pr, bfs, wcc, sssp)
}

fn hybrid_suite(dir: &std::path::Path, g: &dfo_graph::EdgeList<()>) -> Suite {
    let deg = out_degrees(g);
    let sym = dfo_algos::wcc::symmetrize(g);
    let w = weighted(g);
    let mem = 8u64 << 20; // deliberately modest combiner budget
    let mk = |sub: &str| {
        BaselineCluster::create(P, dir.join(sub), Some(DISK_BW), Some(NET_BW), false).unwrap()
    };
    let (e, prep) = timed(|| HybridGraphEngine::preprocess(mk("h"), g, mem).unwrap());
    let (_, pr) = timed(|| e.pagerank(&pagerank_rounds(5), &deg).unwrap());
    let (_, bfs) = timed(|| e.run_push(&bfs_spec(0), |a, b| a.min(b)).unwrap());
    let es = HybridGraphEngine::preprocess(mk("hs"), &sym, mem).unwrap();
    let (_, wcc) = timed(|| es.run_push(&wcc_spec(), |a, b| a.min(b)).unwrap());
    let ew = HybridGraphEngine::preprocess(mk("hw"), &w, mem).unwrap();
    let (_, sssp) = timed(|| ew.run_push(&sssp_spec(0), f32::min).unwrap());
    (prep, pr, bfs, wcc, sssp)
}

fn gemini_suite(dir: &std::path::Path, g: &dfo_graph::EdgeList<()>) -> Option<Suite> {
    let deg = out_degrees(g);
    let sym = dfo_algos::wcc::symmetrize(g);
    let w = weighted(g);
    let mem = 2u64 << 30;
    let mk =
        |sub: &str| BaselineCluster::create(P, dir.join(sub), None, Some(NET_BW), false).unwrap();
    let (e, prep) = match timed(|| GeminiEngine::load(mk("m"), g, mem)) {
        (Ok(e), t) => (e, t),
        (Err(_), _) => return None, // the paper's "M" (out of memory)
    };
    let (_, pr) = timed(|| e.pagerank(&pagerank_rounds(5), &deg).unwrap());
    let (_, bfs) = timed(|| e.run_push(&bfs_spec(0), |a, b| a.min(b)).unwrap());
    let es = GeminiEngine::load(mk("ms"), &sym, mem).unwrap();
    let (_, wcc) = timed(|| es.run_push(&wcc_spec(), |a, b| a.min(b)).unwrap());
    let ew = GeminiEngine::load(mk("mw"), &w, mem).unwrap();
    let (_, sssp) = timed(|| ew.run_push(&sssp_spec(0), f32::min).unwrap());
    Some((prep, pr, bfs, wcc, sssp))
}

fn print_rows(name: &str, t: Suite) {
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
    println!("=== Table 5: distributed comparison (P={P}) ===");
    let td = TempDir::new().unwrap();
    let mut r_chaos = Vec::new();
    let mut r_hybrid = Vec::new();
    let mut r_gemini = Vec::new();
    for (gname, g) in
        [("twitter-like", twitter_like()), ("uk-like", uk_like()), ("RMAT-like", rmat_like())]
    {
        println!("\n--- {} ---", describe(gname, &g));
        println!(
            "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "system", "Prep", "PR", "BFS", "WCC", "SSSP"
        );
        let dir = td.path().join(gname);
        // Table 7 reports the last field, preprocessing's CPU-seconds
        let (prep, pr, bfs, wcc, sssp, _) = dfo_suite(&dir.join("dfo"), P, &g, 5);
        let dfo = (prep, pr, bfs, wcc, sssp);
        print_rows("DFOGraph", dfo);
        let ch = chaos_suite(&dir, &g);
        print_rows("Chaos", ch);
        let hy = hybrid_suite(&dir, &g);
        print_rows("HybridGraph", hy);
        match gemini_suite(&dir, &g) {
            Some(gm) => {
                print_rows("Gemini", gm);
                for (d, o) in [(dfo.1, gm.1), (dfo.2, gm.2), (dfo.3, gm.3), (dfo.4, gm.4)] {
                    r_gemini.push(o / d);
                }
            }
            None => println!("{:<14} M (out of memory)", "Gemini"),
        }
        for (d, o) in [(dfo.1, ch.1), (dfo.2, ch.2), (dfo.3, ch.3), (dfo.4, ch.4)] {
            r_chaos.push(o / d);
        }
        for (d, o) in [(dfo.1, hy.1), (dfo.2, hy.2), (dfo.3, hy.3), (dfo.4, hy.4)] {
            r_hybrid.push(o / d);
        }
    }

    // KRON headline: preprocessing + one PR iteration, DFOGraph vs Chaos
    let g = kron_like();
    println!("\n--- {} (PR1 headline) ---", describe("KRON-like", &g));
    let dir = td.path().join("kron");
    let cfg = dfo_bench::dfo_config(P);
    let cluster = dfo_core::Cluster::create(cfg, dir.join("dfo")).unwrap();
    let (_, prep) = timed(|| cluster.preprocess(&g).unwrap());
    let (_, pr1) = timed(|| {
        cluster
            .run(|ctx| {
                dfo_algos::pagerank(ctx, 1)?;
                Ok(0u64)
            })
            .unwrap()
    });
    println!("DFOGraph       Prep {}  PR1 {}", fmt_secs(prep), fmt_secs(pr1));
    let bc =
        BaselineCluster::create(P, dir.join("chaos"), Some(DISK_BW), Some(NET_BW), false).unwrap();
    let deg = out_degrees(&g);
    let (ce, cprep) = timed(|| ChaosEngine::preprocess(bc, &g).unwrap());
    let (_, cpr1) = timed(|| ce.pagerank(&pagerank_rounds(1), &deg).unwrap());
    println!("Chaos          Prep {}  PR1 {}", fmt_secs(cprep), fmt_secs(cpr1));

    println!(
        "\nRelative time (geomean, vs DFOGraph): Chaos {:.2}x, HybridGraph {:.2}x, Gemini {:.2}x",
        geomean(&r_chaos),
        geomean(&r_hybrid),
        if r_gemini.is_empty() { f64::NAN } else { geomean(&r_gemini) }
    );
    println!("(paper: >12.94x, >10.82x, 0.21x)");
}
