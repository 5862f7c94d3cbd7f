//! §4.2 ablation — push vs no dispatching, end to end through the
//! engine with the strategy forced, across message densities.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dfo_core::Cluster;
use dfo_graph::gen::{rmat, GenConfig};
use dfo_types::{BatchPolicy, DispatchKind};
use std::hint::black_box;
use tempfile::TempDir;

fn bench_dispatch(c: &mut Criterion) {
    let g = rmat(GenConfig::new(11, 8, 42));
    let mut group = c.benchmark_group("dispatch");
    group.sample_size(10);
    // density: fraction of vertices signalling
    for &denom in &[1u64, 64, 1024] {
        for kind in [DispatchKind::Push, DispatchKind::None] {
            let td = TempDir::new().unwrap();
            let mut cfg = dfo_types::EngineConfig::for_test(2);
            cfg.batch_policy = BatchPolicy::FixedVertices(128);
            cfg.dispatch_override = Some(kind);
            let cluster = Cluster::create(cfg, td.path()).unwrap();
            cluster.preprocess(&g).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("{kind:?}"), format!("1/{denom}")),
                &denom,
                |b, &denom| {
                    b.iter(|| {
                        let out = cluster
                            .run(|ctx| {
                                let acc = ctx.vertex_array::<u64>("acc")?;
                                let a = acc.clone();
                                ctx.process_edges(
                                    &[],
                                    &["acc"],
                                    None,
                                    move |v, _c| (v % denom == 0).then_some(1u64),
                                    move |m: u64, _s, d, _e: &(), cx| {
                                        let cur = cx.get(&a, d);
                                        cx.set(&a, d, cur + m);
                                        1u64
                                    },
                                )
                            })
                            .unwrap();
                        black_box(out[0])
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
