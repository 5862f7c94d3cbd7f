//! §4.1 ablation — CSR vs DCSR access cost across chunk density and message
//! count: locates the crossover the adaptive cost model exploits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dfo_part::csr::{IndexedChunk, MergeCursor};
use std::hint::black_box;

fn build_chunk(n_src: u32, nonzero: u32, edges_per_src: u32) -> IndexedChunk<u32> {
    let stride = (n_src / nonzero.max(1)).max(1);
    let mut edges = Vec::new();
    for i in 0..nonzero {
        let s = i * stride;
        for k in 0..edges_per_src {
            edges.push((s, k, s ^ k));
        }
    }
    IndexedChunk::build(n_src, &edges, f64::INFINITY) // always build CSR too
}

fn bench_seek(c: &mut Criterion) {
    let mut group = c.benchmark_group("repr_seek");
    group.sample_size(20);
    let n_src = 1 << 16;
    for &nonzero in &[64u32, 1 << 10, 1 << 14] {
        let chunk = build_chunk(n_src, nonzero, 4);
        for &n_msgs in &[8u32, 256, 8192] {
            let msgs: Vec<u32> = (0..n_msgs).map(|i| i * (n_src / n_msgs.max(1))).collect();
            group.bench_with_input(
                BenchmarkId::new(format!("csr_nz{nonzero}"), n_msgs),
                &msgs,
                |b, msgs| {
                    b.iter(|| {
                        let mut acc = 0u64;
                        for &m in msgs {
                            for e in chunk.edges_of_csr(m) {
                                acc += chunk.dst[e] as u64;
                            }
                        }
                        black_box(acc)
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("dcsr_nz{nonzero}"), n_msgs),
                &msgs,
                |b, msgs| {
                    b.iter(|| {
                        let mut cur = MergeCursor::new();
                        let mut acc = 0u64;
                        for &m in msgs {
                            for e in cur.edges_of(&chunk, m) {
                                acc += chunk.dst[e] as u64;
                            }
                        }
                        black_box(acc)
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_space(c: &mut Criterion) {
    // serialized size difference: the I/O the inflate ratio gates
    let mut group = c.benchmark_group("repr_space");
    group.sample_size(10);
    for &nonzero in &[64u32, 1 << 12] {
        let with_csr = build_chunk(1 << 16, nonzero, 4);
        let no_csr = IndexedChunk::build(
            1 << 16,
            &with_csr.iter().map(|(s, d, &x)| (s, d, x)).collect::<Vec<_>>(),
            0.0, // never accept CSR
        );
        println!(
            "chunk nz={nonzero}: dcsr-only {} B, +csr {} B",
            no_csr.serialized_bytes(),
            with_csr.serialized_bytes()
        );
        group.bench_function(BenchmarkId::new("serialize_dcsr", nonzero), |b| {
            b.iter(|| black_box(no_csr.write_to_framed(Vec::new(), false).unwrap().len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_seek, bench_space);
criterion_main!(benches);
