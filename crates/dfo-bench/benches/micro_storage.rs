//! Storage substrate micro-benchmark: throttle fidelity.

use criterion::{criterion_group, criterion_main, Criterion};
use dfo_storage::Throttle;
use std::hint::black_box;

fn bench_throttle_fidelity(c: &mut Criterion) {
    let mut group = c.benchmark_group("throttle");
    group.sample_size(10);
    // 512 MB/s budget, 8 MB transfer => expect ~15.6 ms
    group.bench_function("8MB_at_512MBps", |b| {
        b.iter_batched(
            || Throttle::new(512 << 20),
            |t| {
                t.acquire(8 << 20);
                black_box(())
            },
            criterion::BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_throttle_fidelity);
criterion_main!(benches);
