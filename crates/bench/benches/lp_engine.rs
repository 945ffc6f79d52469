//! Criterion bench: the sparse revised simplex on the compact windowed
//! Appendix A.4 model.
//!
//! ```text
//! cargo bench -p cawo_bench --bench lp_engine
//! ```
//!
//! (The recorded JSON artifact comes from the `bench_lp` binary —
//! `cargo run --release -p cawo_bench --bin bench_lp` — which also
//! measures the 200-task headline and the threads ladder.)

#![allow(missing_docs)] // criterion_group! generates undocumented fns
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cawo_bench::fixtures::lp_chain_fixture;
use cawo_exact::SparseA4Model;
use cawo_platform::Time;

fn bench_lp_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("compact_model");
    group.sample_size(3);
    for &n in &[25usize, 50] {
        let (inst, profile) = lp_chain_fixture(n, 3 * n as Time, 2, &[2, 9]);
        let model = SparseA4Model::build(&inst, &profile);
        group.bench_with_input(BenchmarkId::new("sparse", n), &model, |b, m| {
            b.iter(|| cawo_lp::solve(&m.lp, &cawo_lp::SimplexOptions::default()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lp_engines);
criterion_main!(benches);
