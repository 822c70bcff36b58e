//! Substrate benchmark: semiring SpGEMM (`A²`, masked `A³∘A`) and the
//! Kronecker kernel on the unicode-like factor — the linear-algebra costs
//! behind FactorStats, i.e. the fixed preprocessing of every ground-truth
//! query.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bikron_generators::unicode_like::unicode_like;
use bikron_sparse::semiring::Times;
use bikron_sparse::{kron, spgemm, spgemm_masked, u64_plus_times};

fn bench_spgemm(c: &mut Criterion) {
    let g = unicode_like();
    let p = g.adjacency();
    let a = &p.map(|()| 1u64);
    let s = u64_plus_times();
    let a2 = spgemm(&s, a, a).unwrap();

    let mut group = c.benchmark_group("spgemm");
    group.bench_function("a_squared", |b| {
        b.iter(|| black_box(spgemm(&s, a, a).unwrap().nnz()))
    });
    group.bench_function("a3_masked_by_a", |b| {
        b.iter(|| black_box(spgemm_masked(&s, &a2, a, a).unwrap().nnz()))
    });
    group.bench_function("kron_self", |b| {
        b.iter(|| black_box(kron(&Times, p, p).unwrap().nnz()))
    });
    group.finish();
}

criterion_group!(benches, bench_spgemm);
criterion_main!(benches);
