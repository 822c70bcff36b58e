//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! 1. **Masked SpGEMM vs post-hoc Hadamard** for `A³ ∘ A` (Def. 9's core
//!    kernel): the masked kernel never materialises dense-ish `A³`.
//! 2. **Sequential vs parallel** butterfly counting at factor scale.
//! 3. **Direct CSR Kronecker vs COO round-trip**: the kron kernel emits
//!    CSR rows directly; the ablation routes through a COO rebuild.
//! 4. **Sublinear global formula vs linear per-vertex sum**: both exact,
//!    the former is the paper's headline complexity.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bikron_analytics::{butterflies_per_vertex, butterflies_per_vertex_parallel};
use bikron_core::truth::squares_vertex::{global_squares_with, vertex_squares_with};
use bikron_core::truth::FactorStats;
use bikron_core::{KroneckerProduct, SelfLoopMode};
use bikron_generators::unicode_like::unicode_like;
use bikron_sparse::semiring::Times;
use bikron_sparse::{ewise_mult, kron, spgemm, spgemm_masked, u64_plus_times, Coo, Csr};

fn bench_ablations(c: &mut Criterion) {
    let g = unicode_like();
    let p = g.adjacency();
    let a = &p.map(|()| 1u64);
    let s = u64_plus_times();
    let a2 = spgemm(&s, a, a).unwrap();

    let mut group = c.benchmark_group("ablations");

    // 1. masked vs unmasked-then-hadamard.
    group.bench_function("a3_hadamard_masked_spgemm", |b| {
        b.iter(|| black_box(spgemm_masked(&s, &a2, a, a).unwrap().nnz()))
    });
    group.bench_function("a3_hadamard_full_then_mult", |b| {
        b.iter(|| {
            let a3 = spgemm(&s, &a2, a).unwrap();
            black_box(ewise_mult(&a3, a, |x, _| x, |&v| v == 0).unwrap().nnz())
        })
    });

    // 2. sequential vs parallel butterfly counting.
    group.bench_function("butterflies_sequential", |b| {
        b.iter(|| black_box(butterflies_per_vertex(&g).len()))
    });
    group.bench_function("butterflies_parallel", |b| {
        b.iter(|| black_box(butterflies_per_vertex_parallel(&g).len()))
    });

    // 3. direct-CSR kron vs COO round trip.
    group.sample_size(10);
    group.bench_function("kron_direct_csr", |b| {
        b.iter(|| black_box(kron(&Times, p, p).unwrap().nnz()))
    });
    group.bench_function("kron_via_coo", |b| {
        b.iter(|| {
            let (ma, mb) = (p.nrows(), p.nrows());
            let mut coo = Coo::with_capacity(ma * mb, ma * mb, p.nnz() * p.nnz());
            for (i, j, ()) in p.iter() {
                for (k, l, ()) in p.iter() {
                    coo.push(i * mb + k, j * mb + l, ()).unwrap();
                }
            }
            black_box(Csr::from_coo(coo, |(), ()| (), |()| false).nnz())
        })
    });

    // 4. sublinear global vs linear vector sum.
    let prod = KroneckerProduct::new(&g, &g, SelfLoopMode::FactorA).unwrap();
    let sa = FactorStats::compute(&g).unwrap();
    group.bench_function("global_sublinear_formula", |b| {
        b.iter(|| black_box(global_squares_with(&prod, &sa, &sa).unwrap()))
    });
    group.bench_function("global_via_vertex_vector", |b| {
        b.iter(|| {
            let v = vertex_squares_with(&prod, &sa, &sa).unwrap();
            black_box(v.iter().sum::<u64>() / 4)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
