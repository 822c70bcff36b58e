//! Property tests for the Kronecker/Hadamard algebra identities the paper
//! relies on (Appendix A, Props. 1 and 2). Every ground-truth derivation in
//! the workspace rests on these, so they are tested against randomly
//! generated sparse matrices rather than hand-picked examples.

use bikron_sparse::semiring::Times;
use bikron_sparse::{
    apply, diag_matrix, diag_vector, ewise_add, ewise_mult, i64_plus_times, kron, reduce_scalar,
    spgemm, transpose, Coo, Csr,
};
use proptest::prelude::*;

/// Strategy: a random sparse i64 matrix of the given shape with small
/// values (so products of four matrices stay well inside i64).
fn sparse_matrix(nrows: usize, ncols: usize) -> impl Strategy<Value = Csr<i64>> {
    let max_nnz = (nrows * ncols).min(24);
    proptest::collection::vec((0..nrows, 0..ncols, -3i64..=3), 0..=max_nnz).prop_map(
        move |triplets| {
            let coo = Coo::from_triplets(nrows, ncols, triplets).unwrap();
            Csr::from_coo(coo, |a, b| a + b, |v| v == 0)
        },
    )
}

/// Strategy: a square pattern built symmetric (diagonal entries and empty
/// rows included), then toggled at up to `max_flips` single entries and
/// along a directed cycle of up to `max_flips + 2` vertices. A fresh
/// directed cycle keeps every row's and column's entry count, so only
/// matching actual columns tells it from a symmetric pattern.
fn near_symmetric_pattern(max_flips: usize) -> impl Strategy<Value = Csr<u64>> {
    let max_cycle = if max_flips == 0 { 0 } else { max_flips + 2 };
    (1usize..9).prop_flat_map(move |n| {
        (
            proptest::collection::vec((0..n, 0..n), 0..=2 * n),
            proptest::collection::vec((0..n, 0..n), 0..=max_flips),
            proptest::collection::vec(0..n, 0..=max_cycle),
        )
            .prop_map(move |(pairs, mut flips, cycle)| {
                let mut dense = vec![false; n * n];
                for (r, c) in pairs {
                    dense[r * n + c] = true;
                    dense[c * n + r] = true;
                }
                if cycle.len() > 1 {
                    flips.extend(
                        cycle
                            .iter()
                            .zip(cycle.iter().cycle().skip(1))
                            .map(|(&r, &c)| (r, c)),
                    );
                }
                for (r, c) in flips {
                    dense[r * n + c] = !dense[r * n + c];
                }
                let triplets: Vec<_> = (0..n * n)
                    .filter(|&i| dense[i])
                    .map(|i| (i / n, i % n, 1u64))
                    .collect();
                Csr::from_coo(
                    Coo::from_triplets(n, n, triplets).unwrap(),
                    |a, _| a,
                    |v| v == 0,
                )
            })
    })
}

/// Dense equality modulo explicit zeros: compares materialised values, so
/// a stored zero equals an absent entry.
fn dense_eq(a: &Csr<i64>, b: &Csr<i64>) -> bool {
    a.nrows() == b.nrows() && a.ncols() == b.ncols() && a.to_dense() == b.to_dense()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Prop 1(a): (a1*a2)(A1 ⊗ A2) = (a1*A1) ⊗ (a2*A2)
    #[test]
    fn kron_scalar_multiplication(
        a in sparse_matrix(3, 4),
        b in sparse_matrix(2, 3),
        s1 in -3i64..=3,
        s2 in -3i64..=3,
    ) {
        let lhs = apply(&kron(&Times, &a, &b).unwrap(), |v| s1 * s2 * v, |&v| v == 0).unwrap();
        let sa = apply(&a, |v| s1 * v, |&v| v == 0).unwrap();
        let sb = apply(&b, |v| s2 * v, |&v| v == 0).unwrap();
        let rhs = kron(&Times, &sa, &sb).unwrap();
        prop_assert!(dense_eq(&lhs, &rhs));
    }

    // Prop 1(b): (A1 + A2) ⊗ A3 = (A1 ⊗ A3) + (A2 ⊗ A3)
    #[test]
    fn kron_left_distributivity(
        a1 in sparse_matrix(3, 3),
        a2 in sparse_matrix(3, 3),
        a3 in sparse_matrix(2, 4),
    ) {
        let sum = ewise_add(&a1, &a2, |x, y| x + y, |&v| v == 0).unwrap();
        let lhs = kron(&Times, &sum, &a3).unwrap();
        let k1 = kron(&Times, &a1, &a3).unwrap();
        let k2 = kron(&Times, &a2, &a3).unwrap();
        let rhs = ewise_add(&k1, &k2, |x, y| x + y, |&v| v == 0).unwrap();
        prop_assert!(dense_eq(&lhs, &rhs));
    }

    // Prop 1(b) second form: A1 ⊗ (A2 + A3)
    #[test]
    fn kron_right_distributivity(
        a1 in sparse_matrix(2, 3),
        a2 in sparse_matrix(3, 2),
        a3 in sparse_matrix(3, 2),
    ) {
        let sum = ewise_add(&a2, &a3, |x, y| x + y, |&v| v == 0).unwrap();
        let lhs = kron(&Times, &a1, &sum).unwrap();
        let k1 = kron(&Times, &a1, &a2).unwrap();
        let k2 = kron(&Times, &a1, &a3).unwrap();
        let rhs = ewise_add(&k1, &k2, |x, y| x + y, |&v| v == 0).unwrap();
        prop_assert!(dense_eq(&lhs, &rhs));
    }

    // Prop 1(c): (A1 ⊗ A2)ᵗ = A1ᵗ ⊗ A2ᵗ
    #[test]
    fn kron_transposition(a in sparse_matrix(3, 4), b in sparse_matrix(2, 5)) {
        let lhs = transpose(&kron(&Times, &a, &b).unwrap());
        let rhs = kron(&Times, &transpose(&a), &transpose(&b)).unwrap();
        prop_assert!(dense_eq(&lhs, &rhs));
    }

    // Prop 1(d): (A1 ⊗ A2)(A3 ⊗ A4) = (A1·A3) ⊗ (A2·A4)
    #[test]
    fn kron_mixed_product(
        a1 in sparse_matrix(2, 3),
        a2 in sparse_matrix(3, 2),
        a3 in sparse_matrix(3, 2),
        a4 in sparse_matrix(2, 3),
    ) {
        let s = i64_plus_times();
        let k12 = kron(&Times, &a1, &a2).unwrap();
        let k34 = kron(&Times, &a3, &a4).unwrap();
        let lhs = spgemm(&s, &k12, &k34).unwrap();
        let p13 = spgemm(&s, &a1, &a3).unwrap();
        let p24 = spgemm(&s, &a2, &a4).unwrap();
        let rhs = kron(&Times, &p13, &p24).unwrap();
        prop_assert!(dense_eq(&lhs, &rhs));
    }

    // Prop 2(a): A1 ∘ A2 = A2 ∘ A1
    #[test]
    fn hadamard_commutativity(a in sparse_matrix(4, 4), b in sparse_matrix(4, 4)) {
        let lhs = ewise_mult(&a, &b, |x, y| x * y, |&v| v == 0).unwrap();
        let rhs = ewise_mult(&b, &a, |x, y| x * y, |&v| v == 0).unwrap();
        prop_assert!(dense_eq(&lhs, &rhs));
    }

    // Prop 2(c): (A1 + A2) ∘ A3 = (A1 ∘ A3) + (A2 ∘ A3)
    #[test]
    fn hadamard_distributivity(
        a1 in sparse_matrix(3, 3),
        a2 in sparse_matrix(3, 3),
        a3 in sparse_matrix(3, 3),
    ) {
        let sum = ewise_add(&a1, &a2, |x, y| x + y, |&v| v == 0).unwrap();
        let lhs = ewise_mult(&sum, &a3, |x, y| x * y, |&v| v == 0).unwrap();
        let h1 = ewise_mult(&a1, &a3, |x, y| x * y, |&v| v == 0).unwrap();
        let h2 = ewise_mult(&a2, &a3, |x, y| x * y, |&v| v == 0).unwrap();
        let rhs = ewise_add(&h1, &h2, |x, y| x + y, |&v| v == 0).unwrap();
        prop_assert!(dense_eq(&lhs, &rhs));
    }

    // Prop 2(d): (A1 ∘ A2)ᵗ = A1ᵗ ∘ A2ᵗ
    #[test]
    fn hadamard_transposition(a in sparse_matrix(3, 5), b in sparse_matrix(3, 5)) {
        let lhs = transpose(&ewise_mult(&a, &b, |x, y| x * y, |&v| v == 0).unwrap());
        let rhs = ewise_mult(&transpose(&a), &transpose(&b), |x, y| x * y, |&v| v == 0).unwrap();
        prop_assert!(dense_eq(&lhs, &rhs));
    }

    // Prop 2(e): (A1 ⊗ A2) ∘ (A3 ⊗ A4) = (A1 ∘ A3) ⊗ (A2 ∘ A4)
    #[test]
    fn hadamard_kronecker_distributivity(
        a1 in sparse_matrix(2, 3),
        a3 in sparse_matrix(2, 3),
        a2 in sparse_matrix(3, 2),
        a4 in sparse_matrix(3, 2),
    ) {
        let k12 = kron(&Times, &a1, &a2).unwrap();
        let k34 = kron(&Times, &a3, &a4).unwrap();
        let lhs = ewise_mult(&k12, &k34, |x, y| x * y, |&v| v == 0).unwrap();
        let h13 = ewise_mult(&a1, &a3, |x, y| x * y, |&v| v == 0).unwrap();
        let h24 = ewise_mult(&a2, &a4, |x, y| x * y, |&v| v == 0).unwrap();
        let rhs = kron(&Times, &h13, &h24).unwrap();
        prop_assert!(dense_eq(&lhs, &rhs));
    }

    // Prop 2(f): diag(A1 ⊗ A2) = diag(A1) ⊗ diag(A2)
    #[test]
    fn diag_kronecker_distributivity(a in sparse_matrix(3, 3), b in sparse_matrix(4, 4)) {
        let k = kron(&Times, &a, &b).unwrap();
        let lhs = diag_vector(&k, 0).unwrap();
        let da = diag_vector(&a, 0).unwrap();
        let db = diag_vector(&b, 0).unwrap();
        let rhs: Vec<i64> = da
            .iter()
            .flat_map(|&x| db.iter().map(move |&y| x * y))
            .collect();
        prop_assert_eq!(lhs, rhs);
    }

    // Transpose is an involution and preserves total sum.
    #[test]
    fn transpose_involution(a in sparse_matrix(4, 6)) {
        prop_assert!(dense_eq(&transpose(&transpose(&a)), &a));
        prop_assert_eq!(
            reduce_scalar(&bikron_sparse::semiring::Plus, &a),
            reduce_scalar(&bikron_sparse::semiring::Plus, &transpose(&a))
        );
    }

    // SpGEMM associativity on small squares: (AB)C = A(BC).
    #[test]
    fn spgemm_associativity(
        a in sparse_matrix(3, 3),
        b in sparse_matrix(3, 3),
        c in sparse_matrix(3, 3),
    ) {
        let s = i64_plus_times();
        let ab_c = spgemm(&s, &spgemm(&s, &a, &b).unwrap(), &c).unwrap();
        let a_bc = spgemm(&s, &a, &spgemm(&s, &b, &c).unwrap()).unwrap();
        prop_assert!(dense_eq(&ab_c, &a_bc));
    }

    // The one-pass cursor walk agrees with the per-entry definition
    // "every (r, c) has a stored (c, r)" on symmetric patterns and on
    // patterns a few toggled entries or one toggled cycle away from them.
    #[test]
    fn pattern_symmetry_matches_per_entry_definition(
        sym in near_symmetric_pattern(0),
        near in near_symmetric_pattern(2),
    ) {
        prop_assert!(sym.is_pattern_symmetric());
        let per_entry = near.iter().all(|(r, c, _)| near.get(c, r).is_some());
        prop_assert_eq!(near.is_pattern_symmetric(), per_entry);
    }

    // diag_matrix ∘ diag_vector round trip.
    #[test]
    fn diag_round_trip(d in proptest::collection::vec(-5i64..=5, 0..12)) {
        let m = diag_matrix(&d, |&v| v == 0);
        prop_assert_eq!(diag_vector(&m, 0).unwrap(), d);
    }
}
