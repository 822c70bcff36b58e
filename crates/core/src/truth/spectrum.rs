//! Ground-truth adjacency spectra of products.
//!
//! The spectrum is fully compositional (one of the "previous work"
//! properties the paper's §I inventory lists):
//!
//! * `C = A ⊗ B`:        `λ(C) = {λ_i(A) · λ_j(B)}`,
//! * `C = (A+I_A) ⊗ B`:  `λ(C) = {(λ_i(A) + 1) · λ_j(B)}`
//!
//! (`A + I` shifts the spectrum by one; the Kronecker product multiplies
//! spectra — both because the factors commute with themselves). So exact
//! product eigenvalues cost two factor-sized Jacobi runs, never a
//! product-sized solve. The spectral radius bounds mixing behaviour and
//! the largest eigenvalue of bipartite graphs comes in ± pairs, both of
//! which the tests pin.

use bikron_sparse::eigen::symmetric_eigenvalues;
use bikron_sparse::SparseResult;

use crate::product::{KroneckerProduct, SelfLoopMode};

/// Exact eigenvalues of the product adjacency, sorted ascending, computed
/// from factor spectra only.
pub fn product_spectrum(prod: &KroneckerProduct<'_>, tol: f64) -> SparseResult<Vec<f64>> {
    let ea = symmetric_eigenvalues(&prod.factor_a().adjacency().map(|()| 1), tol)?;
    let eb = symmetric_eigenvalues(&prod.factor_b().adjacency().map(|()| 1), tol)?;
    let shift = match prod.mode() {
        SelfLoopMode::None => 0.0,
        SelfLoopMode::FactorA => 1.0,
    };
    let mut out = Vec::with_capacity(ea.len() * eb.len());
    for &la in &ea {
        for &lb in &eb {
            out.push((la + shift) * lb);
        }
    }
    out.sort_by(|a, b| a.partial_cmp(b).expect("finite eigenvalues"));
    Ok(out)
}

/// The spectral radius of the product (largest |λ|).
pub fn spectral_radius(prod: &KroneckerProduct<'_>, tol: f64) -> SparseResult<f64> {
    let s = product_spectrum(prod, tol)?;
    Ok(s.iter().fold(0.0f64, |acc, &x| acc.max(x.abs())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bikron_generators::{complete, complete_bipartite, cycle, path, star};

    fn assert_spectra_close(got: &[f64], want: &[f64], tol: f64) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < tol, "{g} vs {w}");
        }
    }

    fn check(a: &bikron_graph::Graph, b: &bikron_graph::Graph, mode: SelfLoopMode) {
        let prod = KroneckerProduct::new(a, b, mode).unwrap();
        let truth = product_spectrum(&prod, 1e-13).unwrap();
        let g = prod.materialize();
        let direct = symmetric_eigenvalues(&g.adjacency().map(|()| 1), 1e-13).unwrap();
        assert_spectra_close(&truth, &direct, 1e-6);
    }

    #[test]
    fn spectra_compose_mode_none() {
        check(&cycle(3), &path(3), SelfLoopMode::None);
        check(&complete(4), &complete_bipartite(2, 2), SelfLoopMode::None);
        check(&star(3), &cycle(4), SelfLoopMode::None);
    }

    #[test]
    fn spectra_compose_mode_factor_a() {
        check(&path(3), &cycle(4), SelfLoopMode::FactorA);
        check(&complete_bipartite(2, 3), &star(3), SelfLoopMode::FactorA);
    }

    #[test]
    fn bipartite_product_spectrum_is_symmetric() {
        // Bipartite graphs have ±-paired spectra; the product of Thm. 2 is
        // bipartite, so λ and −λ appear together.
        let a = path(3);
        let b = complete_bipartite(2, 3);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::FactorA).unwrap();
        let s = product_spectrum(&prod, 1e-13).unwrap();
        for (lo, hi) in s.iter().zip(s.iter().rev()) {
            assert!((lo + hi).abs() < 1e-7, "spectrum not symmetric: {lo} {hi}");
        }
    }

    #[test]
    fn spectral_radius_of_biclique_product() {
        // λ_max(K_{m,n}) = √(mn); product radius multiplies.
        let a = cycle(3); // radius 2
        let b = complete_bipartite(2, 3); // radius √6
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let r = spectral_radius(&prod, 1e-13).unwrap();
        assert!((r - 2.0 * 6f64.sqrt()).abs() < 1e-6);
    }
}
