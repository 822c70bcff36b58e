//! # bikron-bench
//!
//! Benchmark harness crate. The substance lives in:
//!
//! * `benches/` — criterion benchmark groups (`truth_vs_direct`,
//!   `kron_generation`, `butterfly_algorithms`, `spgemm`,
//!   `ground_truth_formulas`, `ablations`);
//! * `src/bin/` — table/figure regeneration binaries (`table1`,
//!   `fig1_connectivity`, `fig3_square_types`, `fig5_degree_squares`,
//!   `verify_identities`, `scaling_laws`, `complexity_sweep`,
//!   `scale_family`, `stochastic_comparison`).
//!
//! See DESIGN.md §5 for the experiment-to-target mapping and
//! EXPERIMENTS.md for paper-vs-measured results.
//!
//! Two library modules back the `loadgen` binary: [`check`], the load
//! checker that compares served answers with a reference (so a tier-1
//! test can drive it against in-process servers), and [`serve_load`], the
//! Zipf key sampler and flat-JSON readers it shares with `perfbench`.

pub mod check;
pub mod serve_load;
