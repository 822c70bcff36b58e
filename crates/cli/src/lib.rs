#![warn(missing_docs)]

//! # bikron-cli
//!
//! Library backing the `bikron` command-line tool: factor specification
//! parsing and the subcommand implementations, kept in a library so they
//! are unit-testable. The binary (`src/main.rs`) is a thin wrapper.
//!
//! ## Factor specifications
//!
//! Factors are given as compact specs:
//!
//! | spec | graph |
//! |---|---|
//! | `path:N` | path on `N` vertices |
//! | `cycle:N` | cycle `C_N` |
//! | `star:N` | star with `N` leaves |
//! | `complete:N` | clique `K_N` |
//! | `kmn:MxN` | complete bipartite `K_{M,N}` |
//! | `crown:N` | crown (biclique minus matching) |
//! | `hypercube:D` | `Q_D` |
//! | `grid:MxN` | grid graph |
//! | `wheel:N` | wheel with rim `N` |
//! | `petersen` | the Petersen graph |
//! | `unicode` | the Table-I unicode-like factor |
//! | `unicode:SEED` | same with an explicit seed |
//! | `powerlaw:SEED` | default bipartite Chung–Lu with the given seed |
//! | `file:PATH` | 0-based edge list on disk |
//! | `konect:PATH` | 1-based KONECT bipartite edge list |

pub mod commands;
pub mod flags;
pub mod monitor;
pub mod observability;
pub mod perfdiff;
pub mod profile;
pub mod replay;
pub mod spec;
pub mod trace;

/// The shared keep-alive HTTP/1.1 client, re-exported for the bench
/// binaries (which reach `bikron-serve` only through this crate).
pub use bikron_serve::client;
pub use flags::{split_global_flags, GlobalOpts};
pub use monitor::MonitorConfig;
pub use observability::{write_observability, Outcome};
pub use perfdiff::{perfdiff_files, perfdiff_profile_files, PerfDiffConfig};
pub use profile::ProfileConfig;
pub use spec::{parse_factor, parse_mode, SpecError};
pub use trace::TraceConfig;
