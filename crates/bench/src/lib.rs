//! # archgraph-bench
//!
//! The figure/table regeneration harness: shared workload construction,
//! sweep configuration, and the sweeps and printers that the `fig1`,
//! `fig2`, `table1` and `all` binaries (and the ablation benches) call.
//! `all` is the one driver of the whole evaluation: it runs each sweep
//! once and prints every figure, the table and the §5 ratios.
//!
//! Every experiment is documented in `DESIGN.md`'s per-experiment index and
//! records paper-vs-measured results in `EXPERIMENTS.md`.

#![warn(missing_docs)]

pub mod cells;
pub mod fig1;
pub mod fig2;
pub mod figure;
pub mod grid;
pub mod guard;
pub mod json;
pub mod kernels;
pub mod scale;
pub mod signals;
pub mod sweep;
pub mod table1;
pub mod workloads;

pub use cells::{bench_suite, CellSpec, Fingerprint, Kernel, MachineKind};
pub use guard::{first_or_exit, last_or_exit, series_or_exit};
pub use scale::{parse_scale_args, scale_or_usage, usage_error, Scale};
pub use sweep::{CellFailure, CellOutcome, CellPoint, Checkpoint, PanelSweep};
