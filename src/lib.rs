//! # popt — Non-Invasive Progressive Optimization for In-Memory Databases
//!
//! A from-scratch Rust reproduction of Zeuch, Pirk and Freytag,
//! *"Non-Invasive Progressive Optimization for In-Memory Databases"*,
//! PVLDB 9(14), VLDB 2016.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`cpu`] — deterministic simulated CPU with PMU counters (the substrate
//!   standing in for the paper's Intel performance monitoring units);
//! * [`storage`] — column store and TPC-H-style data generation;
//! * [`cost`] — the paper's cost models (Markov branch model, cache access
//!   model, join cache-miss model, unified cycle estimates);
//! * [`solver`] — search-space restriction, start-point selection and the
//!   bounded Nelder–Mead selectivity estimator;
//! * [`obs`] — non-invasive observability: deterministic structured
//!   traces stamped in simulated cycles, the model-drift observatory,
//!   the per-stage cycle profiler, and the Chrome-trace / decision-log
//!   exporters (tracing on or off is bit-identical — see the README's
//!   "Observability" section);
//! * [`core`] — the vectorized execution engine and the progressive
//!   optimizer itself, unified across executors: the multi-selection
//!   scan and compiled selection/join-filter programs share one §4.4
//!   loop (`core::progressive::ProgressiveTarget`), with program stages
//!   ranked by estimated cost per input tuple (Sections 5.5–5.6).
//!
//! See `README.md`: "Quickstart" for a tour, "Workspace map" for the
//! system inventory, and the per-subsystem sections ("Parallel
//! execution", "Memory model", "Serving architecture", "Observability",
//! "Simulator performance") for the measured record of what each figure
//! reproduces.
//!
//! ```
//! // The five-minute tour: run TPC-H Q6 with and without progressive
//! // optimization on a deliberately bad initial predicate order.
//! use popt::core::query::{QueryBuilder, RunMode};
//! use popt::storage::tpch::{TpchConfig, generate_lineitem};
//!
//! let table = generate_lineitem(&TpchConfig::small());
//! let report = QueryBuilder::q6(&table)
//!     .vectors(32)
//!     .run(RunMode::Progressive { reop_interval: 4 })
//!     .unwrap();
//! assert!(report.result.rows_qualified > 0);
//! ```

pub use popt_core as core;
pub use popt_cost as cost;
pub use popt_cpu as cpu;
pub use popt_obs as obs;
pub use popt_solver as solver;
pub use popt_storage as storage;
