//! Multi-query serving: admission, priority scheduling, and cross-query
//! order reuse on the shared [`popt_cpu::CpuPool`].
//!
//! The paper optimizes one query at a time; a production system serves a
//! *stream* of them. This module layers a serving loop over the
//! morsel-driven parallel executor without touching the execution or
//! optimization machinery — the non-invasive theme, one level up:
//!
//! * [`server::QueryServer`] admits [`server::QuerySpec`]s (a
//!   multi-selection scan or a compiled frontend program — see
//!   [`server::QuerySpec::from_plan`] — each with a [`server::Priority`]
//!   and an arrival time; a scan is lowered to its compiled program when
//!   the spec is built, so every query executes as the same compiled form
//!   through the same target) and executes them as interleaved morsel
//!   streams over one pool. Each
//!   query keeps its own progressive coordination state — epoch-published
//!   orders, trial leasing, rejection memory — exactly as if it ran
//!   alone; the epoch mechanism already isolates per-query orders, so
//!   concurrency costs no new invariants.
//! * [`scheduler::StrideScheduler`] divides morsel slots across active
//!   queries in proportion to priority weights, with a starvation bound
//!   of one stride.
//! * [`cache::OrderCache`] keys each finished query's converged operator
//!   order and probe-clustering calibration by its workload signature
//!   (row count + the program's literal-free stage keys: predicate/probe
//!   *structure*, not literals), so a repeated query *template* — including a
//!   parameterized one whose literals slide between arrivals — starts
//!   from the last converged state instead of the textbook order — the
//!   paper's convergence win amortized across the workload.
//!
//! Results are bit-identical to solo single-core execution for every
//! admitted query, for any worker count, priority mix, or arrival
//! pattern: see `tests/proptest_serve.rs`.
//!
//! ```
//! use popt_core::plan::SelectionPlan;
//! use popt_core::predicate::{CompareOp, Predicate};
//! use popt_core::serve::{Priority, QueryServer, QuerySpec, ServeConfig};
//! use popt_cpu::{CpuConfig, CpuPool};
//! use popt_storage::{AddressSpace, ColumnData, Table};
//!
//! let mut space = AddressSpace::new();
//! let mut table = Table::new("t");
//! table.add_column(
//!     "a",
//!     ColumnData::I32((0..8192).map(|i| (i % 128) as i32).collect()),
//!     &mut space,
//! );
//! let plan =
//!     SelectionPlan::new(vec![Predicate::new("a", CompareOp::Lt, 50)], vec![]).unwrap();
//!
//! let mut server = QueryServer::new(ServeConfig::default());
//! server.admit(QuerySpec::scan("q0", &table, plan.clone(), vec![0], Priority::High, 0));
//! server.admit(QuerySpec::scan("q1", &table, plan, vec![0], Priority::Low, 10_000));
//!
//! let mut pool = CpuPool::new(CpuConfig::tiny_test(), 2);
//! let report = server.run(&mut pool).unwrap();
//! assert_eq!(report.queries.len(), 2);
//! assert_eq!(report.queries[0].qualified, 3200); // identical to solo
//! assert_eq!(report.queries[1].qualified, 3200);
//! assert_eq!(server.cache().len(), 1); // one template, now warm
//! ```

pub mod cache;
pub mod scheduler;
pub mod server;

pub use cache::{CacheEntry, CacheStats, OrderCache, WarmRecordOutcome, WorkloadSignature};
pub use scheduler::StrideScheduler;
pub use server::{Priority, QueryOutcome, QueryServer, QuerySpec, ServeConfig, ServeReport};
