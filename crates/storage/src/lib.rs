//! # popt-storage — column store and data generation
//!
//! The in-memory, column-oriented storage layer underneath the execution
//! engine, plus a from-scratch TPC-H-style data generator covering the
//! tables the paper's evaluation uses (`lineitem`, `orders`, `part`,
//! Section 5.1) and the value-distribution knobs of Sections 5.3–5.6:
//! sorted, window-clustered (Knuth shuffle within a bounded window) and
//! fully random layouts, plus correlated column pairs.
//!
//! Columns live in a **simulated address space** ([`addr::AddressSpace`])
//! so the `popt-cpu` cache hierarchy sees realistic, non-aliasing physical
//! addresses.
//!
//! ```
//! use popt_storage::tpch::{generate_lineitem, TpchConfig};
//!
//! let table = generate_lineitem(&TpchConfig::small());
//! assert!(table.rows() > 0);
//! let shipdate = table.column("l_shipdate").unwrap();
//! assert_eq!(shipdate.len(), table.rows());
//! ```

pub mod addr;
pub mod column;
pub mod distribution;
pub mod stats;
pub mod table;
pub mod tpch;

pub use addr::AddressSpace;
pub use column::{Column, ColumnData};
pub use distribution::Layout;
pub use table::Table;
