//! Helpers shared by the integration-test binaries.

// Each test binary compiles its own copy and uses a subset.
#![allow(dead_code)]

use std::time::{Duration, Instant};

use popt::core::exec::program::CompiledProgram;
use popt::core::plan::{Expr, LogicalPlan, PlanBuilder};
use popt::cpu::{walker_batches, CacheLevelConfig, CpuConfig, CpuPool, SimCpu};
use popt::storage::{AddressSpace, ColumnData, Table};
use popt_bench::figures::workload::xorshift64;

pub mod rigged;

/// A deliberately small hierarchy (4 KiB L1 / 16 KiB L2 / 64 KiB LLC) so
/// that modest dimension tables thrash the LLC under random probes at
/// test-friendly row counts.
pub fn small_cache_cpu() -> CpuConfig {
    let mut cfg = CpuConfig::xeon_e5_2630_v2();
    cfg.levels = vec![
        CacheLevelConfig {
            capacity_bytes: 4 * 1024,
            line_bytes: 64,
            ways: 8,
            hit_latency_cycles: 0,
        },
        CacheLevelConfig {
            capacity_bytes: 16 * 1024,
            line_bytes: 64,
            ways: 8,
            hit_latency_cycles: 10,
        },
        CacheLevelConfig {
            capacity_bytes: 64 * 1024,
            line_bytes: 64,
            ways: 16,
            hit_latency_cycles: 30,
        },
    ];
    cfg
}

/// Fact rows of the random proptest workload ([`tables`]).
pub const ROWS: usize = 2_048;

/// The random proptest workload: a fact table with four value columns
/// (`val0..val3`, uniform in `0..1000`), a co-clustered (`fk_seq`) and a
/// random (`fk_rand`) foreign key, and a payload dimension big enough to
/// feel the tiny test hierarchy's LLC — so private/shared/NUMA pools
/// really simulate different cache behaviour while the properties demand
/// identical results. Fact and dimension share one address space, so a
/// NUMA placement registered on the payload homes nothing else.
pub fn tables(seed: u64) -> (Table, Table) {
    let dim_n = ROWS / 2;
    let mut state = seed | 1;
    let mut space = AddressSpace::new();
    let mut fact = Table::new("fact");
    for c in 0..4 {
        let data: Vec<i32> = (0..ROWS)
            .map(|_| (xorshift64(&mut state) % 1000) as i32)
            .collect();
        fact.add_column(format!("val{c}"), ColumnData::I32(data), &mut space);
    }
    fact.add_column(
        "fk_seq",
        ColumnData::I32((0..ROWS).map(|i| (i * dim_n / ROWS) as i32).collect()),
        &mut space,
    );
    fact.add_column(
        "fk_rand",
        ColumnData::I32(
            (0..ROWS)
                .map(|_| (xorshift64(&mut state) % dim_n as u64) as i32)
                .collect(),
        ),
        &mut space,
    );
    let mut dim = Table::new("dim");
    dim.add_column(
        "payload",
        ColumnData::I32(
            (0..dim_n)
                .map(|_| (xorshift64(&mut state) % 1000) as i32)
                .collect(),
        ),
        &mut space,
    );
    (fact, dim)
}

/// Random mixed plan over [`tables`], summing `val0`: bit `k` of
/// `kinds` picks select (`val{k} < lit`) vs. join (`payload < lit`,
/// alternating the co-clustered and the random key) for stage `k`.
pub fn plan<'t>(
    fact: &'t Table,
    dim: &'t Table,
    stages: usize,
    kinds: u64,
    lit: i64,
) -> LogicalPlan<'t> {
    let mut builder = PlanBuilder::scan(fact);
    for k in 0..stages {
        builder = if (kinds >> k) & 1 == 1 {
            let fk = if k % 2 == 0 { "fk_seq" } else { "fk_rand" };
            builder.join(dim, fk, Expr::col("payload").less_than(lit))
        } else {
            builder.filter(Expr::col(format!("val{k}")).less_than(lit))
        };
    }
    builder.aggregate("val0").build()
}

/// [`plan`] compiled as built: no optimizer passes run, so plan order is
/// construction order.
pub fn build<'t>(
    fact: &'t Table,
    dim: &'t Table,
    stages: usize,
    kinds: u64,
    lit: i64,
) -> CompiledProgram<'t> {
    plan(fact, dim, stages, kinds, lit)
        .compile()
        .expect("program compiles")
}

/// The core of a 1-core pool built from `config`: its batches walk the
/// cache hierarchy inline, where a standalone core's run on the walker
/// thread whenever the host has a second core and the walker is free.
pub fn pool_core(config: CpuConfig) -> SimCpu {
    CpuPool::new(config, 1).cores()[0].clone()
}

/// With two host cores or more, the walker thread must have drained a
/// batch since its count read `before`. The count is process-wide, and a
/// case's batches may have found the walker serving a concurrently
/// running test, so a miss is retried with batches of its own.
pub fn assert_walker_drained_since(before: u64) {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return;
    }
    let start = Instant::now();
    while walker_batches() == before {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "no batch ran on the walker thread"
        );
        SimCpu::new(CpuConfig::tiny_test()).batch().load(0, 0, 4);
        std::thread::yield_now();
    }
}
