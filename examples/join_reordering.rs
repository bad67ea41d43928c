//! Counter-driven join reordering (Sections 5.5–5.6).
//!
//! ```text
//! cargo run --release --example join_reordering
//! ```
//!
//! `lineitem ⋈ orders ⋈ part`: a textbook optimizer joins the smaller
//! `part` table first. The performance counters tell a different story —
//! probes into `orders` are co-clustered (near-sequential) while probes
//! into `part` are random. The sortedness detector compares measured
//! cache misses against the Equation-1 random-access prediction and flips
//! the order.

use popt::core::plan::{Expr, PlanBuilder};
use popt::core::sortedness::{recommend_join_order, JoinObservation};
use popt::cost::join_model::JoinGeometry;
use popt::cpu::{CacheLevelConfig, CpuConfig, SimCpu};
use popt::storage::tpch::{generate_lineitem, generate_orders, generate_part, TpchConfig};

fn scaled_cpu() -> CpuConfig {
    // Proportionally scaled hierarchy so the dimension tables exceed the
    // LLC at example scale: a smaller cache stands in for bigger tables.
    let mut cfg = CpuConfig::xeon_e5_2630_v2();
    cfg.levels = vec![
        CacheLevelConfig {
            capacity_bytes: 8 * 1024,
            line_bytes: 64,
            ways: 8,
            hit_latency_cycles: 0,
        },
        CacheLevelConfig {
            capacity_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 8,
            hit_latency_cycles: 10,
        },
        CacheLevelConfig {
            capacity_bytes: 128 * 1024,
            line_bytes: 64,
            ways: 16,
            hit_latency_cycles: 30,
        },
    ];
    cfg
}

fn main() {
    let config = TpchConfig::with_rows(1 << 19);
    let lineitem = generate_lineitem(&config);
    let orders = generate_orders(&config);
    let part = generate_part(&config);
    println!(
        "lineitem {} rows; orders {} rows; part {} rows ({}x smaller than orders)",
        lineitem.rows(),
        orders.rows(),
        part.rows(),
        orders.rows() / part.rows()
    );

    // One fixed logical plan through the query frontend (orders join at
    // plan index 0, part at 1); the two static executions differ only in
    // the evaluation order, never in the plan.
    let build = || {
        PlanBuilder::scan(&lineitem)
            .join(
                &orders,
                "l_orderkey",
                Expr::col("o_totalprice").less_than(250_000),
            )
            .join(
                &part,
                "l_partkey",
                Expr::col("p_retailprice").less_than(1_500),
            )
            .build()
            .optimize()
            .compile()
            .expect("plan lowers to two joins")
    };

    for (label, order) in [
        ("part-first  (textbook)", [1usize, 0]),
        ("orders-first (counters)", [0usize, 1]),
    ] {
        let mut program = build();
        program.reorder(&order).expect("valid order");
        let mut cpu = SimCpu::new(scaled_cpu());
        let stats = program.run_range(&mut cpu, 0, lineitem.rows());
        println!(
            "{label}: {:8.2} ms, {:9} L3 misses, {} rows",
            cpu.millis(),
            stats.counters.l3_misses,
            stats.qualified
        );
    }

    // What the detector concludes from a one-vector sample per join.
    let cpu_cfg = scaled_cpu();
    let observe = |fk: &str, dim: &popt::storage::Table, col: &str, name: &str| {
        let program = PlanBuilder::scan(&lineitem)
            .join(dim, fk, Expr::col(col).less_than(i64::MAX / 2))
            .build()
            .optimize()
            .compile()
            .expect("probe join lowers");
        let mut cpu = SimCpu::new(cpu_cfg.clone());
        let stats = program.run_range(&mut cpu, 0, 65_536);
        JoinObservation {
            name: name.into(),
            geometry: JoinGeometry {
                relation_tuples: dim.rows() as u64,
                tuple_bytes: 4,
                line_bytes: 64,
                cache_lines: cpu_cfg.llc().lines(),
            },
            accesses: stats.tuples,
            measured_misses: stats.counters.l3_misses,
        }
    };
    let obs = vec![
        observe("l_orderkey", &orders, "o_totalprice", "orders"),
        observe("l_partkey", &part, "p_retailprice", "part"),
    ];
    for o in &obs {
        println!(
            "probe {}: {:.3} misses/access (random model predicts {:.3}) -> {:?}",
            o.name,
            o.miss_rate(),
            o.predicted_random_miss_rate(),
            o.pattern()
        );
    }
    let order = recommend_join_order(&obs);
    println!("detector recommendation: join {} first", obs[order[0]].name);
}
