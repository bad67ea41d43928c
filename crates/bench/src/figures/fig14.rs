//! Figure 14: exploiting sortedness — expensive selection vs. foreign-key
//! join, ordered both ways, across degrees of sortedness (Section 5.5).
//!
//! The x-axis sweeps the Knuth-shuffle window of the fact table's FK
//! column from one tuple ("1T") through cache-line/L1/L2/L3-sized windows
//! to a full shuffle ("Mem"). With high sortedness the join probes are
//! cache-local and the join should run *before* the expensive selection;
//! past the break-even point the order flips. Panel (b) shows the L3
//! misses that reveal the crossover — the signal Section 5.5 derives from
//! performance counters.
//!
//! Runs on a proportionally scaled-down cache hierarchy (8 KiB / 64 KiB /
//! 1 MiB) so the dimension table thrashes the LLC at laptop-scale row
//! counts; window labels L1/L2/L3 refer to those scaled capacities.

use popt_core::plan::{Expr, PlanBuilder};
use popt_core::progressive::{run_progressive_program, ProgressiveConfig, VectorConfig};
use popt_cpu::{CacheLevelConfig, CpuConfig, SimCpu};
use popt_storage::distribution::knuth_shuffle_window;
use popt_storage::{AddressSpace, ColumnData, Table};

use crate::common::{banner, fmt, header, parallel_map, row, FigureCtx};
use crate::figures::workload::DOMAIN;
use crate::note;

/// The scaled-down hierarchy: 8 KiB L1 / 64 KiB L2 / 1 MiB L3.
pub fn scaled_cpu() -> CpuConfig {
    let mut cfg = CpuConfig::xeon_e5_2630_v2();
    cfg.name = "scaled-down Xeon (1 MiB LLC)";
    cfg.levels = vec![
        CacheLevelConfig {
            capacity_bytes: 8 * 1024,
            line_bytes: 64,
            ways: 8,
            hit_latency_cycles: 0,
        },
        CacheLevelConfig {
            capacity_bytes: 64 * 1024,
            line_bytes: 64,
            ways: 8,
            hit_latency_cycles: 10,
        },
        CacheLevelConfig {
            capacity_bytes: 1024 * 1024,
            line_bytes: 64,
            ways: 16,
            hit_latency_cycles: 30,
        },
    ];
    cfg
}

/// Shuffle windows of the sweep, labelled as in the paper.
pub fn windows(rows: usize) -> Vec<(&'static str, usize)> {
    vec![
        ("1T", 1),
        ("CL", 16), // 64 B / 4 B values
        ("100T", 100),
        ("1KT", 1_000),
        ("L1", 2_048),   // 8 KiB / 4 B
        ("L2", 16_384),  // 64 KiB / 4 B
        ("L3", 262_144), // 1 MiB / 4 B
        ("Mem", rows),   // unbounded
    ]
}

fn fact_and_dim(rows: usize, window: usize, seed: u64) -> (Table, Table) {
    let dim_n = rows / 4;
    // Sorted FK (4 lineitems per order), then window-shuffled: the row
    // shuffle of Section 5.5 expressed on the one column whose access
    // pattern it changes.
    let mut fk: Vec<i32> = (0..rows).map(|i| (i / 4) as i32).collect();
    if window > 1 {
        knuth_shuffle_window(&mut fk, window, seed);
    }
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as i64
    };
    let val: Vec<i32> = (0..rows).map(|_| (next() % DOMAIN) as i32).collect();
    let mut space = AddressSpace::new();
    let mut fact = Table::new("fact");
    fact.add_column("fk", ColumnData::I32(fk), &mut space);
    fact.add_column("val", ColumnData::I32(val), &mut space);

    let payload: Vec<i32> = (0..dim_n).map(|_| (next() % DOMAIN) as i32).collect();
    let mut dim_space = AddressSpace::new();
    let mut dim = Table::new("dim");
    dim.add_column("payload", ColumnData::I32(payload), &mut dim_space);
    (fact, dim)
}

/// Run the figure.
pub fn run(ctx: &FigureCtx) {
    banner(ctx, "14", "Sortedness: selection-first vs. join-first");
    let rows = ctx.scale(1 << 21, 1 << 17);
    let windows = windows(rows);

    header(&[
        "sortedness",
        "sel_first_ms",
        "join_first_ms",
        "progressive_ms",
        "sel_first_l3_misses",
        "join_first_l3_misses",
        "winner",
        "prog_final",
    ]);
    let results = parallel_map(&windows, |&(label, window)| {
        let (fact, dim) = fact_and_dim(rows, window, 0xF1614);
        let build = || {
            // Expensive selection (~50 instructions of UDF work) with 50%
            // selectivity; join filter with 50% selectivity on the
            // dimension payload. Goes through the query frontend: builder
            // → optimizer passes → compiled program.
            PlanBuilder::scan(&fact)
                .filter_costed(Expr::col("val").less_than(DOMAIN / 2), 50)
                .join(&dim, "fk", Expr::col("payload").less_than(DOMAIN / 2))
                .build()
                .optimize()
                .compile()
                .expect("plan lowers to a two-stage program")
        };
        let run_order = |order: [usize; 2]| {
            let mut program = build();
            program.reorder(&order).expect("valid order");
            let mut cpu = SimCpu::new(scaled_cpu());
            let stats = program.run_range(&mut cpu, 0, fact.rows());
            (cpu.millis(), stats.counters.l3_misses, stats.qualified)
        };
        let (sel_ms, sel_miss, q1) = run_order([0, 1]);
        let (join_ms, join_miss, q2) = run_order([1, 0]);
        assert_eq!(q1, q2, "order must not change the result");

        // Progressive execution starting from the *wrong* static order:
        // it must discover the crossover side on its own from the
        // counters (Section 5.5).
        let worse: [usize; 2] = if sel_ms <= join_ms { [1, 0] } else { [0, 1] };
        let mut program = build();
        let mut cpu = SimCpu::new(scaled_cpu());
        let prog = run_progressive_program(
            &mut program,
            &worse,
            VectorConfig {
                vector_tuples: 4096,
                max_vectors: None,
            },
            &mut cpu,
            &ProgressiveConfig { reop_interval: 2 },
        )
        .expect("progressive pipeline runs");
        assert_eq!(prog.qualified, q1, "progressive must not change the result");
        let prog_final = if prog.final_peo == vec![0, 1] {
            "sel-first"
        } else {
            "join-first"
        };
        (
            label,
            sel_ms,
            join_ms,
            prog.millis,
            sel_miss,
            join_miss,
            prog_final,
        )
    });
    for (label, sel_ms, join_ms, prog_ms, sel_miss, join_miss, prog_final) in results {
        let winner = if join_ms < sel_ms {
            "join-first"
        } else {
            "selection-first"
        };
        row(&[
            label.to_string(),
            fmt(sel_ms),
            fmt(join_ms),
            fmt(prog_ms),
            sel_miss.to_string(),
            join_miss.to_string(),
            winner.to_string(),
            prog_final.to_string(),
        ]);
    }
    note!(
        "# expectation: join-first wins while the shuffle window fits the caches, \
              selection-first wins at Mem; the L3-miss columns expose the crossover. \
              progressive starts from the worse static order on every row and should \
              track the winner's time closely on both sides of the crossover"
    );
}
