//! The names every later change uses: workloads, end-to-end metrics with
//! their bounds, per-layer metrics with their units. `BENCHMARK.json` at
//! the repository root restates these tables; a test keeps the two equal.

/// Seconds one run measures when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// A workload and why it exists (one line, as `BENCHMARK.json` carries it).
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "scan_q6",
        why: "TPC-H Q6 progressive scan: sequential streams and the branch predictor carry the host time, the solver little; guards scans against join-path changes",
    },
    WorkloadDef {
        name: "join_star",
        why: "serial 3-join star: random per-event hierarchy walks dominate, solver about a sixth of host time; where join-path work must show",
    },
    WorkloadDef {
        name: "par_star",
        why: "same data and plan as join_star on 2 workers with a shared LLC: adds leases, epochs, fused fits and the coordination mutex; its spread shows host-arrival nondeterminism",
    },
    WorkloadDef {
        name: "serve_mix",
        why: "256-query open-loop batch of three templates through the query server: the only workload with queueing, priorities, warm starts and per-query fixed cost",
    },
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse,
    /// on any workload, before a change counts as a regression. Sized by
    /// the spread across *seeds* (other data, other optimizer decisions),
    /// which is what the acceptance runs measure.
    pub bound: f64,
    /// The bound `compare` applies to seed-matched pairs on the serial
    /// workloads, whose simulated numbers repeat exactly for one seed.
    pub serial_bound: f64,
    /// The same on the pool workloads, where host-thread arrival order
    /// moves the simulated numbers of one seed.
    pub pool_bound: f64,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bounds: [f64; 3],
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound: bounds[0],
        serial_bound: bounds[1],
        pool_bound: bounds[2],
    }
}

pub const END_TO_END: [EndToEnd; 9] = [
    end_to_end("setup_s", "s", Lower, [0.25, 0.25, 0.25]),
    end_to_end("host_ns_per_tuple", "ns/tuple", Lower, [0.25, 0.10, 0.10]),
    end_to_end("host_rss_mb", "MiB", Lower, [0.15, 0.10, 0.10]),
    end_to_end(
        "sim_cycles_per_tuple",
        "cycles/tuple",
        Lower,
        [0.10, 0.02, 0.05],
    ),
    end_to_end(
        "sim_latency_p50_cycles",
        "cycles",
        Lower,
        [0.25, 0.02, 0.10],
    ),
    end_to_end(
        "sim_latency_p95_cycles",
        "cycles",
        Lower,
        [0.25, 0.02, 0.10],
    ),
    end_to_end("sim_regret", "ratio", Lower, [0.10, 0.02, 0.05]),
    end_to_end("model_cpt_acc_cal", "ratio", Higher, [0.05, 0.02, 0.02]),
    end_to_end("model_cpt_acc_raw", "ratio", Higher, [0.25, 0.05, 0.25]),
];

/// The workloads whose simulated numbers are a pure function of the seed.
pub fn is_serial(workload: &str) -> bool {
    matches!(workload, "scan_q6" | "join_star")
}

/// The bound `compare` applies to `metric` on `workload`.
pub fn bound_for(workload: &str, metric: &EndToEnd) -> f64 {
    if is_serial(workload) {
        metric.serial_bound
    } else {
        metric.pool_bound
    }
}

/// A metric of a single layer; the prefix is the module it measures.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 58] = [
    layer("cpu.events_per_tuple", "events/tuple", Lower),
    layer("cpu.host_ns_per_event", "ns/event", Lower),
    layer("cpu.ipc", "instr/cycle", Higher),
    layer("cpu.branch_mp_rate", "ratio", Lower),
    layer("cpu.l2_access_per_tuple", "count/tuple", Lower),
    layer("cpu.l3_access_per_tuple", "count/tuple", Lower),
    layer("cpu.l3_miss_per_tuple", "count/tuple", Lower),
    layer("cpu.mem_access_per_tuple", "count/tuple", Lower),
    layer("cpu.prefetch_per_tuple", "count/tuple", Lower),
    layer("cpu.llc_effective_kib", "KiB", Higher),
    layer("cpu.oracle_ratio", "ratio", Higher),
    layer("cpu.bulk_ns_per_tuple", "ns/tuple", Lower),
    layer("storage.gen_s", "s", Lower),
    layer("storage.hot_bytes_per_tuple", "bytes/tuple", Lower),
    layer("storage.native_ns_per_tuple", "ns/tuple", Lower),
    layer("plan.compile_us", "us", Lower),
    layer("plan.stages", "count", Lower),
    layer("exec.run_ns_per_tuple", "ns/tuple", Lower),
    layer("exec.reorders", "count", Lower),
    layer("exec.reorder_us", "us", Lower),
    layer("exec.vectors", "count", Lower),
    layer("cost.geometry_us_per_fit", "us", Lower),
    layer("cost.cpt_scale", "ratio", Lower),
    layer("cost.l3_err_cal", "ratio", Lower),
    layer("cost.bnt_err_cal", "ratio", Lower),
    layer("cost.mp_err_cal", "ratio", Lower),
    layer("solver.fits", "count", Lower),
    layer("solver.evals_per_fit", "count", Lower),
    layer("solver.fit_us", "us", Lower),
    layer("solver.host_share", "ratio", Lower),
    layer("solver.sim_cycle_share", "ratio", Lower),
    layer("progressive.switches", "count", Lower),
    layer("progressive.reverted_share", "ratio", Lower),
    layer("progressive.exploratory_share", "ratio", Lower),
    layer("progressive.vectors_to_converge", "count", Lower),
    layer("progressive.loop_ns_per_vector", "ns", Lower),
    layer("parallel.occupancy", "ratio", Higher),
    layer("parallel.imbalance", "ratio", Lower),
    layer("parallel.morsels", "count", Lower),
    layer("parallel.sim_speedup", "ratio", Higher),
    layer("parallel.host_speedup", "ratio", Higher),
    layer("parallel.coord_ns_per_morsel", "ns", Lower),
    layer("parallel.sim_cpt_spread", "ratio", Lower),
    layer("serve.occupancy", "ratio", Lower),
    layer("serve.queue_p95_cycles", "cycles", Lower),
    layer("serve.warm_start_share", "ratio", Higher),
    layer("serve.latency_p95_cycles.high", "cycles", Lower),
    layer("serve.latency_p95_cycles.low", "cycles", Lower),
    layer("serve.host_us_per_query", "us", Lower),
    layer("serve.fits_per_query", "count", Lower),
    layer("serve.sim_latency_spread", "ratio", Lower),
    layer("obs.trace_overhead", "ratio", Lower),
    layer("obs.records_per_ktuple", "1/ktuple", Lower),
    layer("obs.profiler_conserves", "ratio", Higher),
    layer("obs.observed_identical", "ratio", Higher),
    layer("host.ns_per_tuple_p50", "ns/tuple", Lower),
    layer("host.ns_per_tuple_p95", "ns/tuple", Lower),
    layer("host.samples", "count", Higher),
];

/// Unit of the metric called `name`, from either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// The command the driver runs from the repository root; it appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json` as these tables state it (`popt-benchmark manifest`
/// prints it; a test keeps the committed file equal to it).
pub fn manifest_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    let end_to_end = rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.label(),
                    m.bound
                )
            })
            .collect(),
    );
    let per_layer = rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.label()
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        RUN_SECONDS,
        workloads,
        end_to_end,
        per_layer
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Json;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn tables_stay_within_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(
                m.serial_bound <= m.bound && m.pool_bound <= m.bound,
                "{}",
                m.name
            );
        }
        for m in &PER_LAYER {
            assert!(valid_unit(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_equals_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `popt-benchmark manifest > BENCHMARK.json`"
        );
        let doc = Json::parse(&committed).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = match &doc {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("BENCHMARK.json is not an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let bounds = crate::report::manifest_bounds(&doc).unwrap();
        assert_eq!(bounds.len(), END_TO_END.len());
    }
}
