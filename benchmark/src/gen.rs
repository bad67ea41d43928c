//! Input generation, fingerprints and host-side ground truth.
//!
//! Everything a workload reads is made here from `--seed`: the same seed
//! gives the same tables, plans and arrival schedule. The engine only
//! ever receives the generated inputs.

use popt_storage::tpch::{generate_lineitem, TpchConfig};
use popt_storage::{AddressSpace, ColumnData, Table};

/// Seed used when `--seed` is not given; fingerprints of its full-scale
/// inputs are pinned in [`pinned_fingerprint`].
pub const DEFAULT_SEED: u64 = 0x5EED_2016;

/// Value domain of every uniform column: `< literal` selects with
/// selectivity `literal / DOMAIN`.
pub const DOMAIN: i64 = 10_000;

/// Day numbers of the Q6 shipdate window, discount window and quantity
/// cap (the literals of `QueryBuilder::q6`, restated for ground truth).
const Q6_SHIPDATE: (i32, i32) = (731, 1096);
const Q6_DISCOUNT: (i32, i32) = (5, 7);
const Q6_QUANTITY: i32 = 24;

/// Literals of the star join: selection on `val`, then the customer,
/// supplier and part payload filters (selectivities 0.5 / 0.3 / 0.5 / 0.7).
pub const STAR_SELECT_LITERAL: i64 = 5_000;
pub const STAR_JOIN_LITERALS: [i64; 3] = [3_000, 5_000, 7_000];

/// Literals of the 3-predicate scan template (selectivities 0.1 / 0.45 /
/// 0.9, served starting from the descending — worst — order).
pub const SCAN3_LITERALS: [i64; 3] = [1_000, 4_500, 9_000];
/// Literal of the single-predicate template.
pub const SCAN1_LITERAL: i64 = 5_000;

/// Queries in one `serve_mix` batch.
pub const BATCH_QUERIES: usize = 256;
/// Exclusive upper bound of the uniform inter-arrival gap, in simulated
/// cycles.
pub const MAX_ARRIVAL_GAP_CYCLES: u64 = 2_100_000;
/// The star template's selection literal slides over this many values.
const SLIDING_LITERALS: u64 = 8;

/// splitmix64: the benchmark's own generator (the engine never sees it).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias is below 2^-40 for
    /// every `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn uniform_column(&mut self, rows: usize, domain: u64) -> ColumnData {
        ColumnData::I32((0..rows).map(|_| self.below(domain) as i32).collect())
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Count and aggregate sum of a query, from plain host evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truth {
    pub qualified: u64,
    pub sum: i64,
}

fn i32s<'t>(table: &'t Table, column: &str) -> &'t [i32] {
    table
        .column(column)
        .and_then(|c| c.data().as_i32())
        .expect("generated tables hold the i32 columns the benchmark names")
}

/// FNV-1a over the column's 32-bit values (one multiply per value).
fn fnv1a(values: &[i32]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &v in values {
        h ^= u64::from(v as u32);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Fingerprint of every column of `tables`, as `(table.column, hash)`.
pub fn fingerprints(tables: &[&Table]) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for table in tables {
        for column in table.columns() {
            let values = column.data().as_i32().expect("generated columns are i32");
            out.push((format!("{}.{}", table.name(), column.name()), fnv1a(values)));
        }
    }
    out
}

/// One hash over all column fingerprints, in generation order.
pub fn combined_fingerprint(columns: &[(String, u64)]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for (_, f) in columns {
        h ^= f;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The combined fingerprint the default seed must produce at full scale.
/// A mismatch means the inputs changed, so no number compares with an
/// earlier run.
pub fn pinned_fingerprint(workload: &str) -> Option<u64> {
    match workload {
        "scan_q6" => Some(0xA4EB_2DD9_C6F7_59C7),
        "join_star" | "par_star" => Some(0xA64A_F262_4538_A671),
        "serve_mix" => Some(0xE43B_043B_7F65_4782),
        _ => None,
    }
}

/// TPC-H `lineitem` with month-clustered shipdates.
pub fn lineitem(rows: usize, seed: u64) -> Table {
    generate_lineitem(&TpchConfig::with_rows(rows).seed(seed))
}

/// Ground truth of Q6: five predicates, `sum(extendedprice * discount)`.
pub fn q6_truth(lineitem: &Table) -> Truth {
    let shipdate = i32s(lineitem, "l_shipdate");
    let discount = i32s(lineitem, "l_discount");
    let quantity = i32s(lineitem, "l_quantity");
    let price = i32s(lineitem, "l_extendedprice");
    let mut truth = Truth {
        qualified: 0,
        sum: 0,
    };
    for i in 0..lineitem.rows() {
        if shipdate[i] >= Q6_SHIPDATE.0
            && shipdate[i] < Q6_SHIPDATE.1
            && discount[i] >= Q6_DISCOUNT.0
            && discount[i] <= Q6_DISCOUNT.1
            && quantity[i] < Q6_QUANTITY
        {
            truth.qualified += 1;
            truth.sum += i64::from(price[i]) * i64::from(discount[i]);
        }
    }
    truth
}

/// A star schema in **one** simulated address space (no two tables
/// alias in the simulated caches): a fact table with three foreign keys
/// into dimensions of `rows/4` (co-clustered FK: near-sequential
/// probes), `rows/8` (random FK) and `rows/64` (random FK) rows.
pub struct Star {
    /// `fk_customer`, `fk_supplier`, `fk_part`, `val`, `agg`.
    pub fact: Table,
    /// `c_payload`; the co-clustered dimension.
    pub customer: Table,
    /// `s_payload`; random FK, outgrows a contended LLC share.
    pub supplier: Table,
    /// `p_payload`; random FK, fits the private cache levels.
    pub part: Table,
}

impl Star {
    pub fn tables(&self) -> [&Table; 4] {
        [&self.fact, &self.customer, &self.supplier, &self.part]
    }
}

pub fn star(rows: usize, seed: u64) -> Star {
    let dims = [(rows / 4).max(16), (rows / 8).max(16), (rows / 64).max(16)];
    let mut rng = Rng::new(seed);
    let mut space = AddressSpace::new();
    let mut fact = Table::new("fact");
    fact.add_column(
        "fk_customer",
        ColumnData::I32((0..rows).map(|i| (i * dims[0] / rows) as i32).collect()),
        &mut space,
    );
    fact.add_column(
        "fk_supplier",
        rng.uniform_column(rows, dims[1] as u64),
        &mut space,
    );
    fact.add_column(
        "fk_part",
        rng.uniform_column(rows, dims[2] as u64),
        &mut space,
    );
    fact.add_column("val", rng.uniform_column(rows, DOMAIN as u64), &mut space);
    fact.add_column("agg", rng.uniform_column(rows, 100), &mut space);
    let mut dim = |name: &str, column: &str, n: usize| {
        let mut t = Table::new(name);
        t.add_column(column, rng.uniform_column(n, DOMAIN as u64), &mut space);
        t
    };
    Star {
        customer: dim("customer", "c_payload", dims[0]),
        supplier: dim("supplier", "s_payload", dims[1]),
        part: dim("part", "p_payload", dims[2]),
        fact,
    }
}

/// Ground truth of the star join with the given selection literal.
pub fn star_truth(star: &Star, select_literal: i64) -> Truth {
    let val = i32s(&star.fact, "val");
    let agg = i32s(&star.fact, "agg");
    let fks = [
        i32s(&star.fact, "fk_customer"),
        i32s(&star.fact, "fk_supplier"),
        i32s(&star.fact, "fk_part"),
    ];
    let payloads = [
        i32s(&star.customer, "c_payload"),
        i32s(&star.supplier, "s_payload"),
        i32s(&star.part, "p_payload"),
    ];
    let mut truth = Truth {
        qualified: 0,
        sum: 0,
    };
    for i in 0..star.fact.rows() {
        let joins =
            (0..3).all(|d| i64::from(payloads[d][fks[d][i] as usize]) < STAR_JOIN_LITERALS[d]);
        if i64::from(val[i]) < select_literal && joins {
            truth.qualified += 1;
            truth.sum += i64::from(agg[i]);
        }
    }
    truth
}

/// The table the two scan templates read: `c0..c2` uniform over
/// `0..DOMAIN`, `agg` uniform over `0..100`.
pub fn scan_table(rows: usize, seed: u64) -> Table {
    let mut rng = Rng::new(seed);
    let mut space = AddressSpace::new();
    let mut t = Table::new("scan");
    for c in 0..3 {
        t.add_column(
            format!("c{c}"),
            rng.uniform_column(rows, DOMAIN as u64),
            &mut space,
        );
    }
    t.add_column("agg", rng.uniform_column(rows, 100), &mut space);
    t
}

/// Ground truth of `c0 < l0 AND c1 < l1 AND ..`; `aggregate` sums `agg`
/// over the qualifying rows (a scan without aggregate sums nothing).
pub fn scan_truth(table: &Table, literals: &[i64], aggregate: bool) -> Truth {
    let columns: Vec<&[i32]> = (0..literals.len())
        .map(|c| i32s(table, &format!("c{c}")))
        .collect();
    let agg = i32s(table, "agg");
    let mut truth = Truth {
        qualified: 0,
        sum: 0,
    };
    for i in 0..table.rows() {
        if columns
            .iter()
            .zip(literals)
            .all(|(col, &lit)| i64::from(col[i]) < lit)
        {
            truth.qualified += 1;
            if aggregate {
                truth.sum += i64::from(agg[i]);
            }
        }
    }
    truth
}

/// Query template of the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// Star join whose selection literal slides between arrivals.
    Star { select_literal: i64 },
    /// 3-predicate aggregate scan.
    Scan3,
    /// Single-predicate scan without aggregate (the closed-form bulk path).
    Scan1,
}

/// Scheduling class of an arrival (mapped to the server's priorities in
/// `engine`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    High,
    Normal,
    Low,
}

/// One query of the open-loop batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub template: Template,
    pub class: Class,
    /// Due time in simulated cycles since the batch started.
    pub arrival_cycles: u64,
}

/// The sliding selection literals the star template cycles through.
pub fn sliding_literals() -> Vec<i64> {
    (0..SLIDING_LITERALS as i64)
        .map(|k| 3_000 + 500 * k)
        .collect()
}

/// The open-loop schedule: exactly 1:1:1 templates and 1:2:1
/// High/Normal/Low classes in seeded order, inter-arrival gaps uniform in
/// `[0, MAX_ARRIVAL_GAP_CYCLES)`.
pub fn schedule(seed: u64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ 0xA221_7A1E);
    let literals = sliding_literals();
    let mut templates: Vec<Template> = (0..BATCH_QUERIES)
        .map(|k| match k % 3 {
            0 => Template::Star {
                select_literal: literals[(k / 3) % literals.len()],
            },
            1 => Template::Scan3,
            _ => Template::Scan1,
        })
        .collect();
    rng.shuffle(&mut templates);
    let mut classes: Vec<Class> = (0..BATCH_QUERIES)
        .map(|k| match k % 4 {
            0 => Class::High,
            1 | 2 => Class::Normal,
            _ => Class::Low,
        })
        .collect();
    rng.shuffle(&mut classes);
    let mut due = 0u64;
    templates
        .into_iter()
        .zip(classes)
        .map(|(template, class)| {
            due += rng.below(MAX_ARRIVAL_GAP_CYCLES);
            Arrival {
                template,
                class,
                arrival_cycles: due,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_another_seed_changes_every_fingerprint() {
        let rows = 1 << 12;
        let fp = |seed: u64| {
            let li = lineitem(rows, seed);
            let st = star(rows, seed);
            let sc = scan_table(rows, seed);
            let mut tables = vec![&li];
            tables.extend(st.tables());
            tables.push(&sc);
            fingerprints(&tables)
        };
        let (a, again, b) = (fp(1), fp(1), fp(2));
        assert_eq!(a, again);
        for ((name, x), (_, y)) in a.iter().zip(&b) {
            // Two columns are pure functions of the row count: orderkeys
            // and the co-clustered FK. Every seeded column must move.
            let seedless = name == "lineitem.l_orderkey" || name == "fact.fk_customer";
            assert_eq!(x == y, seedless, "{name}");
        }
        assert_ne!(combined_fingerprint(&a), combined_fingerprint(&b));
        assert_eq!(schedule(1), schedule(1));
        assert_ne!(schedule(1), schedule(2));
    }

    #[test]
    fn schedule_keeps_the_stated_mix() {
        let s = schedule(DEFAULT_SEED);
        assert_eq!(s.len(), BATCH_QUERIES);
        let count = |f: &dyn Fn(&Arrival) -> bool| s.iter().filter(|a| f(a)).count();
        assert_eq!(count(&|a| a.class == Class::High), 64);
        assert_eq!(count(&|a| a.class == Class::Normal), 128);
        assert_eq!(count(&|a| a.class == Class::Low), 64);
        assert_eq!(count(&|a| a.template == Template::Scan3), 85);
        assert_eq!(count(&|a| a.template == Template::Scan1), 85);
        assert!(s.windows(2).all(|w| {
            let gap = w[1].arrival_cycles - w[0].arrival_cycles;
            gap < MAX_ARRIVAL_GAP_CYCLES
        }));
    }

    #[test]
    fn ground_truth_matches_the_requested_selectivities() {
        let rows = 1 << 15;
        let st = star(rows, 7);
        let t = star_truth(&st, STAR_SELECT_LITERAL);
        let share = t.qualified as f64 / rows as f64;
        assert!((share - 0.5 * 0.3 * 0.5 * 0.7).abs() < 0.01, "{share}");
        let sc = scan_table(rows, 7);
        let t3 = scan_truth(&sc, &SCAN3_LITERALS, true);
        let share = t3.qualified as f64 / rows as f64;
        assert!((share - 0.1 * 0.45 * 0.9).abs() < 0.01, "{share}");
        let t1 = scan_truth(&sc, &[SCAN1_LITERAL], false);
        assert_eq!(t1.sum, 0);
        assert!((t1.qualified as f64 / rows as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn star_tables_do_not_alias_in_the_address_space() {
        let st = star(1 << 10, 3);
        let mut ranges: Vec<(u64, u64)> = st
            .tables()
            .iter()
            .flat_map(|t| t.columns())
            .map(|c| (c.base_addr(), c.addr_of(c.len() - 1) + 4))
            .collect();
        ranges.sort_unstable();
        assert!(ranges.windows(2).all(|w| w[0].1 <= w[1].0));
    }
}
