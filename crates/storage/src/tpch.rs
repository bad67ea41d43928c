//! A from-scratch TPC-H-style data generator.
//!
//! Generates the three tables the paper's evaluation touches —
//! `lineitem`, `orders`, `part` (Sections 5.1–5.6) — with the schema
//! reduced to the attributes the experiments read. Key properties are
//! preserved from `dbgen`:
//!
//! * `lineitem` and `orders` are **co-clustered**: lineitems of one order
//!   are adjacent and orderkeys ascend with the row index, so the FK access
//!   pattern into `orders` is near-sequential (the effect behind Figure 15);
//! * `part` keys are **random**, so the FK access pattern into `part`
//!   thrashes the cache;
//! * `l_shipdate` is **weakly clustered** by default ("real life databases
//!   are bulk loaded and, hence, weakly clustered on the date column",
//!   Section 1) with the layout selectable per Figure 13;
//! * value domains are dictionary/scale encoded into `i32` (dates as day
//!   numbers, discounts as percents), mirroring the paper's date→timestamp
//!   rewrite that avoids string comparisons (Section 2.1).
//!
//! Scale is expressed directly in lineitem rows rather than TPC-H SF; the
//! paper's SF 100 (≈600 M rows) shrinks to a laptop-scale default. Where a
//! plan ranking depends on how the data compares to the caches, the
//! figures shrink the simulated cache hierarchy with it instead (e.g.
//! Figure 14's 8 KiB / 64 KiB / 1 MiB hierarchy).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::addr::AddressSpace;
use crate::column::ColumnData;
use crate::distribution::{apply_layout, Layout};
use crate::table::Table;

/// Span of the shipdate domain in days (1992-01-01 .. ≈1998-12-01).
pub const SHIPDATE_DAYS: i32 = 2526;
/// Number of days in the "month" clustering window of Section 5.4.
pub const DAYS_PER_MONTH: i32 = 30;
/// Quantity domain is `1..=50`.
pub const QUANTITY_MAX: i32 = 50;
/// Discount domain is `0..=10` percent.
pub const DISCOUNT_MAX: i32 = 10;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    /// Number of lineitem rows.
    pub lineitem_rows: usize,
    /// Average lineitems per order (TPC-H: 4).
    pub lineitems_per_order: usize,
    /// Number of parts (TPC-H ratio: lineitems / 30).
    pub parts: usize,
    /// Physical layout of `l_shipdate`.
    pub shipdate_layout: Layout,
    /// RNG seed; every run with the same config yields identical data.
    pub seed: u64,
}

impl TpchConfig {
    /// Laptop-scale default: ~4.2 M lineitems, weakly (month-)clustered
    /// shipdates — the "common case" configuration of Section 5.2.
    pub fn default_scale() -> Self {
        Self::with_rows(1 << 22)
    }

    /// Small configuration for tests and examples (~260 k rows).
    pub fn small() -> Self {
        Self::with_rows(1 << 18)
    }

    /// Tiny configuration for unit tests (~16 k rows).
    pub fn tiny() -> Self {
        Self::with_rows(1 << 14)
    }

    /// A configuration with the given lineitem row count and the default
    /// month-clustered shipdate layout.
    pub fn with_rows(rows: usize) -> Self {
        let month_window = Self::month_window(rows);
        Self {
            lineitem_rows: rows,
            lineitems_per_order: 4,
            parts: (rows / 30).max(16),
            shipdate_layout: Layout::Clustered(month_window),
            seed: 0x7057_2016,
        }
    }

    /// Rows falling into one month of the shipdate domain — the window the
    /// "clustered" layout of Section 5.4 shuffles within.
    pub fn month_window(rows: usize) -> usize {
        (rows * DAYS_PER_MONTH as usize / SHIPDATE_DAYS as usize).max(2)
    }

    /// Number of orders implied by the configuration.
    pub fn orders(&self) -> usize {
        (self.lineitem_rows / self.lineitems_per_order).max(1)
    }

    /// Replace the shipdate layout (builder style).
    pub fn shipdate_layout(mut self, layout: Layout) -> Self {
        self.shipdate_layout = layout;
        self
    }

    /// Replace the seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Generate the `lineitem` table.
pub fn generate_lineitem(config: &TpchConfig) -> Table {
    let n = config.lineitem_rows;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut space = AddressSpace::new();
    let mut t = Table::new("lineitem");

    // Shipdate: ascending base sequence, then the configured layout.
    let mut shipdate: Vec<i32> = (0..n)
        .map(|i| ((i as u64 * SHIPDATE_DAYS as u64) / n.max(1) as u64) as i32)
        .collect();
    apply_layout(&mut shipdate, config.shipdate_layout, config.seed ^ 0xDA7E);

    let orderkey: Vec<i32> = (0..n)
        .map(|i| (i / config.lineitems_per_order) as i32)
        .collect();
    let partkey: Vec<i32> = (0..n)
        .map(|_| rng.gen_range(0..config.parts as i32))
        .collect();
    let quantity: Vec<i32> = (0..n).map(|_| rng.gen_range(1..=QUANTITY_MAX)).collect();
    let discount: Vec<i32> = (0..n).map(|_| rng.gen_range(0..=DISCOUNT_MAX)).collect();
    let tax: Vec<i32> = (0..n).map(|_| rng.gen_range(0..=8)).collect();
    let extendedprice: Vec<i32> = (0..n).map(|_| rng.gen_range(1_000..100_000)).collect();

    t.add_column("l_orderkey", ColumnData::I32(orderkey), &mut space);
    t.add_column("l_partkey", ColumnData::I32(partkey), &mut space);
    t.add_column("l_quantity", ColumnData::I32(quantity), &mut space);
    t.add_column(
        "l_extendedprice",
        ColumnData::I32(extendedprice),
        &mut space,
    );
    t.add_column("l_discount", ColumnData::I32(discount), &mut space);
    t.add_column("l_tax", ColumnData::I32(tax), &mut space);
    t.add_column("l_shipdate", ColumnData::I32(shipdate), &mut space);
    t
}

/// Generate the `orders` table (dimension side of the co-clustered join).
pub fn generate_orders(config: &TpchConfig) -> Table {
    let n = config.orders();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0BDE);
    let mut space = AddressSpace::new();
    let mut t = Table::new("orders");
    let totalprice: Vec<i32> = (0..n).map(|_| rng.gen_range(10_000..500_000)).collect();
    let orderdate: Vec<i32> = (0..n)
        .map(|i| ((i as u64 * SHIPDATE_DAYS as u64) / n.max(1) as u64) as i32)
        .collect();
    t.add_column("o_totalprice", ColumnData::I32(totalprice), &mut space);
    t.add_column("o_orderdate", ColumnData::I32(orderdate), &mut space);
    t
}

/// Generate the `part` table (dimension side of the random-access join;
/// roughly eight times smaller than `orders` in the paper's Figure 15
/// discussion — preserved here through the TPC-H row ratios).
pub fn generate_part(config: &TpchConfig) -> Table {
    let n = config.parts;
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9AB7);
    let mut space = AddressSpace::new();
    let mut t = Table::new("part");
    let retailprice: Vec<i32> = (0..n).map(|_| rng.gen_range(900..2_100)).collect();
    let size: Vec<i32> = (0..n).map(|_| rng.gen_range(1..=50)).collect();
    t.add_column("p_retailprice", ColumnData::I32(retailprice), &mut space);
    t.add_column("p_size", ColumnData::I32(size), &mut space);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::max_displacement;
    use crate::stats;

    #[test]
    fn lineitem_has_expected_schema() {
        let t = generate_lineitem(&TpchConfig::tiny());
        for name in [
            "l_orderkey",
            "l_partkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ] {
            assert!(t.column(name).is_some(), "missing {name}");
        }
        assert_eq!(t.rows(), TpchConfig::tiny().lineitem_rows);
    }

    #[test]
    fn domains_are_respected() {
        let t = generate_lineitem(&TpchConfig::tiny());
        let q = t.column("l_quantity").unwrap().data().as_i32().unwrap();
        assert!(q.iter().all(|&v| (1..=QUANTITY_MAX).contains(&v)));
        let d = t.column("l_discount").unwrap().data().as_i32().unwrap();
        assert!(d.iter().all(|&v| (0..=DISCOUNT_MAX).contains(&v)));
        let s = t.column("l_shipdate").unwrap().data().as_i32().unwrap();
        assert!(s.iter().all(|&v| (0..SHIPDATE_DAYS).contains(&v)));
    }

    #[test]
    fn orderkeys_are_co_clustered() {
        let cfg = TpchConfig::tiny();
        let t = generate_lineitem(&cfg);
        let ok = t.column("l_orderkey").unwrap().data().as_i32().unwrap();
        assert!(
            ok.windows(2).all(|w| w[1] >= w[0]),
            "orderkeys not ascending"
        );
        assert_eq!(*ok.last().unwrap() as usize, cfg.orders() - 1);
    }

    #[test]
    fn partkeys_are_random_within_domain() {
        let cfg = TpchConfig::tiny();
        let t = generate_lineitem(&cfg);
        let pk = t.column("l_partkey").unwrap().data().as_i32().unwrap();
        assert!(pk.iter().all(|&v| (0..cfg.parts as i32).contains(&v)));
        // Random keys must not be sorted.
        assert!(pk.windows(2).any(|w| w[1] < w[0]));
    }

    #[test]
    fn default_shipdate_is_weakly_clustered() {
        let cfg = TpchConfig::tiny();
        let t = generate_lineitem(&cfg);
        let s = t.column("l_shipdate").unwrap().data().as_i32().unwrap();
        let d = max_displacement(s);
        assert!(d > 0, "default layout should not be perfectly sorted");
        assert!(
            d <= TpchConfig::month_window(cfg.lineitem_rows) * 4,
            "displacement {d} exceeds month clustering"
        );
    }

    #[test]
    fn sorted_layout_sorts_shipdate() {
        let cfg = TpchConfig::tiny().shipdate_layout(Layout::Sorted);
        let t = generate_lineitem(&cfg);
        let s = t.column("l_shipdate").unwrap().data().as_i32().unwrap();
        assert!(s.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn shipdate_quantile_tracks_selectivity() {
        let t = generate_lineitem(&TpchConfig::tiny());
        let col = t.column("l_shipdate").unwrap();
        let v = stats::quantile(col.data(), 0.25);
        let sel = stats::selectivity(col.data(), |x| x <= v);
        assert!((sel - 0.25).abs() < 0.02, "sel = {sel}");
    }

    #[test]
    fn orders_and_part_tables_scale() {
        let cfg = TpchConfig::tiny();
        assert_eq!(generate_orders(&cfg).rows(), cfg.orders());
        assert_eq!(generate_part(&cfg).rows(), cfg.parts);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_lineitem(&TpchConfig::tiny());
        let b = generate_lineitem(&TpchConfig::tiny());
        assert_eq!(
            a.column("l_quantity").unwrap().data(),
            b.column("l_quantity").unwrap().data()
        );
    }
}
