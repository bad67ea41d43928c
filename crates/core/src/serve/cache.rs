//! Cross-query order/calibration cache.
//!
//! A serving workload repeats query *templates*: the same table, the
//! same predicate/probe set, different literals and arrival times. The
//! progressive loop converges each instance to the same operator order
//! and the same probe-clustering calibration — so re-deriving them from
//! the textbook order on every arrival wastes exactly the convergence
//! overhead the paper measures. The cache keys a finished query's
//! converged state by its [`WorkloadSignature`] — the scanned row count
//! plus the program's literal-free stage keys
//! ([`CompiledProgram::stage_keys`], in plan order, so independent of
//! the evaluation order the instance started or finished in) — and
//! seeds the next instance of the template with it. The calibration a
//! hit restores is keyed to the same stage keys, so one identity decides
//! both the order and the calibration a warm start gets.
//!
//! A warm start is a *prior*, never a promise: the seeded order still
//! runs under full progressive supervision (sampling, trials, revert on
//! regression), so a stale cache entry — data drifted, plain collision —
//! costs at most the same convergence the cold start would have paid.
//! Correctness is never at stake: operator orders cannot change query
//! results.

use std::collections::HashMap;

use popt_solver::CalibrationSnapshot;

use crate::exec::program::CompiledProgram;
use crate::plan::Peo;

/// A query template's identity: the scanned row count plus the
/// literal-free structural key of every stage, in plan order. Two
/// queries share a signature exactly when they run the same stage
/// *structure* over the same stored columns — the unit of order reuse.
/// Instances of a parameterized template (`val < 500`, `val < 501`, …)
/// warm-hit each other, while any structural change — a different
/// column, operator, or dimension — misses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkloadSignature {
    rows: usize,
    stage_keys: Vec<u64>,
}

impl WorkloadSignature {
    /// Signature of a compiled program — a lowered scan or frontend plan
    /// alike — taken over the stages in plan (lowering) order so it is
    /// invariant under reordering.
    pub fn of_compiled(program: &CompiledProgram<'_>) -> Self {
        Self {
            rows: program.rows(),
            stage_keys: program.stage_keys(),
        }
    }

    /// Number of plan stages in the signature.
    pub fn stages(&self) -> usize {
        self.stage_keys.len()
    }
}

/// What the cache remembers about a converged template.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// The operator order the last instance converged to (plan indices).
    pub order: Peo,
    /// The last instance's probe-clustering calibration (`None` for
    /// targets that learn nothing at runtime, e.g. plain scans).
    pub calibration: Option<CalibrationSnapshot>,
    /// Warm lookups served so far.
    pub hits: u64,
    /// Times the entry was (re-)recorded by a finishing query.
    pub updates: u64,
    /// Consecutive warm completions whose converged order diverged from
    /// the order they were seeded with. Reaching the cache's staleness
    /// threshold evicts the entry: a template whose warm starts keep
    /// getting re-reordered is tracking drifted data, and replaying its
    /// order only buys each instance a failed trial.
    pub diverged_streak: u32,
}

/// Consecutive divergent warm completions after which a template entry
/// is dropped: a template whose warm starts keep getting re-reordered is
/// tracking drifted data.
pub const STALE_AFTER: u32 = 3;

/// What [`OrderCache::record_warm`] observed about a warm completion —
/// the cache's lifecycle decisions, as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmRecordOutcome {
    /// The completion converged away from the template's current order.
    pub diverged: bool,
    /// The divergence streak reached the staleness bound: entry dropped.
    pub evicted: bool,
}

/// Cumulative lifecycle counters for an [`OrderCache`]: every lookup,
/// record, divergence, eviction, and streak reset since construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Warm-start lookups that found a usable entry.
    pub hits: u64,
    /// Lookups that found nothing (or a malformed entry).
    pub misses: u64,
    /// Cold completions recorded.
    pub cold_records: u64,
    /// Warm completions recorded.
    pub warm_records: u64,
    /// Warm completions that diverged from the template's current order.
    pub divergences: u64,
    /// Entries evicted by a divergence streak reaching the bound.
    pub evictions: u64,
    /// Cold records that discarded a non-zero divergence streak — the
    /// formerly silent reset-on-cold, now counted.
    pub cold_streak_resets: u64,
}

/// The cross-query order/calibration cache a [`crate::serve::QueryServer`]
/// carries between runs.
#[derive(Debug)]
pub struct OrderCache {
    entries: HashMap<WorkloadSignature, CacheEntry>,
    stats: CacheStats,
}

impl Default for OrderCache {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderCache {
    /// An empty cache, evicting a template after [`STALE_AFTER`]
    /// consecutive divergent warm completions.
    pub fn new() -> Self {
        Self {
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Number of cached templates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no templates.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cumulative lifecycle counters since construction.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Warm-start lookup: the entry for `signature`, if one exists whose
    /// order still fits a plan of `signature.stages()` stages (a
    /// malformed entry degrades to a cold start instead of erroring).
    /// Counts a hit.
    pub fn lookup(&mut self, signature: &WorkloadSignature) -> Option<CacheEntry> {
        let found = self.entries.get_mut(signature).and_then(|entry| {
            if !crate::plan::is_valid_peo(&entry.order, signature.stages()) {
                return None;
            }
            entry.hits += 1;
            Some(entry.clone())
        });
        if found.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        found
    }

    /// Record a *cold-started* query's converged order (and calibration)
    /// under its signature, creating or refreshing the template entry. A
    /// cold convergence is fresh knowledge, so any divergence streak the
    /// template had accumulated resets — observably: the returned value
    /// is the streak that was discarded (0 for a fresh or clean entry),
    /// and a non-zero discard counts in
    /// [`CacheStats::cold_streak_resets`].
    pub fn record(
        &mut self,
        signature: WorkloadSignature,
        order: Peo,
        calibration: Option<CalibrationSnapshot>,
    ) -> u32 {
        self.stats.cold_records += 1;
        let entry = self.entries.entry(signature).or_insert(CacheEntry {
            order: Vec::new(),
            calibration: None,
            hits: 0,
            updates: 0,
            diverged_streak: 0,
        });
        let discarded_streak = entry.diverged_streak;
        entry.order = order;
        entry.calibration = calibration;
        entry.updates += 1;
        entry.diverged_streak = 0;
        if discarded_streak > 0 {
            self.stats.cold_streak_resets += 1;
        }
        discarded_streak
    }

    /// Record a *warm-started* query's completion, converged to `order`.
    /// Divergence is judged against the entry's **current** order — the
    /// template's latest belief, which a faster template mate may have
    /// refreshed since this instance was seeded — not the instance's own
    /// (possibly outdated) seed: once the template has settled on a new
    /// optimum, later completions that agree with it clear the streak
    /// instead of ganging up to evict a stable entry. A warm run that
    /// confirms the current order refreshes the entry; one that was
    /// re-reordered away from it counts against the template, and the
    /// configured number of **consecutive** divergent warm runs evicts
    /// it — the next instance starts cold and re-learns. The returned
    /// [`WarmRecordOutcome`] says what the cache decided.
    pub fn record_warm(
        &mut self,
        signature: WorkloadSignature,
        order: Peo,
        calibration: Option<CalibrationSnapshot>,
    ) -> WarmRecordOutcome {
        self.stats.warm_records += 1;
        let Some(entry) = self.entries.get_mut(&signature) else {
            // The entry vanished between seeding and completion (e.g. a
            // concurrent eviction): the converged order is still the
            // latest knowledge, and it starts a fresh streak history.
            let entry = self.entries.entry(signature).or_insert(CacheEntry {
                order: Vec::new(),
                calibration: None,
                hits: 0,
                updates: 0,
                diverged_streak: 0,
            });
            entry.order = order;
            entry.calibration = calibration;
            entry.updates += 1;
            entry.diverged_streak = 0;
            return WarmRecordOutcome::default();
        };
        if order == entry.order {
            entry.calibration = calibration;
            entry.updates += 1;
            entry.diverged_streak = 0;
            return WarmRecordOutcome::default();
        }
        self.stats.divergences += 1;
        entry.diverged_streak += 1;
        if entry.diverged_streak >= STALE_AFTER {
            self.entries.remove(&signature);
            self.stats.evictions += 1;
            return WarmRecordOutcome {
                diverged: true,
                evicted: true,
            };
        }
        // Keep the streak but refresh the payload: if the data merely
        // moved to a *new* stable order, the next warm run converges
        // where it starts (and matches the entry) and the streak clears.
        entry.order = order;
        entry.calibration = calibration;
        entry.updates += 1;
        WarmRecordOutcome {
            diverged: true,
            evicted: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SelectionPlan;
    use crate::predicate::{CompareOp, Predicate};
    use popt_storage::{AddressSpace, ColumnData, Table};

    fn table() -> Table {
        let mut space = AddressSpace::new();
        let mut t = Table::new("t");
        t.add_column("a", ColumnData::I32(vec![1; 64]), &mut space);
        t.add_column("b", ColumnData::I32(vec![2; 64]), &mut space);
        t
    }

    /// The signature of `plan` scanned over `t`.
    fn scan_signature(t: &Table, plan: &SelectionPlan) -> WorkloadSignature {
        let order = plan.identity_peo();
        WorkloadSignature::of_compiled(&CompiledProgram::from_selection(t, plan, &order).unwrap())
    }

    fn plan(literal: i64) -> SelectionPlan {
        SelectionPlan::new(
            vec![
                Predicate::new("a", CompareOp::Lt, literal),
                Predicate::new("b", CompareOp::Ge, 7),
            ],
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn signature_treats_literals_as_features_not_identity() {
        let t = table();
        let a = scan_signature(&t, &plan(10));
        let same = scan_signature(&t, &plan(10));
        let slid = scan_signature(&t, &plan(11));
        assert_eq!(a, same);
        assert_eq!(
            a, slid,
            "a tweaked literal is the same parameterized template"
        );
        // A structural change — different operator — is a different
        // template even with identical literals.
        let structural = SelectionPlan::new(
            vec![
                Predicate::new("a", CompareOp::Ge, 10),
                Predicate::new("b", CompareOp::Ge, 7),
            ],
            vec![],
        )
        .unwrap();
        let other = scan_signature(&t, &structural);
        assert_ne!(a, other, "operator change must miss the template");
        assert_eq!(a.stages(), 2);
    }

    /// `table()` plus a 4-row dimension, compiled as `a < 10` then a join
    /// on `b` ("b" holds 2s — valid keys) probing `p = 0`.
    fn compiled_select_join<'t>(t: &'t Table, dim: &'t Table) -> CompiledProgram<'t> {
        use crate::plan::{Expr, PlanBuilder};
        PlanBuilder::scan(t)
            .filter(Expr::col("a").less_than(10))
            .join(dim, "b", Expr::col("p").equal_to(0))
            .build()
            .compile()
            .unwrap()
    }

    fn dim() -> Table {
        dim_of(4)
    }

    fn dim_of(rows: usize) -> Table {
        let mut dim_space = AddressSpace::new();
        let mut dim = Table::new("dim");
        dim.add_column("p", ColumnData::I32(vec![0; rows]), &mut dim_space);
        dim
    }

    #[test]
    fn compiled_signature_describes_stage_structure() {
        let (t, dim) = (table(), dim());
        let program = compiled_select_join(&t, &dim);
        let sig = WorkloadSignature::of_compiled(&program);
        assert_eq!(sig.rows, t.rows());
        assert_eq!(sig.stage_keys, program.stage_keys());
        assert_eq!(sig.stages(), 2);
        // The same plan probing a larger dimension is another template.
        let other_dim = dim_of(8);
        assert_ne!(
            sig,
            WorkloadSignature::of_compiled(&compiled_select_join(&t, &other_dim))
        );
    }

    #[test]
    fn compiled_signature_is_order_invariant() {
        let (t, dim) = (table(), dim());
        let in_plan_order = WorkloadSignature::of_compiled(&compiled_select_join(&t, &dim));
        let mut reordered = compiled_select_join(&t, &dim);
        reordered.reorder(&[1, 0]).unwrap();
        assert_eq!(
            in_plan_order,
            WorkloadSignature::of_compiled(&reordered),
            "signature must not depend on the evaluation order"
        );
    }

    #[test]
    fn cache_roundtrip_counts_hits_and_updates() {
        let t = table();
        let sig = scan_signature(&t, &plan(10));
        let mut cache = OrderCache::new();
        assert!(cache.is_empty());
        assert!(cache.lookup(&sig).is_none());
        cache.record(sig.clone(), vec![1, 0], None);
        assert_eq!(cache.len(), 1);
        let entry = cache.lookup(&sig).expect("warm hit");
        assert_eq!(entry.order, vec![1, 0]);
        assert_eq!(entry.updates, 1);
        cache.record(sig.clone(), vec![0, 1], None);
        let entry = cache.lookup(&sig).expect("warm hit");
        assert_eq!(entry.order, vec![0, 1]);
        assert_eq!(entry.updates, 2);
        assert_eq!(entry.hits, 2);
    }

    #[test]
    fn consecutive_divergent_warm_runs_evict_the_template() {
        let t = table();
        let sig = scan_signature(&t, &plan(10));
        let mut cache = OrderCache::new();
        cache.record(sig.clone(), vec![0, 1], None);
        // Two flip-flopping warm completions (each diverging from the
        // entry's then-current order): entry survives, payload tracks
        // the latest converged order.
        let outcome = cache.record_warm(sig.clone(), vec![1, 0], None);
        assert!(outcome.diverged && !outcome.evicted);
        assert_eq!(cache.lookup(&sig).unwrap().order, vec![1, 0]);
        assert!(!cache.record_warm(sig.clone(), vec![0, 1], None).evicted);
        assert_eq!(cache.lookup(&sig).unwrap().diverged_streak, 2);
        // Third consecutive divergence: evicted, next lookup is cold.
        let outcome = cache.record_warm(sig.clone(), vec![1, 0], None);
        assert!(outcome.diverged && outcome.evicted);
        assert!(cache.lookup(&sig).is_none(), "stale template must drop");
        assert!(cache.is_empty());
        assert_eq!(cache.stats().divergences, 3);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().warm_records, 3);
    }

    #[test]
    fn converging_warm_run_clears_the_divergence_streak() {
        let t = table();
        let sig = scan_signature(&t, &plan(10));
        let mut cache = OrderCache::new();
        cache.record(sig.clone(), vec![0, 1], None);
        assert!(cache.record_warm(sig.clone(), vec![1, 0], None).diverged);
        assert_eq!(cache.lookup(&sig).unwrap().diverged_streak, 1);
        // The next warm run confirms the entry's (updated) order: the
        // streak is not consecutive any more and resets, so the template
        // stays alive indefinitely.
        assert!(!cache.record_warm(sig.clone(), vec![1, 0], None).diverged);
        assert_eq!(cache.lookup(&sig).unwrap().diverged_streak, 0);
        assert!(!cache.record_warm(sig.clone(), vec![0, 1], None).evicted);
        assert!(
            cache.lookup(&sig).is_some(),
            "a single divergence after a reset must not evict"
        );
        // A cold re-record also clears the streak — and says so: the
        // discarded streak comes back instead of silently vanishing.
        assert_eq!(cache.record(sig.clone(), vec![0, 1], None), 1);
        assert_eq!(cache.lookup(&sig).unwrap().diverged_streak, 0);
        assert_eq!(cache.stats().cold_streak_resets, 1);
        // A cold record over a clean entry discards nothing.
        assert_eq!(cache.record(sig.clone(), vec![0, 1], None), 0);
        assert_eq!(cache.stats().cold_streak_resets, 1);
    }

    #[test]
    fn template_that_stabilizes_on_a_new_optimum_is_not_evicted() {
        // Data drifts once; several in-flight instances were all seeded
        // with the stale order but all converge to the same new one. The
        // first completion moves the entry; the rest *agree* with the
        // moved entry (divergence is judged against the template's
        // current belief, not each instance's outdated seed), so the
        // stabilized template survives any number of such completions.
        let t = table();
        let sig = scan_signature(&t, &plan(10));
        let mut cache = OrderCache::new();
        cache.record(sig.clone(), vec![0, 1], None);
        for _ in 0..5 {
            assert!(!cache.record_warm(sig.clone(), vec![1, 0], None).evicted);
        }
        let entry = cache.lookup(&sig).expect("stable template survives");
        assert_eq!(entry.order, vec![1, 0]);
        assert_eq!(entry.diverged_streak, 0, "agreement clears the streak");
    }

    #[test]
    fn stats_count_lookups_and_records() {
        let t = table();
        let sig = scan_signature(&t, &plan(10));
        let mut cache = OrderCache::new();
        assert!(cache.lookup(&sig).is_none());
        cache.record(sig.clone(), vec![1, 0], None);
        assert!(cache.lookup(&sig).is_some());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().cold_records, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn malformed_cached_order_degrades_to_cold() {
        let t = table();
        let sig = scan_signature(&t, &plan(10));
        let mut cache = OrderCache::new();
        cache.record(sig.clone(), vec![0, 0], None); // not a permutation
        assert!(
            cache.lookup(&sig).is_none(),
            "bad order must not warm-start"
        );
        cache.record(sig.clone(), vec![0], None); // wrong arity
        assert!(cache.lookup(&sig).is_none());
    }
}
