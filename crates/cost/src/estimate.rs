//! The combined counter predictor — the model side of Equation 10.
//!
//! Given a hypothesis about how many tuples survive each predicate of a
//! PEO, predict the four counters the optimizer samples: branches not
//! taken, mispredicted taken branches, mispredicted not-taken branches,
//! and L3 accesses. The selectivity estimator searches the survivor space
//! for the hypothesis whose predicted counters match the sampled ones.
//!
//! The survivor ("access") parameterization follows Section 4.1: `a_j` is
//! the number of tuples qualifying at predicate `j`, i.e. the number of
//! accesses the paper attributes to column `j`; selectivities fall out as
//! `p_j = a_j / a_{j-1}` with `a_0 = tupsin`.

use crate::branch_costs::peo_branch_totals;
use crate::cache_model::{CacheGeometry, ColumnL3};
use crate::join_model::{random_misses_f, sequential_misses_f, JoinGeometry, SequentialLines};
use crate::markov::ChainSpec;

/// A foreign-key join filter at one plan position: per surviving tuple the
/// stage loads the FK (covered by the position's `value_bytes` entry like
/// any other column read) and then probes the dimension tuple it
/// addresses. The probe's cache behaviour is what distinguishes a cheap
/// co-clustered join from an LLC-thrashing one (Sections 5.5–5.6), so the
/// geometry carries the Equation-1 inputs plus the *measured* clustering
/// of the probe stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeGeometry {
    /// The probed (dimension) relation relative to the LLC — the inputs of
    /// Equations 1 and 2.
    pub relation: JoinGeometry,
    /// Capacity in bytes of the cache level *above* the LLC (L2): probes
    /// into a relation resident there never produce L3 traffic.
    pub upper_cache_bytes: f64,
    /// Clustering of the probe stream in `[0, 1]`: `1` = uniform random
    /// (Equation 1 applies untouched), `0` = perfectly co-clustered
    /// (near-sequential). Runs start at the pessimistic `1` and calibrate
    /// the value from measured counters.
    pub clustering: f64,
    /// Fraction of the probed relation homed on a *remote* socket
    /// relative to the executing core, in `[0, 1]`. `0` (the single-socket
    /// default) prices every miss at local latency; a core probing a dim
    /// pinned to the other socket sees `1`. Derived from the pool's
    /// `NumaPlacement` — static topology knowledge, so per-socket cost
    /// estimates stay deterministic.
    pub remote_fraction: f64,
}

impl ProbeGeometry {
    /// A probe with everything unknown assumed worst-case random (but
    /// local — remote pricing is opt-in via the placement).
    pub fn random(relation: JoinGeometry, upper_cache_bytes: f64) -> Self {
        Self {
            relation,
            upper_cache_bytes,
            clustering: 1.0,
            remote_fraction: 0.0,
        }
    }

    /// Expected L3 accesses (demand + buddy prefetch, the paper's
    /// Section 2.2.2 definition) for `r` probes.
    ///
    /// A random probe into a relation that outgrows the upper cache always
    /// performs one L3 lookup and — the buddy line being useless — one
    /// prefetch lookup, independent of whether the *relation* fits the
    /// LLC: `2·r`. A co-clustered stream walks the relation's lines in
    /// order, costing one demand and one prefetch lookup per 2-line buddy
    /// pair: one access per touched line. The measured clustering blends
    /// the two regimes.
    pub fn l3_accesses(&self, r: f64) -> f64 {
        ProbeL3::new(self).at(r)
    }

    /// Expected L3 *misses* for `r` probes: the Equation-1 random miss
    /// count blended against the sequential (compulsory-only) count.
    pub fn l3_misses(&self, r: f64) -> f64 {
        let r = r.max(0.0);
        if self.relation.relation_bytes() <= self.upper_cache_bytes {
            return 0.0;
        }
        self.clustering * random_misses_f(&self.relation, r)
            + (1.0 - self.clustering) * sequential_misses_f(&self.relation, r)
    }
}

/// The per-probe constants of [`ProbeGeometry::l3_accesses`], for a
/// caller that prices one probe at many reaching counts.
#[derive(Debug, Clone, Copy)]
struct ProbeL3 {
    /// The relation fits the upper cache: probes never reach L3.
    resident: bool,
    clustering: f64,
    /// `1 − clustering`.
    unclustered: f64,
    sequential: SequentialLines,
}

impl ProbeL3 {
    fn new(probe: &ProbeGeometry) -> Self {
        Self {
            resident: probe.relation.relation_bytes() <= probe.upper_cache_bytes,
            clustering: probe.clustering,
            unclustered: 1.0 - probe.clustering,
            sequential: SequentialLines::new(&probe.relation),
        }
    }

    /// [`ProbeGeometry::l3_accesses`] for `r` probes.
    fn at(&self, r: f64) -> f64 {
        let r = r.max(0.0);
        if self.resident {
            return 0.0;
        }
        let random = 2.0 * r;
        let sequential = self.sequential.at(r);
        self.clustering * random + self.unclustered * sequential
    }
}

/// Static shape of the plan whose counters are being predicted.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanGeometry {
    /// Input tuples of the sampled interval.
    pub n_input: u64,
    /// Value width in bytes of each predicate's column, in evaluation
    /// order.
    pub value_bytes: Vec<u32>,
    /// Identity of each predicate's underlying column, in evaluation
    /// order: positions sharing an id read the *same* column (e.g. the two
    /// bounds of a between predicate). A repeated read is cache-resident
    /// within a vector, so only the first read of a column costs memory
    /// accesses — the plan shape is static knowledge, so using it keeps
    /// the optimizer non-invasive.
    pub column_ids: Vec<usize>,
    /// Widths of the aggregate columns read for qualifying tuples that are
    /// *not* already read by a predicate (one entry per fresh column).
    pub agg_bytes: Vec<u32>,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Branch predictor model.
    pub chain: ChainSpec,
    /// Per-position dimension probe for foreign-key join-filter stages
    /// (`None` for plain selections). Either empty (a pure multi-selection
    /// plan) or one entry per evaluation position.
    pub probes: Vec<Option<ProbeGeometry>>,
}

impl PlanGeometry {
    /// A uniform geometry: `preds` predicates over distinct 4-byte columns
    /// with a 4-byte aggregate, 64-byte lines, six-state chain.
    pub fn uniform_i32(n_input: u64, preds: usize) -> Self {
        Self {
            n_input,
            value_bytes: vec![4; preds],
            column_ids: (0..preds).collect(),
            agg_bytes: vec![4],
            line_bytes: 64,
            chain: ChainSpec::SIX,
            probes: Vec::new(),
        }
    }

    /// Number of predicates.
    pub fn predicates(&self) -> usize {
        self.value_bytes.len()
    }

    /// The probe at evaluation position `j`, if that stage is a join
    /// filter (an empty `probes` vector means an all-selection plan).
    pub fn probe(&self, j: usize) -> Option<&ProbeGeometry> {
        self.probes.get(j).and_then(Option::as_ref)
    }

    /// Whether evaluation position `j` is the first to read its column.
    pub fn first_read(&self, j: usize) -> bool {
        self.column_ids[..j]
            .iter()
            .all(|&c| c != self.column_ids[j])
    }
}

/// Predicted counter values for one survivor hypothesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterEstimate {
    /// Branches not taken (= Σ survivors, Section 4.1).
    pub bnt: f64,
    /// Branches taken, including the loop back-edge.
    pub bt: f64,
    /// Mispredicted taken branches.
    pub mp_taken: f64,
    /// Mispredicted not-taken branches.
    pub mp_not_taken: f64,
    /// L3 accesses (demand + prefetch) across all touched columns.
    pub l3_accesses: f64,
}

/// Selectivities implied by a survivor vector (`p_j = a_j / a_{j-1}`,
/// clamped into `[0, 1]` so the model stays defined off the feasible
/// manifold during optimization).
///
/// A predicate whose input stream is empty is unidentifiable; it reports
/// selectivity `1.0` ("no evidence it filters anything") so that the
/// ascending-selectivity reorder pushes it to the back instead of
/// rewarding it for work it never did.
pub fn survivors_to_selectivities(n_input: u64, survivors: &[f64]) -> Vec<f64> {
    selectivities(n_input, survivors).collect()
}

/// [`survivors_to_selectivities`] as a lazy sequence, for callers that
/// consume each selectivity once and need no vector.
pub fn selectivities(n_input: u64, survivors: &[f64]) -> impl Iterator<Item = f64> + '_ {
    let mut prev = n_input as f64;
    survivors.iter().map(move |&a| {
        let p = if prev <= 0.0 {
            1.0
        } else {
            (a / prev).clamp(0.0, 1.0)
        };
        prev = a.max(0.0);
        p
    })
}

/// Predict all counters for the survivor hypothesis `survivors`
/// (`survivors.len()` must equal the number of predicates). A one-off
/// prediction: a search that evaluates one geometry many times prepares a
/// [`CounterModel`] once instead.
pub fn estimate_counters(geom: &PlanGeometry, survivors: &[f64]) -> CounterEstimate {
    CounterModel::new(geom, survivors.last().copied().unwrap_or(0.0)).estimate(survivors)
}

/// The counter model of one geometry, prepared for a search that pins the
/// last survivor count (the estimator's `n_output`). What depends only on
/// the geometry or that count is computed once — per-position line
/// counts, exponents, first-read flags and probe constants; position 0's
/// L3 term (density 1, all `n` tuples reaching its probe); the aggregate
/// columns' terms (at the pinned output density). [`CounterModel::estimate`]
/// performs the remaining floating-point operations in the model's order
/// and adds the constants where they always stood: bit-identical to the
/// model computed anew, and free of heap allocation.
#[derive(Debug, Clone)]
pub struct CounterModel<'g> {
    geom: &'g PlanGeometry,
    /// The pinned last survivor count.
    output: f64,
    /// L3 accesses of position 0: its column, then its probe.
    head: f64,
    /// Per position from 1 on: the column's L3 constants where the
    /// position is the first to read it (repeated reads are resident),
    /// and the probe's where the position is a join.
    positions: Vec<(Option<ColumnL3>, Option<ProbeL3>)>,
    /// L3 accesses of each aggregate column, in order.
    aggs: Vec<f64>,
}

impl<'g> CounterModel<'g> {
    /// Prepare `geom` for hypotheses whose last survivor count is
    /// `output`.
    pub fn new(geom: &'g PlanGeometry, output: f64) -> Self {
        let p = geom.predicates();
        assert_eq!(
            geom.column_ids.len(),
            p,
            "one column id per predicate required"
        );
        assert!(
            geom.probes.is_empty() || geom.probes.len() == p,
            "probes must be empty or one per predicate"
        );
        let n = geom.n_input as f64;
        let column = |width: u32| {
            let cg = CacheGeometry {
                line_bytes: geom.line_bytes,
                value_bytes: width,
            };
            ColumnL3::new(&cg, geom.n_input)
        };
        let mut head = 0.0;
        if let Some(&width) = geom.value_bytes.first() {
            head += column(width).at(1.0);
            if let Some(probe) = geom.probe(0) {
                head += probe.l3_accesses(n);
            }
        }
        let positions = (1..p)
            .map(|j| {
                let read = geom.first_read(j).then(|| column(geom.value_bytes[j]));
                (read, geom.probe(j).map(ProbeL3::new))
            })
            .collect();
        let density = if p == 0 { 1.0 } else { read_density(n, output) };
        let aggs = geom
            .agg_bytes
            .iter()
            .map(|&width| column(width).at(density))
            .collect();
        Self {
            geom,
            output,
            head,
            positions,
            aggs,
        }
    }

    /// Predict all counters for `survivors`, whose last entry must be the
    /// pinned output count.
    pub fn estimate(&self, survivors: &[f64]) -> CounterEstimate {
        let geom = self.geom;
        assert_eq!(
            survivors.len(),
            geom.predicates(),
            "one survivor count per predicate required"
        );
        debug_assert!(
            survivors
                .last()
                .is_none_or(|a| a.to_bits() == self.output.to_bits()),
            "the last survivor count is pinned"
        );
        let sels = selectivities(geom.n_input, survivors);
        let branches = peo_branch_totals(geom.n_input, sels, &geom.chain, true);

        // Column read densities: predicate j reads its column for every
        // tuple that survived predicates 0..j. Densities only shrink along
        // the chain, so a column's first read dominates and repeated reads
        // of the same column are cache-resident — they cost no further L3
        // accesses. A join-filter stage additionally probes its dimension
        // once per reaching tuple, priced by the stage's
        // [`ProbeGeometry`].
        let n = geom.n_input as f64;
        let mut l3 = self.head;
        let mut reaching = n;
        for (&before, (read, probe)) in survivors.iter().zip(&self.positions) {
            reaching = before.clamp(0.0, reaching);
            if let Some(read) = read {
                l3 += read.at(read_density(n, before));
            }
            if let Some(probe) = probe {
                l3 += probe.at(reaching);
            }
        }
        for &agg in &self.aggs {
            l3 += agg;
        }

        CounterEstimate {
            bnt: branches.bnt,
            bt: branches.bt,
            mp_taken: branches.mp_taken,
            mp_not_taken: branches.mp_not_taken,
            l3_accesses: l3,
        }
    }
}

/// The density at which a column is read behind `survivors` of `n` input
/// tuples.
fn read_density(n: f64, survivors: f64) -> f64 {
    if n > 0.0 {
        (survivors / n).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectivities_from_survivors() {
        let sels = survivors_to_selectivities(100, &[80.0, 70.0, 50.0, 10.0]);
        let want = [0.8, 0.875, 5.0 / 7.0, 0.2];
        for (got, want) in sels.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{sels:?}");
        }
    }

    #[test]
    fn non_monotone_survivors_clamp() {
        let sels = survivors_to_selectivities(100, &[50.0, 60.0]);
        assert_eq!(sels[1], 1.0);
    }

    #[test]
    fn bnt_equals_survivor_sum() {
        let geom = PlanGeometry::uniform_i32(100, 4);
        let est = estimate_counters(&geom, &[80.0, 70.0, 50.0, 10.0]);
        assert!((est.bnt - 210.0).abs() < 1e-6, "bnt = {}", est.bnt);
    }

    #[test]
    fn qualifying_identity_holds_in_model() {
        let geom = PlanGeometry::uniform_i32(1000, 2);
        let est = estimate_counters(&geom, &[500.0, 100.0]);
        // bt = failing (1000-500 + 500-100) + loop (1000) = 1900.
        assert!((est.bt - 1900.0).abs() < 1e-6);
        // 2n - bt = 100 = output.
        assert!((2000.0 - est.bt - 100.0).abs() < 1e-6);
    }

    #[test]
    fn distinct_orders_differ_in_some_counter() {
        // The distinguishability premise of Section 4.2: [40%, 20%] vs
        // [20%, 40%] differ in mispredicted not-taken branches.
        let geom = PlanGeometry::uniform_i32(1_000_000, 2);
        let a = estimate_counters(&geom, &[400_000.0, 80_000.0]);
        let b = estimate_counters(&geom, &[200_000.0, 80_000.0]);
        assert!((a.mp_not_taken - b.mp_not_taken).abs() > 1000.0);
    }

    #[test]
    fn branch_totals_are_bit_identical_to_the_allocating_breakdown() {
        // `estimate_counters` sums branch counters without building the
        // per-predicate vectors; the vector-building public functions are
        // the reference, off the feasible manifold included (zero and
        // non-monotone survivors, survivors above the input).
        use crate::branch_costs::estimate_peo_branches;
        let hypotheses: [&[f64]; 6] = [
            &[80.0, 70.0, 50.0, 10.0],
            &[100.0, 100.0, 100.0, 100.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[33.3, 77.7, 1e-9, 250.0],
            &[99.999, 0.001, 0.001, 0.0],
            &[50.0, 25.0, 12.5, 6.25],
        ];
        for chain in [ChainSpec::SIX, ChainSpec::FOUR, ChainSpec::even(16)] {
            let mut geom = PlanGeometry::uniform_i32(100, 4);
            geom.chain = chain;
            for survivors in hypotheses {
                let got = estimate_counters(&geom, survivors);
                let sels = survivors_to_selectivities(geom.n_input, survivors);
                let want = estimate_peo_branches(geom.n_input, &sels, &chain, true);
                for (g, w) in [
                    (got.bnt, want.bnt),
                    (got.bt, want.bt),
                    (got.mp_taken, want.mp_taken),
                    (got.mp_not_taken, want.mp_not_taken),
                ] {
                    assert_eq!(g.to_bits(), w.to_bits(), "{chain:?} {survivors:?}");
                }
                // ... and the breakdown's own mispredictions come from the
                // vector-returning stationary distribution.
                for (est, &p) in want.predicates.iter().zip(&sels) {
                    let pi = chain.stationary(p);
                    let k = chain.not_taken_states as usize;
                    let predict_not_taken: f64 = pi[..k].iter().sum();
                    let mp_taken = est.input * ((1.0 - p) * predict_not_taken);
                    assert_eq!(est.mp_taken.to_bits(), mp_taken.to_bits());
                }
            }
        }
    }

    #[test]
    fn l3_grows_with_survivors() {
        let geom = PlanGeometry::uniform_i32(1_000_000, 2);
        let low = estimate_counters(&geom, &[10_000.0, 1_000.0]);
        let high = estimate_counters(&geom, &[900_000.0, 800_000.0]);
        assert!(high.l3_accesses > low.l3_accesses);
    }

    #[test]
    #[should_panic(expected = "one survivor count per predicate")]
    fn arity_mismatch_panics() {
        let geom = PlanGeometry::uniform_i32(10, 2);
        let _ = estimate_counters(&geom, &[5.0]);
    }

    fn thrashing_probe(clustering: f64) -> ProbeGeometry {
        ProbeGeometry {
            relation: JoinGeometry {
                relation_tuples: 500_000,
                tuple_bytes: 4,
                line_bytes: 64,
                cache_lines: 1024 * 1024 / 64, // 1 MiB LLC vs 2 MB relation
            },
            upper_cache_bytes: 64.0 * 1024.0,
            clustering,
            remote_fraction: 0.0,
        }
    }

    #[test]
    fn random_probe_double_counts_accesses() {
        let p = thrashing_probe(1.0);
        let r = 10_000.0;
        assert!((p.l3_accesses(r) - 2.0 * r).abs() < 1e-9);
    }

    #[test]
    fn coclustered_probe_accesses_touched_lines_only() {
        let p = thrashing_probe(0.0);
        let r = 16_000.0;
        // 16 probes per 64 B line: 1000 touched lines.
        assert!((p.l3_accesses(r) - 1000.0).abs() < 1e-9);
        assert!(p.l3_misses(r) < thrashing_probe(1.0).l3_misses(r));
    }

    #[test]
    fn upper_cache_resident_probe_is_free() {
        let mut p = thrashing_probe(1.0);
        p.relation.relation_tuples = 1_000; // 4 KB < 64 KB L2
        assert_eq!(p.l3_accesses(50_000.0), 0.0);
        assert_eq!(p.l3_misses(50_000.0), 0.0);
    }

    #[test]
    fn join_stage_raises_predicted_l3() {
        let plain = PlanGeometry::uniform_i32(100_000, 2);
        let mut with_probe = plain.clone();
        with_probe.probes = vec![None, Some(thrashing_probe(1.0))];
        let survivors = [50_000.0, 10_000.0];
        let a = estimate_counters(&plain, &survivors);
        let b = estimate_counters(&with_probe, &survivors);
        // The second stage probes once per reaching tuple (the first
        // stage's survivors), double-counted: + 2 * 50_000.
        assert!((b.l3_accesses - a.l3_accesses - 100_000.0).abs() < 1.0);
        // Branch counters are untouched by the probe.
        assert_eq!(a.bnt, b.bnt);
        assert_eq!(a.mp_taken, b.mp_taken);
    }

    #[test]
    fn contended_share_raises_predicted_probe_misses() {
        // The socket model rebinds a probe's Equation-1 capacity to the
        // core's effective share: the prediction must see more misses as
        // a co-runner steals capacity, while access counts (demand +
        // buddy prefetch per probe) stay capacity-independent.
        let p = |share_bytes: u64| ProbeGeometry {
            relation: thrashing_probe(1.0).relation.with_cache_bytes(share_bytes),
            upper_cache_bytes: 64.0 * 1024.0,
            clustering: 1.0,
            remote_fraction: 0.0,
        };
        // Enough probes that both shares sit in Equation 1's thrashing
        // branch (at low probe counts the compulsory branch applies and
        // capacity is irrelevant).
        let r = 100_000.0;
        let full = p(1024 * 1024);
        let halved = p(512 * 1024);
        assert!(halved.l3_misses(r) > full.l3_misses(r));
        assert_eq!(halved.l3_accesses(r), full.l3_accesses(r));
        // Equation 1's thrashing branch: miss probability tracks
        // 1 − share/relation.
        let expect = r * (1.0 - (512.0 * 1024.0) / (2_000_000.0));
        assert!((halved.l3_misses(r) - expect).abs() < 1.0);
    }

    #[test]
    fn clustering_interpolates_probe_accesses() {
        let mut geom = PlanGeometry::uniform_i32(100_000, 1);
        let survivors = [40_000.0];
        geom.probes = vec![Some(thrashing_probe(0.0))];
        let lo = estimate_counters(&geom, &survivors).l3_accesses;
        geom.probes = vec![Some(thrashing_probe(1.0))];
        let hi = estimate_counters(&geom, &survivors).l3_accesses;
        geom.probes = vec![Some(thrashing_probe(0.5))];
        let mid = estimate_counters(&geom, &survivors).l3_accesses;
        assert!(lo < mid && mid < hi, "{lo} {mid} {hi}");
        assert!((mid - (lo + hi) / 2.0).abs() < 1e-6);
    }
}
