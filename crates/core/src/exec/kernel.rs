//! The batched row loop of the compiled program.
//!
//! [`CompiledProgram::run_range`] resolves its stages — in evaluation
//! order, with an optional probe — and its aggregate columns into a
//! [`RowKernel`] held in fixed-size scratch, and the kernel drives the
//! simulated CPU: stream adjacency states, the history register and the
//! hot counters live in locals and flush once per call, while the
//! simulated state machines (predictor table, caches, prefetcher) advance
//! in exact program order. The program's scalar oracle
//! (`run_range_scalar`, one `SimCpu` call per event) is the reference the
//! kernel is proptest-pinned against (`tests/proptest_fastpath.rs`,
//! `tests/proptest_runs.rs`).
//!
//! ## Run compression
//!
//! Clustered data makes consecutive rows *identical* to the simulator:
//! once the shipdate predicate that fails for the current months leads,
//! thousands of rows in a row are "load the leading column(s), fail at
//! stage `k`, take the back-edge"; once a join through a co-clustered
//! foreign key leads, so are the rows whose keys share a failing
//! dimension tuple. After [`RUN_TRIGGER`] consecutive rows failed at the
//! same stage `k` behind the *run prefix* — the leading stages whose
//! streams are their own (read at the base of the slot's first user, so
//! a column's addresses are a function of the row number and a probe's
//! of the row's key) — the kernel looks ahead with plain host compares
//! (a probe's outcome is `probe[fk[i]]`) for how far that outcome repeats
//! and accounts the whole run in bulk:
//!
//! * **instructions** by multiplication;
//! * **loads** — `k == 0` on a selection: every load of the run belongs
//!   to one dense stream, which is [`BatchCpu::load_elements_seq`]'s
//!   closed form. Otherwise several streams interleave, and the
//!   hierarchy is shared state, so line crossings are walked in exactly
//!   the fused loop's order (row-major, never reordered across streams;
//!   within a row each stage's column, then its probe); only the element
//!   hits between two crossings — which touch no simulated state — are a
//!   counter add. A column's next possible crossing is where its address
//!   leaves the current line; a probe's is the first later row whose key
//!   addresses another line, found by scanning the keys up to the
//!   nearest column crossing. Every row in between finds each stream on
//!   the line its own last load left it on, which is exactly the
//!   condition under which [`BatchCpu::load_quiet`] counts an element
//!   hit and touches nothing;
//! * **branches** by stepping the predictor row by row until a *fixed
//!   point*: a whole row after which the history register is what it was
//!   before the row and no automaton moved. The predictor is a
//!   deterministic function of `(history, table)`, so every further
//!   identical row is the identical no-op with the identical
//!   mispredictions: that row's deltas × the rows left.
//!
//! Every looked-ahead row is consumed by the bulk path whatever the
//! run's length, so the only repeated host work is the one mismatching
//! row that ends a look-ahead — i.i.d. inputs rarely reach the trigger
//! and pay nothing measurable. There is no tunable.
//!
//! [`CompiledProgram::run_range`]: crate::exec::program::CompiledProgram::run_range

use popt_cost::cycles::{INSTR_LOOP, INSTR_PER_AGG_COLUMN, INSTR_PER_EVAL};
use popt_cpu::{BatchCpu, BranchSite, SimCpu};
use popt_storage::Table;

use crate::error::EngineError;
use crate::exec::scan::{VectorStats, LOOP_BRANCH_SITE};
use crate::predicate::CompareOp;

/// Stages (and aggregate columns) the fixed scratch holds; larger shapes
/// run on the scalar oracle.
const MAX_STAGES: usize = 12;
/// Distinct access streams the fixed scratch holds.
const MAX_SLOTS: usize = 32;
/// Consecutive rows with the same failing stage before a look-ahead is
/// worth one possibly wasted row evaluation.
const RUN_TRIGGER: u32 = 6;

/// One column an executor reads per row (or per probe): its values, its
/// simulated base address and its access stream.
#[derive(Clone, Copy)]
pub(crate) struct ColumnRef<'t> {
    pub(crate) values: &'t [i32],
    pub(crate) base: u64,
    pub(crate) stream: usize,
}

impl<'t> ColumnRef<'t> {
    /// Resolve an `i32` column of `table` by name; its stream is its
    /// column index.
    pub(crate) fn resolve(table: &'t Table, name: &str) -> Result<Self, EngineError> {
        let stream = table
            .column_index(name)
            .ok_or_else(|| EngineError::UnknownColumn(name.to_string()))?;
        let column = table.column_at(stream);
        let values = column
            .data()
            .as_i32()
            .ok_or_else(|| EngineError::UnsupportedColumnType(name.to_string()))?;
        Ok(Self {
            values,
            base: column.base_addr(),
            stream,
        })
    }
}

/// A column resolved to its stream slot.
#[derive(Clone, Copy)]
struct Slotted<'t> {
    values: &'t [i32],
    base: u64,
    slot: usize,
}

impl Slotted<'_> {
    const EMPTY: Self = Slotted {
        values: &[],
        base: 0,
        slot: 0,
    };

    #[inline(always)]
    fn addr(&self, element: usize) -> u64 {
        self.base + element as u64 * 4
    }
}

#[derive(Clone, Copy)]
struct Stage<'t> {
    column: Slotted<'t>,
    site: BranchSite,
    op: CompareOp,
    literal: i64,
    /// Instructions per evaluation (base charge plus the stage's extra).
    instrs: u64,
    probe: Option<Slotted<'t>>,
}

impl Stage<'_> {
    const EMPTY: Self = Stage {
        column: Slotted::EMPTY,
        site: BranchSite(0),
        op: CompareOp::Eq,
        literal: 0,
        instrs: 0,
        probe: None,
    };

    /// The stage's probe, as the loop instance for shapes with
    /// (`PROBES`) or without probes sees it.
    #[inline(always)]
    fn probe<const PROBES: bool>(&self) -> Option<&Slotted<'_>> {
        self.probe.as_ref().filter(|_| PROBES)
    }

    /// The outcome of the stage for row `i`, on the host alone.
    #[inline(always)]
    fn selects<const PROBES: bool>(&self, i: usize) -> bool {
        let value = match self.probe::<PROBES>() {
            Some(p) => p.values[self.column.values[i] as usize],
            None => self.column.values[i],
        };
        self.op.eval(i64::from(value), self.literal)
    }
}

/// What a row loop hands back for the once-per-call flush.
struct Tally {
    qualified: u64,
    sum: i64,
    instrs: u64,
    hits: u64,
    branches: u64,
    taken: u64,
    mp_taken: u64,
    mp_not_taken: u64,
}

/// What a bulk-accounted run adds to the row loop's local counters.
struct RunTally {
    history: u32,
    hits: u64,
    mp_taken: u64,
    mp_not_taken: u64,
}

/// Stages in evaluation order, aggregate columns and the stream slots
/// they share, resolved for one `run_range` call. See the
/// [module documentation](self).
pub(crate) struct RowKernel<'t> {
    stages: [Stage<'t>; MAX_STAGES],
    n_stages: usize,
    aggs: [Slotted<'t>; MAX_STAGES],
    n_aggs: usize,
    /// Stream behind each slot and the base address of its first user.
    /// Stages sharing a column share one adjacency state, exactly like
    /// `SimCpu::load` does through its per-stream table.
    slot_streams: [(usize, u64); MAX_SLOTS],
    n_slots: usize,
    /// Leading stages whose streams are their own: where runs can be
    /// compressed.
    run_prefix: usize,
}

impl<'t> RowKernel<'t> {
    pub(crate) fn new() -> Self {
        Self {
            stages: [Stage::EMPTY; MAX_STAGES],
            n_stages: 0,
            aggs: [Slotted::EMPTY; MAX_STAGES],
            n_aggs: 0,
            slot_streams: [(usize::MAX, 0); MAX_SLOTS],
            n_slots: 0,
            run_prefix: 0,
        }
    }

    /// Resolve a column to its stream's slot; `None` when the scratch is
    /// full.
    fn slot(&mut self, column: ColumnRef<'t>) -> Option<Slotted<'t>> {
        let known = self.slot_streams[..self.n_slots]
            .iter()
            .position(|s| s.0 == column.stream);
        let slot = match known {
            Some(slot) => slot,
            None if self.n_slots == MAX_SLOTS => return None,
            None => {
                self.slot_streams[self.n_slots] = (column.stream, column.base);
                self.n_slots += 1;
                self.n_slots - 1
            }
        };
        Some(Slotted {
            values: column.values,
            base: column.base,
            slot,
        })
    }

    /// Append the next stage in evaluation order — `op(column[i],
    /// literal)`, or with a probe `op(probe[column[i]], literal)`; `None`
    /// when the shape exceeds the fixed scratch.
    pub(crate) fn push_stage(
        &mut self,
        column: ColumnRef<'t>,
        probe: Option<ColumnRef<'t>>,
        site: BranchSite,
        op: CompareOp,
        literal: i64,
        extra_instructions: u64,
    ) -> Option<()> {
        if self.n_stages == MAX_STAGES {
            return None;
        }
        let column = self.slot(column)?;
        let probe = match probe {
            Some(p) => Some(self.slot(p)?),
            None => None,
        };
        // The bulk paths model one address sequence per slot, so a stage
        // reading its stream at another base than the slot's first user
        // (stream ids colliding across tables) ends the prefix too.
        let own = |s: &Slotted<'_>| self.slot_streams[s.slot].1 == s.base;
        if own(&column) && probe.as_ref().is_none_or(own) && self.run_prefix == self.n_stages {
            self.run_prefix += 1;
        }
        self.stages[self.n_stages] = Stage {
            column,
            site,
            op,
            literal,
            instrs: INSTR_PER_EVAL + extra_instructions,
            probe,
        };
        self.n_stages += 1;
        Some(())
    }

    /// Append an aggregate column; `None` when the shape exceeds the
    /// fixed scratch.
    pub(crate) fn push_agg(&mut self, agg: ColumnRef<'t>) -> Option<()> {
        if self.n_aggs == MAX_STAGES {
            return None;
        }
        self.aggs[self.n_aggs] = self.slot(agg)?;
        self.n_aggs += 1;
        Some(())
    }

    /// Execute rows `start..end` against `cpu`: the events of the scalar
    /// oracle, accounted in bulk wherever the model proves the bulk form
    /// exact.
    pub(crate) fn run(&self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats {
        let before = cpu.counters();
        let line_bytes = cpu.config().line_bytes();
        let streams = &self.slot_streams[..self.n_slots];
        let mut batch = cpu.batch();
        let mut slots = [0u64; MAX_SLOTS];
        for (state, &(stream, _)) in slots.iter_mut().zip(streams) {
            *state = batch.stream_state(stream);
        }
        let mut history = batch.history();
        let stages = &self.stages[..self.n_stages];
        let probes = stages.iter().any(|s| s.probe.is_some());
        let tally = match stages {
            [only] if !probes && self.n_aggs == 0 => {
                count_scan(only, &mut batch, &mut slots, &mut history, start..end)
            }
            // Two instances of the one loop: selection-only shapes are
            // spared the per-stage probe test.
            _ if probes => {
                self.rows::<true>(&mut batch, &mut slots, &mut history, line_bytes, start, end)
            }
            _ => self.rows::<false>(&mut batch, &mut slots, &mut history, line_bytes, start, end),
        };
        batch.set_history(history);
        batch.instr(tally.instrs);
        batch.add_element_hits(tally.hits);
        batch.add_branch_block(
            tally.branches,
            tally.taken,
            tally.mp_taken,
            tally.mp_not_taken,
        );
        for (&state, &(stream, _)) in slots.iter().zip(streams) {
            batch.set_stream_state(stream, state);
        }
        batch.finish();
        VectorStats {
            tuples: (end - start) as u64,
            qualified: tally.qualified,
            sum: tally.sum,
            counters: cpu.counters().since(&before),
        }
    }

    /// The fused row loop: per row one load + compare + branch per stage
    /// up to the first failure, the aggregate update for a qualifying
    /// row, and the back-edge — with runs of rows failing at one stage
    /// handed to [`account_run`]. The hot counters are plain locals
    /// (registers); the simulated state machines still advance per
    /// event, in exact program order.
    #[inline(never)]
    fn rows<const PROBES: bool>(
        &self,
        batch: &mut BatchCpu<'_>,
        slots: &mut [u64; MAX_SLOTS],
        history: &mut u32,
        line_bytes: u64,
        start: usize,
        end: usize,
    ) -> Tally {
        let stages = &self.stages[..self.n_stages];
        let aggs = &self.aggs[..self.n_aggs];
        let mut hist = *history;
        let mut qualified = 0u64;
        let mut sum = 0i64;
        let mut instrs = 0u64;
        let mut hits = 0u64;
        let mut branches = 0u64;
        let mut taken = 0u64;
        let mut mp_taken = 0u64;
        let mut mp_not_taken = 0u64;
        let mut streak_stage = usize::MAX;
        let mut streak = 0u32;
        let mut i = start;
        while i < end {
            instrs += INSTR_LOOP;
            let mut failed = stages.len();
            for (k, stg) in stages.iter().enumerate() {
                hits += batch.load_quiet(&mut slots[stg.column.slot], stg.column.addr(i), 4);
                let value = match stg.probe::<PROBES>() {
                    Some(p) => {
                        let key = stg.column.values[i] as usize;
                        // The full key range was validated at lowering.
                        debug_assert!(key < p.values.len(), "dangling foreign key");
                        hits += batch.load_quiet(&mut slots[p.slot], p.addr(key), 4);
                        p.values[key]
                    }
                    None => stg.column.values[i],
                };
                instrs += stg.instrs;
                let ok = stg.op.eval(i64::from(value), stg.literal);
                // Qualifying tuple: fall through (not taken). Failing
                // tuple: jump past the remaining stages (taken).
                let tk = u64::from(!ok);
                let (w, _) = batch.branch_hist(&mut hist, stg.site, !ok);
                branches += 1;
                taken += tk;
                mp_taken += w & tk;
                mp_not_taken += w & (1 - tk);
                if !ok {
                    failed = k;
                    streak = if k == streak_stage { streak + 1 } else { 1 };
                    streak_stage = k;
                    break;
                }
            }
            if failed == stages.len() {
                streak = 0;
                qualified += 1;
                let mut product = 1i64;
                for a in aggs {
                    hits += batch.load_quiet(&mut slots[a.slot], a.addr(i), 4);
                    instrs += INSTR_PER_AGG_COLUMN;
                    product *= i64::from(a.values[i]);
                }
                if !aggs.is_empty() {
                    sum += product;
                }
            }
            // Loop back-edge: taken every iteration.
            let (w, _) = batch.branch_hist(&mut hist, LOOP_BRANCH_SITE, true);
            branches += 1;
            taken += 1;
            mp_taken += w;
            i += 1;

            if streak >= RUN_TRIGGER && failed < self.run_prefix {
                streak = 0;
                let prefix = &stages[..=failed];
                let rows = run_length::<PROBES>(prefix, i, end);
                if rows == 0 {
                    continue;
                }
                let run = account_run::<PROBES>(batch, slots, hist, prefix, i, rows, line_bytes);
                let n = rows as u64;
                let row_instrs: u64 = prefix.iter().map(|s| s.instrs).sum();
                instrs += n * (INSTR_LOOP + row_instrs);
                branches += n * (prefix.len() as u64 + 1);
                taken += 2 * n;
                hist = run.history;
                hits += run.hits;
                mp_taken += run.mp_taken;
                mp_not_taken += run.mp_not_taken;
                i += rows;
            }
        }
        *history = hist;
        Tally {
            qualified,
            sum,
            instrs,
            hits,
            branches,
            taken,
            mp_taken,
            mp_not_taken,
        }
    }
}

/// The single-predicate count scan: every simulated load of the range
/// belongs to the one predicate stream, so all of them are accounted up
/// front (closed form for clean spans) and the row loop — free of host
/// branches on the data — carries only the two branch events. Loads and
/// branches drive disjoint simulated state machines, so hoisting the
/// loads preserves bit-identity; the branch sequence itself stays in
/// exact row order.
#[inline(never)]
fn count_scan(
    only: &Stage<'_>,
    batch: &mut BatchCpu<'_>,
    slots: &mut [u64; MAX_SLOTS],
    history: &mut u32,
    rows: std::ops::Range<usize>,
) -> Tally {
    let n = rows.len() as u64;
    let column = &only.column;
    let hits = batch.load_elements_seq(&mut slots[column.slot], column.addr(rows.start), 4, n);
    let mut hist = *history;
    let mut failed = 0u64;
    let mut mp_taken = 0u64;
    let mut mp_not_taken = 0u64;
    for i in rows {
        let ok = only.selects::<false>(i);
        let tk = u64::from(!ok);
        let (w, _) = batch.branch_hist(&mut hist, only.site, !ok);
        failed += tk;
        mp_taken += w & tk;
        mp_not_taken += w & (1 - tk);
        let (w, _) = batch.branch_hist(&mut hist, LOOP_BRANCH_SITE, true);
        mp_taken += w;
    }
    *history = hist;
    Tally {
        qualified: n - failed,
        sum: 0,
        instrs: (INSTR_LOOP + only.instrs) * n,
        hits,
        branches: 2 * n,
        taken: failed + n,
        mp_taken,
        mp_not_taken,
    }
}

/// How many rows from `from` on repeat the outcome "pass every stage of
/// `prefix` but the last, fail the last" — plain host compares, no
/// simulated event.
fn run_length<const PROBES: bool>(prefix: &[Stage<'_>], from: usize, end: usize) -> usize {
    let (last, passing) = prefix.split_last().expect("a failing stage");
    (from..end)
        .position(|i| last.selects::<PROBES>(i) || !passing.iter().all(|s| s.selects::<PROBES>(i)))
        .unwrap_or(end - from)
}

/// Account `rows` rows starting at `from` that all fail at the last stage
/// of `prefix` (a run prefix): the run's loads and branch events, in bulk
/// (see the [module documentation](self)). Instruction and branch
/// *counts* are plain products the caller adds.
#[inline(never)]
fn account_run<const PROBES: bool>(
    batch: &mut BatchCpu<'_>,
    slots: &mut [u64; MAX_SLOTS],
    mut history: u32,
    prefix: &[Stage<'_>],
    from: usize,
    rows: usize,
    line_bytes: u64,
) -> RunTally {
    let (last, passing) = prefix.split_last().expect("a failing stage");
    let end = from + rows;

    let mut hits = 0u64;
    if passing.is_empty() && last.probe::<PROBES>().is_none() {
        let column = &last.column;
        hits = batch.load_elements_seq(&mut slots[column.slot], column.addr(from), 4, rows as u64);
    } else {
        // Row-major over the prefix streams. A row that may enter a new
        // line on some stream is loaded event by event, so crossings
        // reach the hierarchy in the fused loop's order; the rows up to
        // the next possible crossing stay within every stream's current
        // line and are element hits.
        let probes = prefix.iter().filter(|s| s.probe::<PROBES>().is_some());
        let loads = prefix.len() + probes.count();
        let line_shift = line_bytes.trailing_zeros();
        let mut row = from;
        while row < end {
            let mut next = end;
            for stg in prefix {
                let addr = stg.column.addr(row);
                hits += batch.load_quiet(&mut slots[stg.column.slot], addr, 4);
                let in_line = (line_bytes - (addr & (line_bytes - 1))) / 4;
                next = next.min(row + (in_line as usize).max(1));
                if let Some(p) = stg.probe::<PROBES>() {
                    let key = stg.column.values[row] as usize;
                    hits += batch.load_quiet(&mut slots[p.slot], p.addr(key), 4);
                }
            }
            // A probe stream stays put while the keys address the line
            // its last load ended on (wholly: an element straddling into
            // the next line crosses).
            for stg in prefix {
                if let Some(p) = stg.probe::<PROBES>() {
                    let keys = &stg.column.values[row..next];
                    let line = (p.addr(keys[0] as usize) + 3) >> line_shift;
                    let leaves = keys[1..].iter().position(|&key| {
                        let addr = p.addr(key as usize);
                        (addr >> line_shift != line) | ((addr + 3) >> line_shift != line)
                    });
                    if let Some(k) = leaves {
                        next = row + 1 + k;
                    }
                }
            }
            hits += ((next - row - 1) * loads) as u64;
            row = next;
        }
    }

    let mut mp_taken = 0u64;
    let mut mp_not_taken = 0u64;
    let mut left = rows as u64;
    while left > 0 {
        let entered = history;
        let mut moved = false;
        let mut row_taken = 0u64;
        let mut row_not_taken = 0u64;
        for stg in passing {
            let (w, m) = batch.branch_hist(&mut history, stg.site, false);
            row_not_taken += w;
            moved |= m;
        }
        for site in [last.site, LOOP_BRANCH_SITE] {
            let (w, m) = batch.branch_hist(&mut history, site, true);
            row_taken += w;
            moved |= m;
        }
        left -= 1;
        // Fixed point: this row left the predictor where it found it, so
        // each remaining row repeats it, mispredictions included.
        let repeats = if !moved && history == entered {
            left
        } else {
            0
        };
        mp_taken += row_taken * (1 + repeats);
        mp_not_taken += row_not_taken * (1 + repeats);
        left -= repeats;
    }

    RunTally {
        history,
        hits,
        mp_taken,
        mp_not_taken,
    }
}
