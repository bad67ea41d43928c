//! The four workloads: what each generates in set-up, what one sample
//! executes, what the right answers are, and the hooks the per-layer
//! measurements need.

use std::time::Instant;

use popt_storage::Table;

use crate::engine::{self, Mode, OracleCheck, Outcome, Res, ServeTables, StaticOrders};
use crate::gen::{self, Arrival, Class, Star, Template, Truth};

/// Fact rows at full scale.
const Q6_ROWS: usize = 1 << 21;
const STAR_ROWS: usize = 1 << 20;
const SERVE_ROWS: usize = 1 << 16;

/// Times set-up runs in an end-to-end run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// What set-up measured while making the inputs.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// Wall seconds of every set-up repeat: generation, fingerprint and
    /// ground truth (plans too, except on `serve_mix`, where plan
    /// building is part of every sample).
    pub seconds: Vec<f64>,
    /// Seconds of input generation alone (last repeat).
    pub gen_s: f64,
    /// Host nanoseconds per fact tuple of the ground-truth evaluation:
    /// the no-simulation floor.
    pub native_ns_per_tuple: f64,
    /// Bytes the query touches per fact tuple: fact columns read plus
    /// the dimension tables spread over the fact rows.
    pub hot_bytes_per_tuple: f64,
    pub fingerprints: Vec<(String, u64)>,
}

/// One workload with its inputs made.
pub trait Workload {
    /// Simulated input tuples one sample processes.
    fn tuples(&self) -> u64;
    /// Whether every simulated number is a pure function of the seed.
    fn deterministic(&self) -> bool;
    /// Whether host-time spans wrap the engine's own target on this
    /// workload (the query server hides its targets, so `serve_mix`
    /// takes its executor, cost-model and solver spans from serial runs
    /// of its templates instead).
    fn traces_inside(&self) -> bool {
        true
    }
    /// Execute the workload's query (or batch) once, on fresh simulated
    /// cores with empty caches. `i` is the sample's index in its window.
    fn sample(&self, i: usize, mode: &Mode<'_>) -> Res<Outcome>;
    /// The right answer of every query of sample `i`.
    fn truths(&self, i: usize) -> Vec<Truth>;
    /// Scheduling class of every query of sample `i` (serving only).
    fn classes(&self, _i: usize) -> Vec<Class> {
        Vec::new()
    }
    /// Cost in cycles of the best static order, by exhaustive
    /// enumeration on the full input.
    fn best_static_cost(&self) -> Res<u64>;
    /// Serial executions of the same plan(s): the workload itself when
    /// it is serial, `join_star` for `par_star`, the three templates for
    /// `serve_mix`. Returns each run's outcome and input tuples.
    fn twins(&self, mode: &Mode<'_>) -> Res<Vec<(Outcome, u64)>>;
    /// Batched fast path against the scalar oracle on the workload's
    /// main executor.
    fn oracle(&self) -> Res<OracleCheck>;
    /// Host ns per tuple of a single-predicate scan (the closed-form
    /// bulk path) over the workload's fact table.
    fn bulk_ns_per_tuple(&self) -> Res<f64>;
    /// Host microseconds to build, optimize and compile the plan once.
    fn compile_us(&self) -> Res<f64>;
    /// Stages of the (largest) plan.
    fn stages(&self) -> usize;
}

/// Run `f` over `items` on the host's two cores and return the smallest
/// result. Used for static-order enumeration, which is outside every
/// timed window.
fn min_cost<T: Sync>(items: &[T], f: impl Fn(&T) -> Res<u64> + Sync) -> Res<u64> {
    let chunk = items.len().div_ceil(engine::WORKERS).max(1);
    let results: Vec<Res<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                let f = &f;
                scope.spawn(move || {
                    part.iter()
                        .map(f)
                        .try_fold(u64::MAX, |best, cost| cost.map(|c| best.min(c)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("enumeration thread panicked".into()))
            })
            .collect()
    });
    results
        .into_iter()
        .try_fold(u64::MAX, |best, cost| cost.map(|c| best.min(c)))
}

// ---------------------------------------------------------------- scan_q6

struct ScanQ6<'a> {
    lineitem: &'a Table,
    truth: Truth,
}

impl Workload for ScanQ6<'_> {
    fn tuples(&self) -> u64 {
        self.lineitem.rows() as u64
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn sample(&self, _i: usize, mode: &Mode<'_>) -> Res<Outcome> {
        engine::q6(self.lineitem, mode)
    }

    fn truths(&self, _i: usize) -> Vec<Truth> {
        vec![self.truth]
    }

    fn best_static_cost(&self) -> Res<u64> {
        min_cost(&engine::permutations(engine::q6_stages()), |order| {
            engine::q6_static(self.lineitem, order)
        })
    }

    fn twins(&self, mode: &Mode<'_>) -> Res<Vec<(Outcome, u64)>> {
        Ok(vec![(self.sample(0, mode)?, self.tuples())])
    }

    fn oracle(&self) -> Res<OracleCheck> {
        engine::q6_oracle(self.lineitem)
    }

    fn bulk_ns_per_tuple(&self) -> Res<f64> {
        engine::bulk_ns_per_tuple(self.lineitem, "l_quantity", 24)
    }

    fn compile_us(&self) -> Res<f64> {
        engine::q6_compile_us(self.lineitem)
    }

    fn stages(&self) -> usize {
        engine::q6_stages()
    }
}

// ---------------------------------------------------- join_star, par_star

struct StarJoin<'a> {
    star: &'a Star,
    program: engine::Program<'a>,
    truth: Truth,
    parallel: bool,
}

impl Workload for StarJoin<'_> {
    fn tuples(&self) -> u64 {
        self.star.fact.rows() as u64
    }

    fn deterministic(&self) -> bool {
        !self.parallel
    }

    fn sample(&self, _i: usize, mode: &Mode<'_>) -> Res<Outcome> {
        if self.parallel {
            engine::star_parallel(&self.program, mode)
        } else {
            engine::star_serial(&self.program, &engine::STAR_START_ORDER, mode)
        }
    }

    fn truths(&self, _i: usize) -> Vec<Truth> {
        vec![self.truth]
    }

    fn best_static_cost(&self) -> Res<u64> {
        let orders = engine::permutations(self.program.len());
        if self.parallel {
            // Every static run already occupies both host cores.
            orders
                .iter()
                .map(|order| engine::program_static_parallel(&self.program, order))
                .try_fold(u64::MAX, |best, cost| cost.map(|c| best.min(c)))
        } else {
            min_cost(&orders, |order| {
                engine::program_static_serial(&self.program, order)
            })
        }
    }

    fn twins(&self, mode: &Mode<'_>) -> Res<Vec<(Outcome, u64)>> {
        let serial = engine::star_serial(&self.program, &engine::STAR_START_ORDER, mode)?;
        Ok(vec![(serial, self.tuples())])
    }

    fn oracle(&self) -> Res<OracleCheck> {
        engine::program_oracle(&self.program, &engine::STAR_START_ORDER)
    }

    fn bulk_ns_per_tuple(&self) -> Res<f64> {
        engine::bulk_ns_per_tuple(&self.star.fact, "val", gen::STAR_SELECT_LITERAL)
    }

    fn compile_us(&self) -> Res<f64> {
        let t0 = Instant::now();
        let program = engine::star_program(self.star, gen::STAR_SELECT_LITERAL)?;
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        std::hint::black_box(program);
        Ok(us)
    }

    fn stages(&self) -> usize {
        self.program.len()
    }
}

// ------------------------------------------------------------- serve_mix

struct ServeMix<'a> {
    tables: &'a ServeTables,
    seed: u64,
    star_truths: Vec<(i64, Truth)>,
    scan3_truth: Truth,
    scan1_truth: Truth,
}

impl ServeMix<'_> {
    /// Sample `i` is served under schedule `i` of the seed: the same
    /// queries in another order, with other priorities and arrival times.
    /// One batch has only 12 queries beyond its 95th percentile, so one
    /// schedule's backlog would decide the run's latency figures.
    fn schedule(&self, i: usize) -> Vec<Arrival> {
        gen::schedule(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn truth(&self, template: Template) -> Truth {
        match template {
            Template::Star { select_literal } => self
                .star_truths
                .iter()
                .find(|(literal, _)| *literal == select_literal)
                .map(|(_, truth)| *truth)
                .expect("every sliding literal has a ground truth"),
            Template::Scan3 => self.scan3_truth,
            Template::Scan1 => self.scan1_truth,
        }
    }

    /// Best static order of every template, by solo enumeration.
    fn static_orders(&self) -> Res<StaticOrders> {
        let argmin = |orders: Vec<Vec<usize>>, cost: &dyn Fn(&[usize]) -> Res<u64>| {
            let mut best: Option<(u64, Vec<usize>)> = None;
            for order in orders {
                let c = cost(&order)?;
                if best.as_ref().is_none_or(|(b, _)| c < *b) {
                    best = Some((c, order));
                }
            }
            best.map(|(_, order)| order)
                .ok_or_else(|| "no order to enumerate".to_string())
        };
        let mut star = Vec::new();
        for literal in gen::sliding_literals() {
            let program = engine::star_program(&self.tables.star, literal)?;
            let order = argmin(engine::permutations(program.len()), &|order| {
                engine::program_static_serial(&program, order)
            })?;
            star.push((literal, order));
        }
        let scan3 = argmin(
            engine::permutations(engine::SCAN3_START_ORDER.len()),
            &|order| engine::scan_static(&self.tables.scan, Template::Scan3, order),
        )?;
        Ok(StaticOrders { star, scan3 })
    }
}

impl Workload for ServeMix<'_> {
    fn tuples(&self) -> u64 {
        (gen::BATCH_QUERIES * self.tables.scan.rows()) as u64
    }

    fn deterministic(&self) -> bool {
        false
    }

    fn traces_inside(&self) -> bool {
        false
    }

    fn sample(&self, i: usize, mode: &Mode<'_>) -> Res<Outcome> {
        engine::serve_batch(self.tables, &self.schedule(i), None, mode)
    }

    fn truths(&self, i: usize) -> Vec<Truth> {
        self.schedule(i)
            .iter()
            .map(|a| self.truth(a.template))
            .collect()
    }

    fn classes(&self, i: usize) -> Vec<Class> {
        self.schedule(i).iter().map(|a| a.class).collect()
    }

    fn best_static_cost(&self) -> Res<u64> {
        // One reoptimization-off batch, every query started from its
        // template's best static order.
        let orders = self.static_orders()?;
        engine::serve_batch(self.tables, &self.schedule(0), Some(&orders), &Mode::Plain)
            .map(|out| out.cost_cycles)
    }

    fn twins(&self, mode: &Mode<'_>) -> Res<Vec<(Outcome, u64)>> {
        let rows = self.tables.scan.rows() as u64;
        let program = engine::star_program(&self.tables.star, gen::STAR_SELECT_LITERAL)?;
        let plan_order: Vec<usize> = (0..program.len()).collect();
        Ok(vec![
            (engine::star_serial(&program, &plan_order, mode)?, rows),
            (
                engine::scan_serial(&self.tables.scan, Template::Scan3, mode)?,
                rows,
            ),
            (
                engine::scan_serial(&self.tables.scan, Template::Scan1, mode)?,
                rows,
            ),
        ])
    }

    fn oracle(&self) -> Res<OracleCheck> {
        let program = engine::star_program(&self.tables.star, gen::STAR_SELECT_LITERAL)?;
        engine::program_oracle(&program, &engine::STAR_START_ORDER)
    }

    fn bulk_ns_per_tuple(&self) -> Res<f64> {
        engine::bulk_ns_per_tuple(&self.tables.scan, "c0", gen::SCAN1_LITERAL)
    }

    fn compile_us(&self) -> Res<f64> {
        // Mean per query of building every spec of one batch.
        let schedule = self.schedule(0);
        Ok(engine::spec_build_us(self.tables, &schedule)? / schedule.len() as f64)
    }

    fn stages(&self) -> usize {
        engine::STAR_START_ORDER.len()
    }
}

// ------------------------------------------------------------------ set-up

fn table_bytes(tables: &[&Table]) -> f64 {
    tables.iter().map(|t| t.bytes() as f64).sum()
}

/// Make `make`'s inputs `repeats` times (one copy alive at a time, so the
/// memory high-water mark is that of one set-up) and keep the last.
fn repeat_setup<I>(repeats: usize, setup: &mut Setup, mut make: impl FnMut(&mut Setup) -> I) -> I {
    let mut made = None;
    for _ in 0..repeats.max(1) {
        drop(made.take());
        let t0 = Instant::now();
        made = Some(make(setup));
        setup.seconds.push(t0.elapsed().as_secs_f64());
    }
    made.expect("at least one repeat")
}

/// Generate the inputs of `workload` from `seed` at `rows >> shift`,
/// `repeats` times, and run `f` on the workload.
pub fn with_workload<R>(
    workload: &str,
    seed: u64,
    shift: u32,
    repeats: usize,
    f: impl FnOnce(&dyn Workload, &Setup) -> Res<R>,
) -> Res<R> {
    let mut setup = Setup::default();
    match workload {
        "scan_q6" => {
            let rows = Q6_ROWS >> shift;
            let (lineitem, truth) = repeat_setup(repeats, &mut setup, |setup| {
                let t0 = Instant::now();
                let lineitem = gen::lineitem(rows, seed);
                setup.gen_s = t0.elapsed().as_secs_f64();
                setup.fingerprints = gen::fingerprints(&[&lineitem]);
                let t1 = Instant::now();
                let truth = gen::q6_truth(&lineitem);
                setup.native_ns_per_tuple = t1.elapsed().as_nanos() as f64 / rows as f64;
                std::hint::black_box(engine::q6_compile_us(&lineitem).ok());
                (lineitem, truth)
            });
            // Q6 reads four of lineitem's seven columns.
            setup.hot_bytes_per_tuple = 4.0 * 4.0;
            f(
                &ScanQ6 {
                    lineitem: &lineitem,
                    truth,
                },
                &setup,
            )
        }
        "join_star" | "par_star" => {
            let rows = STAR_ROWS >> shift;
            let (star, truth) = repeat_setup(repeats, &mut setup, |setup| {
                let t0 = Instant::now();
                let star = gen::star(rows, seed);
                setup.gen_s = t0.elapsed().as_secs_f64();
                setup.fingerprints = gen::fingerprints(&star.tables());
                let t1 = Instant::now();
                let truth = gen::star_truth(&star, gen::STAR_SELECT_LITERAL);
                setup.native_ns_per_tuple = t1.elapsed().as_nanos() as f64 / rows as f64;
                std::hint::black_box(engine::star_program(&star, gen::STAR_SELECT_LITERAL).ok());
                (star, truth)
            });
            setup.hot_bytes_per_tuple = table_bytes(&star.tables()) / rows as f64;
            let program = engine::star_program(&star, gen::STAR_SELECT_LITERAL)?;
            f(
                &StarJoin {
                    star: &star,
                    program,
                    truth,
                    parallel: workload == "par_star",
                },
                &setup,
            )
        }
        "serve_mix" => {
            let rows = SERVE_ROWS >> shift;
            let (tables, star_truths, scan3_truth, scan1_truth) =
                repeat_setup(repeats, &mut setup, |setup| {
                    let t0 = Instant::now();
                    let tables = ServeTables {
                        star: gen::star(rows, seed),
                        scan: gen::scan_table(rows, seed ^ 0x5CA7),
                    };
                    setup.gen_s = t0.elapsed().as_secs_f64();
                    let mut all = tables.star.tables().to_vec();
                    all.push(&tables.scan);
                    setup.fingerprints = gen::fingerprints(&all);
                    let t1 = Instant::now();
                    let star_truths: Vec<(i64, Truth)> = gen::sliding_literals()
                        .into_iter()
                        .map(|l| (l, gen::star_truth(&tables.star, l)))
                        .collect();
                    let scan3 = gen::scan_truth(&tables.scan, &gen::SCAN3_LITERALS, true);
                    let scan1 = gen::scan_truth(&tables.scan, &[gen::SCAN1_LITERAL], false);
                    // Ten truth passes over `rows` tuples each.
                    setup.native_ns_per_tuple = t1.elapsed().as_nanos() as f64 / (10 * rows) as f64;
                    (tables, star_truths, scan3, scan1)
                });
            // A third of the queries each: the star join, three scan
            // columns plus the aggregate, one scan column.
            let star_bytes = table_bytes(&tables.star.tables()) / rows as f64;
            setup.hot_bytes_per_tuple = (star_bytes + 16.0 + 4.0) / 3.0;
            f(
                &ServeMix {
                    tables: &tables,
                    seed,
                    star_truths,
                    scan3_truth,
                    scan1_truth,
                },
                &setup,
            )
        }
        other => Err(format!("unknown workload {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_cost_finds_the_minimum_and_propagates_errors() {
        let items: Vec<u64> = (1..=9).collect();
        assert_eq!(min_cost(&items, |&x| Ok(100 - x)), Ok(91));
        let failing = min_cost(&items, |&x| {
            if x == 5 {
                Err("boom".to_string())
            } else {
                Ok(x)
            }
        });
        assert_eq!(failing, Err("boom".to_string()));
        assert_eq!(min_cost(&[7u64], |&x| Ok(x)), Ok(7));
    }

    #[test]
    fn every_workload_samples_correctly_at_small_scale() {
        for def in &crate::metrics::WORKLOADS {
            with_workload(def.name, 42, 6, 1, |w, setup| {
                let out = w.sample(0, &Mode::Plain)?;
                assert_eq!(out.answers, w.truths(0), "{}", def.name);
                assert!(w.tuples() > 0 && out.cost_cycles > 0);
                assert_eq!(setup.seconds.len(), 1);
                assert!(!setup.fingerprints.is_empty());
                if w.deterministic() {
                    assert_eq!(out, w.sample(1, &Mode::Plain)?, "{}", def.name);
                }
                Ok(())
            })
            .unwrap();
        }
    }

    #[test]
    fn serving_schedules_differ_per_sample_but_not_their_answers() {
        with_workload("serve_mix", 42, 6, 1, |w, _| {
            assert_ne!(w.classes(0), w.classes(1));
            let mut a = w.truths(0);
            let mut b = w.truths(1);
            let key = |t: &Truth| (t.qualified, t.sum);
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a, b);
            Ok(())
        })
        .unwrap();
    }
}
