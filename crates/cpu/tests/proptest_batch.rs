//! Property: the batched accounting layer ([`popt_cpu::BatchCpu`]) is
//! bit-identical to the scalar per-event [`SimCpu`] API for random event
//! tapes — mixed loads (random, sequential, spans), branches, and
//! instruction charges, with and without NUMA remote pricing — and the
//! bulk sequential-element path matches per-element loads from any warm
//! state. Each batched tape runs twice: on a standalone core, whose
//! batches hand their walks to the walker thread (on a host with two
//! cores or more), and on the core of a 1-core [`CpuPool`], which walks
//! inline; the two must agree on counters, remote accesses, the predictor
//! and every cache set.
//!
//! Case count is the vendored proptest default (256), pinnable via the
//! upstream-compatible `PROPTEST_CASES` environment variable (CI pins it
//! so the smoke stays bounded).

use std::time::{Duration, Instant};

use proptest::prelude::*;

use popt_cpu::{walker_batches, BatchCpu, BranchSite, CpuConfig, CpuPool, NumaPlacement, SimCpu};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A scalar core, a standalone core and the core of a 1-core pool, each
/// optionally on `socket` of a two-socket placement.
fn cpu_trio(numa: bool, socket: usize) -> (SimCpu, SimCpu, SimCpu) {
    let configure = |mut c: SimCpu| {
        if numa {
            let mut p = NumaPlacement::interleaved(2);
            p.register(0, 64 * 200, 0);
            p.register(64 * 200, 64 * 500, 1);
            c.set_placement(p);
            c.set_socket(socket);
        }
        c
    };
    let standalone = || configure(SimCpu::new(CpuConfig::tiny_test()));
    let pooled = configure(CpuPool::new(CpuConfig::tiny_test(), 1).cores()[0].clone());
    (standalone(), standalone(), pooled)
}

/// Everything a simulated core carries.
fn assert_same_core(a: &SimCpu, b: &SimCpu) {
    assert_eq!(a.counters(), b.counters(), "counters");
    assert_eq!(a.remote_accesses(), b.remote_accesses(), "remote accesses");
    assert!(a.predictor() == b.predictor(), "predictor");
    for lvl in 0..a.hierarchy().depth() {
        let (la, lb) = (a.hierarchy().level(lvl), b.hierarchy().level(lvl));
        assert_eq!(la.demand, lb.demand, "L{} demand stats", lvl + 1);
        assert_eq!(la.prefetch, lb.prefetch, "L{} prefetch stats", lvl + 1);
        for set in 0..la.set_count() as usize {
            assert_eq!(
                la.set_lines(set),
                lb.set_lines(set),
                "L{} set {set}",
                lvl + 1
            );
        }
    }
}

/// With two host cores or more, the walker thread must have drained a
/// batch since its count read `before`. The count is process-wide, and a
/// case's batches may have found the walker serving a concurrently
/// running case, so a miss is retried with batches of its own.
fn assert_walker_drained_since(before: u64) {
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

/// The scalar tape of `batched_event_tape_matches_scalar`.
fn scalar_tape(cpu: &mut SimCpu, mut st: u64, ops: usize) {
    for _ in 0..ops {
        match xorshift(&mut st) % 6 {
            0 => {
                let addr = xorshift(&mut st) % (64 * 600);
                cpu.load(0, addr, 4);
            }
            1 => {
                // Sequential run on a dedicated stream.
                let start = xorshift(&mut st) % (64 * 500);
                for k in 0..xorshift(&mut st) % 32 {
                    cpu.load(1, start + k * 4, 4);
                }
            }
            2 => {
                let addr = xorshift(&mut st) % (64 * 500);
                let bytes = 1 + xorshift(&mut st) % (64 * 40);
                cpu.load_span(2, addr, bytes);
            }
            3 => {
                let site = BranchSite((xorshift(&mut st) % 8) as u32);
                cpu.branch(site, xorshift(&mut st) % 3 == 0);
            }
            4 => cpu.instr(xorshift(&mut st) % 100),
            _ => {
                let addr = xorshift(&mut st) % (64 * 600);
                cpu.store(0, addr, 4);
            }
        }
    }
}

/// The same tape through the batched guard, using the quiet
/// register-local forms exactly as the executors do. A store is a
/// write-allocate load, so the `_` arm mirrors arm 0.
fn batched_tape(b: &mut BatchCpu<'_>, mut s: u64, ops: usize) {
    let mut l0 = b.stream_state(0);
    let mut l1 = b.stream_state(1);
    let mut hist = b.history();
    let mut instrs = 0u64;
    let mut hits = 0u64;
    let mut branches = 0u64;
    let mut taken_n = 0u64;
    let mut mp_taken = 0u64;
    let mut mp_not_taken = 0u64;
    for _ in 0..ops {
        match xorshift(&mut s) % 6 {
            0 => {
                let addr = xorshift(&mut s) % (64 * 600);
                hits += b.load_quiet(&mut l0, addr, 4);
            }
            1 => {
                let start = xorshift(&mut s) % (64 * 500);
                let n = xorshift(&mut s) % 32;
                hits += b.load_elements_seq(&mut l1, start, 4, n);
            }
            2 => {
                let addr = xorshift(&mut s) % (64 * 500);
                let bytes = 1 + xorshift(&mut s) % (64 * 40);
                b.load_span(2, addr, bytes);
            }
            3 => {
                let site = BranchSite((xorshift(&mut s) % 8) as u32);
                let taken = xorshift(&mut s) % 3 == 0;
                let tk = u64::from(taken);
                let (w, _) = b.branch_hist(&mut hist, site, taken);
                branches += 1;
                taken_n += tk;
                mp_taken += w & tk;
                mp_not_taken += w & (1 - tk);
            }
            4 => instrs += xorshift(&mut s) % 100,
            _ => {
                let addr = xorshift(&mut s) % (64 * 600);
                hits += b.load_quiet(&mut l0, addr, 4);
            }
        }
    }
    b.set_history(hist);
    b.instr(instrs);
    b.add_element_hits(hits);
    b.add_branch_block(branches, taken_n, mp_taken, mp_not_taken);
    b.set_stream_state(0, l0);
    b.set_stream_state(1, l1);
}

/// Bulk sequential element loads against the stream's own state.
fn bulk_elements(b: &mut BatchCpu<'_>, addr: u64, elem: u64, n: u64) {
    let mut llpo = b.stream_state(0);
    let hits = b.load_elements_seq(&mut llpo, addr, elem, n);
    b.add_element_hits(hits);
    b.set_stream_state(0, llpo);
}

proptest! {
    /// A random tape of scalar events replayed through the batched
    /// guard (quiet branch/load forms included) leaves identical PMU
    /// counters, cycles, and hierarchy state. State identity is probed
    /// by replaying a second tape after the first comparison; the
    /// standalone and pool cores are compared whole.
    #[test]
    fn batched_event_tape_matches_scalar(
        seed in any::<u64>(),
        ops in 50usize..400,
        numa in any::<bool>(),
        socket in 0usize..2,
    ) {
        let drained = walker_batches();
        let (mut scalar, mut batched, mut pooled) = cpu_trio(numa, socket);
        for round in 0..2 {
            let s = (seed ^ ((round as u64) << 32)) | 1;
            scalar_tape(&mut scalar, s, ops);
            batched_tape(&mut batched.batch(), s, ops);
            batched_tape(&mut pooled.batch(), s, ops);
            prop_assert_eq!(
                scalar.counters(),
                batched.counters(),
                "round {} numa={} socket={}",
                round,
                numa,
                socket
            );
            prop_assert_eq!(scalar.cycles(), batched.cycles());
            assert_same_core(&batched, &pooled);
        }
        assert_walker_drained_since(drained);
    }

    /// Bulk sequential element accounting equals per-element loads for
    /// every alignment, element width, and warm-cache entry state, on
    /// the standalone and the pool core alike.
    #[test]
    fn bulk_elements_match_per_element_loads(
        seed in any::<u64>(),
        elem_pow in 0u32..4,
        n in 1u64..3000,
        warm in any::<bool>(),
    ) {
        let mut s = seed | 1;
        let elem = 1u64 << elem_pow; // 1, 2, 4, 8 bytes
        let addr = xorshift(&mut s) % (64 * 300);
        let (mut scalar, mut batched, mut pooled) = cpu_trio(false, 0);
        if warm {
            // Leave the stream mid-line so the leading-hit rule engages.
            let w = addr.saturating_sub(elem * 3);
            scalar.load(0, w, elem as u32);
            batched.batch().load(0, w, elem as u32);
            pooled.batch().load(0, w, elem as u32);
        }
        for k in 0..n {
            scalar.load(0, addr + k * elem, elem as u32);
        }
        bulk_elements(&mut batched.batch(), addr, elem, n);
        bulk_elements(&mut pooled.batch(), addr, elem, n);
        prop_assert_eq!(scalar.counters(), batched.counters());
        assert_same_core(&batched, &pooled);
    }
}
