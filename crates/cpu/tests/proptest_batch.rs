//! Property: the batched accounting layer ([`popt_cpu::BatchCpu`]) is
//! bit-identical to the scalar per-event [`SimCpu`] API for random event
//! tapes — mixed loads (random, sequential, spans), branches, and
//! instruction charges, with and without NUMA remote pricing — and the
//! bulk sequential-element path matches per-element loads from any warm
//! state.
//!
//! Case count is the vendored proptest default (256), pinnable via the
//! upstream-compatible `PROPTEST_CASES` environment variable (CI pins it
//! so the smoke stays bounded).

use proptest::prelude::*;

use popt_cpu::{BranchSite, CpuConfig, NumaPlacement, SimCpu};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn cpu_pair(numa: bool, socket: usize) -> (SimCpu, SimCpu) {
    let build = || {
        let mut c = SimCpu::new(CpuConfig::tiny_test());
        if numa {
            let mut p = NumaPlacement::interleaved(2);
            p.register(0, 64 * 200, 0);
            p.register(64 * 200, 64 * 500, 1);
            c.set_placement(p);
            c.set_socket(socket);
        }
        c
    };
    (build(), build())
}

proptest! {
    /// A random tape of scalar events replayed through the batched
    /// guard (quiet branch/load forms included) leaves identical PMU
    /// counters, cycles, and hierarchy state. State identity is probed
    /// by replaying a second tape after the first comparison.
    #[test]
    fn batched_event_tape_matches_scalar(
        seed in any::<u64>(),
        ops in 50usize..400,
        numa in any::<bool>(),
        socket in 0usize..2,
    ) {
        let (mut scalar, mut batched) = cpu_pair(numa, socket);
        for round in 0..2 {
            let mut s = (seed ^ ((round as u64) << 32)) | 1;
            // Scalar: the per-event oracle API.
            {
                let mut st = s;
                for _ in 0..ops {
                    match xorshift(&mut st) % 6 {
                        0 => {
                            let addr = xorshift(&mut st) % (64 * 600);
                            scalar.load(0, addr, 4);
                        }
                        1 => {
                            // Sequential run on a dedicated stream.
                            let start = xorshift(&mut st) % (64 * 500);
                            for k in 0..xorshift(&mut st) % 32 {
                                scalar.load(1, start + k * 4, 4);
                            }
                        }
                        2 => {
                            let addr = xorshift(&mut st) % (64 * 500);
                            let bytes = 1 + xorshift(&mut st) % (64 * 40);
                            scalar.load_span(2, addr, bytes);
                        }
                        3 => {
                            let site = BranchSite((xorshift(&mut st) % 8) as u32);
                            scalar.branch(site, xorshift(&mut st) % 3 == 0);
                        }
                        4 => scalar.instr(xorshift(&mut st) % 100),
                        _ => {
                            let addr = xorshift(&mut st) % (64 * 600);
                            scalar.store(0, addr, 4);
                        }
                    }
                }
            }
            // Batched: the same tape through the guard, using the quiet
            // register-local forms exactly as the executors do. A store
            // is a write-allocate load, so the `_` arm mirrors arm 0.
            {
                let mut b = batched.batch();
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
            prop_assert_eq!(
                scalar.counters(),
                batched.counters(),
                "round {} numa={} socket={}",
                round,
                numa,
                socket
            );
            prop_assert_eq!(scalar.cycles(), batched.cycles());
        }
    }

    /// Bulk sequential element accounting equals per-element loads for
    /// every alignment, element width, and warm-cache entry state.
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
        let (mut scalar, mut batched) = cpu_pair(false, 0);
        if warm {
            // Leave the stream mid-line so the leading-hit rule engages.
            let w = addr.saturating_sub(elem * 3);
            scalar.load(0, w, elem as u32);
            batched.batch().load(0, w, elem as u32);
        }
        for k in 0..n {
            scalar.load(0, addr + k * elem, elem as u32);
        }
        {
            let mut b = batched.batch();
            let mut llpo = b.stream_state(0);
            let hits = b.load_elements_seq(&mut llpo, addr, elem, n);
            b.add_element_hits(hits);
            b.set_stream_state(0, llpo);
        }
        prop_assert_eq!(scalar.counters(), batched.counters());
    }
}
