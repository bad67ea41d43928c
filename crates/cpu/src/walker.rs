//! The walk side of a batch, and the host thread that runs it.
//!
//! A [`crate::batch::BatchCpu`] splits a core in two for the length of one
//! batch. The row side keeps the predictor, stream adjacency, element
//! hits and the instruction and branch counters. A [`Walker`] owns the
//! [`CacheHierarchy`], the [`NumaPlacement`] and the counters hierarchy
//! walks produce: it applies each line touch `(line, sequential)` and
//! each dense span `(first, last, entering_sequential)` the row side
//! issues, and gives the hierarchy back when the batch ends. The walk and
//! dense-span logic exists here once, and runs two ways:
//!
//! * **inline** — the row side calls the walker's methods itself;
//! * **piped** — the row side appends its touches to a bounded
//!   single-producer/single-consumer ring, and one process-wide walker
//!   thread applies them in order while the row loop runs on. When the
//!   batch ends the row side waits for the ring to drain and takes the
//!   hierarchy back.
//!
//! Piping is exact: cache state changes only through loads, and the row
//! side never reads it; one consumer applies the operations in program
//! order; and the counters are integer sums, merged when the batch ends.
//! Every simulated bit is therefore independent of host timing — the
//! hierarchy moves to the walker for one batch and back; it is never
//! shared.
//!
//! A standalone [`SimCpu`] pipes its batches when the walker is free and
//! the host has a core to spare for it: the open batches of the process,
//! on any core, plus the walker must not outnumber the host cores. Pool
//! cores walk inline: their workers already occupy the host cores. So
//! does a batch that finds the walker serving another core, or no core
//! to spare (a one-core host never has one) — and a piped batch that
//! sees the host fill up (another batch opened) hands its walks back and
//! goes on inline. Both sides wait for each other with a short spin and
//! then park; the idle walker parks with no timed wake-ups. If the walker
//! thread dies (a walk panicked), the panic surfaces in the batch it was
//! serving and every later batch walks inline.

use std::any::Any;
use std::hint;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{LazyLock, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use crate::cache::{CacheHierarchy, ServedBy};
use crate::cpu::SimCpu;
use crate::numa::NumaPlacement;
use crate::pmu::Counters;

/// Maximum cache-hierarchy depth the cached latency table covers.
const MAX_LEVELS: usize = 8;

/// Spans shorter than this stay on the per-line path: the closed form's
/// residency pre-check costs a few set scans, which only pays off once a
/// span covers several 128-byte pairs.
const MIN_CLOSED_FORM_LINES: u64 = 4;

/// The walk state of one core for one batch. See the
/// [module documentation](self).
pub(crate) struct Walker {
    hierarchy: CacheHierarchy,
    placement: NumaPlacement,
    socket: usize,
    /// Counters the walks produced (flushed when the batch ends).
    acc: Counters,
    /// Demand misses served by a remote socket (flushed likewise).
    remote: u64,
    // Hot timing constants, copied out of the config once per batch.
    line_shift: u32,
    mem_seq: u64,
    mem_rand: u64,
    remote_extra: u64,
    /// Whether remote pricing is active (`placement.sockets() > 1`).
    numa: bool,
    /// Per-level demand hit latencies.
    lat: [u64; MAX_LEVELS],
    /// Two-entry cache of `(seg_start, seg_end, is_remote)` home-range
    /// segments — scans and probe clusters each keep their own entry hot.
    seg: [(u64, u64, bool); 2],
    seg_next: usize,
}

impl Walker {
    /// Take `cpu`'s hierarchy and placement for the length of a batch.
    fn take(cpu: &mut SimCpu) -> Self {
        let timing = cpu.config.timing;
        let mut lat = [0u64; MAX_LEVELS];
        assert!(cpu.config.levels.len() <= MAX_LEVELS, "hierarchy too deep");
        for (i, l) in cpu.config.levels.iter().enumerate() {
            lat[i] = l.hit_latency_cycles;
        }
        let placement = std::mem::take(&mut cpu.placement);
        Self {
            hierarchy: std::mem::replace(&mut cpu.hierarchy, CacheHierarchy::vacant()),
            numa: placement.sockets() > 1,
            placement,
            socket: cpu.socket,
            acc: Counters::default(),
            remote: 0,
            line_shift: cpu.line_shift,
            mem_seq: timing.memory_sequential_cycles,
            mem_rand: timing.memory_random_cycles,
            remote_extra: timing.memory_remote_extra_cycles,
            lat,
            seg: [(0, 0, false); 2],
            seg_next: 0,
        }
    }

    /// Give the hierarchy and placement back to `cpu` and flush the walk
    /// counters into its bank.
    fn restore(&mut self, cpu: &mut SimCpu) {
        std::mem::swap(&mut cpu.hierarchy, &mut self.hierarchy);
        std::mem::swap(&mut cpu.placement, &mut self.placement);
        cpu.pmu.add(&self.acc);
        cpu.remote_accesses += self.remote;
    }

    /// One full hierarchy access of `line`, reached sequentially on its
    /// stream or not.
    #[inline]
    fn touch(&mut self, line: u64, sequential: bool) {
        let result = self.hierarchy.demand_access(line);
        let c = &mut self.acc;
        c.l1_accesses += 1;
        match result.served_by {
            ServedBy::Level(0) => {
                c.l1_hits += 1;
                c.cycles += self.lat[0];
            }
            ServedBy::Level(i) => {
                c.l2_accesses += 1;
                if i >= 2 {
                    c.l3_accesses += 1;
                }
                c.cycles += self.lat[i];
            }
            ServedBy::Memory => {
                c.l2_accesses += 1;
                c.l3_accesses += 1;
                c.l3_misses += 1;
                c.memory_accesses += 1;
                c.cycles += if sequential {
                    self.mem_seq
                } else {
                    self.mem_rand
                };
                if self.numa && self.is_remote(line) {
                    self.remote += 1;
                    self.acc.cycles += if sequential {
                        self.remote_extra / 4
                    } else {
                        self.remote_extra
                    };
                }
            }
        }
        if result.prefetch_issued {
            let c = &mut self.acc;
            c.prefetch_requests += 1;
            c.l3_accesses += 1;
            if result.prefetch_memory {
                c.l3_misses += 1;
                c.cycles += self.mem_seq / 4;
            }
        }
    }

    /// Whether `line` is homed on a remote socket, resolved through the
    /// two-entry home-segment cache.
    #[inline]
    fn is_remote(&mut self, line: u64) -> bool {
        let addr = line << self.line_shift;
        for s in &self.seg {
            if addr >= s.0 && addr < s.1 {
                return s.2;
            }
        }
        let line_bytes = 1u64 << self.line_shift;
        let seg = self.placement.segment_of(addr, line_bytes);
        let remote = seg.socket != self.socket;
        self.seg[self.seg_next] = (seg.start, seg.end, remote);
        self.seg_next ^= 1;
        remote
    }

    /// Touch the dense line range `first..=last` exactly as a sequential
    /// per-line walk entered (non-)sequentially would: closed form when
    /// the span is clean and the hierarchy shape allows it, the per-line
    /// walk otherwise.
    fn dense(&mut self, first: u64, last: u64, entering_sequential: bool) {
        let n = last - first + 1;
        let eligible = n >= MIN_CLOSED_FORM_LINES
            && first >= 1 // the odd-start rule needs a below-span buddy line
            && self.hierarchy.dense_span_eligible();
        if eligible {
            let ext_lo = first - (first & 1);
            let ext_hi = last + 1 - (last & 1);
            if self.hierarchy.span_is_clean(ext_lo, ext_hi) {
                self.apply_clean_span(first, last, entering_sequential);
                return;
            }
        }
        self.touch(first, entering_sequential);
        for line in first + 1..=last {
            self.touch(line, true);
        }
    }

    /// Closed-form accounting of a clean dense span (see
    /// [`crate::cache::CacheHierarchy`]'s `apply_dense_span` for the
    /// parity argument).
    fn apply_clean_span(&mut self, first: u64, last: u64, entering_sequential: bool) {
        let (initiators, hits) = self.hierarchy.apply_dense_span(first, last);
        let n = initiators + hits;
        let c = &mut self.acc;
        c.l1_accesses += n;
        c.l2_accesses += n;
        // Demand misses and prefetches each make one L3 lookup and one
        // memory trip; prefetch count equals initiator count.
        c.l3_accesses += 2 * initiators;
        c.l3_misses += 2 * initiators;
        c.memory_accesses += initiators;
        c.prefetch_requests += initiators;
        c.cycles +=
            hits * self.lat[1] + initiators * self.mem_seq + initiators * (self.mem_seq / 4);
        // The first line is always an initiator; if the span was entered
        // non-sequentially it pays the random latency instead.
        if !entering_sequential {
            c.cycles += self.mem_rand - self.mem_seq;
        }
        if self.numa {
            self.price_remote_span(first, last, entering_sequential);
        }
    }

    /// Remote surcharges for the initiator lines of a clean dense span,
    /// walked one contiguous home-range segment at a time.
    fn price_remote_span(&mut self, first: u64, last: u64, entering_sequential: bool) {
        let line_bytes = 1u64 << self.line_shift;
        let mut pos = first;
        while pos <= last {
            let seg = self
                .placement
                .segment_of(pos << self.line_shift, line_bytes);
            let seg_last = ((seg.end - 1) >> self.line_shift).min(last);
            if seg.socket != self.socket {
                // Initiators in `pos..=seg_last`: the even lines, plus
                // the span's first line when it is odd.
                let first_even = pos + (pos & 1);
                let evens = if first_even > seg_last {
                    0
                } else {
                    (seg_last - first_even) / 2 + 1
                };
                let k = evens + u64::from(pos == first && first & 1 == 1);
                self.remote += k;
                self.acc.cycles += k * (self.remote_extra / 4);
                if pos == first && !entering_sequential && k > 0 {
                    // The non-sequential first line pays the full
                    // surcharge, not the streamed quarter.
                    self.acc.cycles += self.remote_extra - self.remote_extra / 4;
                }
            }
            pos = seg_last + 1;
        }
    }
}

/// Where one batch's walks run. The inline walk state lives in the
/// batch: a box would allocate once per batch.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Walks {
    /// The row side applies them itself.
    Inline(Walker),
    /// The walker thread applies them, in order, from the ring.
    Piped(Feed),
}

impl Walks {
    /// Take `cpu`'s hierarchy for a batch, to the walker thread if it
    /// may have it (see the [module documentation](self)).
    pub(crate) fn open(cpu: &mut SimCpu) -> Self {
        OPEN_BATCHES.fetch_add(1, Ordering::Relaxed);
        let walker = Walker::take(cpu);
        if cpu.pooled {
            return Walks::Inline(walker);
        }
        Feed::open(walker).map_or_else(Walks::Inline, Walks::Piped)
    }

    /// Apply, or queue, a touch of `line`.
    #[inline]
    pub(crate) fn touch(&mut self, line: u64, sequential: bool) {
        match self {
            Walks::Inline(walker) => walker.touch(line, sequential),
            Walks::Piped(feed) => {
                if feed.touch(line, sequential) {
                    self.go_inline();
                }
            }
        }
    }

    /// Apply, or queue, the dense span `first..=last`.
    pub(crate) fn dense(&mut self, first: u64, last: u64, entering_sequential: bool) {
        match self {
            Walks::Inline(walker) => walker.dense(first, last, entering_sequential),
            Walks::Piped(feed) => {
                if feed.dense(first, last, entering_sequential) {
                    self.go_inline();
                }
            }
        }
    }

    /// The host has no core to spare any more: take the walk state back
    /// from the walker and go on inline.
    #[cold]
    #[inline(never)]
    fn go_inline(&mut self) {
        if let Walks::Piped(feed) = self {
            let (walker, walk_panic) = feed.close();
            *self = Walks::Inline(walker);
            resume(walk_panic);
        }
    }

    /// End the batch: give `cpu` its hierarchy and placement back and
    /// flush the walk counters into its bank.
    pub(crate) fn close(&mut self, cpu: &mut SimCpu) {
        OPEN_BATCHES.fetch_sub(1, Ordering::Relaxed);
        match self {
            Walks::Inline(walker) => walker.restore(cpu),
            Walks::Piped(feed) => {
                let (mut walker, walk_panic) = feed.close();
                walker.restore(cpu);
                resume(walk_panic);
            }
        }
    }
}

/// Re-raise, on the row thread, the panic of a walk on the walker thread
/// — as it would have surfaced inline — unless the row thread is already
/// unwinding.
fn resume(walk_panic: Option<Box<dyn Any + Send>>) {
    if let Some(payload) = walk_panic {
        if !thread::panicking() {
            panic::resume_unwind(payload);
        }
    }
}

/// Ring capacity in words (a power of two).
const RING_WORDS: usize = 1 << 14;
/// Words the row side writes between two publications: the walker trails
/// the row loop by at most this many, plus what it is applying.
const PUBLISH_WORDS: u64 = 32;
/// Words the walker applies between two reports of the room it freed,
/// so that a row side waiting on a full ring resumes long before the
/// walker has drained it.
const FREE_WORDS: u64 = 256;
/// How long either side spins on the other before it parks.
const SPIN: Duration = Duration::from_micros(200);
/// Low word bit: the word opens a dense span, and the next word holds its
/// last line.
const SPAN: u64 = 1;
/// Second word bit: the touch (or the span's first line) is sequential.
const SEQUENTIAL: u64 = 2;

// Batch phases, advanced by the row side (`OPEN`, `CLOSED`, `IDLE`) and
// the walker (`DONE`).
const IDLE: u8 = 0;
const OPEN: u8 = 1;
const CLOSED: u8 = 2;
const DONE: u8 = 3;

/// A ring position counter on its own cache line.
#[repr(align(64))]
struct Position(AtomicU64);

/// What travels under the lock between the two sides of a piped batch.
#[derive(Default)]
struct Slot {
    /// The batch's walk state: the row side's at open, the walker's
    /// while it drains, the row side's again when it is done.
    walker: Option<Walker>,
    /// The row thread, for the walker to wake.
    row: Option<Thread>,
    /// The payload of a walk that panicked.
    panic: Option<Box<dyn Any + Send>>,
}

/// The process-wide pipe to the walker thread.
struct Pipe {
    ring: Box<[AtomicU64; RING_WORDS]>,
    /// Words the row side has published (monotonic across batches).
    head: Position,
    /// Words the walker has applied (monotonic across batches).
    tail: Position,
    /// Whether a batch holds the pipe: one core at a time.
    claimed: AtomicBool,
    phase: AtomicU8,
    slot: Mutex<Slot>,
    /// Batches the walker drained.
    batches: AtomicU64,
    /// The walker thread has exited.
    dead: AtomicBool,
}

static PIPE: LazyLock<Pipe> = LazyLock::new(|| Pipe {
    ring: (0..RING_WORDS)
        .map(|_| AtomicU64::new(0))
        .collect::<Box<[_]>>()
        .try_into()
        .unwrap_or_else(|_| unreachable!("the ring has RING_WORDS words")),
    head: Position(AtomicU64::new(0)),
    tail: Position(AtomicU64::new(0)),
    claimed: AtomicBool::new(false),
    phase: AtomicU8::new(IDLE),
    slot: Mutex::new(Slot::default()),
    batches: AtomicU64::new(0),
    dead: AtomicBool::new(false),
});

/// Batches open in the process, on any core.
static OPEN_BATCHES: AtomicUsize = AtomicUsize::new(0);

/// The walker thread and the host cores it shares with the batches.
struct Host {
    walker: Thread,
    cores: usize,
}

impl Host {
    /// Whether the open batches leave a host core to the walker.
    fn has_core_to_spare(&self) -> bool {
        OPEN_BATCHES.load(Ordering::Relaxed) < self.cores
    }
}

/// Started on first use; `None` on a one-core host or when the walker
/// thread cannot be spawned.
static HOST: OnceLock<Option<Host>> = OnceLock::new();

fn host() -> Option<&'static Host> {
    HOST.get_or_init(|| {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        if cores < 2 {
            return None;
        }
        let handle = thread::Builder::new()
            .name("popt-walker".into())
            .spawn(|| serve(&PIPE))
            .ok()?;
        Some(Host {
            walker: handle.thread().clone(),
            cores,
        })
    })
    .as_ref()
}

/// Batches the process-wide walker thread has drained so far: how often
/// a standalone core's hierarchy walks ran beside its row loop instead of
/// inline. Stays 0 on a one-core host.
pub fn walker_batches() -> u64 {
    PIPE.batches.load(Ordering::Acquire)
}

fn lock(slot: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spin on `ready` for up to [`SPIN`], then park between checks: the other
/// side unparks this thread whenever it makes progress.
///
/// The spin yields the host core every few dozen checks. Without that, a
/// wake-up that lands the walker on the row thread's host core (the
/// scheduler's choice, not ours) makes the two take turns there, each
/// spinning out its time slice, and the pair is never spread over the
/// idle core; yielding keeps both runnable, which is what spreads them.
fn wait_until(mut ready: impl FnMut() -> bool) {
    let mut start = None;
    loop {
        for _ in 0..64 {
            if ready() {
                return;
            }
            hint::spin_loop();
        }
        if start.get_or_insert_with(Instant::now).elapsed() >= SPIN {
            break;
        }
        thread::yield_now();
    }
    while !ready() {
        thread::park();
    }
}

/// The walker thread: apply one batch after another, forever — or until
/// a walk panics, which hands the payload to the batch's row side.
fn serve(pipe: &'static Pipe) {
    loop {
        // A batch may close before the walker gets to it.
        wait_until(|| matches!(pipe.phase.load(Ordering::Acquire), OPEN | CLOSED));
        let (mut walker, row) = {
            let mut slot = lock(&pipe.slot);
            let walker = slot.walker.take().expect("an open batch left its walker");
            let row = slot.row.clone().expect("an open batch left its thread");
            (walker, row)
        };
        let drained = panic::catch_unwind(AssertUnwindSafe(|| drain(pipe, &mut walker, &row)));
        {
            let mut slot = lock(&pipe.slot);
            slot.walker = Some(walker);
            if let Err(payload) = drained {
                slot.panic = Some(payload);
                pipe.dead.store(true, Ordering::Release);
            } else {
                pipe.batches.fetch_add(1, Ordering::Release);
            }
        }
        pipe.phase.store(DONE, Ordering::Release);
        row.unpark();
        if pipe.dead.load(Ordering::Relaxed) {
            return;
        }
    }
}

/// Apply the ring's operations in order until the row side has closed
/// the batch and every published word is applied.
fn drain(pipe: &Pipe, walker: &mut Walker, row: &Thread) {
    let mut tail = pipe.tail.0.load(Ordering::Relaxed);
    loop {
        let head = pipe.head.0.load(Ordering::Acquire);
        if head == tail {
            // The row side publishes its last words before it closes.
            if pipe.phase.load(Ordering::Acquire) == CLOSED
                && pipe.head.0.load(Ordering::Acquire) == tail
            {
                return;
            }
            wait_until(|| {
                pipe.head.0.load(Ordering::Acquire) != tail
                    || pipe.phase.load(Ordering::Acquire) == CLOSED
            });
            continue;
        }
        let mut freed = tail;
        while tail < head {
            let word = pipe.ring[tail as usize % RING_WORDS].load(Ordering::Relaxed);
            let sequential = word & SEQUENTIAL != 0;
            if word & SPAN == 0 {
                walker.touch(word >> 2, sequential);
                tail += 1;
            } else {
                let last = pipe.ring[(tail + 1) as usize % RING_WORDS].load(Ordering::Relaxed);
                walker.dense(word >> 2, last, sequential);
                tail += 2;
            }
            if tail - freed >= FREE_WORDS {
                pipe.tail.0.store(tail, Ordering::Release);
                freed = tail;
                row.unpark();
            }
        }
        pipe.tail.0.store(tail, Ordering::Release);
        row.unpark();
    }
}

/// The row side's end of the pipe for one batch: it writes each walk as
/// one word (a touch) or two (a dense span) and publishes every
/// [`PUBLISH_WORDS`] words.
pub(crate) struct Feed {
    pipe: &'static Pipe,
    host: &'static Host,
    /// Next ring position to write.
    head: u64,
    /// Last position published to the walker.
    published: u64,
    /// The first position the ring had no room for when last checked.
    limit: u64,
    /// The walker wakes the thread that opened the batch, so the batch
    /// stays on it.
    _row_thread: PhantomData<*const ()>,
}

impl Feed {
    /// Hand `walker` to the walker thread if the host has one, it is
    /// free and a host core is to spare; give it back otherwise. (The
    /// walk state moves by value: a box would allocate once per batch.)
    #[allow(clippy::result_large_err)]
    fn open(walker: Walker) -> Result<Feed, Walker> {
        // Lines must leave the word's two low bits free.
        if walker.line_shift < 2 {
            return Err(walker);
        }
        let Some(host) = host().filter(|host| host.has_core_to_spare()) else {
            return Err(walker);
        };
        let pipe = &*PIPE;
        if pipe.dead.load(Ordering::Acquire)
            || pipe
                .claimed
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return Err(walker);
        }
        let head = pipe.head.0.load(Ordering::Relaxed);
        {
            let mut slot = lock(&pipe.slot);
            slot.walker = Some(walker);
            slot.row = Some(thread::current());
        }
        pipe.phase.store(OPEN, Ordering::Release);
        host.walker.unpark();
        Ok(Feed {
            pipe,
            host,
            head,
            published: head,
            limit: head + RING_WORDS as u64,
            _row_thread: PhantomData,
        })
    }

    /// Queue a touch of `line`; `true` when the batch should take its
    /// walks back (see [`Feed::commit`]).
    #[inline(always)]
    fn touch(&mut self, line: u64, sequential: bool) -> bool {
        self.reserve(1);
        self.write((line << 2) | (u64::from(sequential) * SEQUENTIAL));
        self.commit()
    }

    /// Queue the dense span `first..=last`, like [`Feed::touch`].
    #[inline]
    fn dense(&mut self, first: u64, last: u64, entering_sequential: bool) -> bool {
        self.reserve(2);
        self.write((first << 2) | (u64::from(entering_sequential) * SEQUENTIAL) | SPAN);
        self.write(last);
        self.commit()
    }

    #[inline(always)]
    fn reserve(&mut self, words: u64) {
        if self.head + words > self.limit {
            self.wait_for_room(words);
        }
    }

    #[inline(always)]
    fn write(&mut self, word: u64) {
        self.pipe.ring[self.head as usize % RING_WORDS].store(word, Ordering::Relaxed);
        self.head += 1;
    }

    /// Publish every [`PUBLISH_WORDS`] words, and say whether the host
    /// has run out of cores to spare meanwhile.
    #[inline(always)]
    fn commit(&mut self) -> bool {
        if self.head - self.published >= PUBLISH_WORDS {
            self.publish();
            return !self.host.has_core_to_spare();
        }
        false
    }

    fn publish(&mut self) {
        self.pipe.head.0.store(self.head, Ordering::Release);
        self.published = self.head;
        self.host.walker.unpark();
    }

    /// The ring is full: wait for the walker to free `words` words. A
    /// walker that died meanwhile re-raises its panic here.
    #[cold]
    #[inline(never)]
    fn wait_for_room(&mut self, words: u64) {
        self.publish();
        let pipe = self.pipe;
        let need = self.head + words;
        wait_until(|| {
            pipe.tail.0.load(Ordering::Acquire) + RING_WORDS as u64 >= need
                || pipe.dead.load(Ordering::Acquire)
        });
        if pipe.dead.load(Ordering::Acquire) {
            let payload = lock(&pipe.slot).panic.take();
            panic::resume_unwind(payload.unwrap_or_else(|| Box::new("the cache walker died")));
        }
        self.limit = pipe.tail.0.load(Ordering::Acquire) + RING_WORDS as u64;
    }

    /// Publish the last words, wait for the walker to apply them and take
    /// the walk state back, with the payload of a walk that panicked.
    fn close(&mut self) -> (Walker, Option<Box<dyn Any + Send>>) {
        let pipe = self.pipe;
        self.publish();
        // A walker that died has already returned the state (`DONE`).
        let _ = pipe
            .phase
            .compare_exchange(OPEN, CLOSED, Ordering::Release, Ordering::Relaxed);
        self.host.walker.unpark();
        wait_until(|| pipe.phase.load(Ordering::Acquire) == DONE);
        let (walker, panic) = {
            let mut slot = lock(&pipe.slot);
            let walker = slot.walker.take().expect("the walker returns the state");
            (walker, slot.panic.take())
        };
        pipe.phase.store(IDLE, Ordering::Relaxed);
        pipe.claimed.store(false, Ordering::Release);
        (walker, panic)
    }
}
