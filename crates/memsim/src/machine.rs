//! The multiprocessor simulator: interleaves per-processor traces by
//! simulated time through private two-level caches, write buffers, a full-map
//! directory, and spinlock timing.
//!
//! Modeling follows the paper's architecture section: processors stall on
//! read misses and write-buffer overflow; a fixed-latency interconnect
//! (contention modeled everywhere except the network); MSI directory
//! coherence at L2-line granularity with inclusive L1s. Cache and directory
//! state changes are applied when a reference is issued, which keeps the
//! interleaving deterministic.
//!
//! The hot loop is hash-free and allocation-free: the next processor to step
//! comes from a binary heap keyed on `(clock, proc_id)` rather than a scan,
//! miss classification is one paged-table probe inside
//! [`Cache::record_miss`], and invalidation targets arrive as a node bitmask
//! from the directory.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::convert::Infallible;

use dss_trace::{DataClass, Event, EventStream, Trace, TraceError, TraceSource};

use crate::cache::{Cache, LineState};
use crate::config::MachineConfig;
use crate::directory::{home_of, Directory};
use crate::protocol::Kernel;
use crate::stats::{class_index, LevelStats, ProcStats, SimStats};

pub(crate) struct Node {
    pub(crate) l1: Cache,
    pub(crate) l2: Cache,
}

/// A machine whose cache and directory state persists across runs — warm one
/// query, then measure the next, as the paper's inter-query reuse experiment
/// does.
///
/// # Example
///
/// ```
/// use dss_memsim::{Machine, MachineConfig};
/// use dss_trace::{DataClass, Tracer};
///
/// let tracer = Tracer::new(0);
/// tracer.busy(10);
/// tracer.read(dss_shmem::SHARED_BASE, 8, DataClass::Data);
/// let trace = tracer.take();
///
/// let mut machine = Machine::new(MachineConfig::baseline());
/// let stats = machine.run(&[trace]);
/// assert_eq!(stats.l1.read_misses.total(), 1); // cold miss
/// ```
pub struct Machine {
    cfg: MachineConfig,
    /// The pure transition kernel deciding every coherence transaction
    /// (`crate::protocol`) — the same kernel `dss-check model` explores
    /// exhaustively, so the simulator cannot drift from the checked protocol.
    kernel: Kernel,
    pub(crate) nodes: Vec<Node>,
    pub(crate) dir: Directory,
    /// Held metalocks as `(lock word, holder)`. A handful of distinct lock
    /// words exist (`LockMgrLock`, `BufMgrLock`, the odd metalock), so a
    /// linear scan over a small vector beats hashing on the lock path and
    /// keeps the hot loop free of hashed containers.
    locks: Vec<(u64, usize)>,
    /// Reusable per-processor run state. Hoisted out of [`Machine::run`] so
    /// that, once a run has grown these buffers, subsequent runs (through
    /// [`Machine::run_into`]) never touch the heap — the steady-state
    /// property `dss-check alloc` measures.
    scratch: Vec<ProcScratch>,
    /// Reusable scheduler heap (same rationale as `scratch`).
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Reusable per-processor block buffers for [`Machine::run_source`]: the
    /// streaming run replays one block per processor at a time, refilling
    /// these in place, so peak memory stays bounded by the block size — not
    /// the trace length — and steady-state streaming runs stay heap-quiet.
    blocks: Vec<Vec<Event>>,
    /// When armed (test-only `alloc-probe` feature), every simulated event
    /// performs one deliberate heap allocation so the allocation audit's
    /// negative test can prove the gate fires.
    #[cfg(feature = "alloc-probe")]
    probe_allocs: bool,
    // Geometry hoisted out of the per-event paths.
    pub(crate) l1_line: u64,
    pub(crate) l2_line: u64,
    pub(crate) l2_line_mask: u64,
    prefetches_issued: u64,
    prefetches_filled: u64,
    /// First coherence-invariant violation observed by the per-transaction
    /// hook (only compiled under `check-invariants`; boxed so the default
    /// path never grows).
    #[cfg(feature = "check-invariants")]
    violation: Option<Box<crate::verify::CoherenceViolation>>,
}

/// Per-processor event supply for [`Machine::interleave`]: materialized
/// traces read in place ([`Slices`]), or streams refilling reused block
/// buffers ([`Streams`]).
trait Feed {
    /// What a failed refill reports.
    type Error;
    /// Number of processors fed.
    fn nprocs(&self) -> usize;
    /// The processor slot `i` executes on.
    fn proc_id(&self, i: usize) -> usize;
    /// Slot `i`'s current run of events.
    fn events(&self, i: usize) -> &[Event];
    /// Replaces slot `i`'s consumed events with its next block; `false` once
    /// its trace is exhausted.
    fn refill(&mut self, i: usize) -> Result<bool, Self::Error>;
}

/// Materialized traces, fed whole and in place: no copy, no allocation.
struct Slices<'a>(&'a [Trace]);

impl Feed for Slices<'_> {
    type Error = Infallible;

    fn nprocs(&self) -> usize {
        self.0.len()
    }

    fn proc_id(&self, i: usize) -> usize {
        self.0[i].proc_id
    }

    fn events(&self, i: usize) -> &[Event] {
        &self.0[i].events
    }

    fn refill(&mut self, _: usize) -> Result<bool, Infallible> {
        Ok(false)
    }
}

/// Opened streams, each refilling one of the machine's reused block
/// buffers.
struct Streams<'a> {
    streams: Vec<Box<dyn EventStream + 'a>>,
    blocks: Vec<Vec<Event>>,
}

impl Feed for Streams<'_> {
    type Error = TraceError;

    fn nprocs(&self) -> usize {
        self.streams.len()
    }

    fn proc_id(&self, i: usize) -> usize {
        self.streams[i].proc_id()
    }

    fn events(&self, i: usize) -> &[Event] {
        &self.blocks[i]
    }

    fn refill(&mut self, i: usize) -> Result<bool, TraceError> {
        Ok(self.streams[i].next_block(&mut self.blocks[i])? > 0)
    }
}

/// Per-processor run state. Holds no reference to the trace it replays (the
/// run loop passes the events alongside), so the machine can keep these
/// between runs and reuse their buffers.
#[derive(Default)]
struct ProcScratch {
    /// The node this trace executes on.
    node: usize,
    pos: usize,
    clock: u64,
    /// Pending write-buffer entries: (L2 line, completion time), in issue
    /// order (completions are monotone).
    wb: VecDeque<(u64, u64)>,
    stats: ProcStats,
}

impl ProcScratch {
    /// Resets for a fresh run on node `node`, keeping buffer capacity.
    fn reset(&mut self, node: usize) {
        self.node = node;
        self.pos = 0;
        self.clock = 0;
        self.wb.clear();
        self.stats = ProcStats::default();
    }

    fn retire_wb(&mut self) {
        while let Some(&(_, complete)) = self.wb.front() {
            if complete <= self.clock {
                self.wb.pop_front();
            } else {
                break;
            }
        }
    }

    fn charge_mem(&mut self, class: DataClass, cycles: u64) {
        self.stats.mem_stall += cycles;
        self.stats.stall_by_class[class_index(class)] += cycles;
    }
}

impl Machine {
    /// Builds a machine with cold caches.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate();
        let nodes = (0..cfg.nprocs)
            .map(|_| Node {
                l1: Cache::new(cfg.l1),
                l2: Cache::new(cfg.l2),
            })
            .collect();
        Machine {
            nodes,
            kernel: Kernel::new(cfg.protocol),
            dir: Directory::with_line_size(cfg.l2.line),
            // Lock acquisition follows a strict per-processor stack discipline
            // (enforced by the trace layer's `check_lock_discipline`), so at
            // most a few locks per processor are held at once. Reserving that
            // bound up front keeps `run` heap-silent even when warm-cache
            // timing overlaps more lock holds than the cold first run did.
            locks: Vec::with_capacity(4 * cfg.nprocs),
            scratch: Vec::new(),
            ready: BinaryHeap::new(),
            blocks: Vec::new(),
            #[cfg(feature = "alloc-probe")]
            probe_allocs: false,
            l1_line: cfg.l1.line,
            l2_line: cfg.l2.line,
            l2_line_mask: !(cfg.l2.line - 1),
            prefetches_issued: 0,
            prefetches_filled: 0,
            #[cfg(feature = "check-invariants")]
            violation: None,
            cfg,
        }
    }

    /// The holder of the metalock at `addr`, if any.
    fn lock_holder(&self, addr: u64) -> Option<usize> {
        self.locks
            .iter()
            .find(|&&(a, _)| a == addr)
            .map(|&(_, holder)| holder)
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Runs one trace per processor to completion and returns the statistics
    /// of this run. Cache and directory contents persist into the next call
    /// (use a fresh [`Machine`] for cold-start numbers); clocks, write
    /// buffers, and locks reset per run.
    ///
    /// # Panics
    ///
    /// Panics if more traces than processors are supplied, or if a lock
    /// release does not match its holder.
    pub fn run(&mut self, traces: &[Trace]) -> SimStats {
        let mut stats = SimStats::default();
        self.run_into(traces, &mut stats);
        stats
    }

    /// [`Machine::run`] into a caller-owned [`SimStats`], overwriting it.
    ///
    /// This is the allocation-free form: all per-run state lives in buffers
    /// the machine reuses between runs, so once one run has grown them (and
    /// the caches' lazily paged tables have seen the trace's address
    /// footprint), subsequent runs perform **zero** heap allocations —
    /// `dss-check alloc` measures exactly this with a counting allocator.
    /// [`Machine::run`] is a convenience wrapper that allocates one fresh
    /// `SimStats` per call.
    ///
    /// # Panics
    ///
    /// As [`Machine::run`].
    pub fn run_into(&mut self, traces: &[Trace], out: &mut SimStats) {
        let Ok(()) = self.interleave(&mut Slices(traces), out);
    }

    /// Runs a streaming [`TraceSource`] to completion: each processor's
    /// events are consumed one block at a time, so peak memory is bounded by
    /// the block size regardless of trace length. Identical in every
    /// simulated respect to materializing the source and calling
    /// [`Machine::run`] — block boundaries carry no timing — which the
    /// equivalence tests pin bit-for-bit.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TraceError`] from the source (truncated or
    /// corrupt block stream, I/O failure). Cache state reflects the events
    /// already replayed; use a fresh machine after an error.
    ///
    /// # Panics
    ///
    /// As [`Machine::run`].
    pub fn run_source(&mut self, src: &dyn TraceSource) -> Result<SimStats, TraceError> {
        let mut stats = SimStats::default();
        self.run_source_into(src, &mut stats)?;
        Ok(stats)
    }

    /// [`Machine::run_source`] into a caller-owned [`SimStats`], overwriting
    /// it — the buffer-reusing form, like [`Machine::run_into`].
    ///
    /// # Errors
    ///
    /// As [`Machine::run_source`].
    ///
    /// # Panics
    ///
    /// As [`Machine::run`].
    pub fn run_source_into(
        &mut self,
        src: &dyn TraceSource,
        out: &mut SimStats,
    ) -> Result<(), TraceError> {
        let streams = src.open()?;
        let mut blocks = std::mem::take(&mut self.blocks);
        blocks.iter_mut().for_each(Vec::clear);
        blocks.resize_with(blocks.len().max(streams.len()), Vec::new);
        let mut feed = Streams { streams, blocks };
        let result = self.interleave(&mut feed, out);
        self.blocks = feed.blocks;
        result
    }

    /// The one interleave loop behind every `run*` entry point: resets the
    /// per-processor state, replays `feed` in deterministic simulated-time
    /// order, and writes the run's statistics to `out`. A feed error stops
    /// the replay with `out` untouched; the reusable buffers go back to the
    /// machine either way.
    fn interleave<F: Feed>(&mut self, feed: &mut F, out: &mut SimStats) -> Result<(), F::Error> {
        let n = feed.nprocs();
        assert!(n <= self.cfg.nprocs, "more traces than processors");
        self.locks.clear();
        // Move the reusable buffers out of `self` so the run loop can borrow
        // them mutably alongside `&mut self`; they go back at the end.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.resize_with(scratch.len().max(n), ProcScratch::default);
        let mut ready = std::mem::take(&mut self.ready);
        ready.clear();
        let mut l1s = LevelStats::default();
        let mut l2s = LevelStats::default();

        let result = (|| -> Result<(), F::Error> {
            let mut seen: u128 = 0;
            for (i, rp) in scratch.iter_mut().take(n).enumerate() {
                let proc_id = feed.proc_id(i);
                assert!(
                    proc_id < self.cfg.nprocs,
                    "trace for processor {proc_id} on a {}-processor machine",
                    self.cfg.nprocs
                );
                assert!(
                    seen & (1 << proc_id) == 0,
                    "two traces for processor {proc_id}"
                );
                seen |= 1 << proc_id;
                rp.reset(proc_id);
                // The write buffer never holds more than `cfg.write_buffer`
                // entries (overflow stalls instead), but warm-cache timing
                // can fill it deeper than the cold first run did — reserve
                // the full bound now so later runs never grow it mid-loop.
                rp.wb.reserve(self.cfg.write_buffer);
                if !feed.events(i).is_empty() || feed.refill(i)? {
                    ready.push(Reverse((rp.clock, i)));
                }
            }
            // Deterministic interleave: the unfinished processor with the
            // smallest clock (ties by position) executes its next event.
            // Each live processor has exactly one heap entry, re-keyed after
            // its step, so pop order reproduces a full scan exactly; block
            // boundaries only decide when a refill happens, never who steps
            // next.
            while let Some(Reverse((_, i))) = ready.pop() {
                let rp = &mut scratch[i];
                let node = rp.node;
                let events = feed.events(i);
                self.step(node, events, rp, &mut l1s, &mut l2s);
                if rp.pos == events.len() {
                    if !feed.refill(i)? {
                        continue;
                    }
                    rp.pos = 0;
                }
                ready.push(Reverse((rp.clock, i)));
            }
            Ok(())
        })();
        self.ready = ready;
        if result.is_ok() {
            out.procs.clear();
            out.procs.resize(self.cfg.nprocs, ProcStats::default());
            for rp in &mut scratch[..n] {
                // Drain the write buffer into the final time.
                if let Some(&(_, complete)) = rp.wb.back() {
                    rp.clock = rp.clock.max(complete);
                }
                rp.stats.cycles = rp.clock;
                out.procs[rp.node] = rp.stats;
            }
            out.l1 = l1s;
            out.l2 = l2s;
            out.prefetches_issued = std::mem::take(&mut self.prefetches_issued);
            out.prefetches_filled = std::mem::take(&mut self.prefetches_filled);
        }
        self.scratch = scratch;
        result
    }

    /// Verifies the structural invariants of the cache hierarchy and
    /// directory; intended for tests (cheap relative to a simulation run).
    /// The non-panicking form is [`Machine::verify_coherence`].
    ///
    /// # Panics
    ///
    /// Panics if L1/L2 inclusion is violated, a line is writable in two
    /// nodes, or cache line states disagree with the directory.
    pub fn check_invariants(&self) {
        if let Err(v) = self.verify_coherence() {
            panic!("{v}");
        }
    }

    fn step(
        &mut self,
        p: usize,
        events: &[Event],
        rp: &mut ProcScratch,
        l1s: &mut LevelStats,
        l2s: &mut LevelStats,
    ) {
        // The deliberate allocation the audit's negative test injects; off
        // (and compiled out) everywhere else.
        #[cfg(feature = "alloc-probe")]
        if self.probe_allocs {
            let probe: Vec<u64> = Vec::with_capacity(1);
            std::hint::black_box(&probe);
        }
        let event = events[rp.pos];
        match event {
            Event::Busy(n) => {
                rp.clock += n as u64;
                rp.stats.busy += n as u64;
                rp.pos += 1;
            }
            Event::Ref(r) if !r.write => {
                self.wait_for_pending_write(rp, r.addr, r.class);
                let stall = self.read_access(p, r.addr, r.class, l1s, l2s);
                rp.clock += 1 + stall;
                rp.stats.busy += 1;
                rp.charge_mem(r.class, stall);
                if r.class == DataClass::Data && self.cfg.prefetch_data_lines > 0 {
                    self.prefetch_from(p, r.addr);
                }
                rp.pos += 1;
            }
            Event::Ref(r) => {
                let service = self.write_service(p, r.addr, r.class, l1s, l2s);
                if service > 0 {
                    self.push_wb(rp, r.addr, service, r.class);
                }
                rp.clock += 1;
                rp.stats.busy += 1;
                if r.class == DataClass::Data && self.cfg.prefetch_data_lines > 0 {
                    self.prefetch_from(p, r.addr);
                }
                rp.pos += 1;
            }
            Event::LockAcquire(tok) => {
                let class = tok.class.data_class();
                match self.lock_holder(tok.addr) {
                    Some(holder) if holder != p => {
                        // Spin: poll the lock word, then back off. All time
                        // spent here is the paper's MSync.
                        let stall = self.read_access(p, tok.addr, class, l1s, l2s);
                        let wait = 1 + stall + self.cfg.spin_interval;
                        rp.clock += wait;
                        rp.stats.msync += wait;
                        // Do not advance: retry the acquire.
                    }
                    _ => {
                        // Free: acquire with a blocking read-modify-write.
                        // Its miss latency is ordinary memory stall on the
                        // lock's data structure (the paper's Metadata time).
                        let service = self.write_service(p, tok.addr, class, l1s, l2s);
                        rp.clock += 1 + service;
                        rp.stats.busy += 1;
                        rp.charge_mem(class, service);
                        if self.lock_holder(tok.addr).is_none() {
                            self.locks.push((tok.addr, p));
                        }
                        rp.pos += 1;
                    }
                }
            }
            Event::LockRelease(tok) => {
                let class = tok.class.data_class();
                let holder = self
                    .locks
                    .iter()
                    .position(|&(a, _)| a == tok.addr)
                    .map(|i| self.locks.swap_remove(i).1);
                assert_eq!(holder, Some(p), "lock released by non-holder");
                let service = self.write_service(p, tok.addr, class, l1s, l2s);
                if service > 0 {
                    self.push_wb(rp, tok.addr, service, class);
                }
                rp.clock += 1;
                rp.stats.busy += 1;
                rp.pos += 1;
            }
        }
        // The observer hook: after every completed transaction, check the
        // directory protocol's invariants on the line the event touched.
        // Compiled out by default so the hot loop stays exactly as profiled.
        #[cfg(feature = "check-invariants")]
        self.observe(event, rp.clock);
    }

    /// Per-transaction invariant hook (see [`crate::verify`]): records the
    /// first violation involving the line the event touched.
    #[cfg(feature = "check-invariants")]
    fn observe(&mut self, event: Event, clock: u64) {
        if self.violation.is_some() {
            return;
        }
        let addr = match event {
            Event::Ref(r) => r.addr,
            Event::LockAcquire(tok) | Event::LockRelease(tok) => tok.addr,
            Event::Busy(_) => return,
        };
        if let Err(mut v) = self.verify_line(addr & self.l2_line_mask) {
            v.clock = clock;
            self.violation = Some(Box::new(v));
        }
    }

    /// The first coherence violation seen by the per-transaction observer
    /// hook, if any (only present under the `check-invariants` feature).
    #[cfg(feature = "check-invariants")]
    pub fn first_violation(&self) -> Option<&crate::verify::CoherenceViolation> {
        self.violation.as_deref()
    }

    /// Takes (and clears) the first recorded coherence violation, so a
    /// persistent machine can be checked run by run.
    #[cfg(feature = "check-invariants")]
    pub fn take_violation(&mut self) -> Option<crate::verify::CoherenceViolation> {
        self.violation.take().map(|b| *b)
    }

    /// Arms a deliberate per-event heap allocation (test-only `alloc-probe`
    /// feature), so the allocation audit's negative test can prove the
    /// counting gate fires when the hot loop regresses.
    #[cfg(feature = "alloc-probe")]
    pub fn arm_alloc_probe(&mut self) {
        self.probe_allocs = true;
    }

    /// A read must wait for a pending write-buffer entry to the same line.
    fn wait_for_pending_write(&self, rp: &mut ProcScratch, addr: u64, class: DataClass) {
        let line = addr & self.l2_line_mask;
        if let Some(&(_, complete)) = rp
            .wb
            .iter()
            .find(|(l, complete)| *l == line && *complete > rp.clock)
        {
            let wait = complete - rp.clock;
            rp.clock = complete;
            rp.charge_mem(class, wait);
        }
        rp.retire_wb();
    }

    fn push_wb(&self, rp: &mut ProcScratch, addr: u64, service: u64, class: DataClass) {
        rp.retire_wb();
        if rp.wb.len() >= self.cfg.write_buffer {
            // Overflow: stall until the oldest entry drains (the paper's
            // write-buffer-overflow component of Mem).
            if let Some(&(_, earliest)) = rp.wb.front() {
                let wait = earliest.saturating_sub(rp.clock);
                rp.clock += wait;
                rp.charge_mem(class, wait);
                rp.retire_wb();
            }
        }
        let line = addr & self.l2_line_mask;
        let start = rp
            .wb
            .back()
            .map(|&(_, c)| c)
            .unwrap_or(rp.clock)
            .max(rp.clock);
        rp.wb.push_back((line, start + service));
    }

    /// Resolves a load: returns the stall beyond the 1-cycle issue slot.
    fn read_access(
        &mut self,
        p: usize,
        addr: u64,
        class: DataClass,
        l1s: &mut LevelStats,
        l2s: &mut LevelStats,
    ) -> u64 {
        l1s.read_accesses += 1;
        if self.nodes[p].l1.lookup(addr).is_some() {
            return 0;
        }
        // `record_miss` classifies and marks the line seen in one probe; the
        // fill below makes it resident, so the mark is never observed early.
        let kind1 = self.nodes[p].l1.record_miss(addr);
        l1s.read_misses.add(class, kind1);
        l2s.read_accesses += 1;
        if let Some(state) = self.nodes[p].l2.lookup(addr) {
            self.fill_l1(p, addr, state);
            return self.cfg.lat.l2;
        }
        let kind2 = self.nodes[p].l2.record_miss(addr);
        l2s.read_misses.add(class, kind2);
        let (stall, state) = self.remote_read(p, addr);
        self.fill_l2(p, addr, state);
        self.fill_l1(p, addr, state);
        stall
    }

    /// Directory transaction for a load that missed both private caches.
    /// The kernel decides the transaction shape (downgrade target, dirty
    /// forwarding, install state); this method applies it and prices the
    /// hops. Returns the stall and the state to install.
    fn remote_read(&mut self, p: usize, addr: u64) -> (u64, LineState) {
        let line = addr & self.l2_line_mask;
        let home = home_of(addr, self.cfg.nprocs);
        let entry = self.dir.entry(line);
        let owner_dirty = match entry.owner {
            Some(owner) if owner != p => self.nodes[owner]
                .l2
                .peek_state(line)
                .map(LineState::dirty)
                .unwrap_or(false),
            _ => false,
        };
        let rm = self.kernel.read_miss(entry, p, owner_dirty);
        if let Some(owner) = rm.downgrade {
            self.downgrade(owner, line);
        }
        // Dirty copies are forwarded (3-hop when the home is a third node);
        // clean owners just downgrade, with the home supplying the data.
        let lat = if rm.dirty_forward {
            if home == p {
                self.cfg.lat.remote2
            } else {
                self.cfg.lat.remote3
            }
        } else if home == p {
            self.cfg.lat.local
        } else {
            self.cfg.lat.remote2
        };
        if rm.install == LineState::Exclusive {
            self.dir.record_exclusive(line, p);
        } else {
            self.dir.record_read(line, p);
        }
        (lat, rm.install)
    }

    /// Resolves a store: returns the write-buffer service latency
    /// (0 = completed immediately against an exclusive line).
    fn write_service(
        &mut self,
        p: usize,
        addr: u64,
        class: DataClass,
        l1s: &mut LevelStats,
        l2s: &mut LevelStats,
    ) -> u64 {
        let _ = class;
        l1s.write_accesses += 1;
        match self.nodes[p].l1.lookup(addr) {
            Some(state) if state.writable() => {
                // MESI: the first write to an Exclusive line completes
                // silently; promote both levels to Modified.
                if state == LineState::Exclusive {
                    let line = addr & self.l2_line_mask;
                    self.nodes[p].l2.set_state(line, LineState::Modified);
                    self.nodes[p].l1.set_state(addr, LineState::Modified);
                }
                return 0;
            }
            Some(_) => {}
            None => l1s.write_misses += 1,
        }
        l2s.write_accesses += 1;
        let line = addr & self.l2_line_mask;
        let home = home_of(addr, self.cfg.nprocs);
        let service = match self.nodes[p].l2.lookup(addr) {
            Some(LineState::Modified) => self.cfg.lat.l2,
            Some(LineState::Exclusive) => {
                // Silent upgrade (MESI): no coherence transaction.
                self.nodes[p].l2.set_state(line, LineState::Modified);
                self.cfg.lat.l2
            }
            Some(LineState::Shared) => {
                // Upgrade: invalidate the other sharers through the home.
                let inv = self.dir.record_write(line, p);
                self.invalidate_nodes(inv, line);
                if home == p {
                    self.cfg.lat.local
                } else {
                    self.cfg.lat.remote2
                }
            }
            None => {
                l2s.write_misses += 1;
                let entry = self.dir.entry(line);
                let wt = self.kernel.write_transaction(entry, p);
                let inv = self.dir.record_write(line, p);
                debug_assert_eq!(inv, wt.invalidate, "directory and kernel disagree");
                self.invalidate_nodes(inv, line);
                if wt.remote_owner {
                    if home == p {
                        self.cfg.lat.remote2
                    } else {
                        self.cfg.lat.remote3
                    }
                } else if home == p {
                    self.cfg.lat.local
                } else {
                    self.cfg.lat.remote2
                }
            }
        };
        self.fill_l2(p, addr, LineState::Modified);
        self.fill_l1(p, addr, LineState::Modified);
        service
    }

    /// Invalidates `line` in every node set in `mask` (a bitmask from
    /// [`Directory::record_write`]); nodes are independent, so bit order is
    /// immaterial.
    fn invalidate_nodes(&mut self, mask: u64, line: u64) {
        let mut m = mask;
        while m != 0 {
            let q = m.trailing_zeros() as usize;
            m &= m - 1;
            self.nodes[q].l2.invalidate(line);
            let mut a = line;
            while a < line + self.l2_line {
                self.nodes[q].l1.invalidate(a);
                a += self.l1_line;
            }
        }
    }

    fn downgrade(&mut self, owner: usize, line: u64) {
        self.nodes[owner].l2.downgrade(line);
        let mut a = line;
        while a < line + self.l2_line {
            self.nodes[owner].l1.downgrade(a);
            a += self.l1_line;
        }
    }

    fn fill_l2(&mut self, p: usize, addr: u64, state: LineState) {
        if let Some((victim, _dirty)) = self.nodes[p].l2.insert(addr, state) {
            // Inclusion: the victim's L1 lines leave too; the directory
            // forgets this node (dirty victims write back at no charged cost).
            self.dir.record_drop(victim, p);
            let mut a = victim;
            while a < victim + self.l2_line {
                self.nodes[p].l1.evict_for_inclusion(a);
                a += self.l1_line;
            }
        }
    }

    fn fill_l1(&mut self, p: usize, addr: u64, state: LineState) {
        // L1 victims stay resident in L2, so no directory action.
        let _ = self.nodes[p].l1.insert(addr, state);
    }

    /// The paper's Section 6 prefetcher: on an access to database data,
    /// fetch the next N primary-cache lines into L1 (stopping at the 8 KB
    /// buffer-block boundary), in the background (no processor stall).
    fn prefetch_from(&mut self, p: usize, addr: u64) {
        let base = self.nodes[p].l1.line_of(addr);
        for i in 1..=self.cfg.prefetch_data_lines as u64 {
            let pf = base + i * self.l1_line;
            if pf >> 13 != addr >> 13 {
                break;
            }
            self.prefetches_issued += 1;
            if self.nodes[p].l1.contains(pf) {
                continue;
            }
            if self.nodes[p].l2.contains(pf) {
                self.fill_l1(p, pf, LineState::Shared);
                self.prefetches_filled += 1;
                continue;
            }
            let line = pf & self.l2_line_mask;
            let entry = self.dir.entry(line);
            if matches!(entry.owner, Some(o) if o != p) {
                // Dirty elsewhere: the simple prefetcher skips it.
                continue;
            }
            self.dir.record_read(line, p);
            self.fill_l2(p, pf, LineState::Shared);
            self.fill_l1(p, pf, LineState::Shared);
            self.prefetches_filled += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MissKind;
    use dss_shmem::SHARED_BASE;
    use dss_trace::{LockClass, LockToken, Tracer};

    fn machine() -> Machine {
        Machine::new(MachineConfig::baseline())
    }

    #[test]
    fn cold_miss_then_hit() {
        let t = Tracer::new(0);
        t.read(SHARED_BASE, 8, DataClass::Data);
        t.read(SHARED_BASE + 8, 8, DataClass::Data); // same L1 line
        t.read(SHARED_BASE + 64, 8, DataClass::Data); // new L2 line
        let stats = machine().run(&[t.take()]);
        assert_eq!(stats.l1.read_accesses, 3);
        assert_eq!(stats.l1.read_misses.total(), 2);
        assert_eq!(stats.l1.read_misses.get(DataClass::Data, MissKind::Cold), 2);
        assert_eq!(stats.l2.read_misses.total(), 2);
    }

    #[test]
    fn local_vs_remote_latency() {
        // SHARED_BASE's page has home node 0.
        let t0 = Tracer::new(0);
        t0.read(SHARED_BASE, 8, DataClass::Data);
        let t1 = Tracer::new(1);
        t1.read(SHARED_BASE + 8192 * 4, 8, DataClass::Data); // also home 0
        let stats = machine().run(&[t0.take(), t1.take()]);
        assert_eq!(stats.procs[0].mem_stall, 80, "local memory");
        assert_eq!(stats.procs[1].mem_stall, 249, "2-hop remote");
    }

    #[test]
    fn dirty_third_node_is_three_hops() {
        let addr = SHARED_BASE + 8192; // home node 1
        let tw = Tracer::new(0);
        tw.write(addr, 8, DataClass::Data);
        let tr = Tracer::new(2);
        tr.busy(10_000); // ensure the write happens first
        tr.read(addr, 8, DataClass::Data);
        let stats = machine().run(&[tw.take(), tr.take()]);
        assert_eq!(stats.procs[2].mem_stall, 351, "dirty in third node");
    }

    #[test]
    fn coherence_miss_after_remote_write() {
        let addr = SHARED_BASE;
        // Proc 0 reads, proc 1 writes (invalidating 0), proc 0 rereads.
        let t0 = Tracer::new(0);
        t0.read(addr, 8, DataClass::LockHash);
        t0.busy(100_000);
        t0.read(addr, 8, DataClass::LockHash);
        let t1 = Tracer::new(1);
        t1.busy(50_000);
        t1.write(addr, 8, DataClass::LockHash);
        let stats = machine().run(&[t0.take(), t1.take()]);
        assert_eq!(
            stats
                .l2
                .read_misses
                .get(DataClass::LockHash, MissKind::Coherence),
            1,
            "reread after invalidation is a coherence miss"
        );
    }

    #[test]
    fn conflict_misses_in_direct_mapped_l1() {
        let t = Tracer::new(0);
        // Two addresses 4 KB apart collide in the 4 KB direct-mapped L1 but
        // coexist in the 2-way L2.
        for _ in 0..4 {
            t.read(SHARED_BASE, 8, DataClass::PrivHeap);
            t.read(SHARED_BASE + 4096, 8, DataClass::PrivHeap);
        }
        let stats = machine().run(&[t.take()]);
        let conf = stats
            .l1
            .read_misses
            .get(DataClass::PrivHeap, MissKind::Conflict);
        assert_eq!(conf, 6, "all but the two cold misses conflict");
        assert_eq!(stats.l2.read_misses.total(), 2, "L2 holds both");
    }

    #[test]
    fn write_buffer_absorbs_writes_until_full() {
        let t = Tracer::new(0);
        for i in 0..16 {
            t.write(SHARED_BASE + i * 4096 * 31, 8, DataClass::PrivHeap);
        }
        let few = machine().run(&[t.take()]);
        // 16 writes fit the buffer: no memory stall, 1 cycle each.
        assert_eq!(few.procs[0].mem_stall, 0);
        assert_eq!(few.procs[0].busy, 16);

        let t = Tracer::new(0);
        for i in 0..40 {
            t.write(SHARED_BASE + i * 4096 * 31, 8, DataClass::PrivHeap);
        }
        let many = machine().run(&[t.take()]);
        assert!(many.procs[0].mem_stall > 0, "overflow stalls the processor");
    }

    #[test]
    fn read_waits_for_pending_write_to_same_line() {
        let t = Tracer::new(0);
        t.write(SHARED_BASE, 8, DataClass::Data);
        t.read(SHARED_BASE + 8, 8, DataClass::Data);
        let stats = machine().run(&[t.take()]);
        // The read waited for the buffered write to drain (then hit).
        assert!(stats.procs[0].mem_stall > 0);
        assert_eq!(stats.l1.read_misses.total(), 0, "line filled by the write");
    }

    #[test]
    fn contended_lock_spins_into_msync() {
        let tok = LockToken::new(SHARED_BASE + 64, LockClass::LockMgr);
        let t0 = Tracer::new(0);
        t0.lock_acquire(tok);
        t0.busy(5_000);
        t0.lock_release(tok);
        let t1 = Tracer::new(1);
        t1.lock_acquire(tok);
        t1.lock_release(tok);
        let stats = machine().run(&[t0.take(), t1.take()]);
        assert_eq!(stats.procs[0].msync, 0, "uncontended holder");
        assert!(stats.procs[1].msync >= 4_000, "waiter spins while held");
        // The spinning produced lock-word traffic in the stats.
        assert!(stats.l1.read_accesses > 0);
    }

    #[test]
    fn lock_transfer_causes_coherence_misses_on_lock_word() {
        let tok = LockToken::new(SHARED_BASE + 64, LockClass::LockMgr);
        // Two processors ping-pong the lock without overlapping.
        let t0 = Tracer::new(0);
        t0.lock_acquire(tok);
        t0.lock_release(tok);
        t0.busy(100_000);
        t0.lock_acquire(tok);
        t0.lock_release(tok);
        let t1 = Tracer::new(1);
        t1.busy(50_000);
        t1.lock_acquire(tok);
        t1.lock_release(tok);
        let stats = machine().run(&[t0.take(), t1.take()]);
        // Proc 0's second acquire finds its copy invalidated by proc 1.
        assert!(stats.l2.write_misses > 0 || stats.l2.read_misses.total() > 0);
        let meta_stall: u64 = stats.total(|p| p.stall_of(DataClass::LockMgrLock));
        assert!(meta_stall > 0, "lock RMW misses charge Metadata mem time");
    }

    #[test]
    #[should_panic(expected = "released by non-holder")]
    fn mismatched_release_panics() {
        let tok = LockToken::new(SHARED_BASE + 64, LockClass::BufMgr);
        let t = Tracer::new(0);
        t.lock_release(tok);
        machine().run(&[t.take()]);
    }

    #[test]
    fn warm_run_keeps_cache_contents() {
        let addr = SHARED_BASE;
        let make = || {
            let t = Tracer::new(0);
            for i in 0..64 {
                t.read(addr + i * 64, 8, DataClass::Data);
            }
            t.take()
        };
        let mut m = machine();
        let cold = m.run(&[make()]);
        assert_eq!(cold.l2.read_misses.total(), 64);
        let warm = m.run(&[make()]);
        assert_eq!(warm.l2.read_misses.total(), 0, "all lines still resident");
        assert!(warm.exec_cycles() < cold.exec_cycles());
    }

    #[test]
    fn prefetch_eliminates_sequential_data_misses() {
        let make = || {
            let t = Tracer::new(0);
            for i in 0..512 {
                t.read(SHARED_BASE + i * 16, 8, DataClass::Data); // sequential 8 KB
            }
            t.take()
        };
        let base = Machine::new(MachineConfig::baseline()).run(&[make()]);
        let pf = Machine::new(MachineConfig::baseline().with_data_prefetch(4)).run(&[make()]);
        assert!(pf.prefetches_issued > 0);
        assert!(
            pf.l1.read_misses.by_class(DataClass::Data)
                < base.l1.read_misses.by_class(DataClass::Data) / 2,
            "prefetching removes most sequential data misses ({} vs {})",
            pf.l1.read_misses.by_class(DataClass::Data),
            base.l1.read_misses.by_class(DataClass::Data)
        );
        assert!(pf.exec_cycles() < base.exec_cycles());
    }

    #[test]
    fn prefetch_stops_at_page_boundary() {
        let t = Tracer::new(0);
        // Read the last line of a page: no prefetch may cross into the next.
        t.read(SHARED_BASE + 8192 - 32, 8, DataClass::Data);
        let mut m = Machine::new(MachineConfig::baseline().with_data_prefetch(4));
        let stats = m.run(&[t.take()]);
        assert_eq!(stats.prefetches_issued, 0);
    }

    #[test]
    fn busy_time_accumulates() {
        let t = Tracer::new(0);
        t.busy(100);
        t.read(SHARED_BASE, 8, DataClass::Data);
        let stats = machine().run(&[t.take()]);
        assert_eq!(stats.procs[0].busy, 101);
        assert_eq!(stats.procs[0].cycles, 101 + 80);
    }

    #[test]
    fn mesi_sole_reader_writes_silently() {
        let make = || {
            let t = Tracer::new(0);
            t.read(SHARED_BASE, 8, DataClass::PrivHeap);
            t.write(SHARED_BASE, 8, DataClass::PrivHeap);
            t.take()
        };
        let msi = Machine::new(MachineConfig::baseline()).run(&[make()]);
        let mesi = Machine::new(MachineConfig::baseline().with_protocol(crate::Protocol::Mesi))
            .run(&[make()]);
        // Under MSI the write upgrades through the directory; under MESI the
        // Exclusive line absorbs it without any L2 transaction.
        assert_eq!(msi.l2.write_accesses, 1);
        assert_eq!(mesi.l2.write_accesses, 0);
        assert!(mesi.exec_cycles() <= msi.exec_cycles());
    }

    #[test]
    fn mesi_second_reader_downgrades_clean_copy() {
        let addr = SHARED_BASE; // home node 0
        let t0 = Tracer::new(0);
        t0.read(addr, 8, DataClass::Data);
        let t1 = Tracer::new(1);
        t1.busy(10_000);
        t1.read(addr, 8, DataClass::Data);
        let stats = Machine::new(MachineConfig::baseline().with_protocol(crate::Protocol::Mesi))
            .run(&[t0.take(), t1.take()]);
        // The copy was Exclusive but clean: a 2-hop transfer, not 3-hop.
        assert_eq!(stats.procs[1].mem_stall, 249);
    }

    #[test]
    fn mesi_write_invalidates_exclusive_reader() {
        let addr = SHARED_BASE;
        let t0 = Tracer::new(0);
        t0.read(addr, 8, DataClass::Data);
        t0.busy(100_000);
        t0.read(addr, 8, DataClass::Data);
        let t1 = Tracer::new(1);
        t1.busy(50_000);
        t1.write(addr, 8, DataClass::Data);
        let stats = Machine::new(MachineConfig::baseline().with_protocol(crate::Protocol::Mesi))
            .run(&[t0.take(), t1.take()]);
        assert_eq!(
            stats
                .l2
                .read_misses
                .get(DataClass::Data, crate::MissKind::Coherence),
            1,
            "proc 0's exclusive copy must be invalidated by proc 1's write"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let make_traces = || {
            let mut out = Vec::new();
            for p in 0..4 {
                let t = Tracer::new(p);
                for i in 0..200 {
                    t.read(
                        SHARED_BASE + ((i * 37 + p as u64 * 11) % 4096) * 8,
                        8,
                        DataClass::Data,
                    );
                    t.busy((i % 7) as u32);
                    t.write(dss_shmem::private_base(p) + i * 16, 8, DataClass::PrivHeap);
                }
                out.push(t.take());
            }
            out
        };
        let a = Machine::new(MachineConfig::baseline()).run(&make_traces());
        let b = Machine::new(MachineConfig::baseline()).run(&make_traces());
        assert_eq!(a.exec_cycles(), b.exec_cycles());
        assert_eq!(a.l1.read_misses, b.l1.read_misses);
        assert_eq!(a.l2.read_misses, b.l2.read_misses);
    }

    /// A materialized-source wrapper with a configurable block size, so the
    /// streaming tests can exercise refills at awkward boundaries.
    struct Chopped<'a> {
        traces: &'a [Trace],
        block: usize,
    }

    struct ChoppedStream<'a> {
        trace: &'a Trace,
        pos: usize,
        block: usize,
    }

    impl dss_trace::EventStream for ChoppedStream<'_> {
        fn proc_id(&self) -> usize {
            self.trace.proc_id
        }

        fn next_block(&mut self, buf: &mut Vec<Event>) -> Result<usize, TraceError> {
            buf.clear();
            let n = (self.trace.events.len() - self.pos).min(self.block);
            buf.extend_from_slice(&self.trace.events[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl TraceSource for Chopped<'_> {
        fn nprocs(&self) -> usize {
            self.traces.len()
        }

        fn open(&self) -> Result<Vec<Box<dyn dss_trace::EventStream + '_>>, TraceError> {
            Ok(self
                .traces
                .iter()
                .map(|trace| {
                    Box::new(ChoppedStream {
                        trace,
                        pos: 0,
                        block: self.block,
                    }) as Box<dyn dss_trace::EventStream>
                })
                .collect())
        }
    }

    /// Contended traces: everyone hammers the same lock and lines, so the
    /// interleave exercises parked processors across block refills.
    fn contended_traces(nprocs: usize) -> Vec<Trace> {
        let tok = LockToken::new(SHARED_BASE + 0x40, LockClass::LockMgr);
        (0..nprocs)
            .map(|p| {
                let t = Tracer::new(p);
                for i in 0..300u64 {
                    t.busy((p as u32 + 1) * (i as u32 % 5));
                    t.lock_acquire(tok);
                    t.read(SHARED_BASE + (i % 64) * 8, 8, DataClass::LockHash);
                    t.write(SHARED_BASE + (i % 64) * 8, 8, DataClass::LockHash);
                    t.lock_release(tok);
                    t.write(dss_shmem::private_base(p) + i * 24, 8, DataClass::PrivHeap);
                }
                t.take()
            })
            .collect()
    }

    #[test]
    fn run_source_matches_run_at_any_block_size() {
        let traces = contended_traces(4);
        let materialized = Machine::new(MachineConfig::baseline()).run(&traces);
        // The default materialized adapter…
        let streamed = Machine::new(MachineConfig::baseline())
            .run_source(&&traces[..])
            .expect("materialized source cannot fail");
        assert_eq!(streamed, materialized);
        // …and adversarial block sizes, including 1 (a refill per event) and
        // sizes that split lock-acquire retries across block boundaries.
        for block in [1, 2, 3, 7, 64, 100_000] {
            let streamed = Machine::new(MachineConfig::baseline())
                .run_source(&Chopped {
                    traces: &traces,
                    block,
                })
                .expect("in-memory source cannot fail");
            assert_eq!(streamed, materialized, "block size {block}");
        }
    }

    #[test]
    fn run_source_reuses_buffers_and_matches_warm_run() {
        // Warm-cache equivalence: the second run over the same machine must
        // match run()'s second run, proving cache/directory state carries
        // across streaming runs identically.
        let traces = contended_traces(2);
        let mut m_mat = Machine::new(MachineConfig::baseline());
        let mut m_str = Machine::new(MachineConfig::baseline());
        let first_mat = m_mat.run(&traces);
        let first_str = m_str.run_source(&&traces[..]).unwrap();
        assert_eq!(first_mat, first_str);
        let second_mat = m_mat.run(&traces);
        let second_str = m_str.run_source(&&traces[..]).unwrap();
        assert_eq!(second_mat, second_str);
        assert_ne!(first_mat, second_mat, "warm run differs from cold");
    }

    #[test]
    fn run_source_surfaces_stream_errors() {
        struct Broken;
        struct BrokenStream;
        impl dss_trace::EventStream for BrokenStream {
            fn proc_id(&self) -> usize {
                0
            }
            fn next_block(&mut self, _buf: &mut Vec<Event>) -> Result<usize, TraceError> {
                Err(TraceError::Truncated {
                    offset: 42,
                    expected: "event record",
                    event: None,
                })
            }
        }
        impl TraceSource for Broken {
            fn nprocs(&self) -> usize {
                1
            }
            fn open(&self) -> Result<Vec<Box<dyn dss_trace::EventStream + '_>>, TraceError> {
                Ok(vec![Box::new(BrokenStream)])
            }
        }
        let mut m = machine();
        let err = m.run_source(&Broken).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), "truncated");
        // The machine is still usable for a fresh run afterwards.
        let traces = contended_traces(1);
        assert_eq!(
            Machine::new(MachineConfig::baseline()).run(&traces),
            m.run(&traces),
            "post-error machine had cold caches (no events were replayed)"
        );
    }
}
