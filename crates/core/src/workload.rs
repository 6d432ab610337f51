//! The workbench: a built database plus cached per-processor traces.

use std::collections::HashMap;
use std::io::{BufWriter, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dss_faultkit::crash::crash_point;
use dss_query::{Database, DbConfig, Session};
use dss_tpcd::params;
use dss_trace::{
    salvage_scan_file, EventStream, FileTraceSource, PipelineSnapshot, PipelineStats, Trace,
    TraceError, TraceSource, Tracer, DEFAULT_BLOCK_EVENTS,
};

use crate::checkpoint::CheckpointJournal;
use crate::degrade::PointError;
use crate::persist::fsync_dir;

/// A shared, immutable set of per-processor traces.
///
/// Trace *generation* needs `&mut` access to the database (buffer-cache and
/// lock-manager state move); trace *consumption* does not: once generated, a
/// trace set is frozen and [`Send`]` + `[`Sync`], so any number of simulated
/// machines — on any number of worker threads — can replay it concurrently.
/// [`Workbench::traces`] hands out cheap clones of one allocation.
pub type TraceSet = Arc<[Trace]>;

/// The three queries the paper studies in detail: Q3 (*Index*), Q6
/// (*Sequential*), and Q12 (*Sequential* with an index-scanned second table).
pub const STUDIED_QUERIES: [u8; 3] = [3, 6, 12];

/// Maximum trace sets kept in memory: the reuse experiment touches four
/// distinct (query, seed) sets per call, and holding all four avoids
/// regenerating any of them mid-experiment. Generation is
/// history-independent (pinned by a test below), so the slot count can never
/// change results — only how often sets are rebuilt.
const TRACE_CACHE_SLOTS: usize = 4;

/// How the workbench hands traces to the simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// Generate whole trace sets in memory ([`TraceSet`]) and replay from
    /// there. Fastest for repeated sweeps at the paper's scale.
    #[default]
    Materialized,
    /// Record traces straight to block files on disk and replay them a
    /// block at a time: peak memory stays bounded by the block size however
    /// large the scale factor, at the cost of re-reading files per sweep
    /// point. Results are bit-identical to [`TraceMode::Materialized`].
    Streamed,
}

/// A trace population as the experiment sweeps consume it: either a
/// materialized in-memory set or block files replayed from disk. Cloning is
/// cheap (an `Arc` bump or a path list); both variants stream through the
/// same [`TraceSource`] API and yield identical events.
#[derive(Clone, Debug)]
pub enum SimSource {
    /// A fully materialized, shared trace set.
    Set(TraceSet),
    /// Per-processor block files on disk.
    Files(FileTraceSource),
}

impl TraceSource for SimSource {
    fn nprocs(&self) -> usize {
        match self {
            SimSource::Set(set) => set.len(),
            SimSource::Files(files) => files.nprocs(),
        }
    }

    fn open(&self) -> Result<Vec<Box<dyn EventStream + '_>>, TraceError> {
        match self {
            SimSource::Set(set) => set[..].open(),
            SimSource::Files(files) => files.open(),
        }
    }
}

/// Label of a query ("Q3").
pub fn query_label(q: u8) -> String {
    format!("Q{q}")
}

/// A built database plus a small cache of generated trace sets.
///
/// Trace generation follows the paper's methodology: one query of the given
/// type per processor, each with different TPC-D substitution parameters,
/// statistics recorded from start to finish with no warm-up discarded.
/// Traces depend only on the query and parameter seeds — never on the
/// simulated machine — so one set drives every sweep point, and the sweep
/// points themselves are independent: every experiment
/// ([`Workbench::line_size_sweep`] and friends, see [`crate::experiments`])
/// runs its points through the workbench's one sweep-point runner, which
/// fans them out across up to [`Workbench::jobs`] worker threads with
/// bit-identical results to a serial run.
///
/// # Example
///
/// ```no_run
/// use dss_core::Workbench;
/// use dss_memsim::{Machine, MachineConfig};
///
/// let mut wb = Workbench::paper();
/// let traces = wb.traces(6, 0); // TraceSet: shared, immutable, Send + Sync
/// let stats = Machine::new(MachineConfig::baseline()).run(&traces);
/// assert!(stats.exec_cycles() > 0);
///
/// // Sweep experiments fan out across threads (same results at any job count).
/// let points = wb.line_size_sweep(6);
/// assert_eq!(points.len(), 5);
/// ```
pub struct Workbench {
    /// The shared database image.
    pub db: Database,
    nprocs: usize,
    jobs: usize,
    cache: HashMap<(u8, u64), TraceSet>,
    /// Insertion order for simple FIFO eviction.
    order: Vec<(u8, u64)>,
    /// How experiments consume traces (materialized sets or block files).
    trace_mode: TraceMode,
    /// Where streamed-mode block files live (default: a per-process temp
    /// directory, created on first use).
    trace_dir: Option<PathBuf>,
    /// Block files already recorded this run. Files cost no memory, so
    /// unlike the materialized cache this one never evicts.
    stream_cache: HashMap<(u8, u64), FileTraceSource>,
    /// Cumulative per-point simulation compute time (nanoseconds), summed
    /// across worker threads; lets callers report parallel speedup.
    pub(crate) sim_nanos: AtomicU64,
    /// Fail-soft mode: sweep points run under `catch_unwind`, failures become
    /// [`PointError`]s instead of aborting the sweep. Off by default (a
    /// failing point panics the caller, exactly as before).
    pub(crate) fail_soft: bool,
    /// Optional per-point deadline enforced (in fail-soft mode) by the sweep
    /// watchdog.
    pub(crate) point_deadline: Option<Duration>,
    /// Fault-injection hook: the label of one sweep point to sabotage (it
    /// panics instead of simulating), for exercising the degradation path.
    pub(crate) sabotage: Option<String>,
    /// Whether a sweep point carrying the sabotage label has been run (or
    /// served from the journal) since the label was set.
    pub(crate) sabotage_matched: bool,
    /// Point failures accumulated by fail-soft sweeps since the last drain.
    pub(crate) point_errors: Vec<PointError>,
    /// Producer worker threads per in-flight sweep point (0 = pipelining
    /// off: blocks are produced inline on the simulating thread).
    pub(crate) gen_jobs: usize,
    /// Pipeline utilization counters shared with every pipelined point.
    pub(crate) pipe_stats: Arc<PipelineStats>,
    /// The crash-safety journal: completed sweep points are served from it
    /// and newly computed points are appended (durably) as they finish.
    pub(crate) checkpoint: Option<Mutex<CheckpointJournal>>,
    /// Resume mode: salvage partial streamed block files left by an
    /// interrupted run instead of regenerating them from scratch. Only safe
    /// when the caller has verified (via the journal fingerprint) that the
    /// files on disk belong to this exact configuration.
    pub(crate) resume: bool,
    /// Sweep points served from the journal since the last drain.
    pub(crate) ckpt_loaded: AtomicU64,
    /// Sweep points actually simulated since the last drain.
    pub(crate) ckpt_computed: AtomicU64,
}

impl Workbench {
    /// Builds a workbench over `config` with `nprocs` simulated processors.
    ///
    /// Experiments run their sweep points on up to
    /// [`available_parallelism`](std::thread::available_parallelism) worker
    /// threads by default; tune with [`Workbench::set_jobs`].
    pub fn new(config: &DbConfig, nprocs: usize) -> Self {
        let jobs = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Workbench {
            db: Database::build(config),
            nprocs,
            jobs,
            cache: HashMap::new(),
            order: Vec::new(),
            trace_mode: TraceMode::default(),
            trace_dir: None,
            stream_cache: HashMap::new(),
            sim_nanos: AtomicU64::new(0),
            fail_soft: false,
            point_deadline: None,
            sabotage: None,
            sabotage_matched: false,
            point_errors: Vec::new(),
            gen_jobs: 0,
            pipe_stats: PipelineStats::shared(),
            checkpoint: None,
            resume: false,
            ckpt_loaded: AtomicU64::new(0),
            ckpt_computed: AtomicU64::new(0),
        }
    }

    /// The paper's setup: scale 0.01, four processors.
    pub fn paper() -> Self {
        Workbench::new(&DbConfig::default(), 4)
    }

    /// A reduced setup for fast tests (small database, four processors).
    pub fn small() -> Self {
        Workbench::new(
            &DbConfig {
                scale: 0.003,
                nbuffers: 2048,
                ..DbConfig::default()
            },
            4,
        )
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Number of worker threads experiment sweeps may use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Sets the number of worker threads for experiment sweeps (clamped to at
    /// least 1). `1` reproduces the fully serial harness.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.max(1);
    }

    /// Chainable form of [`Workbench::set_jobs`].
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.set_jobs(jobs);
        self
    }

    /// Producer worker threads per in-flight sweep point (0 = pipelining
    /// off).
    pub fn gen_jobs(&self) -> usize {
        self.gen_jobs
    }

    /// Sets how many producer worker threads each in-flight sweep point may
    /// use for trace-block production ([`dss_trace::PipelinedTraceSource`]).
    ///
    /// `0` (the default) produces blocks inline on the simulating thread —
    /// the original serial streamed path. Any value leaves results
    /// bit-identical (pinned by tests); the producer budget is taken out of
    /// [`Workbench::jobs`] per [`crate::split_jobs`], so `--jobs 4
    /// --gen-jobs 2` runs two concurrent points with two producers each.
    pub fn set_gen_jobs(&mut self, gen_jobs: usize) {
        self.gen_jobs = gen_jobs;
    }

    /// Drains the pipeline utilization counters accumulated since the last
    /// call: producer/consumer time blocked on the bounded channels and
    /// blocks delivered. All zero when pipelining is off.
    pub fn take_pipeline_stats(&self) -> PipelineSnapshot {
        self.pipe_stats.take()
    }

    /// Enables (or disables) fail-soft sweeps. In fail-soft mode each sweep
    /// point runs under `catch_unwind` with the optional
    /// [`Workbench::set_point_deadline`] watchdog; a failed point becomes a
    /// [`PointError`] (drained with [`Workbench::take_point_errors`]) and the
    /// remaining points still run. Off (the default) reproduces the original
    /// fail-hard behavior: the first panicking point propagates.
    ///
    /// With no faults, fail-soft results are bit-identical to fail-hard ones
    /// at any job count.
    pub fn set_fail_soft(&mut self, on: bool) {
        self.fail_soft = on;
    }

    /// Sets the per-point deadline for fail-soft sweeps (`None` disables the
    /// watchdog). A point that outruns the deadline is classified
    /// [`crate::PointCause::TimedOut`] and its result is discarded — the
    /// watchdog cannot preempt a wedged simulation, so the run still waits
    /// for it, but its outcome no longer depends on how late it finished.
    pub fn set_point_deadline(&mut self, deadline: Option<Duration>) {
        self.point_deadline = deadline;
    }

    /// Sabotages the sweep point whose label equals `label` (e.g.
    /// `"fig8/Q6/l2_line=64"`): it panics instead of simulating. A
    /// fault-injection hook for exercising the degradation path end to end;
    /// `None` disables it.
    pub fn set_sabotage(&mut self, label: Option<String>) {
        self.sabotage = label;
        self.sabotage_matched = false;
    }

    /// Whether any sweep point since the last [`Workbench::set_sabotage`]
    /// carried the sabotaged label. `false` after a run means the label
    /// names no sweep point at all — a drill that exercised nothing.
    pub fn sabotage_matched(&self) -> bool {
        self.sabotage_matched
    }

    /// Drains the point failures accumulated by fail-soft sweeps since the
    /// last call, in sweep order.
    pub fn take_point_errors(&mut self) -> Vec<PointError> {
        std::mem::take(&mut self.point_errors)
    }

    /// Number of point failures accumulated and not yet drained.
    pub fn point_error_count(&self) -> usize {
        self.point_errors.len()
    }

    /// Number of trace sets currently cached (bounded by the cache's slot
    /// count regardless of how many sets were requested).
    pub fn cached_trace_sets(&self) -> usize {
        self.cache.len()
    }

    /// Drains the cumulative simulation compute time recorded by the
    /// experiment sweeps since the last call: the wall-clock a serial harness
    /// would have spent simulating. Comparing it against observed wall-clock
    /// gives the parallel speedup.
    pub fn take_sim_compute(&self) -> Duration {
        Duration::from_nanos(self.sim_nanos.swap(0, Ordering::Relaxed))
    }

    /// Returns (generating and caching on demand) the per-processor traces
    /// for `query`, with parameter seeds starting at `seed_base`.
    ///
    /// Different `seed_base` values give independent instances of the same
    /// query type — the warm-up runs of the inter-query reuse experiment.
    ///
    /// The returned [`TraceSet`] is immutable and `Send + Sync`: cloning it is
    /// an `Arc` bump, and clones stay valid (and share one allocation) even
    /// after the cache evicts the entry.
    ///
    /// # Panics
    ///
    /// Panics if the query fails to plan or execute (a bug, since all
    /// seventeen templates are tested).
    pub fn traces(&mut self, query: u8, seed_base: u64) -> TraceSet {
        let key = (query, seed_base);
        if let Some(t) = self.cache.get(&key) {
            return Arc::clone(t);
        }
        // Bound memory: traces are large, keep only a couple of sets.
        while self.order.len() >= TRACE_CACHE_SLOTS {
            let evict = self.order.remove(0);
            self.cache.remove(&evict);
        }
        let sql_seeds: Vec<u64> = (0..self.nprocs as u64).map(|p| seed_base + p).collect();
        let mut traces = Vec::with_capacity(self.nprocs);
        for (p, seed) in sql_seeds.into_iter().enumerate() {
            let mut session = Session::new(p);
            let sql = dss_query::sql_for(query, &params(query, seed));
            self.db
                .run(&sql, &mut session)
                .unwrap_or_else(|e| panic!("Q{query} (seed {seed}) failed: {e}"));
            traces.push(session.tracer.take());
        }
        let set: TraceSet = traces.into();
        self.cache.insert(key, Arc::clone(&set));
        self.order.push(key);
        set
    }

    /// Drops all cached traces (frees memory between experiment suites).
    /// Streamed-mode block files stay on disk and stay cached — they hold no
    /// memory.
    pub fn clear_traces(&mut self) {
        self.cache.clear();
        self.order.clear();
    }

    /// How this workbench hands traces to the simulator.
    pub fn trace_mode(&self) -> TraceMode {
        self.trace_mode
    }

    /// Selects materialized or streamed trace delivery (see [`TraceMode`]).
    /// Results are identical either way; only peak memory and wall-clock
    /// differ.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.trace_mode = mode;
    }

    /// Sets the directory streamed-mode block files are written to
    /// (default: a fresh per-process directory under the system temp dir).
    /// Takes effect for sets not yet recorded.
    pub fn set_trace_dir(&mut self, dir: PathBuf) {
        self.trace_dir = Some(dir);
    }

    /// Attaches a checkpoint journal: experiment sweeps serve completed
    /// points from it (skipping the simulation entirely) and durably append
    /// each newly computed point the moment it finishes.
    pub fn set_checkpoint(&mut self, journal: CheckpointJournal) {
        self.checkpoint = Some(Mutex::new(journal));
    }

    /// Enables resume mode: streamed block files already on disk are
    /// salvaged — complete files reused, partial files truncated to their
    /// last checksum-valid block and completed in place — instead of being
    /// regenerated from scratch. Enable only when the on-disk state is known
    /// to belong to this exact configuration; the checkpoint journal's
    /// fingerprint ([`crate::config_fingerprint`]) is the proof.
    pub fn set_resume(&mut self, resume: bool) {
        self.resume = resume;
    }

    /// Drains the checkpoint counters: `(loaded, computed)` — sweep points
    /// served from the journal vs. actually simulated since the last call.
    pub fn take_checkpoint_counts(&self) -> (u64, u64) {
        (
            self.ckpt_loaded.swap(0, Ordering::Relaxed),
            self.ckpt_computed.swap(0, Ordering::Relaxed),
        )
    }

    /// Returns the trace population for `query` in this workbench's
    /// [`TraceMode`]: a cheap clone of the materialized set, or a handle to
    /// per-processor block files (recorded on first request).
    ///
    /// # Panics
    ///
    /// Panics if the query fails, or (streamed mode) on an I/O failure
    /// while recording the block files.
    pub fn source(&mut self, query: u8, seed_base: u64) -> SimSource {
        match self.trace_mode {
            TraceMode::Materialized => SimSource::Set(self.traces(query, seed_base)),
            TraceMode::Streamed => SimSource::Files(self.trace_files(query, seed_base)),
        }
    }

    /// Returns (recording on first request) per-processor block files for
    /// `query`, with parameter seeds starting at `seed_base`.
    ///
    /// Each processor's query runs with a sinked [`Tracer`] draining event
    /// blocks straight to disk, so recording holds at most one block per
    /// processor in memory — this is the generation half of the
    /// bounded-memory pipeline. Files are written directly to their final
    /// path and fsynced on completion: the stream's end marker, not a
    /// rename, is the completion indicator, so a crash mid-write leaves a
    /// file the next run's salvage scan can recognize as partial. In resume
    /// mode ([`Workbench::set_resume`]) such leftovers are salvaged:
    /// complete files are reused outright, partial ones are truncated to
    /// their last checksum-valid block and completed in place by replaying
    /// the (deterministic) generation and discarding the already-written
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics if the query fails to plan or execute, or on an I/O failure.
    pub fn trace_files(&mut self, query: u8, seed_base: u64) -> FileTraceSource {
        let key = (query, seed_base);
        if let Some(src) = self.stream_cache.get(&key) {
            return src.clone();
        }
        let dir = self
            .trace_dir
            .get_or_insert_with(|| {
                std::env::temp_dir().join(format!("dss-traces-{}", std::process::id()))
            })
            .clone();
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("create trace dir {}: {e}", dir.display()));
        let stem = format!("q{query}.s{seed_base}");
        let mut paths = Vec::with_capacity(self.nprocs);
        for p in 0..self.nprocs {
            let seed = seed_base + p as u64;
            let path = FileTraceSource::proc_path(&dir, &stem, p);
            let salvage = if self.resume {
                salvage_state(&path, p)
            } else {
                None
            };
            if matches!(salvage, Some((_, true))) {
                // A complete stream from the interrupted run: reuse as-is.
                paths.push(path);
                continue;
            }
            let (file, tracer) = match salvage {
                Some((scan, _)) => {
                    // Partial stream: truncate to the last checksum-valid
                    // block and complete it in place. The regenerated query
                    // reproduces the salvaged blocks bit for bit (generation
                    // is history-independent, pinned by a test below); the
                    // resumed sink discards them and appends the rest.
                    let mut file = std::fs::OpenOptions::new()
                        .read(true)
                        .write(true)
                        .open(&path)
                        .unwrap_or_else(|e| panic!("reopen {}: {e}", path.display()));
                    file.set_len(scan.valid_len)
                        .unwrap_or_else(|e| panic!("truncate {}: {e}", path.display()));
                    file.seek(std::io::SeekFrom::End(0))
                        .unwrap_or_else(|e| panic!("seek {}: {e}", path.display()));
                    let sync = file
                        .try_clone()
                        .unwrap_or_else(|e| panic!("clone handle {}: {e}", path.display()));
                    let sink = Box::new(BufWriter::new(CrashFile(file)));
                    let tracer =
                        Tracer::with_sink_resume(p, DEFAULT_BLOCK_EVENTS, sink, scan.blocks);
                    (sync, tracer)
                }
                None => {
                    let file = std::fs::File::create(&path)
                        .unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
                    let sync = file
                        .try_clone()
                        .unwrap_or_else(|e| panic!("clone handle {}: {e}", path.display()));
                    let sink = Box::new(BufWriter::new(CrashFile(file)));
                    let tracer = Tracer::with_sink(p, DEFAULT_BLOCK_EVENTS, sink)
                        .unwrap_or_else(|e| panic!("trace sink {}: {e}", path.display()));
                    (sync, tracer)
                }
            };
            let mut session = Session::new(p);
            session.tracer = tracer.clone();
            let sql = dss_query::sql_for(query, &params(query, seed));
            self.db
                .run(&sql, &mut session)
                .unwrap_or_else(|e| panic!("Q{query} (seed {seed}) failed: {e}"));
            crash_point("crash.trace.pre-finish");
            tracer
                .finish_sink()
                .unwrap_or_else(|e| panic!("finish {}: {e}", path.display()));
            // The end marker is on disk (buffered writer flushed by
            // `finish_sink`); make it durable before anything records this
            // file as usable.
            file.sync_all()
                .unwrap_or_else(|e| panic!("fsync {}: {e}", path.display()));
            paths.push(path);
        }
        fsync_dir(Some(&dir)).unwrap_or_else(|e| panic!("fsync dir {}: {e}", dir.display()));
        let src = FileTraceSource::new(paths);
        self.stream_cache.insert(key, src.clone());
        src
    }

    /// Generates per-processor traces where each processor runs a *stream*
    /// of queries back to back in one session (uncached: streams are used
    /// once).
    ///
    /// # Panics
    ///
    /// Panics if any query fails.
    pub fn stream_traces(&mut self, queries: &[u8], seed_base: u64) -> Vec<Trace> {
        let mut traces = Vec::with_capacity(self.nprocs);
        for p in 0..self.nprocs {
            let mut session = Session::new(p);
            for (i, q) in queries.iter().enumerate() {
                let seed = seed_base + (p + i * self.nprocs) as u64;
                let sql = dss_query::sql_for(*q, &params(*q, seed));
                self.db
                    .run(&sql, &mut session)
                    .unwrap_or_else(|e| panic!("Q{q} (seed {seed}) failed: {e}"));
            }
            traces.push(session.tracer.take());
        }
        traces
    }
}

/// What resume mode found at `path`: the salvage scan plus whether the
/// stream is complete. `None` means "regenerate from scratch" — no file, a
/// damaged header, or a file recorded for a different processor.
fn salvage_state(path: &Path, proc_id: usize) -> Option<(dss_trace::SalvageScan, bool)> {
    match salvage_scan_file(path) {
        Ok(scan) if scan.proc_id == proc_id => {
            let complete = scan.complete;
            Some((scan, complete))
        }
        _ => None,
    }
}

/// A [`Write`] wrapper arming the `crash.trace.block-write` crash site on
/// every write syscall reaching the trace file (beneath the sink's
/// [`BufWriter`]) — the crash campaign's way of dying inside a block flush.
/// Unarmed, the crash point is one relaxed atomic load per flush.
struct CrashFile(std::fs::File);

impl Write for CrashFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        crash_point("crash.trace.block-write");
        self.0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_cached_and_bounded() {
        let mut wb = Workbench::new(
            &DbConfig {
                scale: 0.001,
                nbuffers: 1024,
                ..DbConfig::default()
            },
            2,
        );
        let a = wb.traces(6, 0);
        let b = wb.traces(6, 0);
        assert!(Arc::ptr_eq(&a, &b), "second request served from cache");
        let _c = wb.traces(6, 100);
        let _d = wb.traces(3, 0); // evicts the oldest
        assert!(wb.cache.len() <= TRACE_CACHE_SLOTS);
    }

    #[test]
    fn trace_sets_outlive_eviction_and_cross_threads() {
        let mut wb = Workbench::new(
            &DbConfig {
                scale: 0.001,
                nbuffers: 1024,
                ..DbConfig::default()
            },
            2,
        );
        let a = wb.traces(6, 0);
        wb.clear_traces();
        // The evicted set is still alive through our clone, and usable from
        // another thread (TraceSet: Send + Sync).
        let events = std::thread::scope(|s| {
            let a = &a;
            s.spawn(move || a.iter().map(|t| t.events.len()).sum::<usize>())
                .join()
                .unwrap()
        });
        assert!(events > 0);
    }

    #[test]
    fn each_processor_gets_its_own_parameters() {
        let mut wb = Workbench::new(
            &DbConfig {
                scale: 0.001,
                nbuffers: 1024,
                ..DbConfig::default()
            },
            2,
        );
        let traces = wb.traces(6, 0);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].proc_id, 0);
        assert_eq!(traces[1].proc_id, 1);
        // Different parameters make different traces.
        assert_ne!(traces[0].events.len(), 0);
        assert_ne!(traces[0].events, traces[1].events);
    }

    #[test]
    fn regeneration_is_history_independent() {
        // The streaming redesign leans on this invariant: a (query, seed)
        // pair generates the same trace no matter what ran before it, so
        // cache-eviction order, cache sizing, and streamed-vs-materialized
        // generation order can never change simulation results.
        let mut wb = Workbench::new(
            &DbConfig {
                scale: 0.001,
                nbuffers: 1024,
                ..DbConfig::default()
            },
            2,
        );
        let a = wb.traces(6, 0);
        let _ = wb.traces(3, 0);
        let _ = wb.traces(12, 0);
        wb.clear_traces();
        let b = wb.traces(6, 0);
        assert_eq!(a[..], b[..], "regenerated traces must be identical");
    }

    #[test]
    fn streamed_files_replay_the_materialized_events() {
        use dss_trace::materialize;

        let mut wb = Workbench::new(
            &DbConfig {
                scale: 0.001,
                nbuffers: 1024,
                ..DbConfig::default()
            },
            2,
        );
        let dir = std::env::temp_dir().join(format!("dss-wb-stream-{}", std::process::id()));
        wb.set_trace_dir(dir.clone());
        wb.set_trace_mode(TraceMode::Streamed);
        let files = match wb.source(6, 0) {
            SimSource::Files(f) => f,
            SimSource::Set(_) => panic!("streamed mode yields files"),
        };
        let replayed = materialize(&files).unwrap();
        let in_memory = wb.traces(6, 0);
        assert_eq!(replayed[..], in_memory[..], "same events either way");
        // Second request reuses the recorded files.
        let again = match wb.source(6, 0) {
            SimSource::Files(f) => f,
            SimSource::Set(_) => panic!("streamed mode yields files"),
        };
        assert_eq!(files.paths(), again.paths());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_salvages_partial_and_reuses_complete_files() {
        let config = DbConfig {
            scale: 0.001,
            nbuffers: 1024,
            ..DbConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("dss-wb-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wb = Workbench::new(&config, 2);
        wb.set_trace_dir(dir.clone());
        wb.set_trace_mode(TraceMode::Streamed);
        let files = wb.trace_files(6, 0);
        let paths = files.paths().to_vec();
        let whole: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
        // Tear proc 0's file mid-block, as a crash inside a block write
        // would; tag proc 1's (complete) file past its end marker, where no
        // reader looks — if resume rewrote the file the tag would vanish.
        std::fs::write(&paths[0], &whole[0][..whole[0].len() - 9]).unwrap();
        let mut p1 = std::fs::OpenOptions::new()
            .append(true)
            .open(&paths[1])
            .unwrap();
        p1.write_all(b"JUNK").unwrap();
        drop(p1);

        let mut wb2 = Workbench::new(&config, 2);
        wb2.set_trace_dir(dir.clone());
        wb2.set_trace_mode(TraceMode::Streamed);
        wb2.set_resume(true);
        let _ = wb2.trace_files(6, 0);
        assert_eq!(
            std::fs::read(&paths[0]).unwrap(),
            whole[0],
            "partial file salvaged and completed to the original bytes"
        );
        let back = std::fs::read(&paths[1]).unwrap();
        assert_eq!(&back[..whole[1].len()], &whole[1][..]);
        assert!(
            back.ends_with(b"JUNK"),
            "complete file reused, not rewritten"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_resume_leftover_files_are_rewritten() {
        let config = DbConfig {
            scale: 0.001,
            nbuffers: 1024,
            ..DbConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("dss-wb-noresume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wb = Workbench::new(&config, 2);
        wb.set_trace_dir(dir.clone());
        wb.set_trace_mode(TraceMode::Streamed);
        let paths = wb.trace_files(6, 0).paths().to_vec();
        let whole = std::fs::read(&paths[0]).unwrap();
        std::fs::write(&paths[0], b"stale bytes from some other run").unwrap();

        let mut wb2 = Workbench::new(&config, 2);
        wb2.set_trace_dir(dir.clone());
        wb2.set_trace_mode(TraceMode::Streamed);
        let _ = wb2.trace_files(6, 0);
        assert_eq!(
            std::fs::read(&paths[0]).unwrap(),
            whole,
            "fresh mode regenerates from scratch"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jobs_default_and_clamp() {
        let mut wb = Workbench::new(
            &DbConfig {
                scale: 0.001,
                nbuffers: 1024,
                ..DbConfig::default()
            },
            2,
        );
        assert!(wb.jobs() >= 1);
        wb.set_jobs(0);
        assert_eq!(wb.jobs(), 1, "jobs clamps to at least one worker");
        let wb = wb.with_jobs(3);
        assert_eq!(wb.jobs(), 3);
    }

    #[test]
    fn labels() {
        assert_eq!(query_label(3), "Q3");
        assert_eq!(STUDIED_QUERIES, [3, 6, 12]);
    }
}
