//! The parallel simulation harness: fan independent sweep points across
//! scoped worker threads.
//!
//! A sweep point is a machine configuration plus an ordered list of trace
//! populations replayed on one fresh machine (see
//! [`crate::experiments`]'s `Point`); most points replay one population, the
//! inter-query reuse experiment replays a warm-up population first. Points
//! share no mutable state, so they can run on any number of threads with
//! bit-identical results to a serial run; only wall-clock changes. The paper
//! itself never needed this (its evaluation ran once); re-parameterized
//! replay studies do, and [`run_soft`] makes them embarrassingly parallel
//! with no dependencies beyond `std::thread::scope`.
//!
//! [`run_point`] replays a materialized [`crate::TraceSet`] in place and
//! block files on disk ([`dss_trace::FileTraceSource`]) one block at a time,
//! with bit-identical results — the latter without ever holding a full trace
//! in memory.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dss_memsim::{Machine, MachineConfig, SimStats};
use dss_trace::{PipelineStats, PipelinedTraceSource, ProcPrefix, TraceSource};

use crate::degrade::PointCause;
use crate::workload::SimSource;

/// Splits a total worker budget between simulation and trace production:
/// with `gen_jobs` producer threads per in-flight point, simulation points
/// get the remainder of `jobs` (at least one). `gen_jobs == 0` disables
/// pipelining, so the whole budget goes to simulation workers — the serial
/// producer path, bit-identical and thread-for-thread identical to before
/// pipelining existed.
pub fn split_jobs(jobs: usize, gen_jobs: usize) -> (usize, usize) {
    (jobs.max(1).saturating_sub(gen_jobs).max(1), gen_jobs)
}

/// One sweep point: replays `sources` in order on a fresh machine built
/// from `cfg` — cache state carries from each replay into the next — and
/// returns the statistics of the last replay.
///
/// Each replay covers the leading `cfg.nprocs` processors of its source, so
/// a config with fewer processors than the source has traces runs the
/// processor-scaling subset. A materialized set is fed to the machine in
/// place; block files stream one block at a time. With `gen_jobs > 0`,
/// block production instead runs on `gen_jobs` background workers behind
/// bounded channels ([`PipelinedTraceSource`]), the processor prefix applied
/// *inside* the pipeline so producers never pump streams the config won't
/// simulate. Every path gives bit-identical results.
///
/// # Panics
///
/// Panics if a source fails mid-stream (truncated or corrupt block files,
/// or a producer-side panic, which arrives in-band as a `pipeline`
/// [`dss_trace::TraceError`]), so the fail-soft runner classifies it like
/// any other point failure instead of hanging.
pub(crate) fn run_point(
    cfg: &MachineConfig,
    sources: &[SimSource],
    gen_jobs: usize,
    pipe: &Arc<PipelineStats>,
) -> SimStats {
    let mut machine = Machine::new(cfg.clone());
    let mut stats = SimStats::default();
    for src in sources {
        let take = cfg.nprocs.min(src.nprocs());
        let replayed = match src {
            _ if gen_jobs > 0 => machine.run_source(
                &PipelinedTraceSource::new(ProcPrefix::new(src.clone(), take), gen_jobs)
                    .shared_stats(Arc::clone(pipe)),
            ),
            SimSource::Set(set) => Ok(machine.run(&set[..take])),
            SimSource::Files(files) => machine.run_source(&ProcPrefix::new(files, take)),
        };
        stats = replayed.unwrap_or_else(|e| panic!("trace stream failed: {e}"));
    }
    stats
}

/// A point failure as the runner sees it: the public classification plus the
/// original panic payload, so hard-mode callers can re-raise it unchanged.
pub(crate) struct SoftFailure {
    /// The classification exposed as [`crate::PointError`].
    pub cause: PointCause,
    /// The panic payload, when the cause was a panic.
    pub payload: Option<Box<dyn Any + Send>>,
}

/// Renders a panic payload the way the default hook would.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `points` on up to `jobs` threads, preserving order, with each point
/// under `catch_unwind` and an optional per-point `deadline`.
///
/// A panicking point yields `Err(SoftFailure)` carrying its payload; the
/// remaining points still run (the scope is never poisoned). With a deadline
/// set, a watchdog thread flags points that outrun it — the flagged point's
/// result is *discarded* (classified [`PointCause::TimedOut`]) even if the
/// computation eventually finishes, so outputs never depend on how late a
/// slow point was. The watchdog classifies and warns; it cannot preempt a
/// runaway simulation, so a wedged point still delays completion of the run
/// (but no longer decides its outcome).
///
/// With no deadline and no panics, results are bit-identical at any job
/// count.
pub(crate) fn run_soft<T, F>(
    jobs: usize,
    points: &[F],
    deadline: Option<Duration>,
) -> Vec<Result<T, SoftFailure>>
where
    T: Send,
    F: Fn() -> T + Sync,
{
    let classify = |started: Instant, flagged: bool, outcome: Result<T, Box<dyn Any + Send>>| {
        let late = deadline.is_some_and(|d| flagged || started.elapsed() > d);
        match outcome {
            _ if late => Err(SoftFailure {
                cause: PointCause::TimedOut {
                    limit_ms: deadline.unwrap_or_default().as_millis() as u64,
                },
                payload: None,
            }),
            Ok(v) => Ok(v),
            Err(payload) => Err(SoftFailure {
                cause: PointCause::Panicked(panic_message(payload.as_ref())),
                payload: Some(payload),
            }),
        }
    };
    if jobs <= 1 || points.len() <= 1 {
        return points
            .iter()
            .map(|f| {
                let started = Instant::now();
                classify(started, false, catch_unwind(AssertUnwindSafe(f)))
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    // Per-point watchdog state: nanoseconds since `base` when the point
    // started (0 = not started), and whether the watchdog flagged it.
    let base = Instant::now();
    let started_at: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
    let flagged: Vec<AtomicBool> = (0..points.len()).map(|_| AtomicBool::new(false)).collect();
    let results: Mutex<Vec<Option<Result<T, SoftFailure>>>> =
        Mutex::new((0..points.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(points.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(f) = points.get(i) else {
                    break;
                };
                let started = Instant::now();
                started_at[i].store(base.elapsed().as_nanos().max(1) as u64, Ordering::Release);
                let outcome = catch_unwind(AssertUnwindSafe(f));
                // Mark the point finished before reading its flag, so the
                // watchdog stops considering it.
                started_at[i].store(u64::MAX, Ordering::Release);
                done.fetch_add(1, Ordering::Release);
                let slot = classify(started, flagged[i].load(Ordering::Acquire), outcome);
                results.lock().expect("no poisoned workers")[i] = Some(slot);
            });
        }
        if let Some(limit) = deadline {
            let (done, started_at, flagged) = (&done, &started_at, &flagged);
            scope.spawn(move || {
                let tick = (limit / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
                while done.load(Ordering::Acquire) < points.len() {
                    std::thread::sleep(tick);
                    let now = base.elapsed().as_nanos() as u64;
                    for i in 0..points.len() {
                        let at = started_at[i].load(Ordering::Acquire);
                        if at != 0
                            && at != u64::MAX
                            && !flagged[i].load(Ordering::Acquire)
                            && now.saturating_sub(at) > limit.as_nanos() as u64
                        {
                            flagged[i].store(true, Ordering::Release);
                            eprintln!(
                                "  watchdog: sweep point {i} exceeded its {limit:?} deadline — \
                                 its result will be discarded"
                            );
                        }
                    }
                }
            });
        }
    });
    results
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|slot| slot.expect("every point ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::TraceSet;
    use dss_shmem::SHARED_BASE;
    use dss_trace::{DataClass, TraceError, Tracer};

    fn synthetic_set(nprocs: usize) -> TraceSet {
        (0..nprocs)
            .map(|p| {
                let t = Tracer::new(p);
                for i in 0..2000u64 {
                    t.read(
                        SHARED_BASE + (i * 61 + p as u64 * 13) % 65_536,
                        8,
                        DataClass::Data,
                    );
                    t.busy((i % 5) as u32);
                    t.write(dss_shmem::private_base(p) + i * 24, 8, DataClass::PrivHeap);
                }
                t.take()
            })
            .collect::<Vec<_>>()
            .into()
    }

    /// Runs one single-source point per config under [`run_soft`] with
    /// `jobs` workers, as the workbench's runner does.
    fn sweep(
        src: &SimSource,
        configs: &[MachineConfig],
        jobs: usize,
        gen_jobs: usize,
    ) -> Vec<SimStats> {
        let pipe = PipelineStats::shared();
        let points: Vec<_> = configs
            .iter()
            .map(|cfg| {
                let (src, pipe) = (std::slice::from_ref(src), &pipe);
                move || run_point(cfg, src, gen_jobs, pipe)
            })
            .collect();
        let (sim_jobs, _) = split_jobs(jobs, gen_jobs);
        run_soft(sim_jobs, &points, None)
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|f| panic!("point failed: {}", f.cause)))
            .collect()
    }

    fn line_configs() -> Vec<MachineConfig> {
        [16u64, 32, 64, 128]
            .iter()
            .map(|&l| MachineConfig::baseline().with_line_size(l))
            .collect()
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let src = SimSource::Set(synthetic_set(4));
        let serial = sweep(&src, &line_configs(), 1, 0);
        for jobs in [2, 4, 9] {
            let parallel = sweep(&src, &line_configs(), jobs, 0);
            assert_eq!(serial, parallel, "jobs={jobs} must not change results");
        }
    }

    #[test]
    fn point_order_is_preserved() {
        let points: Vec<_> = (0..17usize)
            .map(|i| {
                move || {
                    // Uneven work so workers finish out of order.
                    std::thread::sleep(Duration::from_millis((17 - i as u64) % 5));
                    i
                }
            })
            .collect();
        let out: Vec<usize> = run_soft(4, &points, None)
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|_| panic!("no point fails")))
            .collect();
        assert_eq!(out, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn empty_point_list_is_fine() {
        let points: [fn() -> u32; 0] = [];
        for jobs in [1, 4] {
            assert!(run_soft(jobs, &points, Some(Duration::ZERO)).is_empty());
        }
    }

    #[test]
    fn file_backed_source_matches_materialized_sweep() {
        use dss_trace::FileTraceSource;

        let traces = synthetic_set(3);
        let dir = std::env::temp_dir().join(format!("dss-sim-src-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let paths: Vec<_> = traces
            .iter()
            .map(|t| {
                let path = FileTraceSource::proc_path(&dir, "synthetic", t.proc_id);
                let mut bytes = Vec::new();
                dss_trace::write_trace_blocks(t, &mut bytes, 256).unwrap();
                std::fs::write(&path, bytes).unwrap();
                path
            })
            .collect();
        let files = SimSource::Files(FileTraceSource::new(paths));
        let configs: Vec<MachineConfig> = (1..=3)
            .map(|n| MachineConfig::baseline().with_processors(n))
            .collect();
        let materialized = sweep(&SimSource::Set(traces), &configs, 2, 0);
        let streamed = sweep(&files, &configs, 2, 0);
        assert_eq!(materialized, streamed, "block files replay bit-identically");
        for (i, s) in materialized.iter().enumerate() {
            let active = s.procs.iter().filter(|p| p.cycles > 0).count();
            assert_eq!(
                active,
                i + 1,
                "point {i} ran its {}-processor prefix",
                i + 1
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_source_point_carries_cache_state() {
        let set = SimSource::Set(synthetic_set(2));
        let cfg = MachineConfig::baseline().with_processors(2);
        let pipe = PipelineStats::shared();
        let cold = run_point(&cfg, std::slice::from_ref(&set), 0, &pipe);
        let warm = run_point(&cfg, &[set.clone(), set.clone()], 0, &pipe);
        assert!(
            warm.l2.read_misses.total() < cold.l2.read_misses.total(),
            "the second replay hits in caches the first one warmed"
        );
        assert_eq!(warm, run_point(&cfg, &[set.clone(), set], 2, &pipe));
    }

    #[test]
    fn split_jobs_budget() {
        assert_eq!(split_jobs(4, 0), (4, 0), "gen off: all workers simulate");
        assert_eq!(split_jobs(4, 2), (2, 2));
        assert_eq!(split_jobs(2, 2), (1, 2), "simulation always keeps a worker");
        assert_eq!(split_jobs(0, 1), (1, 1), "zero budget still runs");
    }

    #[test]
    fn pipelined_matches_serial_bit_for_bit() {
        let src = SimSource::Set(synthetic_set(4));
        let serial = sweep(&src, &line_configs(), 1, 0);
        for (jobs, gen_jobs) in [(1, 1), (4, 2), (2, 4), (3, 0)] {
            let piped = sweep(&src, &line_configs(), jobs, gen_jobs);
            assert_eq!(
                serial, piped,
                "jobs={jobs} gen_jobs={gen_jobs} must not change results"
            );
        }
    }

    /// A source whose processor-0 stream panics partway through: the shape
    /// of any producer-side bug under pipelining.
    #[derive(Clone)]
    struct PanicySource;

    struct PanicyStream {
        left: usize,
    }

    impl dss_trace::EventStream for PanicyStream {
        fn proc_id(&self) -> usize {
            0
        }

        fn next_block(&mut self, buf: &mut Vec<dss_trace::Event>) -> Result<usize, TraceError> {
            buf.clear();
            if self.left == 0 {
                panic!("synthetic producer failure");
            }
            self.left -= 1;
            buf.push(dss_trace::Event::Busy(1));
            Ok(1)
        }
    }

    impl TraceSource for PanicySource {
        fn nprocs(&self) -> usize {
            1
        }

        fn open(&self) -> Result<Vec<Box<dyn dss_trace::EventStream + '_>>, TraceError> {
            Ok(vec![Box::new(PanicyStream { left: 2 })])
        }
    }

    /// The fail-soft guarantee: a producer panic on a pipeline worker thread
    /// surfaces as a structured, `Panicked`-classified point failure —
    /// promptly, with the watchdog armed, never as a deadlock.
    #[test]
    fn producer_panic_is_a_classified_point_failure_not_a_hang() {
        let cfg = MachineConfig::baseline().with_processors(1);
        let points = [|| {
            Machine::new(cfg.clone())
                .run_source(&PipelinedTraceSource::new(PanicySource, 2))
                .unwrap_or_else(|e| panic!("trace stream failed: {e}"))
        }];
        let started = Instant::now();
        let outcomes = run_soft(2, &points, Some(Duration::from_secs(5)));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "failure must surface without waiting out the watchdog"
        );
        let failure = match outcomes.into_iter().next() {
            Some(Err(f)) => f,
            _ => panic!("expected a point failure"),
        };
        match &failure.cause {
            PointCause::Panicked(msg) => {
                assert!(msg.contains("trace stream failed"), "{msg}");
                assert!(
                    msg.contains("pipeline") || msg.contains("panicked"),
                    "{msg}"
                );
            }
            other => panic!("expected Panicked, got {other}"),
        }
        // The classification is exactly what fail-soft sweeps expose.
        let err = crate::degrade::PointError {
            site: "test/pipeline".into(),
            cause: failure.cause,
            seed: 0,
        };
        assert!(err.to_string().contains("test/pipeline"));
    }
}
