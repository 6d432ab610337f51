//! Runners for every table and figure in the paper's evaluation.
//!
//! The experiment API lives on [`Workbench`]: each method describes its
//! sweep points — a label, a machine configuration, and the trace
//! populations to replay — and hands them to the workbench's one sweep-point
//! runner, which serves journaled points, generates the traces the rest
//! need, and fans them across up to [`Workbench::jobs`] worker threads with
//! results bit-identical to a serial run at any job count. The returned
//! structs carry raw [`SimStats`]; rendering to the paper's chart shapes
//! lives in [`crate::report`].
//!
//! Every sweep consumes its traces through [`crate::SimSource`], so the same
//! experiment code runs over materialized sets or streamed block files
//! (see [`crate::TraceMode`]) with bit-identical results.

use std::panic::resume_unwind;
use std::sync::atomic::Ordering;
use std::time::Instant;

use dss_faultkit::crash::crash_point;
use dss_memsim::{MachineConfig, SimStats};
use dss_query::{Database, PlanFeatures};
use dss_tpcd::params;
use dss_trace::Trace;

use crate::degrade::PointError;
use crate::sim::{run_point, run_soft, SoftFailure};
use crate::workload::{query_label, SimSource, Workbench};

/// L2 line sizes swept by Figures 8 and 9 (L1 lines are half).
pub const LINE_SIZES: [u64; 5] = [16, 32, 64, 128, 256];

/// `(L1 KB, L2 KB)` cache sizes swept by Figures 10 and 11, from the
/// baseline "4-Kbyte primary and 128-Kbyte secondary caches to 256-Kbyte
/// primary and 8-Mbyte secondary caches".
pub const CACHE_SIZES_KB: [(u64, u64); 4] = [(4, 128), (16, 512), (64, 2048), (256, 8192)];

/// The very large caches of the inter-query reuse experiment (Figure 12):
/// "a 1-Mbyte primary cache and a 32-Mbyte secondary cache … to identify the
/// upper bound on the data reuse".
pub const REUSE_CACHES_KB: (u64, u64) = (1024, 32 * 1024);

/// The prefetch degree of Section 6: four primary-cache lines.
pub const PREFETCH_LINES: u32 = 4;

/// Prefetch degrees swept by the prefetch-depth ablation.
pub const PREFETCH_DEGREES: [u32; 5] = [0, 1, 2, 4, 8];

/// Processor counts swept by the scaling experiment.
pub const PROC_COUNTS: [usize; 3] = [1, 2, 4];

/// Baseline simulation of one query type (Figures 6 and 7, and the quoted
/// miss rates).
#[derive(Clone, Debug)]
pub struct QueryBaseline {
    /// The query (3, 6, or 12).
    pub query: u8,
    /// Simulation results at the baseline machine.
    pub stats: SimStats,
}

/// One point of the line-size sweep.
#[derive(Clone, Debug)]
pub struct LinePoint {
    /// Secondary-cache line size in bytes.
    pub l2_line: u64,
    /// Results.
    pub stats: SimStats,
}

/// One point of the cache-size sweep.
#[derive(Clone, Debug)]
pub struct CachePoint {
    /// Primary cache size in KB.
    pub l1_kb: u64,
    /// Secondary cache size in KB.
    pub l2_kb: u64,
    /// Results.
    pub stats: SimStats,
}

/// Figure 12 results for one measured query: cold caches, caches warmed by
/// another instance of the same query (different parameters), and caches
/// warmed by the other query type.
#[derive(Clone, Debug)]
pub struct ReuseSet {
    /// The measured query.
    pub query: u8,
    /// The other query type used for the third warm-up.
    pub other: u8,
    /// Cold-start run.
    pub cold: SimStats,
    /// Run after warming with the same query type, different parameters.
    pub warm_same: SimStats,
    /// Run after warming with `other`.
    pub warm_other: SimStats,
}

/// Figure 13 results for one query: baseline vs. baseline plus the simple
/// sequential prefetcher for database data.
#[derive(Clone, Debug)]
pub struct PrefetchPair {
    /// The query.
    pub query: u8,
    /// Baseline run.
    pub base: SimStats,
    /// Run with 4-line data prefetching.
    pub opt: SimStats,
}

impl PrefetchPair {
    /// Relative execution-time change of the optimized run (negative =
    /// speedup).
    pub fn delta(&self) -> f64 {
        self.opt.exec_cycles() as f64 / self.base.exec_cycles() as f64 - 1.0
    }
}

/// Coherence-protocol ablation for one query: the paper's MSI baseline
/// against a MESI variant whose exclusive-clean state absorbs first writes.
#[derive(Clone, Debug)]
pub struct ProtocolAblation {
    /// The query.
    pub query: u8,
    /// The paper's protocol.
    pub msi: SimStats,
    /// The MESI variant.
    pub mesi: SimStats,
}

/// One sweep point: a label (its checkpoint-journal key and sabotage
/// target), a machine configuration, and the trace populations replayed in
/// order on one fresh machine. The point's result is the statistics of the
/// last replay; earlier replays only warm the caches.
struct Point {
    label: String,
    cfg: MachineConfig,
    sources: Vec<PointSource>,
}

/// A trace population a [`Point`] replays.
enum PointSource {
    /// `(query, seed_base)`, resolved through [`Workbench::source`] only
    /// when the point actually has to be simulated.
    Query(u8, u64),
    /// A population the experiment generated itself.
    Given(SimSource),
}

impl Point {
    /// A point replaying `query`'s seed-0 population once (the common
    /// sweep shape).
    fn query(label: String, cfg: MachineConfig, query: u8) -> Point {
        Point {
            label,
            cfg,
            sources: vec![PointSource::Query(query, 0)],
        }
    }

    /// A point replaying a set the experiment traced itself on the
    /// baseline machine.
    fn given(label: String, traces: Vec<Trace>) -> Point {
        Point {
            label,
            cfg: MachineConfig::baseline(),
            sources: vec![PointSource::Given(SimSource::Set(traces.into()))],
        }
    }
}

impl Workbench {
    /// The one sweep-point runner: fans `points` across this workbench's
    /// [`Workbench::jobs`] worker threads, recording compute time for
    /// [`Workbench::take_sim_compute`]. Results come back in point order at
    /// any job count.
    ///
    /// With a checkpoint journal attached ([`Workbench::set_checkpoint`]),
    /// points the journal already holds are served from it before anything
    /// else happens — no trace generation, no simulation, no sabotage, no
    /// compute time — and each newly computed point is durably appended the
    /// moment its worker finishes it, so an interrupted sweep resumes from
    /// the last completed point, not the last completed experiment. The
    /// remaining points' sources are then resolved in point order.
    ///
    /// Fail-hard (the default): a panicking point propagates and every slot
    /// is `Some`. Fail-soft ([`Workbench::set_fail_soft`]): each point runs
    /// under `catch_unwind` with the optional point deadline, a failed point
    /// is recorded as a [`PointError`] under its label and yields `None`,
    /// and the remaining points still run. The sabotage hook
    /// ([`Workbench::set_sabotage`]) panics the matching point in either
    /// mode.
    fn fan_out_labeled(&mut self, points: Vec<Point>) -> Vec<Option<SimStats>> {
        // Every point is journaled under seed 0; its sources carry their
        // own seed bases.
        let seed = 0;
        let preloaded: Vec<Option<SimStats>> = points
            .iter()
            .map(|point| {
                self.checkpoint.as_ref().and_then(|j| {
                    j.lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .lookup(&point.label, seed)
                        .cloned()
                })
            })
            .collect();
        let nloaded = preloaded.iter().filter(|p| p.is_some()).count() as u64;
        self.ckpt_loaded.fetch_add(nloaded, Ordering::Relaxed);
        if let Some(target) = &self.sabotage {
            self.sabotage_matched |= points.iter().any(|p| &p.label == target);
        }
        // Sources come next (trace generation needs `&mut self`); the
        // workers then share them immutably. Each distinct population is
        // resolved once, in order of first use, and held here for the whole
        // call even if the trace cache evicts it meanwhile.
        let mut held: Vec<((u8, u64), SimSource)> = Vec::new();
        let mut resolved: Vec<Vec<SimSource>> = Vec::with_capacity(points.len());
        for (point, pre) in points.iter().zip(&preloaded) {
            let mut sources = Vec::new();
            for src in point.sources.iter().filter(|_| pre.is_none()) {
                sources.push(match *src {
                    PointSource::Query(q, seed_base) => {
                        match held.iter().find(|(key, _)| *key == (q, seed_base)) {
                            Some((_, src)) => src.clone(),
                            None => {
                                let src = self.source(q, seed_base);
                                held.push(((q, seed_base), src.clone()));
                                src
                            }
                        }
                    }
                    PointSource::Given(ref src) => src.clone(),
                });
            }
            resolved.push(sources);
        }

        let checkpoint = self.checkpoint.as_ref();
        let sabotage = self.sabotage.as_deref();
        let clock = &self.sim_nanos;
        let computed_ctr = &self.ckpt_computed;
        let tasks: Vec<_> = points
            .iter()
            .zip(&resolved)
            .zip(&preloaded)
            .map(|((point, sources), pre)| {
                let label = &point.label;
                move || {
                    if let Some(stats) = pre {
                        return stats.clone();
                    }
                    if sabotage == Some(label.as_str()) {
                        panic!("injected: sweep point {label} sabotaged");
                    }
                    let start = Instant::now();
                    let stats = run_point(&point.cfg, sources);
                    clock.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    if let Some(journal) = checkpoint {
                        crash_point("crash.point.pre-journal");
                        let mut journal = journal.lock().unwrap_or_else(|p| p.into_inner());
                        if let Err(e) = journal.append(label, seed, &stats) {
                            // A journal that stops persisting degrades resume,
                            // not correctness: the sweep carries on.
                            eprintln!("checkpoint append failed for {label}: {e}");
                        }
                        drop(journal);
                        crash_point("crash.point.post-journal");
                    }
                    computed_ctr.fetch_add(1, Ordering::Relaxed);
                    stats
                }
            })
            .collect();
        let deadline = if self.fail_soft {
            self.point_deadline
        } else {
            None
        };
        let outcomes = run_soft(self.jobs(), &tasks, deadline);
        drop(tasks);
        outcomes
            .into_iter()
            .zip(points)
            .map(|(outcome, point)| match outcome {
                Ok(stats) => Some(stats),
                Err(failure) if self.fail_soft => {
                    self.point_errors.push(PointError {
                        site: point.label,
                        cause: failure.cause,
                        seed,
                    });
                    None
                }
                Err(SoftFailure {
                    payload: Some(payload),
                    ..
                }) => resume_unwind(payload),
                Err(failure) => panic!("sweep point {} failed: {}", point.label, failure.cause),
            })
            .collect()
    }

    /// Fans `(label, config)` points over `query`'s seed-0 population.
    fn sweep(
        &mut self,
        query: u8,
        points: impl IntoIterator<Item = (String, MachineConfig)>,
    ) -> Vec<Option<SimStats>> {
        let points = points
            .into_iter()
            .map(|(label, cfg)| Point::query(label, cfg, query))
            .collect();
        self.fan_out_labeled(points)
    }

    /// Runs the baseline architecture for one query.
    ///
    /// # Panics
    ///
    /// Panics if the point fails — even in fail-soft mode, since there is no
    /// partial result to return (the failure is still recorded first).
    pub fn baseline_run(&mut self, query: u8) -> QueryBaseline {
        let mut suite = self.baseline_suite(&[query]);
        assert!(
            !suite.is_empty(),
            "baseline point for Q{query} failed (see point errors)"
        );
        suite.remove(0)
    }

    /// Runs the baseline for a set of queries (default: the three studied
    /// ones), one sweep point per query. In fail-soft mode, failed points
    /// are skipped (and recorded as [`PointError`]s).
    pub fn baseline_suite(&mut self, queries: &[u8]) -> Vec<QueryBaseline> {
        let points = queries
            .iter()
            .map(|&q| Point::query(format!("fig6/Q{q}/baseline"), MachineConfig::baseline(), q))
            .collect();
        let stats = self.fan_out_labeled(points);
        queries
            .iter()
            .zip(stats)
            .filter_map(|(&query, stats)| stats.map(|stats| QueryBaseline { query, stats }))
            .collect()
    }

    /// Figures 8 and 9: sweep the cache line size for one query. In
    /// fail-soft mode, failed points are skipped (and recorded).
    pub fn line_size_sweep(&mut self, query: u8) -> Vec<LinePoint> {
        let stats = self.sweep(
            query,
            LINE_SIZES.iter().map(|&l| {
                let cfg = MachineConfig::baseline().with_line_size(l);
                (format!("fig8/Q{query}/l2_line={l}"), cfg)
            }),
        );
        LINE_SIZES
            .iter()
            .zip(stats)
            .filter_map(|(&l2_line, stats)| stats.map(|stats| LinePoint { l2_line, stats }))
            .collect()
    }

    /// Figures 10 and 11: sweep the cache sizes for one query (64-byte L2
    /// lines, as the paper uses for its temporal-locality studies).
    pub fn cache_size_sweep(&mut self, query: u8) -> Vec<CachePoint> {
        let stats = self.sweep(
            query,
            CACHE_SIZES_KB.iter().map(|&(l1, l2)| {
                let cfg = MachineConfig::baseline().with_cache_sizes(l1 * 1024, l2 * 1024);
                (format!("fig10/Q{query}/l1_kb={l1}_l2_kb={l2}"), cfg)
            }),
        );
        CACHE_SIZES_KB
            .iter()
            .zip(stats)
            .filter_map(|(&(l1_kb, l2_kb), stats)| {
                stats.map(|stats| CachePoint {
                    l1_kb,
                    l2_kb,
                    stats,
                })
            })
            .collect()
    }

    /// Figure 13: the Section 6 prefetching experiment.
    ///
    /// # Panics
    ///
    /// Panics if either point fails — the pair is meaningless without both
    /// (in fail-soft mode the failure is still recorded first).
    pub fn prefetch_experiment(&mut self, query: u8) -> PrefetchPair {
        let opt = MachineConfig::baseline().with_data_prefetch(PREFETCH_LINES);
        let [base, opt] = self.run_all(
            &format!("fig13/Q{query}"),
            [
                Point::query(
                    format!("fig13/Q{query}/prefetch=0"),
                    MachineConfig::baseline(),
                    query,
                ),
                Point::query(
                    format!("fig13/Q{query}/prefetch={PREFETCH_LINES}"),
                    opt,
                    query,
                ),
            ],
        );
        PrefetchPair { query, base, opt }
    }

    /// Sweeps the sequential-prefetch degree (the paper fixes it at 4).
    pub fn prefetch_degree_sweep(&mut self, query: u8) -> Vec<(u32, SimStats)> {
        let stats = self.sweep(
            query,
            PREFETCH_DEGREES.iter().map(|&d| {
                let cfg = MachineConfig::baseline().with_data_prefetch(d);
                (format!("prefetch-depth/Q{query}/degree={d}"), cfg)
            }),
        );
        PREFETCH_DEGREES
            .iter()
            .copied()
            .zip(stats)
            .filter_map(|(d, stats)| stats.map(|stats| (d, stats)))
            .collect()
    }

    /// Runs the MSI-vs-MESI ablation.
    ///
    /// # Panics
    ///
    /// Panics if either point fails — the ablation is meaningless without
    /// both (in fail-soft mode the failure is still recorded first).
    pub fn protocol_ablation(&mut self, query: u8) -> ProtocolAblation {
        let mesi = MachineConfig::baseline().with_protocol(dss_memsim::Protocol::Mesi);
        let [msi, mesi] = self.run_all(
            &format!("protocol/Q{query}"),
            [
                Point::query(
                    format!("protocol/Q{query}/msi"),
                    MachineConfig::baseline(),
                    query,
                ),
                Point::query(format!("protocol/Q{query}/mesi"), mesi, query),
            ],
        );
        ProtocolAblation { query, msi, mesi }
    }

    /// Scales the machine from one to four processors, running one query
    /// instance per processor (the paper's inter-query parallelism model).
    /// Each point reports how metalock spinning and coherence misses grow.
    pub fn processor_sweep(&mut self, query: u8) -> Vec<(usize, SimStats)> {
        // Each point replays the leading `nprocs` traces, which is exactly
        // the scaling subset.
        let stats = self.sweep(
            query,
            PROC_COUNTS.iter().map(|&n| {
                let cfg = MachineConfig::baseline().with_processors(n);
                (format!("scaling/Q{query}/nprocs={n}"), cfg)
            }),
        );
        PROC_COUNTS
            .iter()
            .copied()
            .zip(stats)
            .filter_map(|(n, stats)| stats.map(|stats| (n, stats)))
            .collect()
    }

    /// Figure 12: inter-query temporal locality with very large caches.
    ///
    /// Three points, one per arm, each on its own machine: cold replays the
    /// measured set alone; warm-same and warm-other first replay a warm-up
    /// set (the same query type with other parameters, or `other`) and
    /// report the measured replay that follows. The arms are independent
    /// and fan across the workbench's workers like any sweep; the
    /// within-point warm→measured order is what carries the cache-reuse
    /// effect. Sets are generated measured first, then the two warm-ups.
    ///
    /// # Panics
    ///
    /// Panics if any arm fails — the comparison is meaningless without all
    /// three (in fail-soft mode the failure is still recorded first).
    pub fn reuse_experiment(&mut self, query: u8, other: u8) -> ReuseSet {
        let (l1_kb, l2_kb) = REUSE_CACHES_KB;
        let cfg = MachineConfig::baseline().with_cache_sizes(l1_kb * 1024, l2_kb * 1024);
        let arms = [
            ("cold", None),
            ("warm_same", Some((query, 1000))),
            ("warm_other", Some((other, 1000))),
        ];
        let points = arms.map(|(arm, warm)| Point {
            label: format!("fig12/Q{query}v{other}/{arm}"),
            cfg: cfg.clone(),
            sources: warm
                .into_iter()
                .chain([(query, 0)])
                .map(|(q, seed_base)| PointSource::Query(q, seed_base))
                .collect(),
        });
        let [cold, warm_same, warm_other] =
            self.run_all(&format!("fig12/Q{query}v{other}"), points);
        ReuseSet {
            query,
            other,
            cold,
            warm_same,
            warm_other,
        }
    }

    /// Runs `points` and returns every result, for an experiment that is
    /// meaningless without all of them.
    ///
    /// # Panics
    ///
    /// Panics if any point fails (in fail-soft mode the failure is still
    /// recorded first).
    fn run_all<const N: usize>(&mut self, experiment: &str, points: [Point; N]) -> [SimStats; N] {
        let mut stats = self.fan_out_labeled(points.into()).into_iter();
        std::array::from_fn(|_| {
            stats
                .next()
                .flatten()
                .unwrap_or_else(|| panic!("{experiment} lost a sweep point (see point errors)"))
        })
    }
}

/// Table 1: the operator matrix of all seventeen read-only queries.
pub fn table1(db: &Database) -> Vec<(u8, PlanFeatures)> {
    (1..=17u8)
        .map(|q| {
            let sql = dss_query::sql_for(q, &params(q, 1));
            let plan = db
                .plan_sql(&sql)
                .unwrap_or_else(|e| panic!("Q{q} failed to plan: {e}"));
            (q, plan.features())
        })
        .collect()
}

/// The paper's quoted absolute miss rates: per query, the primary-cache read
/// miss rate and the "global" secondary-cache read miss rate.
#[derive(Clone, Copy, Debug)]
pub struct MissRates {
    /// The query.
    pub query: u8,
    /// L1 read miss rate (fraction).
    pub l1: f64,
    /// L2 misses over all processor loads (fraction).
    pub l2_global: f64,
}

/// Computes miss rates from a baseline run.
pub fn miss_rates(baseline: &QueryBaseline) -> MissRates {
    MissRates {
        query: baseline.query,
        l1: baseline.stats.l1.read_miss_rate(),
        l2_global: baseline.stats.l2_global_read_miss_rate(),
    }
}

// ---------------------------------------------------------------------------
// Extension experiments beyond the paper's figures: ablations of the design
// choices its architecture section fixes, and the processor-scaling question
// its future-work section raises. These trace *while* executing updates or
// rewritten plans, so they generate their own trace sets and hand them to
// the workbench's sweep-point runner.
// ---------------------------------------------------------------------------

/// Results of the update-workload extension: four processors each running a
/// UF1 (insert new orders) followed by a UF2 (delete old ones).
#[derive(Clone, Debug)]
pub struct UpdateRuns {
    /// Baseline simulation of the four update streams.
    pub stats: SimStats,
    /// Orders + lineitems inserted across all processors.
    pub inserted: u64,
    /// Tuples deleted across all processors.
    pub deleted: u64,
}

/// The update-workload extension: the paper declines to trace TPC-D's update
/// functions (Postgres95's relation-level locking would serialize them);
/// here each processor's UF1/UF2 pair touches a disjoint key range, exposing
/// the *memory-system* cost of writes — ownership misses on data pages,
/// write-buffer pressure, and index-maintenance traffic.
///
/// Builds its own database at `scale` so the workbench's image stays
/// pristine; the simulation runs through `wb`'s sweep-point runner.
///
/// # Panics
///
/// Panics if a refresh statement fails, or if the point fails (in fail-soft
/// mode the failure is still recorded first).
pub fn update_experiment(wb: &mut Workbench, scale: f64) -> UpdateRuns {
    use dss_query::{
        insert_lineitems_sql, insert_orders_sql, uf2_sql, Database, DbConfig, Session,
    };
    use dss_tpcd::Generator;

    let config = DbConfig {
        scale,
        ..DbConfig::default()
    };
    let mut db = Database::build(&config);
    let generator = Generator::new(config.scale, config.seed);
    let norders = db.catalog.table("orders").expect("orders").heap.ntuples() as i64;
    // UF1/UF2 touch 0.1% of orders each, the spec's refresh fraction.
    let per_proc = ((norders / 1000) as usize).max(4);

    let mut traces = Vec::new();
    let mut inserted = 0;
    let mut deleted = 0;
    for p in 0..4usize {
        let mut session = Session::new(p);
        // UF1: fresh orders in a per-processor key range above the population.
        let base = 10_000_000 + (p as i64) * 1_000_000;
        let (orders, lineitems) = generator.uf1_rows(p as u64, per_proc, base);
        inserted += db
            .execute(&insert_orders_sql(&orders), &mut session)
            .expect("UF1 orders")
            .affected()
            .expect("write");
        inserted += db
            .execute(&insert_lineitems_sql(&lineitems), &mut session)
            .expect("UF1 lineitems")
            .affected()
            .expect("write");
        // UF2: delete a disjoint slice of the original population.
        let lo = 1 + (p as i64) * per_proc as i64;
        let hi = lo + per_proc as i64 - 1;
        for sql in uf2_sql(lo, hi) {
            deleted += db
                .execute(&sql, &mut session)
                .expect("UF2")
                .affected()
                .expect("write");
        }
        traces.push(session.tracer.take());
    }
    let [stats] = wb.run_all(
        "ext-updates",
        [Point::given("ext-updates/baseline".into(), traces)],
    );
    UpdateRuns {
        stats,
        inserted,
        deleted,
    }
}

/// Results of the intra-query-parallelism extension: Q6 executed by one
/// processor vs. partitioned across four (each scanning a quarter of
/// `lineitem` and computing a partial aggregate).
#[derive(Clone, Debug)]
pub struct IntraQueryRuns {
    /// Single-processor full scan.
    pub single: SimStats,
    /// Four processors scanning disjoint quarters concurrently.
    pub partitioned: SimStats,
    /// The partial aggregates, summed (for a correctness cross-check).
    pub partial_sum: i64,
    /// The single-processor aggregate.
    pub full_sum: i64,
}

/// The intra-query-parallelism extension (the paper's closing future-work
/// item): partition Q6's sequential scan across the processors by heap block
/// range — each node aggregates its fragment; a real system would combine
/// the partials for free.
///
/// # Panics
///
/// Panics if Q6 fails, or if either point fails (in fail-soft mode the
/// failure is still recorded first).
pub fn intra_query_experiment(wb: &mut Workbench) -> IntraQueryRuns {
    use dss_query::Session;
    use dss_tpcd::params;

    let p = params(6, 0);
    let sql = dss_query::sql_for(6, &p);

    // Single-processor baseline: the ordinary Q6 plan on processor 0.
    let mut session = Session::new(0);
    let out = wb.db.run(&sql, &mut session).expect("Q6 runs");
    let full_sum = out.rows[0][0].dec();
    let single = session.tracer.take();

    // Partitioned: rewrite the plan's SeqScan with a block range per node.
    let plan = wb.db.plan_sql(&sql).expect("Q6 plans");
    let npages = wb
        .db
        .catalog
        .table("lineitem")
        .expect("lineitem")
        .heap
        .npages();
    let mut traces = Vec::new();
    let mut partial_sum = 0;
    for node in 0..4u32 {
        let lo = npages * node / 4;
        let hi = npages * (node + 1) / 4;
        let mut partitioned_plan = plan.clone();
        restrict_scan(&mut partitioned_plan, lo, hi);
        let mut session = Session::new(node as usize);
        let out = wb.db.run_plan(&partitioned_plan, &mut session);
        partial_sum += out.rows[0][0].dec();
        traces.push(session.tracer.take());
    }
    let [single, partitioned] = wb.run_all(
        "ext-intra",
        [
            Point::given("ext-intra/Q6/single".into(), vec![single]),
            Point::given("ext-intra/Q6/partitioned".into(), traces),
        ],
    );
    IntraQueryRuns {
        single,
        partitioned,
        partial_sum,
        full_sum,
    }
}

fn restrict_scan(plan: &mut dss_query::Plan, lo: u32, hi: u32) {
    use dss_query::Plan;
    match plan {
        Plan::SeqScan { block_range, .. } => *block_range = Some((lo, hi)),
        Plan::NestLoop { outer, inner, .. }
        | Plan::MergeJoin { outer, inner, .. }
        | Plan::HashJoin { outer, inner, .. } => {
            restrict_scan(outer, lo, hi);
            restrict_scan(inner, lo, hi);
        }
        Plan::Filter { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Group { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Project { input, .. }
        | Plan::Limit { input, .. } => restrict_scan(input, lo, hi),
        Plan::IndexScan { .. } => {}
    }
}

/// Results of the query-stream extension: each processor runs a mixed
/// stream of queries back to back, as a DSS system would between users.
#[derive(Clone, Debug)]
pub struct StreamRuns {
    /// The stream each processor executed.
    pub queries: Vec<u8>,
    /// One baseline simulation of the four streams.
    pub stats: SimStats,
}

/// The query-stream extension: runs `queries` consecutively on every
/// processor (different parameters per instance). Inter-query locality —
/// indices and, for Sequential queries, whole tables — is captured within
/// each stream, quantifying the paper's Figure 12 upper bound under a
/// realistic mixed workload and ordinary cache sizes.
///
/// # Panics
///
/// Panics if a query fails, or if the point fails (in fail-soft mode the
/// failure is still recorded first).
pub fn stream_experiment(wb: &mut Workbench, queries: &[u8]) -> StreamRuns {
    let traces = wb.stream_traces(queries, 0);
    let mix: Vec<String> = queries.iter().map(|&q| query_label(q)).collect();
    let label = format!("ext-streams/{}/baseline", mix.join("+"));
    let [stats] = wb.run_all("ext-streams", [Point::given(label, traces)]);
    StreamRuns {
        queries: queries.to_vec(),
        stats,
    }
}
