//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p dss-bench --release --bin repro                 # everything
//! cargo run -p dss-bench --release --bin repro -- fig8         # one experiment
//! cargo run -p dss-bench --release --bin repro -- all --jobs 4 # four workers
//! ```
//!
//! Accepted arguments: `table1`, `fig6`, `fig7`, `rates`, `fig8`, `fig9`,
//! `fig10`, `fig11`, `fig12`, `fig13`, `all` (default), the extensions
//! (`ext`, or `ext-protocol`, `ext-prefetch`, `ext-updates`, `ext-intra`,
//! `ext-streams`, `ext-procs`), `--jobs N` to set the number of worker
//! threads the sweeps fan out over (default: available parallelism),
//! `--gen-jobs N` to run each sweep point's trace production pipelined on
//! `N` dedicated producer threads carved out of the `--jobs` budget
//! (generation overlaps simulation; stdout stays byte-identical; 0, the
//! default, keeps production inline), `--sf X` to override the database
//! scale factor (default: the paper's 0.01), `--trace-mode
//! streamed|materialized` to pick how traces reach the simulator (streamed
//! records block files and replays them from disk, so peak memory stays
//! bounded at any scale factor; stdout is identical either way), and
//! `--bench-json PATH` to write the per-experiment wall/compute timings,
//! heap-allocation counts (measured by a counting allocator), per-experiment
//! peak RSS, and pipeline stall times as a machine-readable JSON file (the
//! CI benchmark artifact). Each experiment prints the paper-shaped chart
//! plus its PASS/FAIL shape checks.
//!
//! The run is crash-safe when given a state directory: `--state-dir PATH`
//! keeps a checkpoint manifest (`PATH/manifest.ckpt`) journaling every
//! completed sweep point as it finishes, plus the streamed-mode block files
//! (`PATH/traces/`). After a crash — power loss included; the journal is
//! fsynced record by record — rerunning with `--resume` replays the journal,
//! skips completed points, salvages partial block files down to their last
//! checksum-valid block, and regenerates only what is missing; stdout is
//! byte-identical to an uninterrupted run. The manifest carries a
//! fingerprint of the configuration (scale, seed, buffer pool, processor
//! count), so resuming under different parameters safely starts fresh.
//! `--resume` without `--state-dir` is a usage error.
//!
//! The run degrades gracefully instead of aborting: every sweep point runs
//! fail-soft (a panicking or deadline-blown point becomes a structured
//! `PointError` and the rest of the sweep completes), and every experiment
//! block runs under `catch_unwind` so one broken figure cannot take down the
//! others. Two flags exercise this path deterministically: `--inject LABEL`
//! makes the sweep point with that label (e.g. `fig8/Q6/l2_line=64`) panic,
//! and `--point-deadline-ms N` times out any point slower than `N` ms.
//!
//! Exit codes: `0` success, `1` artifact write failure, `2` usage error (a
//! bad flag value, an unknown experiment name — the error lists the valid
//! ones — or an `--inject` label that matched no sweep point), `3` partial
//! results (one or more points or experiments failed; everything
//! that could run did, and the failures are listed in the `--bench-json`
//! report's `point_errors` / `failed_experiments` arrays).
//!
//! Tables and checks go to stdout; progress and timing go to stderr, so
//! stdout is byte-identical at every `--jobs` value and safe to diff.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dss_core::{
    config_fingerprint, experiments, paper, query_label, report, CheckpointJournal,
    PipelineSnapshot, PointError, TraceMode, Workbench, STUDIED_QUERIES,
};
use dss_query::DbConfig;

// The counting allocator is a single shared source file (see its module doc
// for why it is not a library export); this binary only reads the alloc-side
// counters, so the unused dealloc-side ones are allowed to be dead here.
#[allow(dead_code)]
#[path = "../../../check/src/alloc.rs"]
mod alloc;

/// Counts every heap operation of the run, so each experiment's entry in the
/// benchmark log can report its total allocation traffic (worker threads
/// included — the counters are process-global).
#[global_allocator]
static COUNTING_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// One recorded experiment: label, wall-clock, fanned-out compute, heap
/// traffic, pipeline utilization, and two RSS measures — this experiment's
/// own peak (bytes) and the process-wide high-water mark so far.
struct BenchEntry {
    name: String,
    wall: Duration,
    compute: Duration,
    heap: alloc::AllocReport,
    pipe: PipelineSnapshot,
    peak_rss: u64,
    peak_rss_cumulative: u64,
    /// Sweep points served from the checkpoint journal (resume provenance).
    points_loaded: u64,
    /// Sweep points actually simulated by this experiment.
    points_computed: u64,
}

/// The process's peak resident set size (`VmHWM`) in bytes, or 0 where
/// `/proc/self/status` is unavailable. A high-water mark: monotone unless
/// reset through `/proc/self/clear_refs` (see [`BenchLog::arm`]).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Resets the process's `VmHWM` high-water mark to the current RSS, so the
/// next reading measures only what happened since. Returns false where the
/// kernel interface is unavailable.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Per-experiment timings and heap traffic, printed to stderr as they happen
/// and optionally dumped as JSON at exit (`--bench-json`).
#[derive(Default)]
struct BenchLog {
    entries: Vec<BenchEntry>,
    /// Process-wide peak RSS observed across all measurements so far.
    cumulative_rss: u64,
    /// `VmHWM` when the current experiment was armed (the delta baseline
    /// where the high-water mark cannot be reset).
    armed_rss: u64,
    /// Whether `/proc/self/clear_refs` resets worked at arm time.
    armed_reset: bool,
}

impl BenchLog {
    /// Marks the start of an experiment's RSS window: resets the kernel
    /// high-water mark where possible so the next [`BenchLog::record`] reads
    /// this experiment's own peak, falling back to delta-from-start
    /// accounting where it is not.
    fn arm(&mut self) {
        self.cumulative_rss = self.cumulative_rss.max(peak_rss_bytes());
        self.armed_reset = reset_peak_rss();
        self.armed_rss = peak_rss_bytes();
    }

    /// Records one experiment's wall-clock, the heap traffic its gate
    /// observed, and — drained from the workbench — the aggregate
    /// single-thread compute it fanned out (their ratio is the parallel
    /// speedup), pipeline utilization, and checkpoint counts, plus the peak
    /// RSS of its own window. Stderr, to keep stdout diffable.
    fn record(&mut self, label: &str, wall: Duration, heap: alloc::AllocReport, wb: &Workbench) {
        let compute = wb.take_sim_compute();
        let pipe = wb.take_pipeline_stats();
        let (points_loaded, points_computed) = wb.take_checkpoint_counts();
        let hwm = peak_rss_bytes();
        // With a working reset, `hwm` is this experiment's own peak; without
        // one it is process-monotone, so report how much it grew instead.
        let peak_rss = if self.armed_reset {
            hwm
        } else {
            hwm.saturating_sub(self.armed_rss)
        };
        self.cumulative_rss = self.cumulative_rss.max(hwm);
        let peak_rss_cumulative = self.cumulative_rss;
        let mb = heap.bytes_allocated / 1_000_000;
        let rss_mb = peak_rss / 1_000_000;
        if compute.is_zero() {
            eprintln!(
                "  [{label}] wall {wall:.1?}; heap {} alloc(s), {mb} MB; peak rss {rss_mb} MB",
                heap.allocs
            );
        } else {
            let speedup = compute.as_secs_f64() / wall.as_secs_f64().max(1e-9);
            eprintln!(
                "  [{label}] wall {wall:.1?}, sim compute {compute:.1?}, speedup {speedup:.2}x; \
                 heap {} alloc(s), {mb} MB; peak rss {rss_mb} MB",
                heap.allocs
            );
        }
        if pipe.blocks > 0 {
            // Which side of the pipeline was the bottleneck: time each side
            // spent blocked on the bounded channels.
            eprintln!(
                "  [{label}] pipeline: {} block(s); producer stalled {:.1?}, \
                 consumer stalled {:.1?}",
                pipe.blocks,
                Duration::from_nanos(pipe.producer_stall_ns),
                Duration::from_nanos(pipe.consumer_stall_ns),
            );
        }
        if points_loaded > 0 {
            eprintln!("  [{label}] {points_loaded} point(s) served from the checkpoint journal");
        }
        self.entries.push(BenchEntry {
            name: label.to_string(),
            wall,
            compute,
            heap,
            pipe,
            peak_rss,
            peak_rss_cumulative,
            points_loaded,
            points_computed,
        });
    }

    /// The recorded timings as a self-describing JSON document. Labels are
    /// experiment names from this binary (no escaping needed). Schema v6
    /// adds the crash-safety provenance: a top-level `resume` object
    /// (`mode`: `"fresh"` or `"resumed"`, `crash_site`: the armed
    /// crash-injection site or `null`, and the run's total
    /// `points_loaded` / `points_computed`), plus per-experiment
    /// `points_loaded`, `points_computed`, and `retries` (points this
    /// experiment had to recompute in a resumed run — work the crash
    /// destroyed; always 0 in a fresh run). Schema v5 made `peak_rss` honest
    /// per experiment (the kernel high-water mark is reset at the start of
    /// each one; where the reset interface is missing the value degrades to
    /// delta-from-start), added the monotone `peak_rss_cumulative`, and the
    /// pipeline fields (`gen_jobs`, `producer_stall_ns` /
    /// `consumer_stall_ns`). Schema v3 added the degradation record:
    /// `point_errors` and `failed_experiments`, both empty on a healthy run.
    // The report serializes every top-level measurement as its own scalar;
    // the arity is the schema's, not an API anyone else calls.
    #[allow(clippy::too_many_arguments)]
    fn to_json(
        &self,
        jobs: usize,
        gen_jobs: usize,
        trace_mode: TraceMode,
        scale: f64,
        total_wall: Duration,
        point_errors: &[PointError],
        failed: &[String],
        resume_mode: &str,
        crash_site: Option<&str>,
    ) -> String {
        let resumed = resume_mode == "resumed";
        let experiments: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    "    {{\"name\": \"{}\", \"wall_ns\": {}, \"sim_compute_ns\": {}, \
                     \"allocs\": {}, \"alloc_bytes\": {}, \"peak_rss\": {}, \
                     \"peak_rss_cumulative\": {}, \"producer_stall_ns\": {}, \
                     \"consumer_stall_ns\": {}, \"points_loaded\": {}, \
                     \"points_computed\": {}, \"retries\": {}}}",
                    e.name,
                    e.wall.as_nanos(),
                    e.compute.as_nanos(),
                    e.heap.allocs,
                    e.heap.bytes_allocated,
                    e.peak_rss,
                    e.peak_rss_cumulative,
                    e.pipe.producer_stall_ns,
                    e.pipe.consumer_stall_ns,
                    e.points_loaded,
                    e.points_computed,
                    if resumed { e.points_computed } else { 0 }
                )
            })
            .collect();
        let errors: Vec<String> = point_errors
            .iter()
            .map(|e| format!("    {}", e.to_json()))
            .collect();
        let abandoned: Vec<String> = failed.iter().map(|f| format!("\"{f}\"")).collect();
        let mode = match trace_mode {
            TraceMode::Materialized => "materialized",
            TraceMode::Streamed => "streamed",
        };
        let loaded: u64 = self.entries.iter().map(|e| e.points_loaded).sum();
        let computed: u64 = self.entries.iter().map(|e| e.points_computed).sum();
        let site = match crash_site {
            Some(s) => format!("\"{s}\""),
            None => "null".to_string(),
        };
        format!(
            "{{\n  \"schema\": \"dss-bench-repro/v6\",\n  \"jobs\": {},\n  \
             \"gen_jobs\": {},\n  \"trace_mode\": \"{}\",\n  \"scale\": {},\n  \
             \"resume\": {{\"mode\": \"{}\", \"crash_site\": {}, \
             \"points_loaded\": {}, \"points_computed\": {}}},\n  \
             \"total_wall_ns\": {},\n  \"point_errors\": [{}],\n  \
             \"failed_experiments\": [{}],\n  \"experiments\": [\n{}\n  ]\n}}\n",
            jobs,
            gen_jobs,
            mode,
            scale,
            resume_mode,
            site,
            loaded,
            computed,
            total_wall.as_nanos(),
            if errors.is_empty() {
                String::new()
            } else {
                format!("\n{}\n  ", errors.join(",\n"))
            },
            abandoned.join(", "),
            experiments.join(",\n")
        )
    }
}

/// One experiment of the run: its name in the timing log, the command-line
/// names that select it, whether it is an extension (selected by `ext`
/// rather than by `all` or the default), and the function that runs it and
/// renders to stdout. The function gets the selection predicate, so an
/// entry serving several names prints only the ones asked for.
struct Experiment {
    name: &'static str,
    selectors: &'static [&'static str],
    ext: bool,
    run: Run,
}

/// Whether the command line asked for the named output.
type Want<'a> = &'a dyn Fn(&str) -> bool;

/// Runs one experiment and renders it to stdout.
type Run = fn(&mut Workbench, Want);

impl Experiment {
    /// One of the paper's tables or figures: run by default and by `all`.
    const fn paper(name: &'static str, selectors: &'static [&'static str], run: Run) -> Self {
        Experiment {
            name,
            selectors,
            ext: false,
            run,
        }
    }

    /// An extension beyond the paper: run by `ext` or by its own name.
    const fn ext(name: &'static str, selectors: &'static [&'static str], run: Run) -> Self {
        Experiment {
            name,
            selectors,
            ext: true,
            run,
        }
    }
}

/// Every experiment, in output order.
const EXPERIMENTS: &[Experiment] = &[
    Experiment::paper("table1", &["table1"], run_table1),
    Experiment::paper("fig6/fig7/rates", &["fig6", "fig7", "rates"], run_baselines),
    Experiment::paper("fig8/fig9", &["fig8", "fig9"], run_line_sizes),
    Experiment::paper("fig10/fig11", &["fig10", "fig11"], run_cache_sizes),
    Experiment::paper("fig12", &["fig12"], run_reuse),
    Experiment::paper("fig13", &["fig13"], run_prefetch),
    Experiment::ext("ext-protocol", &["ext-protocol"], run_protocol),
    Experiment::ext("ext-prefetch", &["ext-prefetch"], run_prefetch_depth),
    Experiment::ext("ext-updates", &["ext-updates"], run_updates),
    Experiment::ext("ext-intra", &["ext-intra"], run_intra),
    Experiment::ext("ext-streams", &["ext-streams"], run_streams),
    Experiment::ext("ext-procs", &["ext-procs"], run_procs),
];

fn run_table1(wb: &mut Workbench, _: Want) {
    println!("{}", report::render_table1(&experiments::table1(&wb.db)));
}

/// Figures 6 and 7 and the quoted miss rates, from one baseline suite.
fn run_baselines(wb: &mut Workbench, want: Want) {
    let before = wb.point_error_count();
    let baselines = wb.baseline_suite(&STUDIED_QUERIES);
    let degraded = wb.point_error_count() > before;
    if want("fig6") {
        println!("{}", report::render_fig6a(&baselines));
        println!("{}", report::render_fig6b(&baselines));
        if degraded {
            println!("  (fig6 shape checks skipped: suite degraded, see point errors)");
        } else {
            println!("{}", paper::render_checks(&paper::check_fig6(&baselines)));
        }
    }
    if want("fig7") {
        for b in &baselines {
            println!("{}", report::render_fig7(b));
        }
        if degraded {
            println!("  (fig7 shape checks skipped: suite degraded, see point errors)");
        } else {
            println!("{}", paper::render_checks(&paper::check_fig7(&baselines)));
        }
    }
    if want("rates") {
        let rates: Vec<_> = baselines.iter().map(experiments::miss_rates).collect();
        println!("{}", report::render_miss_rates(&rates));
    }
}

/// Figures 8 and 9, one line-size sweep per studied query.
fn run_line_sizes(wb: &mut Workbench, want: Want) {
    for q in STUDIED_QUERIES {
        let before = wb.point_error_count();
        let points = wb.line_size_sweep(q);
        if wb.point_error_count() > before {
            println!(
                "Figure 8/9 ({}): skipped — sweep degraded, see point errors",
                query_label(q)
            );
            continue;
        }
        if want("fig8") {
            println!("{}", report::render_fig8(q, &points));
            println!("{}", paper::render_checks(&paper::check_fig8(q, &points)));
        }
        if want("fig9") {
            println!("{}", report::render_fig9(q, &points));
            println!("{}", paper::render_checks(&paper::check_fig9(q, &points)));
        }
    }
}

/// Figures 10 and 11, one cache-size sweep per studied query.
fn run_cache_sizes(wb: &mut Workbench, want: Want) {
    for q in STUDIED_QUERIES {
        let before = wb.point_error_count();
        let points = wb.cache_size_sweep(q);
        if wb.point_error_count() > before {
            println!(
                "Figure 10/11 ({}): skipped — sweep degraded, see point errors",
                query_label(q)
            );
            continue;
        }
        if want("fig10") {
            println!("{}", report::render_fig10(q, &points));
            println!("{}", paper::render_checks(&paper::check_fig10(q, &points)));
        }
        if want("fig11") {
            println!("{}", report::render_fig11(q, &points));
            println!("{}", paper::render_checks(&paper::check_fig11(q, &points)));
        }
    }
}

fn run_reuse(wb: &mut Workbench, _: Want) {
    let q3 = wb.reuse_experiment(3, 12);
    let q12 = wb.reuse_experiment(12, 3);
    println!("{}", report::render_fig12(&q3));
    println!("{}", report::render_fig12(&q12));
    println!("{}", paper::render_checks(&paper::check_fig12(&q3, &q12)));
}

fn run_prefetch(wb: &mut Workbench, _: Want) {
    let pairs: Vec<_> = STUDIED_QUERIES
        .iter()
        .map(|q| wb.prefetch_experiment(*q))
        .collect();
    println!("{}", report::render_fig13(&pairs));
    println!("{}", paper::render_checks(&paper::check_fig13(&pairs)));
}

fn run_protocol(wb: &mut Workbench, _: Want) {
    let ablations: Vec<_> = STUDIED_QUERIES
        .iter()
        .map(|q| wb.protocol_ablation(*q))
        .collect();
    println!("{}", report::render_ext_protocol(&ablations));
}

fn run_prefetch_depth(wb: &mut Workbench, _: Want) {
    for q in [6u8, 12] {
        let points = wb.prefetch_degree_sweep(q);
        println!("{}", report::render_ext_prefetch(q, &points));
    }
}

fn run_updates(wb: &mut Workbench, _: Want) {
    let runs = experiments::update_experiment(wb, dss_tpcd::PAPER_SCALE);
    println!("{}", report::render_ext_updates(&runs));
}

fn run_intra(wb: &mut Workbench, _: Want) {
    let runs = experiments::intra_query_experiment(wb);
    println!("{}", report::render_ext_intra(&runs));
}

fn run_streams(wb: &mut Workbench, _: Want) {
    let baselines = wb.baseline_suite(&STUDIED_QUERIES);
    let runs = experiments::stream_experiment(wb, &[3, 6, 12]);
    println!("{}", report::render_ext_streams(&runs, &baselines));
}

fn run_procs(wb: &mut Workbench, _: Want) {
    for q in STUDIED_QUERIES {
        let points = wb.processor_sweep(q);
        println!("{}", report::render_ext_procs(q, &points));
    }
}

/// Parses one flag's value, or exits with a usage error (code 2) stating
/// what the flag needs when the value is missing or malformed.
fn usage<T>(value: Option<String>, parse: impl FnOnce(&str) -> Option<T>, needs: &str) -> T {
    match value.as_deref().and_then(parse) {
        Some(v) => v,
        None => {
            eprintln!("error: {needs}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut jobs: Option<usize> = None;
    let mut gen_jobs: Option<usize> = None;
    let mut bench_json: Option<String> = None;
    let mut inject: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut sf: Option<f64> = None;
    let mut trace_mode = TraceMode::Materialized;
    let mut resume = false;
    let mut state_dir: Option<String> = None;
    let mut names = BTreeSet::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        // Every valued flag takes `--flag VALUE` or `--flag=VALUE`.
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag, Some(value.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut value = || inline.clone().or_else(|| argv.next());
        let text = |v: &str| Some(v.to_string());
        match flag {
            "--resume" if inline.is_none() => resume = true,
            "--state-dir" => state_dir = Some(usage(value(), text, "--state-dir needs a path")),
            "--bench-json" => bench_json = Some(usage(value(), text, "--bench-json needs a path")),
            "--inject" => inject = Some(usage(value(), text, "--inject needs a sweep-point label")),
            "--sf" => {
                let positive = |v: &str| v.parse().ok().filter(|s: &f64| *s > 0.0);
                let msg = "--sf needs a positive scale factor (e.g. --sf 0.05)";
                sf = Some(usage(value(), positive, msg));
            }
            "--trace-mode" => {
                let mode = |v: &str| match v {
                    "materialized" => Some(TraceMode::Materialized),
                    "streamed" => Some(TraceMode::Streamed),
                    _ => None,
                };
                let msg = "--trace-mode must be `streamed` or `materialized`";
                trace_mode = usage(value(), mode, msg);
            }
            "--point-deadline-ms" => {
                let msg = "--point-deadline-ms needs a number of milliseconds";
                deadline_ms = Some(usage(value(), |v| v.parse().ok(), msg));
            }
            "--gen-jobs" => {
                let msg = "--gen-jobs needs a number (e.g. --gen-jobs 2)";
                gen_jobs = Some(usage(value(), |v| v.parse().ok(), msg));
            }
            "--jobs" => {
                let msg = "--jobs needs a number (e.g. --jobs 4)";
                jobs = Some(usage(value(), |v| v.parse().ok(), msg));
            }
            _ => {
                names.insert(arg);
            }
        }
    }
    if resume && state_dir.is_none() {
        eprintln!("error: --resume needs --state-dir (the journal and trace files to resume from)");
        std::process::exit(2);
    }
    let valid: Vec<&str> = ["all", "ext"]
        .into_iter()
        .chain(EXPERIMENTS.iter().flat_map(|e| e.selectors.iter().copied()))
        .collect();
    if let Some(unknown) = names.iter().find(|n| !valid.contains(&n.as_str())) {
        eprintln!(
            "error: unknown experiment `{unknown}`; valid names: {}",
            valid.join(", ")
        );
        std::process::exit(2);
    }
    let mut log = BenchLog::default();
    let mut point_errors: Vec<PointError> = Vec::new();
    let mut failed: Vec<String> = Vec::new();

    let start = Instant::now();
    let mut config = DbConfig::default();
    if let Some(s) = sf {
        // The buffer pool must hold the whole database (it is memory
        // resident), so it grows with the scale override.
        config.nbuffers = (config.nbuffers as f64 * (s / config.scale).max(1.0)).ceil() as u32;
        config.scale = s;
    }
    let scale = config.scale;
    eprintln!("Building the database (TPC-D at scale {scale}, memory resident)...");
    let mut wb = Workbench::new(&config, 4);
    if let Some(n) = jobs {
        wb.set_jobs(n);
    }
    if let Some(n) = gen_jobs {
        wb.set_gen_jobs(n);
    }
    // Scratch trace dir, deleted at exit. With `--state-dir` the block files
    // are durable resume state instead and live under the state dir.
    let mut trace_dir = None;
    if trace_mode == TraceMode::Streamed && state_dir.is_none() {
        let dir = std::env::temp_dir().join(format!("dss-repro-traces-{}", std::process::id()));
        eprintln!(
            "trace mode: streamed (block files under {}, replayed from disk)",
            dir.display()
        );
        wb.set_trace_dir(dir.clone());
        wb.set_trace_mode(TraceMode::Streamed);
        trace_dir = Some(dir);
    }
    let mut resume_mode = "fresh";
    if let Some(dir) = &state_dir {
        let dir = PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("error: could not create state dir {}: {e}", dir.display());
            std::process::exit(1);
        }
        let manifest = dir.join("manifest.ckpt");
        let traces = dir.join("traces");
        let fingerprint = config_fingerprint(&config, wb.nprocs());
        let journal = if resume {
            match CheckpointJournal::resume(&manifest, fingerprint) {
                Ok(j) => {
                    if let Some(reason) = j.fresh_reason() {
                        // The old state answers a different experiment (or
                        // does not exist); its trace files are stale too.
                        eprintln!("resume: starting fresh — {reason}");
                        let _ = std::fs::remove_dir_all(&traces);
                    } else {
                        eprintln!(
                            "resume: {} completed point(s) journaled in {}",
                            j.replayed(),
                            manifest.display()
                        );
                        wb.set_resume(true);
                        resume_mode = "resumed";
                    }
                    j
                }
                Err(e) => {
                    eprintln!("error: could not resume {}: {e}", manifest.display());
                    std::process::exit(1);
                }
            }
        } else {
            // A fresh run owns the state dir outright: discard any leftovers.
            let _ = std::fs::remove_dir_all(&traces);
            match CheckpointJournal::create(&manifest, fingerprint) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("error: could not create {}: {e}", manifest.display());
                    std::process::exit(1);
                }
            }
        };
        wb.set_checkpoint(journal);
        if trace_mode == TraceMode::Streamed {
            eprintln!(
                "trace mode: streamed (durable block files under {}, replayed from disk)",
                traces.display()
            );
            wb.set_trace_dir(traces);
            wb.set_trace_mode(TraceMode::Streamed);
        }
    }
    wb.set_fail_soft(true);
    if let Some(label) = &inject {
        eprintln!("fault injection armed: sweep point `{label}` will panic");
        wb.set_sabotage(Some(label.clone()));
    }
    if let Some(ms) = deadline_ms {
        wb.set_point_deadline(Some(Duration::from_millis(ms)));
    }
    let worker_note = if wb.gen_jobs() > 0 {
        let (sim_jobs, producers) = dss_core::split_jobs(wb.jobs(), wb.gen_jobs());
        format!("{sim_jobs} simulation worker(s), {producers} trace producer(s) per point")
    } else {
        format!("{} simulation worker(s)", wb.jobs())
    };
    eprintln!(
        "  built in {:.1?}: {} heap pages (~{} MB of data), {} shared MB mapped; {worker_note}\n",
        start.elapsed(),
        wb.db.catalog.total_heap_pages(),
        wb.db.catalog.total_heap_pages() * 8192 / 1_000_000,
        wb.db.space.mapped_bytes() / 1_000_000,
    );

    for exp in EXPERIMENTS {
        let group = if exp.ext {
            names.contains("ext")
        } else {
            names.is_empty() || names.contains("all")
        };
        let want = |name: &str| group || names.contains(name);
        if !exp.selectors.iter().any(|name| want(name)) {
            continue;
        }
        let t = Instant::now();
        let g = alloc::AllocGate::begin();
        log.arm();
        // Under `catch_unwind`, a failure that escapes the fail-soft sweeps
        // (a paired experiment that lost its partner point, a renderer
        // handed an impossible shape) abandons this one experiment instead
        // of the whole run; the abandonment is recorded for the exit code
        // and the benchmark report.
        if catch_unwind(AssertUnwindSafe(|| (exp.run)(&mut wb, &want))).is_err() {
            eprintln!(
                "  [{}] ABANDONED — experiment failed; continuing with the rest",
                exp.name
            );
            failed.push(exp.name.to_string());
        }
        log.record(exp.name, t.elapsed(), g.end(), &wb);
        for err in wb.take_point_errors() {
            eprintln!("  point error: {err}");
            point_errors.push(err);
        }
    }

    let total = start.elapsed();
    eprintln!("total wall time: {total:.1?}");
    if let Some(dir) = trace_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if let Some(path) = bench_json {
        // Provenance for the crash campaign: which site (if any) was armed
        // to kill this very process partway through.
        let crash_site = std::env::var(dss_faultkit::crash::ENV_SITE)
            .ok()
            .filter(|s| !s.is_empty());
        let json = log.to_json(
            wb.jobs(),
            wb.gen_jobs(),
            trace_mode,
            scale,
            total,
            &point_errors,
            &failed,
            resume_mode,
            crash_site.as_deref(),
        );
        if let Err(e) = dss_core::write_atomic(Path::new(&path), json.as_bytes()) {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("benchmark timings written to {path}");
    }
    if let Some(label) = inject.filter(|_| !wb.sabotage_matched()) {
        eprintln!("error: --inject label {label} matched no sweep point");
        std::process::exit(2);
    }
    if !point_errors.is_empty() || !failed.is_empty() {
        eprintln!(
            "repro: partial results — {} point error(s), {} abandoned experiment(s)",
            point_errors.len(),
            failed.len()
        );
        std::process::exit(3);
    }
}
