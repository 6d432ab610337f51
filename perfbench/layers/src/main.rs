//! Traced, single-threaded replay of one benchmark workload, layer by layer.
//!
//! ```text
//! perfbench-layers --workload sweep-mem --seed 7 --work DIR --out DIR/layers.json
//! ```
//!
//! The program replays the workload's pipeline by calling each layer's public
//! entry points itself and records one span (name, label, start, end, parent,
//! heap allocations) around every call:
//!
//! - `query`: [`Database::build`], then [`Database::run`] once per simulated
//!   processor to record a trace set (`query.build`, `query.trace`);
//! - `trace`: [`BlockWriter`] encodes each set to per-processor block files
//!   (`trace.encode`), and a decode-only drain of [`FileTraceSource`] /
//!   [`EventStream`] reads them back (`trace.decode`);
//! - `memsim`: [`Machine::new`] plus [`Machine::run_source`], once over the
//!   in-memory slice (`memsim.replay`) and once over the block files
//!   (`memsim.replay_files`);
//! - `core`: [`CheckpointJournal::create`] and one
//!   [`CheckpointJournal::append`] per replayed point
//!   (`core.journal_append`).
//!
//! Spans stay in memory and are written, together with the per-layer metrics
//! derived from them, as one JSON document when the replay ends. Allocation
//! counts are inclusive: a span's count contains its children's.
//!
//! The replay is reduced so that it fits in one benchmark run: each point
//! replays on one machine (the sweep's baseline, or the reuse experiment's
//! large caches) where `repro` sweeps four or five. Every layer runs on every
//! workload, so a layer's cost can be compared across workloads; which
//! end-to-end figure it can move on which workload is recorded with the
//! benchmark. Slice replay and file replay must produce equal `SimStats`, and
//! the decode drain must return every encoded event; the program panics (and
//! the benchmark run fails) otherwise.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dss_core::experiments::REUSE_CACHES_KB;
use dss_core::{config_fingerprint, CheckpointJournal, STUDIED_QUERIES};
use dss_memsim::{Machine, MachineConfig, SimStats};
use dss_query::{Database, DbConfig, Session};
use dss_tpcd::params;
use dss_trace::{
    BlockWriter, DataClass, DataGroup, Event, FileTraceSource, Trace, TraceSource, TraceStats,
    DEFAULT_BLOCK_EVENTS,
};

// The counting allocator is one shared source file (see its module doc for
// why it is not a library export); only the alloc-side counters are read
// here, so the rest of the module is allowed to be dead.
#[allow(dead_code)]
#[path = "../../../crates/check/src/alloc.rs"]
mod alloc;

#[global_allocator]
static COUNTING_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Simulated processors, as `repro` runs every experiment.
const NPROCS: usize = 4;

/// Seed-base offset of the warm-up sets, the split `repro fig12` uses
/// between its measured (base 0) and warm-up (base 1000) instances.
const WARM_OFFSET: u64 = 1000;

/// What one workload replays: the database scale, the simulated machine,
/// and the points, each an ordered list of `(query, seed base)` trace sets
/// replayed back to back on one machine (the last one is measured).
struct Plan {
    scale: f64,
    machine: MachineConfig,
    points: Vec<Vec<(u8, u64)>>,
}

fn plan(workload: &str, seed: u64) -> Option<Plan> {
    let sweep = |scale| Plan {
        scale,
        machine: MachineConfig::baseline(),
        points: STUDIED_QUERIES.iter().map(|&q| vec![(q, seed)]).collect(),
    };
    match workload {
        "sweep-mem" => Some(sweep(0.01)),
        "sweep-stream" => Some(sweep(0.02)),
        "reuse-warm" => {
            let (l1_kb, l2_kb) = REUSE_CACHES_KB;
            Some(Plan {
                scale: 0.02,
                machine: MachineConfig::baseline().with_cache_sizes(l1_kb * 1024, l2_kb * 1024),
                points: [3, 12]
                    .iter()
                    .map(|&q| vec![(q, seed.wrapping_add(WARM_OFFSET)), (q, seed)])
                    .collect(),
            })
        }
        _ => None,
    }
}

/// The database configuration `repro --sf <scale>` builds, with the
/// workload seed as the population seed.
fn db_config(scale: f64, seed: u64) -> DbConfig {
    let mut config = DbConfig {
        seed,
        ..DbConfig::default()
    };
    if scale != config.scale {
        config.nbuffers = (config.nbuffers as f64 * (scale / config.scale).max(1.0)).ceil() as u32;
        config.scale = scale;
    }
    config
}

/// One recorded span. Times are nanoseconds since the recorder started.
struct Span {
    name: &'static str,
    label: String,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
    allocs: u64,
    alloc_bytes: u64,
}

/// Spans kept in memory until the replay ends.
struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            // Reserved up front so recording a span does not allocate inside
            // its parent's measurement.
            spans: Vec::with_capacity(1024),
            open: Vec::with_capacity(16),
        }
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    fn span<T>(&mut self, name: &'static str, label: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            label: label.to_string(),
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.open.push(id);
        let gate = alloc::AllocGate::begin();
        let start = self.t0.elapsed();
        let out = f(self);
        let end = self.t0.elapsed();
        let heap = gate.end();
        self.open.pop();
        let span = &mut self.spans[id];
        span.start_ns = start.as_nanos();
        span.end_ns = end.as_nanos();
        span.allocs = heap.allocs;
        span.alloc_bytes = heap.bytes_allocated;
        out
    }

    /// Total seconds, allocations and allocated bytes of every span named
    /// `name`.
    fn total(&self, name: &str) -> (f64, u64, u64) {
        self.spans.iter().filter(|s| s.name == name).fold(
            (0.0, 0, 0),
            |(secs, allocs, bytes), s| {
                (
                    secs + (s.end_ns - s.start_ns) as f64 / 1e9,
                    allocs + s.allocs,
                    bytes + s.alloc_bytes,
                )
            },
        )
    }
}

/// Records one trace set the way `Workbench::traces` does: processor `p`
/// runs `query` with substitution parameters seeded `base + p`.
fn record_set(db: &mut Database, query: u8, base: u64) -> Vec<Trace> {
    (0..NPROCS)
        .map(|p| {
            let seed = base.wrapping_add(p as u64);
            let mut session = Session::new(p);
            let sql = dss_query::sql_for(query, &params(query, seed));
            db.run(&sql, &mut session)
                .unwrap_or_else(|e| panic!("Q{query} (seed {seed}) failed: {e}"));
            session.tracer.take()
        })
        .collect()
}

/// Encodes a set to durable per-processor block files, as streamed mode
/// records them; returns the source over the files and their total bytes.
fn encode_set(set: &[Trace], dir: &Path, stem: &str) -> (FileTraceSource, u64) {
    let mut bytes = 0;
    let paths: Vec<PathBuf> = set
        .iter()
        .map(|trace| {
            let path = FileTraceSource::proc_path(dir, stem, trace.proc_id);
            let file =
                File::create(&path).unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
            let mut writer = BlockWriter::new(BufWriter::new(file), trace.proc_id)
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            for block in trace.events.chunks(DEFAULT_BLOCK_EVENTS) {
                writer
                    .write_block(block)
                    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            }
            writer
                .finish()
                .unwrap_or_else(|e| panic!("finish {}: {e}", path.display()));
            let file = writer
                .into_inner()
                .into_inner()
                .unwrap_or_else(|e| panic!("flush {}: {e}", path.display()));
            file.sync_all()
                .unwrap_or_else(|e| panic!("fsync {}: {e}", path.display()));
            bytes += file
                .metadata()
                .unwrap_or_else(|e| panic!("stat {}: {e}", path.display()))
                .len();
            path
        })
        .collect();
    (FileTraceSource::new(paths), bytes)
}

/// Decode-only drain: reads every block of every stream and returns the
/// number of events decoded.
fn drain(files: &FileTraceSource) -> u64 {
    let mut block = Vec::new();
    let mut events = 0;
    for mut stream in files.open().expect("open block files") {
        while let n @ 1.. = stream.next_block(&mut block).expect("decode block") {
            events += n as u64;
        }
    }
    events
}

/// Replays `sources` back to back on one fresh machine, returning each
/// source's statistics.
fn replay(machine: &MachineConfig, sources: &[&dyn TraceSource]) -> Vec<SimStats> {
    let mut m = Machine::new(machine.clone());
    sources
        .iter()
        .map(|src| m.run_source(*src).expect("trace stream failed"))
        .collect()
}

/// Per-layer counts accumulated over the replay.
#[derive(Default)]
struct Counts {
    trace_events: u64,
    encoded_bytes: u64,
    replay_events: u64,
    trace: TraceStats,
    measured: Vec<SimStats>,
    journal_appends: u64,
}

fn group_refs(stats: &TraceStats, group: DataGroup) -> u64 {
    DataClass::ALL
        .iter()
        .filter(|c| c.group() == group)
        .map(|c| stats.refs(*c))
        .sum()
}

fn metrics(rec: &Recorder, c: &Counts, journal_bytes: u64) -> Vec<(&'static str, f64)> {
    let per_event = |secs: f64, events: u64| secs * 1e9 / events.max(1) as f64;
    let (build_s, build_allocs, _) = rec.total("query.build");
    let (trace_s, trace_allocs, trace_bytes) = rec.total("query.trace");
    let (encode_s, _, _) = rec.total("trace.encode");
    let (decode_s, decode_allocs, _) = rec.total("trace.decode");
    let (replay_s, replay_allocs, _) = rec.total("memsim.replay");
    let (replay_files_s, _, _) = rec.total("memsim.replay_files");
    let (journal_s, _, _) = rec.total("core.journal_append");
    let writes: u64 = DataClass::ALL.iter().map(|&k| c.trace.writes(k)).sum();
    let sim = |f: fn(&SimStats) -> u64| c.measured.iter().map(f).sum::<u64>() as f64;
    vec![
        ("query.build_s", build_s),
        ("query.build_allocs", build_allocs as f64),
        ("query.trace_s", trace_s),
        ("query.trace_events", c.trace_events as f64),
        (
            "query.trace_ns_per_event",
            per_event(trace_s, c.trace_events),
        ),
        ("query.trace_allocs", trace_allocs as f64),
        ("query.trace_alloc_mb", trace_bytes as f64 / 1e6),
        ("query.lock_acquires", c.trace.lock_acquires as f64),
        (
            "query.refs_data",
            group_refs(&c.trace, DataGroup::Data) as f64,
        ),
        (
            "query.refs_index",
            group_refs(&c.trace, DataGroup::Index) as f64,
        ),
        (
            "query.refs_metadata",
            group_refs(&c.trace, DataGroup::Metadata) as f64,
        ),
        (
            "query.refs_priv",
            group_refs(&c.trace, DataGroup::Priv) as f64,
        ),
        (
            "query.write_share",
            writes as f64 / c.trace.total_refs().max(1) as f64,
        ),
        (
            "trace.set_mem_mb",
            (c.trace_events * std::mem::size_of::<Event>() as u64) as f64 / 1e6,
        ),
        ("trace.encode_s", encode_s),
        (
            "trace.encode_ns_per_event",
            per_event(encode_s, c.trace_events),
        ),
        (
            "trace.bytes_per_event",
            c.encoded_bytes as f64 / c.trace_events.max(1) as f64,
        ),
        ("trace.decode_s", decode_s),
        (
            "trace.decode_ns_per_event",
            per_event(decode_s, c.trace_events),
        ),
        ("trace.decode_allocs", decode_allocs as f64),
        ("memsim.replay_s", replay_s),
        ("memsim.replay_events", c.replay_events as f64),
        ("memsim.ns_per_event", per_event(replay_s, c.replay_events)),
        ("memsim.replay_allocs", replay_allocs as f64),
        ("memsim.replay_files_s", replay_files_s),
        ("memsim.exec_cycles", sim(SimStats::exec_cycles)),
        ("memsim.l1_read_misses", sim(|s| s.l1.read_misses.total())),
        ("memsim.l2_read_misses", sim(|s| s.l2.read_misses.total())),
        ("memsim.write_misses", sim(|s| s.l2.write_misses)),
        ("core.journal_append_s", journal_s),
        ("core.journal_appends", c.journal_appends as f64),
        ("core.journal_bytes", journal_bytes as f64),
    ]
}

fn to_json(workload: &str, seed: u64, metrics: &[(&str, f64)], rec: &Recorder) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("    \"{name}\": {value}"))
        .collect();
    let spans: Vec<String> = rec
        .spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "    {{\"name\": \"{}\", \"label\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}, \"alloc_bytes\": {}}}",
                s.name, s.label, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"metrics\": {{\n{}\n  }},\n  \
         \"spans\": [\n{}\n  ]\n}}\n",
        metrics.join(",\n"),
        spans.join(",\n")
    )
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: perfbench-layers --workload NAME --seed N --work DIR --out FILE");
    std::process::exit(2);
}

fn main() {
    let (mut workload, mut seed, mut work, mut out) = (None, None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed needs a whole number")),
                )
            }
            "--work" => work = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let work = work.unwrap_or_else(|| usage("--work is required"));
    let out = out.unwrap_or_else(|| usage("--out is required"));
    let plan =
        plan(&workload, seed).unwrap_or_else(|| usage(&format!("unknown workload {workload}")));
    std::fs::create_dir_all(&work).unwrap_or_else(|e| panic!("create {}: {e}", work.display()));

    let config = db_config(plan.scale, seed);
    let journal_path = work.join("manifest.ckpt");
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    rec.span("workload", &workload, |rec| {
        let mut db = rec.span("query.build", "", |_| Database::build(&config));
        let mut journal =
            CheckpointJournal::create(&journal_path, config_fingerprint(&config, NPROCS))
                .unwrap_or_else(|e| panic!("create {}: {e}", journal_path.display()));
        for point in &plan.points {
            let label = point
                .iter()
                .map(|(q, base)| format!("Q{q}.s{base}"))
                .collect::<Vec<_>>()
                .join("+");
            rec.span("point", &label, |rec| {
                let mut sets = Vec::with_capacity(point.len());
                let mut point_events = 0;
                for &(query, base) in point {
                    let stem = format!("q{query}.s{base}");
                    let set = rec.span("query.trace", &stem, |_| record_set(&mut db, query, base));
                    let events: u64 = set.iter().map(|t| t.len() as u64).sum();
                    point_events += events;
                    for t in &set {
                        counts.trace.accumulate(&t.events);
                    }
                    let (files, bytes) =
                        rec.span("trace.encode", &stem, |_| encode_set(&set, &work, &stem));
                    counts.encoded_bytes += bytes;
                    let decoded = rec.span("trace.decode", &stem, |_| drain(&files));
                    assert_eq!(decoded, events, "{stem}: decode drain lost events");
                    sets.push((set, files));
                }
                let slices: Vec<&dyn TraceSource> = sets
                    .iter()
                    .map(|(set, _)| set as &dyn TraceSource)
                    .collect();
                let files: Vec<&dyn TraceSource> = sets
                    .iter()
                    .map(|(_, files)| files as &dyn TraceSource)
                    .collect();
                let from_slice =
                    rec.span("memsim.replay", &label, |_| replay(&plan.machine, &slices));
                counts.trace_events += point_events;
                counts.replay_events += point_events;
                let from_files = rec.span("memsim.replay_files", &label, |_| {
                    replay(&plan.machine, &files)
                });
                assert!(
                    from_slice == from_files,
                    "{label}: file replay and slice replay disagree"
                );
                let measured = from_slice.last().expect("a point replays at least one set");
                rec.span("core.journal_append", &label, |_| {
                    journal
                        .append(&label, seed, measured)
                        .unwrap_or_else(|e| panic!("journal append {label}: {e}"))
                });
                counts.journal_appends += 1;
                counts.measured.push(measured.clone());
                for (_, files) in &sets {
                    for path in files.paths() {
                        std::fs::remove_file(path)
                            .unwrap_or_else(|e| panic!("remove {}: {e}", path.display()));
                    }
                }
            });
        }
    });
    let journal_bytes = std::fs::metadata(&journal_path)
        .unwrap_or_else(|e| panic!("stat {}: {e}", journal_path.display()))
        .len();
    let metrics = metrics(&rec, &counts, journal_bytes);
    for (name, value) in &metrics {
        eprintln!("  {name:<28} {value}");
    }
    let json = to_json(&workload, seed, &metrics, &rec);
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
}
