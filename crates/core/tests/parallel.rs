//! Determinism regression tests for the parallel experiment harness: any
//! `--jobs` value must reproduce the serial results bit for bit, and the
//! shared-trace cache must stay bounded while handles circulate.

use dss_core::{TraceMode, Workbench};

#[test]
fn q6_line_size_sweep_is_job_count_invariant() {
    let mut wb = Workbench::small();

    wb.set_jobs(1);
    let serial = wb.line_size_sweep(6);

    wb.set_jobs(4);
    let parallel = wb.line_size_sweep(6);

    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.l2_line, p.l2_line);
        assert_eq!(s.stats, p.stats, "jobs=4 diverged at l2_line={}", s.l2_line);
    }
}

#[test]
fn cache_size_sweep_is_job_count_invariant_on_real_traces() {
    let mut wb = Workbench::small();
    wb.set_jobs(1);
    let serial: Vec<_> = wb
        .cache_size_sweep(6)
        .into_iter()
        .map(|p| p.stats)
        .collect();
    for jobs in [2, 4, 7] {
        wb.set_jobs(jobs);
        let parallel: Vec<_> = wb
            .cache_size_sweep(6)
            .into_iter()
            .map(|p| p.stats)
            .collect();
        assert_eq!(serial, parallel, "jobs={jobs}");
    }
}

#[test]
fn streamed_sweeps_match_materialized_sweeps() {
    let mut wb = Workbench::small().with_jobs(2);
    let materialized = wb.processor_sweep(12);
    let dir = std::env::temp_dir().join(format!("dss-par-stream-{}", std::process::id()));
    wb.set_trace_dir(dir.clone());
    wb.set_trace_mode(TraceMode::Streamed);
    let streamed = wb.processor_sweep(12);
    assert_eq!(materialized, streamed, "block files replay bit-identically");
    for (n, stats) in &streamed {
        assert_eq!(stats.procs.len(), *n, "config order kept");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_point_list_is_fine() {
    let mut wb = Workbench::small();
    assert!(wb.baseline_suite(&[]).is_empty());
    assert_eq!(wb.cached_trace_sets(), 0, "no points, no traces");
}

#[test]
fn trace_cache_stays_bounded_under_method_sweeps() {
    let mut wb = Workbench::small();
    // Hold live handles across evictions: the Arc keeps each set alive for
    // its user while the workbench's cache stays within its slot budget.
    let held = [wb.traces(3, 0), wb.traces(6, 0), wb.traces(12, 0)];
    let _ = wb.line_size_sweep(6);
    let _ = wb.baseline_suite(&[3, 12]);
    assert!(
        wb.cached_trace_sets() <= 4,
        "cache kept {} sets",
        wb.cached_trace_sets()
    );
    for t in &held {
        assert!(!t.is_empty(), "evicted sets stay usable through their Arc");
    }
}

#[test]
fn parallel_sweeps_record_compute_time() {
    let mut wb = Workbench::small().with_jobs(2);
    let _ = wb.take_sim_compute();
    let _ = wb.line_size_sweep(6);
    assert!(wb.take_sim_compute().as_nanos() > 0);
    // Taking the clock resets it.
    assert_eq!(wb.take_sim_compute().as_nanos(), 0);
}

#[test]
fn pipelined_streamed_sweep_is_gen_jobs_invariant() {
    let mut wb = Workbench::small();
    let dir = std::env::temp_dir().join(format!("dss-pipe-inv-{}", std::process::id()));
    wb.set_trace_dir(dir.clone());
    wb.set_trace_mode(TraceMode::Streamed);

    wb.set_jobs(1);
    let serial = wb.line_size_sweep(6);

    for (jobs, gen_jobs) in [(4, 2), (2, 3), (1, 1)] {
        wb.set_jobs(jobs);
        wb.set_gen_jobs(gen_jobs);
        let piped = wb.line_size_sweep(6);
        assert_eq!(serial.len(), piped.len());
        for (s, p) in serial.iter().zip(&piped) {
            assert_eq!(s.l2_line, p.l2_line);
            assert_eq!(
                s.stats, p.stats,
                "jobs={jobs} gen_jobs={gen_jobs} diverged at l2_line={}",
                s.l2_line
            );
        }
        let snap = wb.take_pipeline_stats();
        assert!(snap.blocks > 0, "pipelined points deliver blocks");
    }

    // Pipelining composes with materialized mode too.
    wb.set_trace_mode(TraceMode::Materialized);
    wb.set_jobs(4);
    wb.set_gen_jobs(2);
    let materialized = wb.line_size_sweep(6);
    for (s, p) in serial.iter().zip(&materialized) {
        assert_eq!(s.stats, p.stats, "materialized+pipelined diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
