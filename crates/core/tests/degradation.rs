//! Graceful degradation of the sweep pipeline: a failed sweep point becomes
//! a structured [`PointError`] instead of an aborted run.
//!
//! These tests drive the fault path end to end through the public API: the
//! sabotage hook panics one labeled point, the deadline watchdog times
//! points out, and fail-soft mode must (a) complete every healthy point,
//! (b) classify every failure, and (c) change nothing at all when no fault
//! fires.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use dss_core::{experiments, PointCause, Workbench};
use dss_query::DbConfig;

/// A tiny workbench: big enough to sweep, small enough to build per test.
fn wb() -> Workbench {
    Workbench::new(
        &DbConfig {
            scale: 0.001,
            nbuffers: 1024,
            ..DbConfig::default()
        },
        2,
    )
    .with_jobs(2)
}

#[test]
fn sabotaged_point_degrades_not_aborts() {
    let mut wb = wb();
    wb.set_fail_soft(true);
    wb.set_sabotage(Some("fig8/Q6/l2_line=64".into()));
    let points = wb.line_size_sweep(6);
    // The four healthy points completed; only the sabotaged one is missing.
    assert_eq!(points.len(), 4, "remaining points still ran");
    assert!(
        points.iter().all(|p| p.l2_line != 64),
        "the sabotaged point is skipped, not fabricated"
    );
    let errors = wb.take_point_errors();
    assert_eq!(errors.len(), 1);
    assert_eq!(errors[0].site, "fig8/Q6/l2_line=64");
    assert_eq!(errors[0].seed, 0);
    match &errors[0].cause {
        PointCause::Panicked(msg) => assert!(msg.contains("injected"), "payload kept: {msg}"),
        other => panic!("expected a panic classification, got {other:?}"),
    }
    // Drained: a second read is clean.
    assert_eq!(wb.point_error_count(), 0);
}

#[test]
fn zero_deadline_times_every_point_out() {
    let mut wb = wb();
    wb.set_fail_soft(true);
    wb.set_point_deadline(Some(Duration::ZERO));
    assert!(
        wb.line_size_sweep(6).is_empty(),
        "every result is discarded"
    );
    let errors = wb.take_point_errors();
    assert_eq!(errors.len(), 5);
    assert!(errors
        .iter()
        .all(|e| matches!(e.cause, PointCause::TimedOut { limit_ms: 0 })));
    // Lifting the deadline restores the full sweep on the same workbench.
    wb.set_point_deadline(None);
    assert_eq!(wb.line_size_sweep(6).len(), 5);
}

#[test]
fn fail_hard_mode_still_propagates_the_panic() {
    let mut wb = wb();
    wb.set_sabotage(Some("fig8/Q6/l2_line=32".into()));
    let result = catch_unwind(AssertUnwindSafe(|| wb.line_size_sweep(6)));
    let payload = result.expect_err("fail-hard sweeps abort on a faulty point");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("injected"),
        "original payload re-raised: {msg}"
    );
    assert_eq!(wb.point_error_count(), 0, "fail-hard records nothing");
}

#[test]
fn fail_soft_without_faults_is_bit_identical() {
    let mut wb = wb();
    let hard: Vec<_> = wb.line_size_sweep(6).into_iter().map(|p| p.stats).collect();
    wb.set_fail_soft(true);
    wb.set_point_deadline(Some(Duration::from_secs(3600)));
    let soft: Vec<_> = wb.line_size_sweep(6).into_iter().map(|p| p.stats).collect();
    assert_eq!(hard, soft, "fail-soft mode must not perturb results");
    assert_eq!(wb.point_error_count(), 0);
}

/// Every experiment that simulates goes through the one sweep-point runner,
/// so a zero deadline must time out points in each of them — the extension
/// experiments and Figure 12 included. Paired experiments then panic for
/// want of their points (the caller's experiment guard records that).
#[test]
fn zero_deadline_reaches_every_experiment() {
    type Run = fn(&mut Workbench);
    let runs: [(&str, Run); 11] = [
        ("baseline_suite", |wb| drop(wb.baseline_suite(&[6]))),
        ("line_size_sweep", |wb| drop(wb.line_size_sweep(6))),
        ("cache_size_sweep", |wb| drop(wb.cache_size_sweep(6))),
        ("prefetch_experiment", |wb| drop(wb.prefetch_experiment(6))),
        ("prefetch_degree_sweep", |wb| {
            drop(wb.prefetch_degree_sweep(6))
        }),
        ("protocol_ablation", |wb| drop(wb.protocol_ablation(6))),
        ("processor_sweep", |wb| drop(wb.processor_sweep(6))),
        ("reuse_experiment", |wb| drop(wb.reuse_experiment(6, 3))),
        ("update_experiment", |wb| {
            drop(experiments::update_experiment(wb, 0.001))
        }),
        ("intra_query_experiment", |wb| {
            drop(experiments::intra_query_experiment(wb))
        }),
        ("stream_experiment", |wb| {
            drop(experiments::stream_experiment(wb, &[6]))
        }),
    ];
    let mut wb = wb();
    wb.set_fail_soft(true);
    wb.set_point_deadline(Some(Duration::ZERO));
    for (name, run) in runs {
        let _ = catch_unwind(AssertUnwindSafe(|| run(&mut wb)));
        let errors = wb.take_point_errors();
        assert!(!errors.is_empty(), "{name}: no point timed out");
        assert!(
            errors
                .iter()
                .all(|e| matches!(e.cause, PointCause::TimedOut { limit_ms: 0 })),
            "{name}: {errors:?}"
        );
        assert!(
            wb.take_sim_compute().as_nanos() > 0,
            "{name}: compute clock fed"
        );
    }
}

#[test]
fn sabotaged_reuse_arm_is_recorded_then_the_experiment_panics() {
    let mut wb = wb();
    wb.set_fail_soft(true);
    wb.set_sabotage(Some("fig12/Q6v3/warm_other".into()));
    let result = catch_unwind(AssertUnwindSafe(|| wb.reuse_experiment(6, 3)));
    let payload = result.expect_err("a lost arm abandons the experiment");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("lost a sweep point"), "{msg}");
    assert!(wb.sabotage_matched());
    let errors = wb.take_point_errors();
    assert_eq!(errors.len(), 1);
    assert_eq!(errors[0].site, "fig12/Q6v3/warm_other");
}

#[test]
fn sabotage_match_is_tracked() {
    let mut wb = wb();
    wb.set_fail_soft(true);
    wb.set_sabotage(Some("fig8/Q6/l2_line=48".into()));
    assert_eq!(wb.line_size_sweep(6).len(), 5, "no point carries the label");
    assert!(!wb.sabotage_matched());
    wb.set_sabotage(Some("fig8/Q6/l2_line=64".into()));
    let _ = wb.line_size_sweep(6);
    assert!(wb.sabotage_matched());
}
