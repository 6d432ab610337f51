//! Checkpoint/resume through the experiment harness: journaled sweep points
//! are served from the manifest without re-simulation, and the served
//! results are identical to freshly computed ones — the invariant the
//! byte-identical `repro --resume` output rests on.

use std::path::PathBuf;

use dss_core::{config_fingerprint, CheckpointJournal, Workbench};
use dss_query::DbConfig;

fn config() -> DbConfig {
    DbConfig {
        scale: 0.001,
        nbuffers: 1024,
        ..DbConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dss-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn journaled_sweep_resumes_without_recomputation() {
    let dir = temp_dir("sweep");
    let manifest = dir.join("manifest.ckpt");
    let fp = config_fingerprint(&config(), 2);

    let mut wb = Workbench::new(&config(), 2).with_jobs(2);
    wb.set_checkpoint(CheckpointJournal::create(&manifest, fp).unwrap());
    let fresh = wb.line_size_sweep(6);
    assert_eq!(
        wb.take_checkpoint_counts(),
        (0, 5),
        "all five points computed"
    );

    let journal = CheckpointJournal::resume(&manifest, fp).unwrap();
    assert_eq!(journal.fresh_reason(), None);
    assert_eq!(journal.replayed(), 5);
    let mut wb2 = Workbench::new(&config(), 2).with_jobs(2);
    wb2.set_checkpoint(journal);
    let resumed = wb2.line_size_sweep(6);
    assert_eq!(
        wb2.take_checkpoint_counts(),
        (5, 0),
        "all five points loaded"
    );

    assert_eq!(fresh.len(), resumed.len());
    for (a, b) in fresh.iter().zip(&resumed) {
        assert_eq!(a.l2_line, b.l2_line);
        assert_eq!(a.stats, b.stats, "journaled point identical to computed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partial_journal_recomputes_only_whats_missing() {
    let dir = temp_dir("partial");
    let manifest = dir.join("manifest.ckpt");
    let fp = config_fingerprint(&config(), 2);

    let mut wb = Workbench::new(&config(), 2).with_jobs(2);
    wb.set_checkpoint(CheckpointJournal::create(&manifest, fp).unwrap());
    let fresh = wb.line_size_sweep(6);

    // Tear the journal after its third record, as a mid-sweep crash would.
    let text = std::fs::read_to_string(&manifest).unwrap();
    let keep: Vec<&str> = text.lines().take(4).collect();
    std::fs::write(&manifest, format!("{}\n", keep.join("\n"))).unwrap();

    let journal = CheckpointJournal::resume(&manifest, fp).unwrap();
    assert_eq!(journal.replayed(), 3);
    let mut wb2 = Workbench::new(&config(), 2).with_jobs(2);
    wb2.set_checkpoint(journal);
    let resumed = wb2.line_size_sweep(6);
    assert_eq!(
        wb2.take_checkpoint_counts(),
        (3, 2),
        "two points recomputed"
    );
    for (a, b) in fresh.iter().zip(&resumed) {
        assert_eq!(a.stats, b.stats);
    }
    // The recomputed points were re-journaled: a second resume loads all 5.
    assert_eq!(
        CheckpointJournal::resume(&manifest, fp).unwrap().replayed(),
        5
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fully_journaled_sweep_generates_no_traces() {
    let dir = temp_dir("nogen");
    let manifest = dir.join("manifest.ckpt");
    let fp = config_fingerprint(&config(), 2);

    let mut wb = Workbench::new(&config(), 2).with_jobs(2);
    wb.set_checkpoint(CheckpointJournal::create(&manifest, fp).unwrap());
    let fresh = wb.line_size_sweep(6);
    assert_eq!(wb.cached_trace_sets(), 1);

    let mut wb2 = Workbench::new(&config(), 2).with_jobs(2);
    wb2.set_checkpoint(CheckpointJournal::resume(&manifest, fp).unwrap());
    let resumed = wb2.line_size_sweep(6);
    assert_eq!(wb2.take_checkpoint_counts(), (5, 0));
    assert_eq!(
        wb2.cached_trace_sets(),
        0,
        "journal consulted before any trace is generated"
    );
    for (a, b) in fresh.iter().zip(&resumed) {
        assert_eq!(a.stats, b.stats);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reuse_experiment_is_served_from_the_journal() {
    let dir = temp_dir("reuse");
    let manifest = dir.join("manifest.ckpt");
    let fp = config_fingerprint(&config(), 2);

    let mut wb = Workbench::new(&config(), 2).with_jobs(2);
    wb.set_checkpoint(CheckpointJournal::create(&manifest, fp).unwrap());
    let fresh = wb.reuse_experiment(6, 3);
    assert_eq!(wb.take_checkpoint_counts(), (0, 3));

    let mut wb2 = Workbench::new(&config(), 2).with_jobs(2);
    wb2.set_checkpoint(CheckpointJournal::resume(&manifest, fp).unwrap());
    let resumed = wb2.reuse_experiment(6, 3);
    assert_eq!(wb2.take_checkpoint_counts(), (3, 0));
    assert_eq!(fresh.cold, resumed.cold);
    assert_eq!(fresh.warm_same, resumed.warm_same);
    assert_eq!(fresh.warm_other, resumed.warm_other);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_fingerprint_recomputes_everything() {
    let dir = temp_dir("fp");
    let manifest = dir.join("manifest.ckpt");
    let fp = config_fingerprint(&config(), 2);

    let mut wb = Workbench::new(&config(), 2).with_jobs(2);
    wb.set_checkpoint(CheckpointJournal::create(&manifest, fp).unwrap());
    let _ = wb.line_size_sweep(6);

    // A journal from a different configuration must not be trusted.
    let other_fp = config_fingerprint(&config(), 4);
    assert_ne!(fp, other_fp);
    let journal = CheckpointJournal::resume(&manifest, other_fp).unwrap();
    assert!(journal.fresh_reason().unwrap().contains("fingerprint"));
    let mut wb2 = Workbench::new(&config(), 2).with_jobs(2);
    wb2.set_checkpoint(journal);
    let _ = wb2.line_size_sweep(6);
    assert_eq!(wb2.take_checkpoint_counts(), (0, 5));
    let _ = std::fs::remove_dir_all(&dir);
}
