//! Negative tests for cut-short traces, at both trust boundaries: the block
//! codec must classify empty/header-only/mid-event files as
//! [`TraceError::Truncated`] with the offset where the bytes ran out, and
//! the lock-discipline checker must flag the in-memory shape a truncated
//! trace would have (a lock acquired, the trace ending before its release).

use dss_trace::{
    check_lock_discipline, materialize, read_trace_blocks, write_trace_blocks, DataClass,
    FileTraceSource, LockClass, LockDisciplineError, LockToken, TraceError, Tracer,
    DEFAULT_BLOCK_EVENTS,
};

/// Byte length of the stream header (magic, proc id, header checksum).
const HEADER: usize = 24;

/// Encodes a trace whose one critical section sits mid-stream, all five
/// events in one block.
fn locked_trace_bytes() -> Vec<u8> {
    let t = Tracer::new(0);
    t.read(0x1000, 8, DataClass::Data);
    t.lock_acquire(LockToken::new(0x40, LockClass::LockMgr));
    t.write(0x2000, 8, DataClass::LockHash);
    t.lock_release(LockToken::new(0x40, LockClass::LockMgr));
    t.busy(7);
    let mut bytes = Vec::new();
    write_trace_blocks(&t.take(), &mut bytes, DEFAULT_BLOCK_EVENTS)
        .expect("in-memory write cannot fail");
    bytes
}

#[test]
fn empty_stream_is_truncated_at_offset_zero() {
    match read_trace_blocks(&[][..]) {
        Err(TraceError::Truncated {
            offset,
            expected,
            event,
        }) => {
            assert_eq!(offset, 0);
            assert_eq!(expected, "block stream magic");
            assert_eq!(event, None);
        }
        other => panic!("empty stream: expected Truncated, got {other:?}"),
    }
}

#[test]
fn magic_only_stream_is_truncated_at_the_header() {
    match read_trace_blocks(&b"DSSTRB01"[..]) {
        Err(TraceError::Truncated {
            offset, expected, ..
        }) => {
            assert_eq!(offset, 8);
            assert_eq!(expected, "block stream header");
        }
        other => panic!("magic-only stream: expected Truncated, got {other:?}"),
    }
}

#[test]
fn header_only_stream_is_truncated_before_the_first_event() {
    // A valid stream header, then a block header promising five events,
    // then nothing.
    let mut bytes = locked_trace_bytes()[..HEADER].to_vec();
    bytes.extend_from_slice(&5u64.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    match read_trace_blocks(&bytes[..]) {
        Err(TraceError::Truncated {
            offset,
            expected,
            event,
        }) => {
            assert_eq!(offset, HEADER as u64 + 16);
            assert_eq!(expected, "event record");
            assert_eq!(event, Some((0, 5)));
        }
        other => panic!("header-only stream: expected Truncated, got {other:?}"),
    }
}

#[test]
fn empty_and_header_only_files_are_classified() {
    let dir = std::env::temp_dir().join(format!("dss-trunc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, contents) in [
        ("empty.trb", &[][..]),
        ("header-only.trb", &locked_trace_bytes()[..HEADER]),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, contents).expect("write fixture");
        let src = FileTraceSource::new(vec![path]);
        let err = materialize(&src).expect_err("cut file must not decode");
        assert_eq!(err.kind(), "truncated", "{name}: {err}");
        // The InFile wrapper names the file so an operator can find it.
        assert!(err.to_string().contains(name), "{name}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn file_cut_inside_the_critical_section_is_truncated() {
    let bytes = locked_trace_bytes();
    // Cut mid-stream: past the acquire (event 1) but before the release
    // (event 3). Events are 17 bytes, after the stream header and the
    // block's count and chunk index.
    let cut = HEADER + 16 + 2 * 17 + 9;
    let err = read_trace_blocks(&bytes[..cut]).expect_err("cut trace must not decode");
    assert_eq!(err.kind(), "truncated", "{err}");
}

#[test]
fn trace_ending_with_a_held_lock_is_flagged() {
    // The in-memory shape a truncated trace would decode to, had the cut
    // landed on an event boundary of a (checksum-less) stream: the acquire
    // is present, the release never arrives.
    let full = {
        let t = Tracer::new(0);
        t.read(0x1000, 8, DataClass::Data);
        t.lock_acquire(LockToken::new(0x40, LockClass::LockMgr));
        t.write(0x2000, 8, DataClass::LockHash);
        t.lock_release(LockToken::new(0x40, LockClass::LockMgr));
        t.busy(7);
        t.take()
    };
    check_lock_discipline(&full).expect("the full trace is disciplined");

    let mut cut = full;
    cut.events.truncate(3); // read, acquire, write — release dropped
    match check_lock_discipline(&cut) {
        Err(LockDisciplineError::HeldAtEnd { index, addr, .. }) => {
            assert_eq!(index, 1, "the unmatched acquire");
            assert_eq!(addr, 0x40);
        }
        other => panic!("held-at-end not flagged: {other:?}"),
    }
}
