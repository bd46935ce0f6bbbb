//! Tailing the write-ahead log: the resumable cursor a log shipper reads
//! the primary's segments through.
//!
//! Recovery reads the log once, at rest; a read replica *follows* it while
//! the primary keeps appending.  [`read_tail`] is the live policy over the
//! one segment walk both read through (`walk.rs`: the same trust boundary
//! as recovery — a record the CRC rejects is never shipped).  A poll
//! **parks** on every cold-tail shape a live log can present and resumes
//! once the writer catches up; it errors on damage; and
//! [`WalCursor::from_lsn`] lets a restarted replica seek past the records
//! its checkpoint already holds, re-reading but not re-delivering them.
//! The cursor is plain data (`segment`, byte `offset`, `next_lsn`), so a
//! replica can persist it and resume exactly where it stopped.
//!
//! ## Promotions
//!
//! After a failover the directory's epoch marker names a fence
//! ([`crate::epoch`]): old-lineage bytes at or past the fence LSN are a
//! deposed primary's residue.  The tailer **resubscribes** rather than
//! errors on every promotion shape — a stale-epoch record at the fence, a
//! torn residue frame, or an old segment healed away entirely all rebind
//! the cursor to the first segment of the new lineage, whose records
//! continue the LSN sequence exactly at the fence.  One caveat is
//! inherent: a tailer that already *delivered* residue during the
//! promotion window (before the fence was published) cannot detect that
//! locally — the split-brain tests pin down that the healed log itself
//! never re-serves residue, which is what bounds the damage to replicas
//! rebuilt from the log.

use crate::wal::ScannedRecord;
use crate::walk::{invalid, SegmentWalk, Stop};
use std::io;
use std::path::Path;

#[cfg(test)] // The tests below name these.
use crate::{wal::*, walk::READ_WINDOW};

/// A resumable read position in a segmented log directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalCursor {
    /// The segment being read (`None` until the cursor has bound itself to
    /// the first segment that exists — an empty directory has nothing to
    /// bind to yet).
    pub(crate) segment: Option<u64>,
    /// Byte offset of the next unread byte inside `segment` (at least
    /// the segment header's length once the header has been verified).
    pub(crate) offset: u64,
    /// LSN the next *delivered* record must carry.  Records below it (a
    /// seek's skip prefix) are decoded and discarded; a record above it
    /// means the log lost a record and is reported as corruption.
    pub(crate) next_lsn: u64,
}

impl WalCursor {
    /// A cursor at the very beginning of the log.
    pub fn origin() -> Self {
        WalCursor::from_lsn(0)
    }

    /// A cursor that delivers records starting at `lsn`: the physical scan
    /// still begins at the first segment (records are CRC-checked along
    /// the way), but everything below `lsn` is skipped, not delivered.
    /// This is how a restarted replica resumes from its checkpoint's LSN.
    pub fn from_lsn(lsn: u64) -> Self {
        WalCursor {
            segment: None,
            offset: 0,
            next_lsn: lsn,
        }
    }

    /// LSN of the next record this cursor will deliver.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The segment the cursor is positioned in, once bound.
    pub fn segment(&self) -> Option<u64> {
        self.segment
    }
}

/// One poll's worth of tail records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailBatch {
    /// Whole, CRC-valid records in log order, each with `lsn >= ` the
    /// cursor's `next_lsn` at call time.
    pub records: Vec<ScannedRecord>,
    /// `true` when the poll consumed everything currently readable: the
    /// cursor stands at the physical end of the last segment, or at a
    /// cold tail (torn record / unwritten segment) that only the writer
    /// can extend.  `false` means more may be readable right now (the
    /// batch limit or the read window stopped the poll) — poll again
    /// without sleeping.
    pub caught_up: bool,
}

/// Polls the log under `dir` from `cursor`, delivering at most
/// `max_records` records and advancing the cursor past everything it
/// consumed (delivered or skipped).  One poll reads at most one window of
/// each segment it visits.
///
/// Cold tails — an absent or empty directory, a zero-length or
/// half-written newest segment, a torn record at the physical end, a
/// fenced lineage not listed yet — are the normal states of a live log
/// between flushes: the batch comes back (maybe empty) with `caught_up`
/// and the cursor where the next poll resumes.  Damage — a CRC-invalid
/// record or a bad header anywhere, a torn one with a later segment
/// listed, an LSN gap, a vanished segment — is an `InvalidData` error,
/// and the cursor is left as it was.
pub fn read_tail(dir: &Path, cursor: &mut WalCursor, max_records: usize) -> io::Result<TailBatch> {
    let mut walk = SegmentWalk::new(dir, *cursor)?;
    let mut records = Vec::new();
    let caught_up = match walk.read(&mut records, max_records)? {
        Stop::Full | Stop::Window => false,
        Stop::End | Stop::Unlisted(_) | Stop::Torn => true,
        Stop::Corrupt(what) | Stop::Gap(what) => return Err(invalid(what)),
    };
    *cursor = walk.cursor;
    Ok(TailBatch { records, caught_up })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_record, CommitEntry, WalRecord};
    use crate::wal::{DurabilityMode, WalWriter};
    use bytes::Bytes;
    use mvcc_core::{EntityId, TxId};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mvcc-tail-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_rec(tx: u32, value: &[u8]) -> WalRecord {
        WalRecord::Write {
            tx: TxId(tx),
            entity: EntityId(tx % 4),
            value: Bytes::copy_from_slice(value),
        }
    }

    #[test]
    fn tail_follows_appends_across_polls() {
        let dir = temp_dir("follow");
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        let mut cursor = WalCursor::origin();
        wal.append_and_flush(&[write_rec(1, b"a"), write_rec(2, b"b")])
            .unwrap();
        let batch = read_tail(&dir, &mut cursor, 64).unwrap();
        assert_eq!(batch.records.len(), 2);
        assert!(batch.caught_up);
        // Nothing new: an empty, caught-up poll.
        let batch = read_tail(&dir, &mut cursor, 64).unwrap();
        assert!(batch.records.is_empty() && batch.caught_up);
        // More appends resume the stream with consecutive LSNs.
        wal.append_and_flush(&[write_rec(3, b"c")]).unwrap();
        let batch = read_tail(&dir, &mut cursor, 64).unwrap();
        assert_eq!(batch.records.len(), 1);
        assert_eq!(batch.records[0].lsn, 2);
    }

    #[test]
    fn batch_limit_reports_not_caught_up() {
        let dir = temp_dir("limit");
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        let records: Vec<WalRecord> = (0..6u32).map(|i| write_rec(i, b"x")).collect();
        wal.append_and_flush(&records).unwrap();
        let mut cursor = WalCursor::origin();
        let first = read_tail(&dir, &mut cursor, 4).unwrap();
        assert_eq!(first.records.len(), 4);
        assert!(!first.caught_up, "limit hit: more is readable");
        let rest = read_tail(&dir, &mut cursor, 4).unwrap();
        assert_eq!(rest.records.len(), 2);
        assert!(rest.caught_up);
        assert_eq!(rest.records[0].lsn, 4);
    }

    #[test]
    fn empty_and_absent_directories_park() {
        let dir = temp_dir("empty");
        let mut cursor = WalCursor::origin();
        // Existing but empty: park.
        let batch = read_tail(&dir, &mut cursor, 64).unwrap();
        assert!(batch.records.is_empty() && batch.caught_up);
        // Absent entirely: also a park, not an error (the primary may not
        // have created its log yet).
        let ghost = dir.join("never-created");
        let batch = read_tail(&ghost, &mut cursor, 64).unwrap();
        assert!(batch.records.is_empty() && batch.caught_up);
        // Once the writer shows up, the same cursor picks the log up.
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        wal.append_and_flush(&[write_rec(1, b"late")]).unwrap();
        let batch = read_tail(&dir, &mut cursor, 64).unwrap();
        assert_eq!(batch.records.len(), 1);
        assert_eq!(batch.records[0].lsn, 0);
    }

    #[test]
    fn zero_length_tail_segment_parks_then_resumes() {
        let dir = temp_dir("zerolen");
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        wal.append_and_flush(&[write_rec(1, b"solid")]).unwrap();
        let mut cursor = WalCursor::origin();
        assert_eq!(read_tail(&dir, &mut cursor, 64).unwrap().records.len(), 1);
        // A zero-length next segment appears (rotation torn before the
        // header landed): the tailer must park on it, not error.
        let ghost = segment_path(&dir, 1);
        std::fs::write(&ghost, b"").unwrap();
        let batch = read_tail(&dir, &mut cursor, 64).unwrap();
        assert!(batch.records.is_empty(), "nothing readable yet");
        assert!(batch.caught_up);
        // The writer completes the segment; the same cursor resumes.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SEGMENT_MAGIC);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        encode_record(1, 0, &write_rec(2, b"resumed"), &mut bytes);
        std::fs::write(&ghost, &bytes).unwrap();
        let batch = read_tail(&dir, &mut cursor, 64).unwrap();
        assert_eq!(batch.records.len(), 1);
        assert_eq!(batch.records[0].lsn, 1);
    }

    #[test]
    fn torn_tail_record_parks_and_resumes_without_loss() {
        let dir = temp_dir("torn");
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        wal.append_and_flush(&[write_rec(1, b"whole"), write_rec(2, b"to-be-torn")])
            .unwrap();
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let full = std::fs::read(&path).unwrap();
        // Tear the last record's final 3 bytes off.
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full.len() as u64 - 3).unwrap();
        drop(file);
        let mut cursor = WalCursor::origin();
        let batch = read_tail(&dir, &mut cursor, 64).unwrap();
        assert_eq!(batch.records.len(), 1, "only the whole record ships");
        assert!(batch.caught_up, "torn tail parks");
        // The writer completes the record (restore the full bytes): the
        // parked cursor delivers it exactly once.
        std::fs::write(&path, &full).unwrap();
        let batch = read_tail(&dir, &mut cursor, 64).unwrap();
        assert_eq!(batch.records.len(), 1);
        assert_eq!(batch.records[0].lsn, 1);
    }

    #[test]
    fn corruption_with_a_successor_is_an_error_not_a_park() {
        let dir = temp_dir("corrupt");
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 64).unwrap();
        for i in 0..6u32 {
            wal.append_and_flush(&[write_rec(i, &[7u8; 48])]).unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3, "need rotation");
        // Flip a payload byte in the middle segment.
        let (_, middle) = &segments[1];
        let mut bytes = std::fs::read(middle).unwrap();
        let flip = SEGMENT_HEADER + crate::record::FRAME_OVERHEAD + 1;
        bytes[flip] ^= 0xff;
        std::fs::write(middle, &bytes).unwrap();
        let mut cursor = WalCursor::origin();
        let err = read_tail(&dir, &mut cursor, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_vanished_middle_segment_is_an_error_not_a_silent_stall() {
        let dir = temp_dir("vanish");
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 64).unwrap();
        for i in 0..6u32 {
            wal.append_and_flush(&[write_rec(i, &[9u8; 48])]).unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3, "need a middle segment");
        // Consume segment 0 fully so the cursor sits in the middle one.
        let mut cursor = WalCursor::origin();
        loop {
            let batch = read_tail(&dir, &mut cursor, 1).unwrap();
            if cursor.segment() != Some(segments[0].0) || batch.caught_up {
                break;
            }
        }
        let seq = cursor.segment().unwrap();
        // Delete the cursor's segment while earlier AND later ones
        // survive: the tailer must error (a park would stall forever
        // while reporting success).
        std::fs::remove_file(segment_path(&dir, seq)).unwrap();
        let err = read_tail(&dir, &mut cursor, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("vanished"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lsn_gaps_are_detected() {
        let dir = temp_dir("gap");
        // Hand-build a segment whose records jump from LSN 0 to LSN 2.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SEGMENT_MAGIC);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        encode_record(0, 0, &write_rec(1, b"a"), &mut bytes);
        encode_record(2, 0, &write_rec(2, b"b"), &mut bytes);
        std::fs::write(segment_path(&dir, 0), &bytes).unwrap();
        let mut cursor = WalCursor::origin();
        let err = read_tail(&dir, &mut cursor, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("LSN gap"), "{err}");
    }

    #[test]
    fn from_lsn_skips_the_applied_prefix() {
        let dir = temp_dir("seek");
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 64).unwrap();
        for i in 0..8u32 {
            wal.append_and_flush(&[write_rec(i, &[3u8; 32])]).unwrap();
        }
        let mut cursor = WalCursor::from_lsn(5);
        let batch = read_tail(&dir, &mut cursor, 64).unwrap();
        assert_eq!(
            batch.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
        assert_eq!(cursor.next_lsn(), 8);
    }

    #[test]
    fn rotation_during_an_active_tail_never_drops_a_record() {
        // The WalWriter satellite: a writer rotating through tiny segments
        // while a tailer follows concurrently must hand the tailer every
        // LSN exactly once, in order — rotation (flush old, create new,
        // switch) has no window in which a record is invisible to a
        // reader that already consumed the old segment's end.
        let dir = temp_dir("rotate");
        let total: u64 = 300;
        let writer_dir = dir.clone();
        let writer = std::thread::spawn(move || {
            // Tiny threshold: every few appends rotates.
            let wal = WalWriter::open(&writer_dir, DurabilityMode::Buffered, 96).unwrap();
            for i in 0..total {
                wal.append_and_flush(&[write_rec(i as u32, &[5u8; 24])])
                    .unwrap();
                if i % 16 == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let mut cursor = WalCursor::origin();
        let mut seen: Vec<u64> = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while seen.len() < total as usize {
            assert!(
                std::time::Instant::now() < deadline,
                "tailer starved: saw {} of {total}",
                seen.len()
            );
            let batch = read_tail(&dir, &mut cursor, 32).unwrap();
            seen.extend(batch.records.iter().map(|r| r.lsn));
            if batch.caught_up && batch.records.is_empty() {
                std::thread::yield_now();
            }
        }
        writer.join().unwrap();
        assert_eq!(
            seen,
            (0..total).collect::<Vec<_>>(),
            "every LSN once, in order"
        );
        assert!(
            list_segments(&dir).unwrap().len() > 3,
            "the run must actually rotate"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn large_segments_are_read_in_windows_without_loss() {
        // A segment much larger than READ_WINDOW: polls bounded by the
        // window report not-caught-up (so callers re-poll immediately,
        // without sleeping) and deliver every record exactly once.
        let dir = temp_dir("window");
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 64 << 20).unwrap();
        let total = 120u32;
        let payload = vec![0xa5u8; 8 * 1024];
        for i in 0..total {
            wal.append_and_flush(&[write_rec(i, &payload)]).unwrap();
        }
        let mut cursor = WalCursor::origin();
        let mut seen = Vec::new();
        let mut polls = 0;
        loop {
            let batch = read_tail(&dir, &mut cursor, usize::MAX).unwrap();
            seen.extend(batch.records.iter().map(|r| r.lsn));
            polls += 1;
            if batch.caught_up {
                break;
            }
        }
        assert_eq!(seen, (0..u64::from(total)).collect::<Vec<_>>());
        assert!(
            polls > 2,
            "a ~1 MB segment must take several windowed polls, took {polls}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_larger_than_the_read_window_still_ship() {
        // Livelock regression: a record bigger than READ_WINDOW must make
        // the tailer extend its buffer to cover the record (the frame
        // header declares the length), not spin forever on an empty
        // not-caught-up batch.
        let dir = temp_dir("bigrec");
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 64 << 20).unwrap();
        let big = vec![0x5au8; (READ_WINDOW as usize) + 50_000];
        wal.append_and_flush(&[
            write_rec(1, b"small-before"),
            write_rec(2, &big),
            write_rec(3, b"small-after"),
        ])
        .unwrap();
        let mut cursor = WalCursor::origin();
        let mut seen = Vec::new();
        for _ in 0..16 {
            let batch = read_tail(&dir, &mut cursor, 64).unwrap();
            seen.extend(batch.records);
            if batch.caught_up {
                break;
            }
        }
        assert_eq!(
            seen.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "bounded polls must deliver all three records"
        );
        match &seen[1].record {
            WalRecord::Write { value, .. } => assert_eq!(value.len(), big.len()),
            other => panic!("wrong record {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tailer_skips_residue_and_rebinds_to_the_promoted_lineage() {
        // Satellite: the "vanished segment" error path must not fire for
        // old-epoch segments superseded by a promotion — the shipper
        // resubscribes to the new lineage instead.
        let dir = temp_dir("fencejump");
        let old = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        old.append_and_flush(&[write_rec(1, b"pre-a"), write_rec(2, b"pre-b")])
            .unwrap();
        let mut cursor = WalCursor::origin();
        assert_eq!(read_tail(&dir, &mut cursor, 64).unwrap().records.len(), 2);
        let promoted = WalWriter::promote_open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        // Residue: the deposed primary's encoded bytes land in the old
        // segment after the promotion scan (the in-flight-write window).
        let mut residue = Vec::new();
        encode_record(2, 0, &write_rec(9, b"resurrect-me"), &mut residue);
        {
            use std::io::Write as _;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(segment_path(&dir, 0))
                .unwrap();
            file.write_all(&residue).unwrap();
        }
        promoted
            .append_and_flush(&[write_rec(3, b"post-a"), write_rec(4, b"post-b")])
            .unwrap();
        // The parked cursor sits in the old segment; its next poll must
        // skip the stale-epoch record and deliver the new lineage.
        let batch = read_tail(&dir, &mut cursor, 64).unwrap();
        assert_eq!(
            batch
                .records
                .iter()
                .map(|r| (r.lsn, r.epoch))
                .collect::<Vec<_>>(),
            vec![(2, 1), (3, 1)]
        );
        for rec in &batch.records {
            if let WalRecord::Write { value, .. } = &rec.record {
                assert_ne!(&value[..], b"resurrect-me", "residue must never ship");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_healed_away_segment_rebinds_instead_of_erroring() {
        // Promotion healing can delete an old segment outright (when it
        // held nothing but residue).  A cursor still bound there — e.g. a
        // replica resuming from its checkpoint at the fence — must
        // resubscribe to the new lineage, not report "vanished under the
        // cursor".
        let dir = temp_dir("healedaway");
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 64).unwrap();
        for i in 0..4u32 {
            wal.append_and_flush(&[write_rec(i, &[8u8; 48])]).unwrap();
        }
        drop(wal);
        let promoted = WalWriter::promote_open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        promoted.append_and_flush(&[write_rec(9, b"next")]).unwrap();
        // A cursor seeking to the fence, physically bound to the first
        // old segment, which then disappears.
        let mut cursor = WalCursor::from_lsn(4);
        let first = list_segments(&dir).unwrap()[0].0;
        cursor.segment = Some(first);
        std::fs::remove_file(segment_path(&dir, first)).unwrap();
        let batch = read_tail(&dir, &mut cursor, 64).unwrap();
        assert_eq!(
            batch
                .records
                .iter()
                .map(|r| (r.lsn, r.epoch))
                .collect::<Vec<_>>(),
            vec![(4, 1)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_lsn_resumes_across_an_epoch_boundary() {
        // Satellite: a restarted replica whose checkpoint LSN lies on
        // either side of a promotion fence must resume cleanly — the old
        // lineage's surviving prefix and the new lineage share one
        // consecutive LSN sequence.
        let dir = temp_dir("seekepoch");
        let old = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        for i in 0..5u32 {
            old.append_and_flush(&[write_rec(i, b"old")]).unwrap();
        }
        let promoted = WalWriter::promote_open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        for i in 5..9u32 {
            promoted.append_and_flush(&[write_rec(i, b"new")]).unwrap();
        }
        // Resume from inside the old lineage: pre-fence records 3..5 come
        // from the old segment, 5.. from the new one, consecutively.
        let mut cursor = WalCursor::from_lsn(3);
        let batch = read_tail(&dir, &mut cursor, 64).unwrap();
        assert_eq!(
            batch
                .records
                .iter()
                .map(|r| (r.lsn, r.epoch))
                .collect::<Vec<_>>(),
            vec![(3, 0), (4, 0), (5, 1), (6, 1), (7, 1), (8, 1)]
        );
        // Resume exactly at the fence.
        let mut cursor = WalCursor::from_lsn(5);
        let batch = read_tail(&dir, &mut cursor, 64).unwrap();
        assert_eq!(
            batch.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![5, 6, 7, 8]
        );
        // Resume past the fence.
        let mut cursor = WalCursor::from_lsn(7);
        let batch = read_tail(&dir, &mut cursor, 64).unwrap();
        assert_eq!(
            batch.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![7, 8]
        );
        assert_eq!(cursor.next_lsn(), 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_lsn_resumes_across_an_epoch_boundary_with_torn_residue() {
        // Fault injection on the same seek: the old segment additionally
        // ends in a *torn* residue frame (the deposed primary died
        // mid-write).  The seek must still cross the boundary.
        let dir = temp_dir("seektorn");
        let old = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        for i in 0..5u32 {
            old.append_and_flush(&[write_rec(i, b"old")]).unwrap();
        }
        let promoted = WalWriter::promote_open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        let mut residue = Vec::new();
        encode_record(5, 0, &write_rec(9, b"torn-residue"), &mut residue);
        residue.truncate(residue.len() - 4);
        {
            use std::io::Write as _;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(segment_path(&dir, 0))
                .unwrap();
            file.write_all(&residue).unwrap();
        }
        promoted
            .append_and_flush(&[write_rec(5, b"new-5"), write_rec(6, b"new-6")])
            .unwrap();
        let mut cursor = WalCursor::from_lsn(4);
        let batch = read_tail(&dir, &mut cursor, 64).unwrap();
        assert_eq!(
            batch
                .records
                .iter()
                .map(|r| (r.lsn, r.epoch))
                .collect::<Vec<_>>(),
            vec![(4, 0), (5, 1), (6, 1)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_records_ship_with_their_entries() {
        let dir = temp_dir("commit");
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        let commit = WalRecord::Commit {
            entries: vec![CommitEntry {
                tx: TxId(4),
                shards: vec![(0, 9), (1, 3)],
            }],
        };
        wal.append_and_flush(std::slice::from_ref(&commit)).unwrap();
        let mut cursor = WalCursor::origin();
        let batch = read_tail(&dir, &mut cursor, 8).unwrap();
        assert_eq!(batch.records.len(), 1);
        assert_eq!(batch.records[0].record, commit);
    }
}
