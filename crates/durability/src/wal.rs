//! The write-ahead log: segmented append-only files and the group-append
//! writer.
//!
//! A log directory holds monotonically numbered segment files
//! (`wal-<seq>.seg`), each starting with a 24-byte header (`MVWAL002` +
//! the segment sequence number + the primary epoch it was opened under)
//! followed by framed records ([`crate::record`]).  The [`WalWriter`]
//! appends batches under one mutex, assigns consecutive LSNs, rotates to
//! a fresh segment when the current one exceeds the configured size, and
//! flushes according to the configured [`DurabilityMode`]:
//!
//! * [`DurabilityMode::Buffered`] — `flush` pushes the user-space buffer
//!   into the OS (survives a process crash, not a host crash);
//! * [`DurabilityMode::Fsync`] — `flush` additionally `fsync`s the
//!   segment (survives a host crash).
//!
//! The engine's group-commit drain leader is the only caller of
//! [`WalWriter::flush`], so one commit batch costs exactly one flush (and
//! in fsync mode exactly one fsync) regardless of batch size — durability
//! rides the same amortization as the storage group commit.
//!
//! [`scan_log`] reads the log at rest, through the one segment walk every
//! log read goes through (`walk.rs`).  Opening a log that ends in a torn
//! record (the normal crash shape) truncates the tail back to the last
//! whole record before appending; segments after a corrupt record are
//! discarded, so the on-disk log is always one valid prefix.  A log with
//! an LSN gap is not a prefix, and both opens refuse it.
//!
//! ## Epochs and fencing
//!
//! Every record is stamped with the **primary epoch** its writer opened
//! the log under, and the directory may carry an epoch marker
//! ([`crate::epoch`]).  [`WalWriter::promote_open`] bumps the epoch,
//! fences older writers (their flushes and segment rotations fail with a
//! recognizable [`std::io::ErrorKind::PermissionDenied`] error, see
//! [`crate::is_fence_error`]; what they merely buffer is never
//! acknowledged), heals any bytes a deposed writer slipped in after the
//! promotion scan, and starts a fresh segment lineage.
//! [`scan_log`] honors the fence: old-lineage records at or past the
//! fence LSN with a stale epoch are reported in [`LogScan::fenced`]
//! rather than delivered, so a deposed primary's late flushes can never
//! resurrect into recovered state.

use crate::epoch::{read_epoch_marker, write_epoch_marker, EpochMarker};
use crate::record::{encode_record, WalRecord};
use crate::tail::WalCursor;
use crate::walk::{invalid, SegmentWalk, Stop};
use mvcc_analysis::lock_class;
use mvcc_analysis::lockdep::TrackedMutex;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file.
pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"MVWAL002";

/// Bytes of segment header (magic + sequence number + primary epoch).
pub(crate) const SEGMENT_HEADER: usize = 24;

/// How durable the engine's log is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// No write-ahead log at all (the pre-durability engine).
    #[default]
    Off,
    /// Log appends are flushed to the OS at every commit batch but never
    /// fsynced: commits survive a process crash, not a host crash.
    Buffered,
    /// Every commit batch ends in one fsync: commits survive a host crash.
    Fsync,
}

impl std::fmt::Display for DurabilityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityMode::Off => write!(f, "off"),
            DurabilityMode::Buffered => write!(f, "buffered"),
            DurabilityMode::Fsync => write!(f, "fsync"),
        }
    }
}

impl std::str::FromStr for DurabilityMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(DurabilityMode::Off),
            "buffered" => Ok(DurabilityMode::Buffered),
            "fsync" => Ok(DurabilityMode::Fsync),
            other => Err(format!("unknown durability mode {other:?}")),
        }
    }
}

/// Durability configuration carried by the engine's config.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The logging mode ([`DurabilityMode::Off`] disables everything else).
    pub mode: DurabilityMode,
    /// Directory holding WAL segments and checkpoint files.
    pub dir: PathBuf,
    /// Rotate to a fresh segment once the current one exceeds this many
    /// bytes.
    pub segment_bytes: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig::off()
    }
}

impl DurabilityConfig {
    /// No durability (the default; all pre-durability behavior).
    pub fn off() -> Self {
        DurabilityConfig {
            mode: DurabilityMode::Off,
            dir: PathBuf::new(),
            segment_bytes: 8 << 20,
        }
    }

    /// OS-buffered logging into `dir`.
    pub fn buffered(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            mode: DurabilityMode::Buffered,
            dir: dir.into(),
            segment_bytes: 8 << 20,
        }
    }

    /// Fsync-per-commit-batch logging into `dir`.
    pub fn fsync(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            mode: DurabilityMode::Fsync,
            dir: dir.into(),
            segment_bytes: 8 << 20,
        }
    }

    /// `true` when a write-ahead log is kept at all.
    pub fn is_on(&self) -> bool {
        self.mode != DurabilityMode::Off
    }
}

/// The path of segment `seq` under `dir`.
pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.seg"))
}

/// Lists the segment files under `dir`, sorted by sequence number.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    if !dir.exists() {
        return Ok(segments);
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".seg"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            segments.push((seq, entry.path()));
        }
    }
    segments.sort();
    Ok(segments)
}

/// One decoded record with its provenance, yielded by [`scan_log`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedRecord {
    /// The record's LSN.
    pub lsn: u64,
    /// The primary epoch the record was appended under.
    pub epoch: u64,
    /// The record.
    pub record: WalRecord,
}

/// The outcome of scanning a log directory's valid prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogScan {
    /// Every valid record, in log order.
    pub records: Vec<ScannedRecord>,
    /// The segment holding the end of the valid prefix (`None` when the
    /// log is empty).
    pub last_segment: Option<u64>,
    /// Byte offset of the end of the valid prefix inside `last_segment`
    /// (0 when that segment's header itself is torn or bad).
    pub valid_len: u64,
    /// `true` when the scan stopped at a torn or corrupt record rather
    /// than the physical end of the log.
    pub truncated_tail: bool,
    /// Segments that lie entirely after the first corruption (unreachable
    /// by recovery; a writer reopening the log deletes them).
    pub orphaned_segments: Vec<u64>,
    /// Fenced residue: `(segment, keep_bytes)` pairs naming bytes a
    /// deposed primary landed at or past the promotion fence inside
    /// old-lineage segments.  The records were skipped; a writer
    /// reopening the log truncates each segment back to `keep_bytes`
    /// (deleting it when nothing but the header would remain).
    pub fenced: Vec<(u64, u64)>,
}

impl LogScan {
    /// LSN the next appended record should get.
    pub fn next_lsn(&self) -> u64 {
        self.records.last().map_or(0, |r| r.lsn + 1)
    }
}

/// Reads the valid prefix of the log under `dir`: every whole,
/// CRC-correct record up to the first torn or corrupt one.  Records past
/// that point — including whole segments — are not trusted (the log's
/// guarantees are prefix-shaped), and are reported as truncated/orphaned.
/// This is the at-rest policy over the segment walk `read_tail` shares.
///
/// When the directory carries an epoch marker with a completed fence,
/// the scan additionally refuses a deposed primary's residue: inside
/// segments older than the fenced lineage, any record at or past the
/// fence LSN carrying a stale epoch (and anything after it) is reported
/// in [`LogScan::fenced`] instead of delivered, and the scan resumes in
/// the new lineage.  A log that is no prefix — an LSN gap, corruption
/// before the fence — is refused with `InvalidData`.
pub fn scan_log(dir: &Path) -> io::Result<LogScan> {
    let mut walk = SegmentWalk::new(dir, WalCursor::origin())?;
    let mut records = Vec::new();
    let truncated_tail = loop {
        match walk.read(&mut records, usize::MAX)? {
            Stop::Full | Stop::Window => {}
            Stop::End => break false,
            Stop::Torn | Stop::Corrupt(_) => break true,
            Stop::Gap(what) => return Err(invalid(what)),
            Stop::Unlisted(seq) => {
                let what = format!("epoch marker fences into segment {seq}, which does not exist");
                return Err(invalid(what));
            }
        }
    };
    let last_segment = walk.cursor.segment;
    if let Some(f) = walk.fence {
        if truncated_tail && last_segment.is_some_and(|seq| seq < f.start_segment) {
            // The prefix the promotion certified is lost, and healing
            // here would orphan (delete) the whole fenced lineage.
            return Err(invalid(format!(
                "log corrupt before the promotion fence (lsn {}); \
                 the certified prefix cannot be reconstructed",
                f.fence_lsn
            )));
        }
    }
    let listed = walk.segments.iter().map(|&(seq, _)| seq);
    let orphaned_segments = listed.filter(|&seq| truncated_tail && last_segment < Some(seq));
    Ok(LogScan {
        records,
        last_segment,
        valid_len: walk.cursor.offset,
        truncated_tail,
        orphaned_segments: orphaned_segments.collect(),
        fenced: walk.fenced,
    })
}

struct WalInner {
    writer: BufWriter<File>,
    segment_seq: u64,
    /// Rotation threshold.
    segment_bytes: u64,
    /// Bytes appended to the current segment (header included).
    segment_bytes_written: u64,
    next_lsn: u64,
    scratch: Vec<u8>,
}

/// Statistics of one append or flush, for the engine's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalReceipt {
    /// Records appended.
    pub records: usize,
    /// Encoded bytes appended.
    pub bytes: u64,
    /// `true` when the flush ended in an fsync.
    pub fsynced: bool,
    /// LSN of the last record this append wrote (`None` for an empty
    /// batch).  A commit batch's single commit record gets exactly this
    /// LSN — it is what a replica router's wait-for-LSN compares against.
    pub last_lsn: Option<u64>,
    /// LSN of the last record this call pushed out to log readers (into
    /// the OS; synced in fsync mode), or `None` when it flushed nothing.
    /// The flush of [`WalWriter::append_and_flush`] also carries any record
    /// another thread appended after `last_lsn`, and a buffered
    /// [`WalWriter::append_batch`] is flushed when it rotates the segment.
    pub flushed_through: Option<u64>,
}

/// The group-append writer over a segmented log directory.
///
/// All methods take `&self`; one internal mutex serializes appends, which
/// is what makes the log a single total order (the engine appends step
/// batches under its admission-lane locks, so per-lane ruling order is
/// preserved end to end).
pub struct WalWriter {
    dir: PathBuf,
    mode: DurabilityMode,
    /// The primary epoch this writer opened the log under; stamped into
    /// every record and segment header.  A marker with a higher epoch
    /// fences this writer.
    epoch: u64,
    inner: TrackedMutex<WalInner>,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("WalWriter")
            .field("dir", &self.dir)
            .field("mode", &self.mode)
            .field("epoch", &self.epoch)
            .field("segment_seq", &inner.segment_seq)
            .field("next_lsn", &inner.next_lsn)
            .finish_non_exhaustive()
    }
}

impl WalWriter {
    /// Opens (or creates) the log under `dir` for appending.
    ///
    /// An existing log is healed first: the tail is physically truncated
    /// back to the last whole record and any segments past a corruption
    /// are deleted, so appends always extend a valid prefix.  Appending
    /// continues in the last surviving segment with the next LSN.
    pub fn open(dir: &Path, mode: DurabilityMode, segment_bytes: u64) -> io::Result<Self> {
        assert!(
            mode != DurabilityMode::Off,
            "a WalWriter is only built when durability is on"
        );
        std::fs::create_dir_all(dir)?;
        let marker = read_epoch_marker(dir)?;
        if let Some(m) = marker.filter(|m| m.provisional) {
            return Err(invalid(format!(
                "epoch {} promotion is in progress or crashed mid-way; \
                 complete it with promote_open",
                m.epoch
            )));
        }
        let epoch = marker.map_or(0, |m| m.epoch);
        let scan = scan_and_heal(dir)?;
        let (segment_seq, file) = match scan.last_segment {
            Some(seq) => {
                let path = segment_path(dir, seq);
                let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
                if scan.valid_len < SEGMENT_HEADER as u64 {
                    // A segment whose header itself was torn is rewritten.
                    file.set_len(0)?;
                    write_segment_header(&mut file, seq, epoch)?;
                } else {
                    file.seek(SeekFrom::End(0))?;
                }
                (seq, file)
            }
            None => {
                let file = create_segment(dir, 0, epoch)?;
                if mode == DurabilityMode::Fsync {
                    sync_dir(dir)?;
                }
                (0, file)
            }
        };
        let next_lsn = scan.next_lsn();
        WalWriter::appending(dir, mode, epoch, segment_bytes, segment_seq, file, next_lsn)
    }

    /// Opens the log under `dir` as the **next primary epoch**: the
    /// failover entry point.
    ///
    /// The promotion protocol is two-phase, crash-safe at every step:
    ///
    /// 1. a *provisional* epoch marker claims `epoch + 1` — from this
    ///    instant every older writer's appends and flushes are refused —
    ///    while still carrying the previous completed fence, so scans
    ///    keep refusing any earlier deposed primary's residue;
    /// 2. the log is scanned and healed exactly like [`WalWriter::open`]
    ///    (orphans deleted, fenced residue truncated, a torn tail cut
    ///    back to the last whole record);
    /// 3. the first segment of the new lineage is created, its header
    ///    stamped with the new epoch, and the *final* marker publishes
    ///    the fence: the healed prefix's next LSN and the new segment's
    ///    sequence number.
    ///
    /// A crash before step 3's marker leaves the provisional one: older
    /// writers stay fenced, readers keep honoring the previous fence, and
    /// the next `promote_open` simply claims the epoch after.  LSNs stay
    /// globally monotone — the new lineage's first record gets exactly
    /// the fence LSN, so checkpoints and replica cursors stay valid
    /// across promotions.
    pub fn promote_open(dir: &Path, mode: DurabilityMode, segment_bytes: u64) -> io::Result<Self> {
        assert!(
            mode != DurabilityMode::Off,
            "a WalWriter is only built when durability is on"
        );
        std::fs::create_dir_all(dir)?;
        let prev = read_epoch_marker(dir)?;
        let new_epoch = prev.map_or(1, |m| m.epoch + 1);
        write_epoch_marker(
            dir,
            &EpochMarker {
                epoch: new_epoch,
                fence_lsn: prev.map_or(u64::MAX, |m| m.fence_lsn),
                start_segment: prev.map_or(u64::MAX, |m| m.start_segment),
                provisional: true,
            },
        )?;
        // Every older writer is now fenced; the log can no longer grow
        // under our feet (modulo the in-flight-write window documented in
        // `crate::epoch`).  Scan and heal it.
        let scan = scan_and_heal(dir)?;
        if let Some(seq) = scan.last_segment {
            if scan.valid_len < SEGMENT_HEADER as u64 {
                // A torn header holds nothing usable, and the new lineage
                // starts in a fresh segment anyway.
                std::fs::remove_file(segment_path(dir, seq))?;
            }
        }
        let fence_lsn = scan.next_lsn();
        let start_segment = list_segments(dir)?.last().map_or(0, |&(seq, _)| seq + 1);
        let file = create_segment(dir, start_segment, new_epoch)?;
        file.sync_all()?;
        // Promotion is rare; make the lineage switch durable regardless of
        // mode before publishing the fence.
        sync_dir(dir)?;
        write_epoch_marker(
            dir,
            &EpochMarker {
                epoch: new_epoch,
                fence_lsn,
                start_segment,
                provisional: false,
            },
        )?;
        let (seq, epoch) = (start_segment, new_epoch);
        WalWriter::appending(dir, mode, epoch, segment_bytes, seq, file, fence_lsn)
    }

    /// The writer appending `next_lsn` on to `file`, segment `segment_seq`:
    /// both opens end here.
    fn appending(
        dir: &Path,
        mode: DurabilityMode,
        epoch: u64,
        segment_bytes: u64,
        segment_seq: u64,
        file: File,
        next_lsn: u64,
    ) -> io::Result<Self> {
        let inner = WalInner {
            segment_bytes_written: file.metadata()?.len(),
            writer: BufWriter::new(file),
            segment_seq,
            segment_bytes: segment_bytes.max(SEGMENT_HEADER as u64 + 1),
            next_lsn,
            scratch: Vec::with_capacity(4096),
        };
        let inner = TrackedMutex::new(lock_class!("wal.writer"), inner);
        let dir = dir.to_path_buf();
        Ok(WalWriter {
            dir,
            mode,
            epoch,
            inner,
        })
    }

    /// The configured durability mode.
    pub fn mode(&self) -> DurabilityMode {
        self.mode
    }

    /// The primary epoch this writer stamps into its records.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Re-reads the epoch marker and refuses further work when a newer
    /// epoch has claimed the log (a replica promoted over this writer).
    ///
    /// Called internally before every flush — nothing is acknowledged
    /// without one — and before a segment rotation, which would otherwise
    /// collide with the promoted lineage's first segment.  A plain append
    /// does not re-read the marker: it only buffers, and whatever a
    /// deposed writer's buffer later spills is residue the scan fences
    /// out by the records' own epoch.  The engine also calls it at the
    /// head of each commit batch so a deposed primary refuses commits
    /// *before* applying their storage effects, not after.  The error is
    /// [`std::io::ErrorKind::PermissionDenied`] and recognizable via
    /// [`crate::is_fence_error`].
    pub fn check_fence(&self) -> io::Result<()> {
        if let Some(m) = read_epoch_marker(&self.dir)? {
            if m.epoch > self.epoch {
                return Err(io::Error::new(
                    io::ErrorKind::PermissionDenied,
                    format!(
                        "WAL writer fenced: epoch {} superseded by epoch {}",
                        self.epoch, m.epoch
                    ),
                ));
            }
        }
        Ok(())
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// LSN of the most recently appended record (`None` before the first
    /// append of the log's lifetime).
    pub fn last_lsn(&self) -> Option<u64> {
        let inner = self.inner.lock();
        inner.next_lsn.checked_sub(1)
    }

    /// Appends `records` as one group: consecutive LSNs, one buffered
    /// write, no flush.  Returns the receipt (bytes appended).
    pub fn append_batch(&self, records: &[WalRecord]) -> io::Result<WalReceipt> {
        if records.is_empty() {
            return Ok(WalReceipt::default());
        }
        let mut inner = self.inner.lock();
        let mut scratch = std::mem::take(&mut inner.scratch);
        scratch.clear();
        for record in records {
            let lsn = inner.next_lsn;
            inner.next_lsn += 1;
            encode_record(lsn, self.epoch, record, &mut scratch);
        }
        let bytes = scratch.len() as u64;
        let result = inner.writer.write_all(&scratch);
        inner.scratch = scratch;
        result?;
        inner.segment_bytes_written += bytes;
        let last_lsn = inner.next_lsn.checked_sub(1);
        let rotated = self.maybe_rotate(&mut inner)?;
        Ok(WalReceipt {
            records: records.len(),
            bytes,
            fsynced: false,
            last_lsn,
            flushed_through: last_lsn.filter(|_| rotated),
        })
    }

    /// Flushes everything appended so far per the configured mode:
    /// buffered mode pushes the user-space buffer into the OS, fsync mode
    /// additionally syncs the segment to stable storage.  Returns `true`
    /// when an fsync happened.
    pub fn flush(&self) -> io::Result<bool> {
        self.flush_through().map(|(fsynced, _)| fsynced)
    }

    /// [`WalWriter::flush`], also returning the LSN of the last record the
    /// flush covered.
    fn flush_through(&self) -> io::Result<(bool, Option<u64>)> {
        self.check_fence()?;
        let mut inner = self.inner.lock();
        inner.writer.flush()?;
        let through = inner.next_lsn.checked_sub(1);
        if self.mode == DurabilityMode::Fsync {
            inner.writer.get_ref().sync_data()?;
            Ok((true, through))
        } else {
            Ok((false, through))
        }
    }

    /// Appends one group and flushes it: the group-commit form (one
    /// batch = one flush = at most one fsync).  The append and the flush
    /// are two critical sections, so the flush may also carry records
    /// other threads appended in between (`flushed_through` says how far).
    pub fn append_and_flush(&self, records: &[WalRecord]) -> io::Result<WalReceipt> {
        let mut receipt = self.append_batch(records)?;
        (receipt.fsynced, receipt.flushed_through) = self.flush_through()?;
        Ok(receipt)
    }

    /// Rotates to a fresh segment once the current one is full; `true`
    /// when it did (the old segment was flushed first).
    fn maybe_rotate(&self, inner: &mut WalInner) -> io::Result<bool> {
        if inner.segment_bytes_written < inner.segment_bytes {
            return Ok(false);
        }
        self.check_fence()?;
        // Finish the old segment: flush (and fsync if configured) so the
        // prefix property survives the file switch.
        inner.writer.flush()?;
        if self.mode == DurabilityMode::Fsync {
            inner.writer.get_ref().sync_data()?;
        }
        inner.segment_seq += 1;
        let file = create_segment(&self.dir, inner.segment_seq, self.epoch)?;
        if self.mode == DurabilityMode::Fsync {
            // The new segment's directory entry must be as durable as the
            // records about to be fsynced into it.
            sync_dir(&self.dir)?;
        }
        inner.writer = BufWriter::new(file);
        inner.segment_bytes_written = SEGMENT_HEADER as u64;
        Ok(true)
    }
}

/// Creates segment `seq` under `dir`, its header stamped with `epoch`.
fn create_segment(dir: &Path, seq: u64, epoch: u64) -> io::Result<File> {
    let path = segment_path(dir, seq);
    let mut file = OpenOptions::new()
        .create_new(true)
        .read(true)
        .write(true)
        .open(path)?;
    write_segment_header(&mut file, seq, epoch)?;
    Ok(file)
}

fn write_segment_header(file: &mut File, seq: u64, epoch: u64) -> io::Result<()> {
    file.write_all(SEGMENT_MAGIC)?;
    file.write_all(&seq.to_le_bytes())?;
    file.write_all(&epoch.to_le_bytes())
}

/// The heal both writer opens run: scans the log and cuts it on disk to
/// the prefix the scan trusts (orphans and residue-only segments deleted,
/// residue and a torn or corrupt tail truncated away).  A torn header is
/// left to the caller; a log the scan refuses is left untouched.
fn scan_and_heal(dir: &Path) -> io::Result<LogScan> {
    let scan = scan_log(dir)?;
    for seq in &scan.orphaned_segments {
        std::fs::remove_file(segment_path(dir, *seq))?;
    }
    let cut = |seq: u64, keep: u64| -> io::Result<()> {
        let file = OpenOptions::new()
            .write(true)
            .open(segment_path(dir, seq))?;
        if file.metadata()?.len() > keep {
            file.set_len(keep)?;
            file.sync_all()?;
        }
        Ok(())
    };
    for &(seq, keep) in &scan.fenced {
        if keep <= SEGMENT_HEADER as u64 {
            std::fs::remove_file(segment_path(dir, seq))?;
        } else {
            cut(seq, keep)?;
        }
    }
    if let Some(seq) = scan.last_segment {
        if scan.valid_len >= SEGMENT_HEADER as u64 {
            cut(seq, scan.valid_len)?;
        }
    }
    Ok(scan)
}

/// Fsyncs a directory so freshly created (or renamed) entries survive a
/// host crash — fsyncing a file's *data* does not make its directory
/// entry durable on ext4/xfs, and a vanished segment would silently
/// truncate the log at the previous one.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CommitEntry;
    use mvcc_core::{EntityId, TxId};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh directory under the target tmpdir, unique per test call.
    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mvcc-wal-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_rec(tx: u32, entity: u32, value: &[u8]) -> WalRecord {
        WalRecord::Write {
            tx: TxId(tx),
            entity: EntityId(entity),
            value: bytes::Bytes::copy_from_slice(value),
        }
    }

    #[test]
    fn append_flush_scan_round_trip() {
        let dir = temp_dir("round");
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        let records = vec![
            WalRecord::Begin { tx: TxId(1) },
            write_rec(1, 0, b"v1"),
            WalRecord::Commit {
                entries: vec![CommitEntry {
                    tx: TxId(1),
                    shards: vec![(0, 1)],
                }],
            },
        ];
        let receipt = wal.append_and_flush(&records).unwrap();
        assert_eq!(receipt.records, 3);
        assert!(!receipt.fsynced, "buffered mode never fsyncs");
        assert_eq!(wal.last_lsn(), Some(2));
        let scan = scan_log(&dir).unwrap();
        assert!(!scan.truncated_tail);
        assert_eq!(
            scan.records
                .iter()
                .map(|r| r.record.clone())
                .collect::<Vec<_>>(),
            records
        );
        assert_eq!(
            scan.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_mode_reports_the_fsync() {
        let dir = temp_dir("fsync");
        let wal = WalWriter::open(&dir, DurabilityMode::Fsync, 8 << 20).unwrap();
        let receipt = wal
            .append_and_flush(&[WalRecord::Begin { tx: TxId(1) }])
            .unwrap();
        assert!(receipt.fsynced);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_and_scan_in_order() {
        let dir = temp_dir("rotate");
        // Tiny threshold: every appended batch overflows the segment.
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 64).unwrap();
        for i in 0..10u32 {
            wal.append_and_flush(&[write_rec(i, 0, &[0u8; 48])])
                .unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(
            segments.len() > 1,
            "no rotation at {} segments",
            segments.len()
        );
        assert_eq!(
            segments.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(),
            (0..segments.len() as u64).collect::<Vec<_>>()
        );
        let scan = scan_log(&dir).unwrap();
        assert_eq!(scan.records.len(), 10);
        assert_eq!(scan.next_lsn(), 10);
        // LSNs stay consecutive across segment boundaries.
        for (i, rec) in scan.records.iter().enumerate() {
            assert_eq!(rec.lsn, i as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn receipts_say_how_far_the_log_is_visible() {
        // Roomy segment: a buffered append stays in the writer's buffer.
        let dir = temp_dir("rotated-receipt");
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        let receipt = wal.append_batch(&[write_rec(1, 0, b"a")]).unwrap();
        assert_eq!(receipt.flushed_through, None);
        assert!(scan_log(&dir).unwrap().records.is_empty());
        // A later flush carries the buffered record along with its own.
        let receipt = wal.append_and_flush(&[write_rec(2, 0, b"b")]).unwrap();
        assert_eq!(receipt.last_lsn, Some(1));
        assert_eq!(receipt.flushed_through, Some(1));
        assert_eq!(scan_log(&dir).unwrap().records.len(), 2);
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
        // Tiny segment: the same append fills it, and the rotation's
        // flush makes it readable without any explicit flush.
        let dir = temp_dir("rotated-receipt");
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 64).unwrap();
        let receipt = wal.append_batch(&[write_rec(1, 0, &[0u8; 48])]).unwrap();
        assert_eq!(receipt.flushed_through, Some(0));
        assert_eq!(scan_log(&dir).unwrap().records.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_continues_the_lsn_sequence() {
        let dir = temp_dir("reopen");
        {
            let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
            wal.append_and_flush(&[write_rec(1, 0, b"a")]).unwrap();
        }
        {
            let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
            assert_eq!(wal.last_lsn(), Some(0));
            wal.append_and_flush(&[write_rec(2, 0, b"b")]).unwrap();
        }
        let scan = scan_log(&dir).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1].lsn, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_scan_and_healed_on_open() {
        let dir = temp_dir("torn");
        {
            let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
            wal.append_and_flush(&[write_rec(1, 0, b"whole"), write_rec(2, 1, b"torn-soon")])
                .unwrap();
        }
        // Tear the last record: chop 3 bytes off the segment.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        let scan = scan_log(&dir).unwrap();
        assert!(scan.truncated_tail);
        assert_eq!(scan.records.len(), 1, "only the whole record survives");
        // Re-opening heals the file and appends after the valid prefix.
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        assert_eq!(wal.last_lsn(), Some(0));
        wal.append_and_flush(&[write_rec(3, 2, b"after-heal")])
            .unwrap();
        let scan = scan_log(&dir).unwrap();
        assert!(!scan.truncated_tail);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1].lsn, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_orphans_later_segments_and_open_removes_them() {
        let dir = temp_dir("orphan");
        {
            let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 64).unwrap();
            for i in 0..6u32 {
                wal.append_and_flush(&[write_rec(i, 0, &[1u8; 48])])
                    .unwrap();
            }
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3, "need several segments");
        // Corrupt a record in the middle segment (flip a payload byte).
        let (_, middle) = &segments[1];
        let mut bytes = std::fs::read(middle).unwrap();
        let flip = SEGMENT_HEADER + FRAME_OVERHEAD_PLUS_ONE;
        bytes[flip] ^= 0xff;
        std::fs::write(middle, &bytes).unwrap();
        let scan = scan_log(&dir).unwrap();
        assert!(scan.truncated_tail);
        assert!(!scan.orphaned_segments.is_empty());
        let surviving = scan.records.len();
        assert!((1..6).contains(&surviving));
        // Open heals: orphaned segments deleted, appends continue.
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        wal.append_and_flush(&[write_rec(9, 0, b"resume")]).unwrap();
        let rescan = scan_log(&dir).unwrap();
        assert!(!rescan.truncated_tail);
        assert_eq!(rescan.records.len(), surviving + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bad_segment_header_stops_the_scan_and_open_rewrites_it() {
        // Two shapes of a damaged header on the newest segment: the magic
        // flipped, and a sequence number naming another segment.
        for (at, flip) in [(0, 0x01), (8, 0x40)] {
            let dir = temp_dir("bad-header");
            {
                let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 64).unwrap();
                for i in 0..3u32 {
                    wal.append_and_flush(&[write_rec(i, 0, &[2u8; 48])])
                        .unwrap();
                }
            }
            // The newest segment holds a record too.
            let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
            wal.append_and_flush(&[write_rec(3, 0, b"last")]).unwrap();
            drop(wal);
            let (seq, path) = list_segments(&dir).unwrap().pop().unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[at] ^= flip;
            std::fs::write(&path, &bytes).unwrap();
            let scan = scan_log(&dir).unwrap();
            assert!(scan.truncated_tail);
            assert_eq!((scan.last_segment, scan.valid_len), (Some(seq), 0));
            assert_eq!(scan.records.len(), 3, "only the earlier segments count");
            // Open rewrites the header, so what it appends is readable.
            let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
            wal.append_and_flush(&[write_rec(9, 0, b"after-heal")])
                .unwrap();
            let rescan = scan_log(&dir).unwrap();
            assert!(!rescan.truncated_tail);
            assert_eq!(
                rescan.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
                vec![0, 1, 2, 3]
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Offset of the first payload byte after a segment header.
    const FRAME_OVERHEAD_PLUS_ONE: usize = crate::record::FRAME_OVERHEAD + 1;

    #[test]
    fn promote_fences_the_old_writer_and_starts_a_new_lineage() {
        let dir = temp_dir("promote");
        let old = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        old.append_and_flush(&[write_rec(1, 0, b"before")]).unwrap();
        assert_eq!(old.epoch(), 0);
        let new = WalWriter::promote_open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        assert_eq!(new.epoch(), 1);
        // The deposed writer is refused before any bytes land.
        let err = old
            .append_and_flush(&[write_rec(2, 0, b"late")])
            .unwrap_err();
        assert!(crate::epoch::is_fence_error(&err), "{err}");
        assert!(old.flush().is_err(), "flush must be fenced too");
        // The new lineage continues the LSN sequence from the fence.
        let receipt = new.append_and_flush(&[write_rec(3, 0, b"after")]).unwrap();
        assert_eq!(receipt.last_lsn, Some(1));
        let scan = scan_log(&dir).unwrap();
        assert_eq!(
            scan.records
                .iter()
                .map(|r| (r.lsn, r.epoch))
                .collect::<Vec<_>>(),
            vec![(0, 0), (1, 1)]
        );
        assert!(scan.fenced.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn late_residue_is_fenced_out_of_the_scan_and_healed_on_open() {
        let dir = temp_dir("residue");
        let old = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        old.append_and_flush(&[write_rec(1, 0, b"durable")])
            .unwrap();
        let promoted = WalWriter::promote_open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        promoted
            .append_and_flush(&[write_rec(2, 0, b"new-lineage")])
            .unwrap();
        drop(promoted);
        // Simulate the in-flight-write window: the deposed primary's
        // encoded bytes (stale epoch, post-fence LSN) land in its old
        // segment after the promotion scan sampled it.
        let mut residue = Vec::new();
        encode_record(1, 0, &write_rec(9, 0, b"resurrect-me"), &mut residue);
        let mut file = OpenOptions::new()
            .append(true)
            .open(segment_path(&dir, 0))
            .unwrap();
        file.write_all(&residue).unwrap();
        drop(file);
        // The scan skips the residue and keeps the fenced lineage.
        let scan = scan_log(&dir).unwrap();
        assert_eq!(scan.fenced.len(), 1);
        assert_eq!(scan.fenced[0].0, 0);
        assert!(scan.fenced[0].1 > SEGMENT_HEADER as u64);
        assert_eq!(
            scan.records
                .iter()
                .map(|r| (r.lsn, r.epoch))
                .collect::<Vec<_>>(),
            vec![(0, 0), (1, 1)]
        );
        // Reopening heals the residue physically: zero resurrected bytes.
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        assert_eq!(wal.epoch(), 1);
        drop(wal);
        let healed = std::fs::read(segment_path(&dir, 0)).unwrap();
        assert_eq!(healed.len() as u64, scan.fenced[0].1);
        let rescan = scan_log(&dir).unwrap();
        assert!(rescan.fenced.is_empty());
        assert_eq!(rescan.records.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crashed_promotion_leaves_writers_fenced_until_promote_completes() {
        let dir = temp_dir("provisional");
        let old = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        old.append_and_flush(&[write_rec(1, 0, b"x")]).unwrap();
        // A promotion that crashed between its two marker writes leaves
        // the provisional marker behind.
        crate::epoch::write_epoch_marker(
            &dir,
            &EpochMarker {
                epoch: 1,
                fence_lsn: u64::MAX,
                start_segment: u64::MAX,
                provisional: true,
            },
        )
        .unwrap();
        let err = old.append_and_flush(&[write_rec(2, 0, b"y")]).unwrap_err();
        assert!(crate::epoch::is_fence_error(&err), "{err}");
        // A plain open refuses to adopt a half-done promotion...
        assert!(WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).is_err());
        // ...but promote_open completes it under the next epoch.
        let promoted = WalWriter::promote_open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        assert_eq!(promoted.epoch(), 2);
        let receipt = promoted.append_and_flush(&[write_rec(3, 0, b"z")]).unwrap();
        assert_eq!(receipt.last_lsn, Some(1));
        let scan = scan_log(&dir).unwrap();
        assert_eq!(scan.records.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_writer_fenced_mid_transaction_buffers_steps_nobody_will_ever_read() {
        let dir = temp_dir("fenced-steps");
        let old = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        old.append_and_flush(&[WalRecord::Begin { tx: TxId(1) }, write_rec(1, 0, b"first")])
            .unwrap();
        let new = WalWriter::promote_open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        // The append path no longer re-reads the marker: the next step
        // record of the open transaction still buffers...
        let receipt = old.append_batch(&[write_rec(1, 1, b"second")]).unwrap();
        assert_eq!((receipt.records, receipt.last_lsn), (1, Some(2)));
        // ...but nothing gets out: not a flush, not the commit record, and
        // the engine's check at the head of the commit batch fails too.
        let commit = WalRecord::Commit {
            entries: vec![CommitEntry {
                tx: TxId(1),
                shards: vec![(0, 1)],
            }],
        };
        for err in [
            old.flush().unwrap_err(),
            old.append_and_flush(&[commit]).unwrap_err(),
            old.check_fence().unwrap_err(),
        ] {
            assert!(crate::epoch::is_fence_error(&err), "{err}");
        }
        new.append_and_flush(&[write_rec(2, 0, b"after")]).unwrap();
        // Dropping the deposed writer spills its buffer into the old
        // segment — stale epoch, past the fence: residue, never delivered.
        drop(old);
        let scan = scan_log(&dir).unwrap();
        assert_eq!(
            scan.records
                .iter()
                .map(|r| (r.lsn, r.epoch))
                .collect::<Vec<_>>(),
            vec![(0, 0), (1, 0), (2, 1)]
        );
        assert_eq!(scan.fenced.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fenced_writer_cannot_rotate_into_the_promoted_lineage() {
        let dir = temp_dir("fenced-rotate");
        // Tiny threshold: every appended batch overflows the segment.
        let old = WalWriter::open(&dir, DurabilityMode::Buffered, 64).unwrap();
        old.append_and_flush(&[write_rec(1, 0, &[0u8; 48])])
            .unwrap();
        let new = WalWriter::promote_open(&dir, DurabilityMode::Buffered, 64).unwrap();
        // The promoted lineage starts where the old writer would rotate to.
        let err = old
            .append_batch(&[write_rec(1, 1, &[0u8; 48])])
            .unwrap_err();
        assert!(crate::epoch::is_fence_error(&err), "{err}");
        new.append_and_flush(&[write_rec(2, 0, b"after")]).unwrap();
        drop(old);
        let scan = scan_log(&dir).unwrap();
        assert_eq!(
            scan.records
                .iter()
                .map(|r| (r.lsn, r.epoch))
                .collect::<Vec<_>>(),
            vec![(0, 0), (1, 1)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_after_promotion_adopts_the_marker_epoch() {
        let dir = temp_dir("adopt");
        {
            let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
            wal.append_and_flush(&[write_rec(1, 0, b"a")]).unwrap();
        }
        {
            let promoted =
                WalWriter::promote_open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
            promoted.append_and_flush(&[write_rec(2, 0, b"b")]).unwrap();
        }
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        assert_eq!(wal.epoch(), 1);
        let receipt = wal.append_and_flush(&[write_rec(3, 0, b"c")]).unwrap();
        assert_eq!(receipt.last_lsn, Some(2));
        let scan = scan_log(&dir).unwrap();
        assert_eq!(
            scan.records
                .iter()
                .map(|r| (r.lsn, r.epoch))
                .collect::<Vec<_>>(),
            vec![(0, 0), (1, 1), (2, 1)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durability_config_constructors() {
        assert!(!DurabilityConfig::off().is_on());
        assert!(DurabilityConfig::buffered("/tmp/x").is_on());
        assert_eq!(
            DurabilityConfig::fsync("/tmp/x").mode,
            DurabilityMode::Fsync
        );
        assert_eq!(
            "buffered".parse::<DurabilityMode>(),
            Ok(DurabilityMode::Buffered)
        );
        assert_eq!("fsync".parse::<DurabilityMode>(), Ok(DurabilityMode::Fsync));
        assert_eq!("off".parse::<DurabilityMode>(), Ok(DurabilityMode::Off));
        assert!("nope".parse::<DurabilityMode>().is_err());
        assert_eq!(DurabilityMode::Fsync.to_string(), "fsync");
    }
}
