//! Primary epochs and the fencing marker.
//!
//! Failover needs an answer to the oldest distributed-systems question:
//! how does a deposed primary learn it is deposed before it corrupts the
//! log?  This module gives the log directory a single small *epoch
//! marker* file (`epoch.mv`) naming the current primary epoch and the
//! **fence**: the LSN at which the previous lineage was cut and the
//! segment sequence number the new lineage starts at.
//!
//! * Writers carry the epoch they opened the log under and re-read the
//!   marker before every flush and segment rotation (a buffered append
//!   alone acknowledges nothing and is not worth a file open); a marker
//!   with a higher epoch means another writer promoted over them, and
//!   the flush is refused ([`std::io::ErrorKind::PermissionDenied`], see
//!   [`crate::wal::WalWriter`]).
//! * Readers ([`crate::scan_log`], [`crate::read_tail`]: their one segment
//!   walk) treat records at or past `fence_lsn` in pre-`start_segment`
//!   segments as *fenced residue* — bytes a deposed primary managed to
//!   buffer after the promotion scan — and resubscribe to the new lineage
//!   instead of delivering them.
//!
//! The marker is written atomically (temp file + rename + directory
//! sync) and carries a CRC, so readers either see the previous marker or
//! the new one, never a torn one.  Promotion writes it twice: first a
//! *provisional* marker (new epoch, previous fence) that fences every
//! older writer before the promotion scan runs, then — after healing the
//! log and creating the new lineage's first segment — the *final* marker
//! with the new fence.  A crash between the two leaves the provisional
//! marker: every writer stays fenced, readers keep honoring the previous
//! completed fence, and the next promotion simply bumps the epoch again.
//!
//! ## The fencing window (documented caveat)
//!
//! A flush already in flight *between* a deposed primary's fence check
//! and its write can land bytes after the promotion scan sampled the
//! log; so can a full buffer of appends it never got to flush (never
//! acknowledged, those).  Such bytes are fenced out (readers skip them,
//! the next heal truncates them) even if the deposed primary acked the
//! commit that in-flight flush carried — equivalent to buffered-mode
//! crash loss of an acked commit.  Fsync mode narrows the window; only
//! storage-side compare-and-swap (which a plain filesystem does not
//! offer) could close it.  The deterministic
//! failover tests schedule around the window; the argument for why the
//! *surviving* history still classifies is in DESIGN.md's Failover
//! section.

use crate::record::crc32;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// Magic bytes opening the epoch marker file.
pub(crate) const EPOCH_MAGIC: &[u8; 8] = b"MVEP0001";

/// File name of the epoch marker inside a log directory.
pub(crate) const EPOCH_FILE: &str = "epoch.mv";

/// Payload bytes after the magic: epoch + fence LSN + start segment +
/// provisional flag.
const PAYLOAD: usize = 8 + 8 + 8 + 1;

/// Total marker file size: magic + payload + CRC-32 of the payload.
const MARKER_LEN: usize = 8 + PAYLOAD + 4;

/// The current primary epoch of a log directory and the fence cut the
/// last completed promotion made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochMarker {
    /// The current primary epoch.  Writers of an older epoch are fenced.
    pub epoch: u64,
    /// First LSN that belongs to the lineage *after* the last completed
    /// promotion ([`u64::MAX`] when no promotion has completed yet):
    /// records at or past it inside pre-`start_segment` segments are a
    /// deposed primary's residue, not log.
    pub fence_lsn: u64,
    /// Sequence number of the first segment of the current lineage
    /// ([`u64::MAX`] when no promotion has completed yet).
    pub start_segment: u64,
    /// `true` while a promotion is between its two marker writes: the
    /// epoch is already claimed (writers fenced) but the new fence has
    /// not been published — `fence_lsn`/`start_segment` still describe
    /// the *previous* completed promotion.
    pub provisional: bool,
}

impl EpochMarker {
    /// `true` when the marker carries a completed promotion's fence cut.
    pub fn has_fence(&self) -> bool {
        self.fence_lsn != u64::MAX
    }
}

/// Reads the epoch marker under `dir`.  `Ok(None)` when no marker exists
/// (the directory is still in its genesis epoch 0); a torn or
/// CRC-invalid marker is corruption, not genesis.
pub fn read_epoch_marker(dir: &Path) -> io::Result<Option<EpochMarker>> {
    let path = dir.join(EPOCH_FILE);
    let mut file = match File::open(&path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut bytes = Vec::with_capacity(MARKER_LEN);
    file.read_to_end(&mut bytes)?;
    let corrupt =
        |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("epoch marker: {what}"));
    if bytes.len() != MARKER_LEN {
        return Err(corrupt("wrong length"));
    }
    if &bytes[0..8] != EPOCH_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let payload = &bytes[8..8 + PAYLOAD];
    // lint: allow(unwrap) — slice length fixed by the on-disk format
    let stored = u32::from_le_bytes(bytes[8 + PAYLOAD..].try_into().expect("4 bytes"));
    if crc32(payload) != stored {
        return Err(corrupt("crc mismatch"));
    }
    // lint: allow(unwrap) — slice length fixed by the on-disk format
    let u64_at = |i: usize| u64::from_le_bytes(payload[i..i + 8].try_into().expect("8 bytes"));
    Ok(Some(EpochMarker {
        epoch: u64_at(0),
        fence_lsn: u64_at(8),
        start_segment: u64_at(16),
        provisional: payload[24] != 0,
    }))
}

/// Atomically replaces the epoch marker under `dir`: write to a temp
/// file, fsync it, rename over the marker, fsync the directory.  A crash
/// at any point leaves either the old marker or the new one.
pub fn write_epoch_marker(dir: &Path, marker: &EpochMarker) -> io::Result<()> {
    let mut payload = Vec::with_capacity(PAYLOAD);
    payload.extend_from_slice(&marker.epoch.to_le_bytes());
    payload.extend_from_slice(&marker.fence_lsn.to_le_bytes());
    payload.extend_from_slice(&marker.start_segment.to_le_bytes());
    payload.push(u8::from(marker.provisional));
    let mut bytes = Vec::with_capacity(MARKER_LEN);
    bytes.extend_from_slice(EPOCH_MAGIC);
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    let tmp = dir.join(format!("{EPOCH_FILE}.tmp"));
    {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, dir.join(EPOCH_FILE))?;
    crate::wal::sync_dir(dir)
}

/// `true` when `e` is a fencing refusal from a [`crate::wal::WalWriter`]
/// whose epoch has been superseded — the one WAL error a caller should
/// treat as "deposed" rather than "durability lost".
pub fn is_fence_error(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::PermissionDenied && e.to_string().contains("fenced")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mvcc-epoch-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn absent_marker_is_genesis() {
        let dir = temp_dir("genesis");
        assert_eq!(read_epoch_marker(&dir).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn marker_round_trips_and_replaces_atomically() {
        let dir = temp_dir("round");
        let first = EpochMarker {
            epoch: 1,
            fence_lsn: u64::MAX,
            start_segment: u64::MAX,
            provisional: true,
        };
        write_epoch_marker(&dir, &first).unwrap();
        assert_eq!(read_epoch_marker(&dir).unwrap(), Some(first));
        assert!(!first.has_fence());
        let second = EpochMarker {
            epoch: 1,
            fence_lsn: 42,
            start_segment: 3,
            provisional: false,
        };
        write_epoch_marker(&dir, &second).unwrap();
        assert_eq!(read_epoch_marker(&dir).unwrap(), Some(second));
        assert!(second.has_fence());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_markers_are_corruption_not_genesis() {
        let dir = temp_dir("torn");
        let marker = EpochMarker {
            epoch: 2,
            fence_lsn: 7,
            start_segment: 1,
            provisional: false,
        };
        write_epoch_marker(&dir, &marker).unwrap();
        let path = dir.join(EPOCH_FILE);
        // Short file: corruption.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        assert!(read_epoch_marker(&dir).is_err());
        // Flipped payload byte: the CRC refuses it.
        let mut copy = bytes.clone();
        copy[10] ^= 0xff;
        std::fs::write(&path, &copy).unwrap();
        assert!(read_epoch_marker(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fence_errors_are_recognizable() {
        let fence = io::Error::new(
            io::ErrorKind::PermissionDenied,
            "WAL writer fenced: epoch 0 superseded by epoch 1",
        );
        assert!(is_fence_error(&fence));
        let other = io::Error::new(io::ErrorKind::PermissionDenied, "read-only filesystem");
        assert!(!is_fence_error(&other));
        let io = io::Error::other("disk on fire");
        assert!(!is_fence_error(&io));
    }
}
