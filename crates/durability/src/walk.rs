//! The one segment walk behind every WAL reader: [`crate::wal::scan_log`]
//! (at rest — recovery and the writer's heal) and [`crate::tail::read_tail`]
//! (live — log shipping).  The log's trust rules exist only here:
//!
//! * segments are visited in listing order, each opened by its header
//!   (the magic and the sequence number stamped into it);
//! * frames are decoded out of a bounded read window, grown over a record
//!   that crosses it (a record may be longer than the window);
//! * LSNs are continuous: a record past the cursor's next LSN is a gap, a
//!   record below it is the cursor's seek prefix and is skipped;
//! * after a completed promotion ([`crate::epoch`]), a stale-epoch record
//!   at or past the fence LSN in an old-lineage segment — or a damaged
//!   frame there once the sequence has reached the fence — is a deposed
//!   primary's residue: the walk notes the cut and jumps to the new
//!   lineage, which must continue the sequence at the fence LSN.
//!
//! The walk does not know which reader it serves: it fills the reader's
//! batch and returns the [`Stop`] it found.  Whether that is a park, a
//! truncation or an error is the reader's policy.

use crate::epoch::{read_epoch_marker, EpochMarker};
use crate::record::{decode_record, DecodeError, FRAME_OVERHEAD};
use crate::tail::WalCursor;
use crate::wal::{list_segments, ScannedRecord, SEGMENT_HEADER, SEGMENT_MAGIC};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Bytes read from a segment at a time: large enough to amortize the
/// syscalls, small enough that one tail poll's I/O stays bounded.
pub(crate) const READ_WINDOW: u64 = 256 * 1024;

/// Why the walk stopped.  The cursor is left where a later walk resumes.
#[derive(Debug)]
pub(crate) enum Stop {
    /// The reader's batch is full.
    Full,
    /// The newest listed segment was read to its end.
    End,
    /// The read window ended on a record boundary with more segment behind
    /// it; reading again reads the next window.
    Window,
    /// A torn record or header at the physical end of the log.
    Torn,
    /// A CRC mismatch, an undecodable frame, a bad header, or a torn
    /// record or header with a later segment listed.
    Corrupt(String),
    /// The LSN sequence breaks: a record past the next LSN, a fenced
    /// lineage not starting where the prefix ends, or the cursor's segment
    /// gone while later ones are listed.
    Gap(String),
    /// The fence names a new lineage whose first segment is not listed.
    Unlisted(u64),
}

/// An `InvalidData` error: the log on disk is damaged.
pub(crate) fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// The open segment: `buf[pos..]` holds its bytes from the cursor's offset
/// up to file offset `end`.
struct Window {
    /// Position of the segment in the walk's listing.
    index: usize,
    file: File,
    /// The length sampled at open: a live segment may grow after, which
    /// only errs on the side of reading again.
    len: u64,
    end: u64,
    buf: Vec<u8>,
    pos: usize,
}

impl Window {
    /// Appends up to `n` more bytes of the file, never past `len`.  A
    /// cursor past `len` (a heal cut the file below it) reads nothing.
    fn read(&mut self, n: u64) -> io::Result<()> {
        self.buf.drain(..self.pos);
        self.pos = 0;
        let want = n.min(self.len.saturating_sub(self.end));
        self.buf.reserve(want as usize);
        let got = (&mut self.file).take(want).read_to_end(&mut self.buf)? as u64;
        self.end += got;
        if got < want {
            self.len = self.end; // The file shrank under the walk.
        }
        Ok(())
    }

    fn unread(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    fn more_behind(&self) -> bool {
        self.end < self.len
    }
}

/// A walk over the segments of one log directory, listed once.
pub(crate) struct SegmentWalk {
    pub(crate) segments: Vec<(u64, PathBuf)>,
    /// The last completed promotion's fence, read after the listing: a
    /// fence published mid-walk is seen by the next walk.
    pub(crate) fence: Option<EpochMarker>,
    /// Where the walk stands; a tailer keeps it between polls.
    pub(crate) cursor: WalCursor,
    /// Residue cuts `(segment, keep_bytes)`, one per old-lineage segment
    /// from the first cut on.
    pub(crate) fenced: Vec<(u64, u64)>,
    window: Option<Window>,
}

impl SegmentWalk {
    pub(crate) fn new(dir: &Path, cursor: WalCursor) -> io::Result<Self> {
        Ok(SegmentWalk {
            segments: list_segments(dir)?,
            fence: read_epoch_marker(dir)?.filter(EpochMarker::has_fence),
            cursor,
            fenced: Vec::new(),
            window: None,
        })
    }

    /// Appends the records from the cursor on to `out` until it holds
    /// `max` of them or the walk stops.
    pub(crate) fn read(&mut self, out: &mut Vec<ScannedRecord>, max: usize) -> io::Result<Stop> {
        if let Some(w) = self.window.as_mut().filter(|w| w.unread().is_empty()) {
            w.read(READ_WINDOW)?; // The last read stopped at the window's end.
        }
        loop {
            let Some(w) = &mut self.window else {
                if let Some(stop) = self.open()? {
                    return Ok(stop);
                }
                continue;
            };
            let (seq, last) = (self.segments[w.index].0, w.index + 1 == self.segments.len());
            // The fence, when this segment belongs to the deposed lineage.
            let fence = self.fence.filter(|f| seq < f.start_segment);
            let residue =
                |lsn: u64, epoch: u64| fence.is_some_and(|f| lsn >= f.fence_lsn && epoch < f.epoch);
            // Sweep the window: deliver the records that continue the
            // sequence, skip those below it.  Anything else ends the sweep.
            let decoded = loop {
                if out.len() >= max {
                    return Ok(Stop::Full);
                }
                match decode_record(w.unread()) {
                    Ok((consumed, lsn, epoch, record))
                        if lsn <= self.cursor.next_lsn && !residue(lsn, epoch) =>
                    {
                        w.pos += consumed;
                        self.cursor.offset += consumed as u64;
                        if lsn == self.cursor.next_lsn {
                            self.cursor.next_lsn += 1;
                            out.push(ScannedRecord { lsn, epoch, record });
                        }
                    }
                    other => break other,
                }
            };
            let offset = self.cursor.offset;
            let stop = match decoded {
                Err(DecodeError::Truncated) if w.unread().is_empty() => {
                    if w.more_behind() {
                        return Ok(Stop::Window);
                    }
                    match self.segments.get(w.index + 1) {
                        Some(&(next, _)) => self.bind(next),
                        None => Some(self.end_of_listing()),
                    }
                }
                Err(DecodeError::Truncated) if w.more_behind() => {
                    // A record crossing the window: grow the window to its
                    // end (declared once 4 bytes are in) and decode again.
                    let unread = w.unread();
                    let declared = unread.get(..4).and_then(|len| len.try_into().ok());
                    let frame = FRAME_OVERHEAD + declared.map_or(0, u32::from_le_bytes) as usize;
                    w.read(frame.saturating_sub(unread.len()) as u64)?;
                    None
                }
                // A deposed primary's late append, landed after the
                // promotion scan: residue, not log.
                Ok((_, lsn, epoch, _)) if residue(lsn, epoch) => self.cut(seq),
                // The sequence reached the fence, so a torn or corrupt frame
                // past it is residue the deposed primary left mid-write.
                Err(_) if fence.is_some_and(|f| self.cursor.next_lsn >= f.fence_lsn) => {
                    self.cut(seq)
                }
                Ok((_, lsn, ..)) => Some(gap(seq, self.cursor.next_lsn, lsn)),
                Err(DecodeError::Truncated) if last => Some(Stop::Torn),
                Err(e) => Some(Stop::Corrupt(format!("segment {seq} offset {offset}: {e}"))),
            };
            if let Some(stop) = stop {
                return Ok(stop);
            }
        }
    }

    /// Opens the cursor's segment, binding an unbound cursor to the first
    /// listed one, and checks its header.
    fn open(&mut self) -> io::Result<Option<Stop>> {
        let Some(seq) = self.cursor.segment else {
            return Ok(match self.segments.first() {
                Some(&(first, _)) => self.bind(first),
                None => Some(self.end_of_listing()),
            });
        };
        let Some(index) = self.segments.iter().position(|&(s, _)| s == seq) else {
            if let Some(f) = self.fence.filter(|f| seq < f.start_segment) {
                // Not vanished: healing deletes an old-lineage segment
                // that held nothing but a deposed primary's residue.
                return Ok(self.jump(seq, f));
            }
            if self.segments.last().is_some_and(|&(s, _)| s > seq) {
                let what = format!("segment {seq} vanished under the cursor");
                return Ok(Some(Stop::Gap(what)));
            }
            return Ok(Some(Stop::End)); // The writer has not created it yet.
        };
        let mut file = File::open(&self.segments[index].1)?;
        let (len, end) = (file.metadata()?.len(), self.cursor.offset);
        file.seek(SeekFrom::Start(end))?;
        let (buf, pos) = (Vec::new(), 0);
        let mut w = Window {
            index,
            file,
            len,
            end,
            buf,
            pos,
        };
        w.read(READ_WINDOW)?;
        if end < SEGMENT_HEADER as u64 {
            let header = w.unread();
            if header.len() < SEGMENT_HEADER {
                if index + 1 == self.segments.len() {
                    return Ok(Some(Stop::Torn));
                }
                let what = format!("segment {seq} has a torn header");
                return Ok(Some(Stop::Corrupt(what)));
            }
            // lint: allow(unwrap) — slice length fixed by the on-disk format
            let stamped = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
            if &header[..8] != SEGMENT_MAGIC || stamped != seq {
                let what = format!("segment file {seq} has a bad header (sequence {stamped})");
                return Ok(Some(Stop::Corrupt(what)));
            }
            w.pos = SEGMENT_HEADER;
            self.cursor.offset = SEGMENT_HEADER as u64;
        }
        self.window = Some(w);
        Ok(None)
    }

    /// Moves the cursor to the start of segment `seq`.  Entering the
    /// fenced lineage, the sequence must have reached the fence LSN.
    fn bind(&mut self, seq: u64) -> Option<Stop> {
        let before = |f: &EpochMarker| self.cursor.segment.map_or(true, |s| s < f.start_segment);
        let entering = self.fence.filter(|f| seq >= f.start_segment && before(f));
        (self.cursor.segment, self.cursor.offset, self.window) = (Some(seq), 0, None);
        let next = self.cursor.next_lsn;
        entering
            .filter(|f| next < f.fence_lsn)
            .map(|f| gap(seq, next, f.fence_lsn))
    }

    /// Cuts residue at the cursor and jumps to the new lineage.
    fn cut(&mut self, seq: u64) -> Option<Stop> {
        self.fenced.push((seq, self.cursor.offset));
        // lint: allow(unwrap) — residue lies in an old-lineage segment, which implies a fence
        self.jump(seq, self.fence.expect("residue implies a fence"))
    }

    /// Jumps from old-lineage segment `from` to the first listed segment of
    /// the fenced lineage; every old-lineage segment skipped is residue.
    fn jump(&mut self, from: u64, fence: EpochMarker) -> Option<Stop> {
        let listed = self.segments.iter().map(|&(s, _)| s);
        let Some(to) = listed.clone().find(|&s| s >= fence.start_segment) else {
            return Some(Stop::Unlisted(fence.start_segment));
        };
        let skipped = listed.filter(|&s| s > from && s < to);
        self.fenced
            .extend(skipped.map(|s| (s, SEGMENT_HEADER as u64)));
        self.bind(to)
    }

    /// The stop past the newest listed segment: the end, unless the fence
    /// names a lineage the walk has not reached.
    fn end_of_listing(&self) -> Stop {
        match self.fence {
            Some(f) if self.cursor.segment.map_or(true, |s| s < f.start_segment) => {
                Stop::Unlisted(f.start_segment)
            }
            _ => Stop::End,
        }
    }
}

fn gap(seq: u64, expected: u64, found: u64) -> Stop {
    Stop::Gap(format!(
        "LSN gap at segment {seq}: expected {expected}, found {found}"
    ))
}
