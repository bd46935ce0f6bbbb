//! Checkpoint files: periodic snapshots of the committed store state.
//!
//! A checkpoint bounds recovery work: instead of replaying the whole log,
//! recovery loads the newest valid checkpoint and replays only commit
//! records with `lsn >= replay_from_lsn`.  A checkpoint file carries, per
//! shard, the committed version chains, the shard's commit counter **and
//! the GC watermark the checkpoint was cut at** — recording the watermark
//! is what guarantees a recovered store never hands out a snapshot below
//! the reclaimed horizon (versions under the watermark may be gone from
//! the checkpointed chains, so a snapshot that old would read the void).
//!
//! Checkpoints are fuzzy with respect to concurrent commits: the engine
//! samples `replay_from_lsn` *before* snapshotting the shards, so a
//! commit that lands during the snapshot is either already in the
//! checkpointed chains or replayed from the log — replay is idempotent
//! per `(writer, commit timestamp)` version, so the overlap is harmless.
//!
//! Files are written to a temporary name, fsynced, then renamed into
//! place (`checkpoint-<seq>.ckpt`), and the whole body is CRC-guarded: a
//! checkpoint torn by a crash mid-write is skipped at recovery, which
//! falls back to the previous one (or to log-only replay).

use crate::record::crc32;
use bytes::Bytes;
use mvcc_core::{EntityId, TxId};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint file.
pub(crate) const CHECKPOINT_MAGIC: &[u8; 8] = b"MVCKPT01";

/// One committed version as persisted by checkpoints and rebuilt by
/// recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedVersion {
    /// The writing transaction ([`TxId::INITIAL`] for the pre-seed).
    pub writer: TxId,
    /// The writer's commit timestamp on the owning shard.
    pub commit_ts: u64,
    /// The version payload.
    pub value: Bytes,
}

/// The persisted state of one store shard.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardCheckpoint {
    /// The shard's commit-timestamp high-water mark.
    pub commit_counter: u64,
    /// The GC watermark the checkpoint was cut at: versions superseded at
    /// or below it may be absent from `chains`, so no recovered snapshot
    /// may be issued below this horizon.
    pub watermark: u64,
    /// Per-entity committed version chains (every version committed).
    pub chains: Vec<(EntityId, Vec<CommittedVersion>)>,
}

/// One whole checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointData {
    /// Monotonic checkpoint sequence number.
    pub seq: u64,
    /// Recovery replays log records with `lsn >= replay_from_lsn`; all
    /// earlier commits are already reflected in `shards`.
    pub replay_from_lsn: u64,
    /// The engine's next transaction id at the cut.
    pub next_tx: u32,
    /// Per-shard committed state, indexed by shard.
    pub shards: Vec<ShardCheckpoint>,
}

/// The path of checkpoint `seq` under `dir`.
pub(crate) fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq:08}.ckpt"))
}

/// Lists checkpoint files under `dir`, sorted by sequence number.
pub(crate) fn list_checkpoints(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut checkpoints = Vec::new();
    if !dir.exists() {
        return Ok(checkpoints);
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("checkpoint-")
            .and_then(|rest| rest.strip_suffix(".ckpt"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            checkpoints.push((seq, entry.path()));
        }
    }
    checkpoints.sort();
    Ok(checkpoints)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serializes `data` and writes it atomically (temp file + fsync +
/// rename) under `dir`.  Returns the final path.
pub fn write_checkpoint(dir: &Path, data: &CheckpointData) -> io::Result<PathBuf> {
    let mut body = Vec::with_capacity(1024);
    put_u64(&mut body, data.seq);
    put_u64(&mut body, data.replay_from_lsn);
    put_u32(&mut body, data.next_tx);
    put_u32(&mut body, data.shards.len() as u32);
    for shard in &data.shards {
        put_u64(&mut body, shard.commit_counter);
        put_u64(&mut body, shard.watermark);
        put_u32(&mut body, shard.chains.len() as u32);
        for (entity, versions) in &shard.chains {
            put_u32(&mut body, entity.0);
            put_u32(&mut body, versions.len() as u32);
            for version in versions {
                put_u32(&mut body, version.writer.0);
                put_u64(&mut body, version.commit_ts);
                put_u32(&mut body, version.value.len() as u32);
                body.extend_from_slice(&version.value);
            }
        }
    }
    let tmp = dir.join(format!("checkpoint-{:08}.ckpt.tmp", data.seq));
    {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(CHECKPOINT_MAGIC)?;
        file.write_all(&crc32(&body).to_le_bytes())?;
        file.write_all(&(body.len() as u32).to_le_bytes())?;
        file.write_all(&body)?;
        file.sync_data()?;
    }
    let path = checkpoint_path(dir, data.seq);
    std::fs::rename(&tmp, &path)?;
    // Make the rename itself durable: without a directory fsync a host
    // crash can forget the entry even though the file data was synced.
    crate::wal::sync_dir(dir)?;
    Ok(path)
}

/// A little-endian reader over a checkpoint body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u32(&mut self) -> Option<u32> {
        let bytes = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        // lint: allow(unwrap) — slice length fixed by the on-disk format
        Some(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        let bytes = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        // lint: allow(unwrap) — slice length fixed by the on-disk format
        Some(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn bytes(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(len)?;
        let bytes = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(bytes)
    }
}

/// Reads and validates one checkpoint file.  Returns `None` when the file
/// is torn, corrupt or not a checkpoint (the caller falls back to an
/// older checkpoint or to log-only recovery).
pub fn read_checkpoint(path: &Path) -> io::Result<Option<CheckpointData>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(parse_checkpoint(&bytes))
}

fn parse_checkpoint(bytes: &[u8]) -> Option<CheckpointData> {
    if bytes.len() < 16 || &bytes[0..8] != CHECKPOINT_MAGIC {
        return None;
    }
    // lint: allow(unwrap) — slice length fixed by the on-disk format
    let stored_crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    // lint: allow(unwrap) — slice length fixed by the on-disk format
    let body_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    let body = bytes.get(16..16 + body_len)?;
    if crc32(body) != stored_crc {
        return None;
    }
    let mut r = Reader { buf: body, pos: 0 };
    let seq = r.u64()?;
    let replay_from_lsn = r.u64()?;
    let next_tx = r.u32()?;
    let shard_count = r.u32()? as usize;
    if shard_count > body_len {
        return None;
    }
    let mut shards = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let commit_counter = r.u64()?;
        let watermark = r.u64()?;
        let chain_count = r.u32()? as usize;
        if chain_count > body_len {
            return None;
        }
        let mut chains = Vec::with_capacity(chain_count);
        for _ in 0..chain_count {
            let entity = EntityId(r.u32()?);
            let version_count = r.u32()? as usize;
            if version_count > body_len {
                return None;
            }
            let mut versions = Vec::with_capacity(version_count);
            for _ in 0..version_count {
                let writer = TxId(r.u32()?);
                let commit_ts = r.u64()?;
                let len = r.u32()? as usize;
                let value = Bytes::copy_from_slice(r.bytes(len)?);
                versions.push(CommittedVersion {
                    writer,
                    commit_ts,
                    value,
                });
            }
            chains.push((entity, versions));
        }
        shards.push(ShardCheckpoint {
            commit_counter,
            watermark,
            chains,
        });
    }
    Some(CheckpointData {
        seq,
        replay_from_lsn,
        next_tx,
        shards,
    })
}

/// Loads the newest valid checkpoint under `dir`, skipping torn or
/// corrupt ones.
pub fn latest_checkpoint(dir: &Path) -> io::Result<Option<CheckpointData>> {
    for (_, path) in list_checkpoints(dir)?.into_iter().rev() {
        if let Some(data) = read_checkpoint(&path)? {
            return Ok(Some(data));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mvcc-ckpt-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(seq: u64) -> CheckpointData {
        CheckpointData {
            seq,
            replay_from_lsn: 42,
            next_tx: 9,
            shards: vec![
                ShardCheckpoint {
                    commit_counter: 7,
                    watermark: 5,
                    chains: vec![(
                        EntityId(0),
                        vec![
                            CommittedVersion {
                                writer: TxId::INITIAL,
                                commit_ts: 0,
                                value: Bytes::from_static(b"0"),
                            },
                            CommittedVersion {
                                writer: TxId(3),
                                commit_ts: 7,
                                value: Bytes::from_static(b"three"),
                            },
                        ],
                    )],
                },
                ShardCheckpoint {
                    commit_counter: 2,
                    watermark: 2,
                    chains: vec![(
                        EntityId(1),
                        vec![CommittedVersion {
                            writer: TxId(2),
                            commit_ts: 2,
                            value: Bytes::new(),
                        }],
                    )],
                },
            ],
        }
    }

    #[test]
    fn write_read_round_trip() {
        let dir = temp_dir("round");
        let data = sample(1);
        let path = write_checkpoint(&dir, &data).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), Some(data.clone()));
        assert_eq!(latest_checkpoint(&dir).unwrap(), Some(data));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_checkpoint_prefers_the_newest_valid_one() {
        let dir = temp_dir("latest");
        write_checkpoint(&dir, &sample(1)).unwrap();
        write_checkpoint(&dir, &sample(2)).unwrap();
        let newest = sample(3);
        write_checkpoint(&dir, &newest).unwrap();
        assert_eq!(latest_checkpoint(&dir).unwrap(), Some(newest));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoints_are_skipped_not_trusted() {
        let dir = temp_dir("corrupt");
        let good = sample(1);
        write_checkpoint(&dir, &good).unwrap();
        // Write checkpoint 2 and then corrupt its body: recovery must fall
        // back to checkpoint 1.
        let path = write_checkpoint(&dir, &sample(2)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), None);
        assert_eq!(latest_checkpoint(&dir).unwrap(), Some(good));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_checkpoints_are_skipped() {
        let dir = temp_dir("torn");
        let path = write_checkpoint(&dir, &sample(1)).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len / 2).unwrap();
        drop(file);
        assert_eq!(read_checkpoint(&path).unwrap(), None);
        assert_eq!(latest_checkpoint(&dir).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_checkpoint_files_are_ignored() {
        let dir = temp_dir("noise");
        std::fs::write(dir.join("wal-00000000.seg"), b"not a checkpoint").unwrap();
        std::fs::write(dir.join("notes.txt"), b"hello").unwrap();
        assert_eq!(latest_checkpoint(&dir).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
