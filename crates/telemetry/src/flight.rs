//! The flight recorder: a bounded drop-oldest ring of recent structured
//! events.
//!
//! When a chaos soak fails, counters tell you *how much* happened but
//! not *what the pipeline was doing* at the kill site.  The flight
//! recorder keeps the last N structured events — batches ruled, flushes,
//! checkpoint cuts, fence refusals, promotion phases, GC reclaims,
//! aborts — and [`FlightRecorder::dump`] renders them as a timeline the
//! failing test prints.  The ring is bounded and drop-oldest: a soak
//! that runs for minutes keeps only the recent past, which is the part a
//! failure post-mortem needs, and memory stays flat.
//!
//! Recording takes a short mutex.  That is deliberate: events are orders
//! of magnitude rarer than stage samples (one per *batch* or per rare
//! incident, not one per step), and a ring shared by readers has to
//! serialize somewhere.  The hot per-step path never records events.

use mvcc_analysis::lock_class;
use mvcc_analysis::lockdep::TrackedMutex;
use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};

/// Default event capacity of the ring.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// One structured event, timestamped relative to recorder creation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds since the recorder was created.
    pub at_us: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The structured event vocabulary.
///
/// Site/phase/reason fields are `String`s rather than engine enums so
/// the telemetry crate stays below the engine in the dependency order —
/// every layer can describe its events without a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A group-commit batch was appended and flushed to the WAL.
    WalFlush {
        /// Bytes appended.
        bytes: u64,
        /// Whether the flush included an fsync.
        fsynced: bool,
        /// Transactions made durable by this flush.
        txns: u64,
    },
    /// A fuzzy checkpoint was cut.
    CheckpointCut {
        /// Checkpoint sequence number.
        seq: u64,
    },
    /// An epoch fence refused a write from a deposed primary.
    FenceRefusal {
        /// Pipeline site that observed the refusal.
        site: String,
    },
    /// A scripted chaos kill site fired (recorded *before* the hook
    /// runs, so a frozen-forever thread still leaves its trace).
    KillSite {
        /// The kill site's name.
        site: String,
    },
    /// A failover / promotion phase transition.
    Promotion {
        /// Phase name, e.g. `detected`, `elected`, `promoted`, `installed`.
        phase: String,
        /// Free-form detail (epoch, watermark, replica index…).
        detail: String,
    },
    /// A GC pass reclaimed obsolete versions.
    GcReclaim {
        /// Versions reclaimed.
        versions: u64,
    },
    /// A transaction aborted.
    Abort {
        /// The abort reason's name.
        reason: String,
    },
    /// First commit on a promoted engine's new epoch.
    EpochFirstCommit {
        /// The new epoch.
        epoch: u64,
    },
    /// The online classification watchdog ruled on a sampled
    /// committed-history window.
    WatchdogVerdict {
        /// The certifier's claimed class (e.g. `CSR`).
        class: String,
        /// Whether the window classified into the class.
        ok: bool,
        /// Committed transactions in the checked window.
        txns: u64,
        /// Free-form detail: window shape, or the offending transactions
        /// (`t{epoch}.{tx}`) on a violation.
        detail: String,
    },
    /// An anomaly detector transition: an alarm fired (`onset`) or
    /// stopped holding (`clear`) at a timeline frame.
    Anomaly {
        /// The anomaly's name, e.g. `abort-storm`, `lag-stall`.
        anomaly: String,
        /// `onset` or `clear`.
        phase: String,
        /// The timeline frame sequence number of the transition.
        frame: u64,
        /// Free-form detail: the triggering member / rate / baseline.
        detail: String,
    },
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::WalFlush {
                bytes,
                fsynced,
                txns,
            } => write!(f, "wal-flush bytes={bytes} fsynced={fsynced} txns={txns}"),
            EventKind::CheckpointCut { seq } => write!(f, "checkpoint-cut seq={seq}"),
            EventKind::FenceRefusal { site } => write!(f, "fence-refusal site={site}"),
            EventKind::KillSite { site } => write!(f, "kill-site site={site}"),
            EventKind::Promotion { phase, detail } => {
                write!(f, "promotion phase={phase} {detail}")
            }
            EventKind::GcReclaim { versions } => write!(f, "gc-reclaim versions={versions}"),
            EventKind::Abort { reason } => write!(f, "abort reason={reason}"),
            EventKind::EpochFirstCommit { epoch } => {
                write!(f, "epoch-first-commit epoch={epoch}")
            }
            EventKind::WatchdogVerdict {
                class,
                ok,
                txns,
                detail,
            } => {
                write!(f, "watchdog class={class} ok={ok} txns={txns} {detail}")
            }
            EventKind::Anomaly {
                anomaly,
                phase,
                frame,
                detail,
            } => {
                write!(f, "anomaly {anomaly} phase={phase} frame={frame} {detail}")
            }
        }
    }
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<FlightEvent>,
    dropped: u64,
}

/// The bounded drop-oldest event ring.
#[derive(Debug)]
pub struct FlightRecorder {
    start: Instant,
    capacity: usize,
    ring: TrackedMutex<Ring>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (oldest dropped
    /// first).  A zero capacity is bumped to 1 — a recorder that can
    /// hold nothing cannot explain anything.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            start: Instant::now(),
            capacity: capacity.max(1),
            ring: TrackedMutex::new(
                lock_class!("telemetry.flight-ring"),
                Ring {
                    events: VecDeque::new(),
                    dropped: 0,
                },
            ),
        }
    }

    /// Records one event, timestamped now.
    pub fn record(&self, kind: EventKind) {
        let at_us = duration_to_us(self.start.elapsed());
        let mut ring = self.ring.lock();
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(FlightEvent { at_us, kind });
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().events.len()
    }

    /// True if no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events dropped to keep the ring bounded.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Copies the held events out, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.ring.lock().events.iter().cloned().collect()
    }

    /// Renders the held events as a human-readable timeline — what a
    /// failing chaos or soak test prints.  An empty recorder says so
    /// explicitly rather than printing nothing.
    pub fn dump(&self) -> String {
        let ring = self.ring.lock();
        let mut out = String::new();
        if ring.events.is_empty() {
            out.push_str("flight recorder: no events recorded\n");
            return out;
        }
        out.push_str(&format!(
            "flight recorder: {} event(s), {} older dropped\n",
            ring.events.len(),
            ring.dropped
        ));
        for event in &ring.events {
            out.push_str(&format!("  +{:>10}µs  {}\n", event.at_us, event.kind));
        }
        out
    }
}

fn duration_to_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_drops_oldest_at_capacity() {
        let rec = FlightRecorder::new(3);
        for seq in 0..5 {
            rec.record(EventKind::CheckpointCut { seq });
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        let seqs: Vec<u64> = rec
            .events()
            .iter()
            .map(|e| match e.kind {
                EventKind::CheckpointCut { seq } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest events must go first");
        let dump = rec.dump();
        assert!(dump.contains("3 event(s), 2 older dropped"), "{dump}");
        assert!(dump.contains("checkpoint-cut seq=4"), "{dump}");
    }

    #[test]
    fn dump_on_empty_says_so() {
        let rec = FlightRecorder::new(8);
        assert!(rec.is_empty());
        assert_eq!(rec.dump(), "flight recorder: no events recorded\n");
    }

    #[test]
    fn timestamps_are_nondecreasing() {
        let rec = FlightRecorder::new(8);
        rec.record(EventKind::CheckpointCut { seq: 1 });
        std::thread::sleep(Duration::from_millis(2));
        rec.record(EventKind::CheckpointCut { seq: 2 });
        let events = rec.events();
        assert!(events[0].at_us <= events[1].at_us);
    }

    #[test]
    fn zero_capacity_is_bumped_to_one() {
        let rec = FlightRecorder::new(0);
        rec.record(EventKind::CheckpointCut { seq: 1 });
        rec.record(EventKind::CheckpointCut { seq: 2 });
        assert_eq!(rec.len(), 1);
        assert!(rec.dump().contains("checkpoint-cut seq=2"));
    }

    #[test]
    fn every_event_kind_renders() {
        let kinds = vec![
            EventKind::WalFlush {
                bytes: 128,
                fsynced: true,
                txns: 4,
            },
            EventKind::CheckpointCut { seq: 7 },
            EventKind::FenceRefusal {
                site: "commit-flush".into(),
            },
            EventKind::KillSite {
                site: "group-commit-flush".into(),
            },
            EventKind::Promotion {
                phase: "elected".into(),
                detail: "watermark=42".into(),
            },
            EventKind::GcReclaim { versions: 12 },
            EventKind::Abort {
                reason: "write-conflict".into(),
            },
            EventKind::EpochFirstCommit { epoch: 1 },
            EventKind::WatchdogVerdict {
                class: "CSR".into(),
                ok: true,
                txns: 42,
                detail: "complete".into(),
            },
            EventKind::Anomaly {
                anomaly: "lag-stall".into(),
                phase: "onset".into(),
                frame: 17,
                detail: "member=replica-1 lag=9".into(),
            },
        ];
        let rec = FlightRecorder::new(kinds.len());
        for k in kinds {
            rec.record(k);
        }
        let dump = rec.dump();
        for needle in [
            "wal-flush",
            "checkpoint-cut",
            "fence-refusal",
            "kill-site",
            "promotion",
            "gc-reclaim",
            "abort",
            "epoch-first-commit",
            "watchdog class=CSR ok=true txns=42",
            "anomaly lag-stall phase=onset frame=17 member=replica-1 lag=9",
        ] {
            assert!(dump.contains(needle), "missing {needle} in:\n{dump}");
        }
    }
}
