//! Background garbage collection.
//!
//! Multiversion concurrency trades space for concurrency; the engine pays
//! the space back here.  A [`GcDriver`] owns a background thread that
//! periodically runs [`Engine::collect_garbage`]: one pass per shard under
//! that shard's active-snapshot watermark
//! ([`mvcc_store::gc::collect_with_watermark`]), so a long-running
//! snapshot pins exactly the versions it can still observe and nothing
//! more.  Reclamation can race with an in-flight multiversion read that
//! was assigned a very old version — the session layer surfaces that as
//! [`crate::EngineError::SnapshotTooOld`] (the engine's ORA-01555) rather
//! than ever serving a freed version.

use crate::session::Engine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Handle to the background GC thread.  Stop it explicitly with
/// [`GcDriver::stop`] or implicitly by dropping it.
#[derive(Debug)]
pub struct GcDriver {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl GcDriver {
    /// Spawns a GC thread over `engine`, running one collection every
    /// `period`.  The stop flag is read only after a pass, so a started
    /// driver completes at least one even if it is stopped before its
    /// thread is first scheduled.
    pub fn start(engine: Arc<Engine>, period: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || loop {
            engine.collect_garbage();
            if stop_flag.load(Ordering::Relaxed) {
                break;
            }
            std::thread::sleep(period);
        });
        GcDriver {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the thread to stop and waits for it to finish.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for GcDriver {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifier::CertifierKind;
    use crate::session::EngineConfig;
    use bytes::Bytes;
    use mvcc_core::EntityId;

    #[test]
    fn driver_reclaims_superseded_versions_in_the_background() {
        let engine = Arc::new(Engine::new(
            CertifierKind::Sgt,
            EngineConfig {
                shards: 2,
                entities: 4,
                ..EngineConfig::default()
            },
        ));
        let driver = GcDriver::start(Arc::clone(&engine), Duration::from_millis(1));
        // Pile up versions of one entity.
        for i in 0..32u32 {
            let mut s = engine.begin();
            if s.write(EntityId(0), Bytes::from(format!("{i}"))).is_ok() {
                let _ = s.commit();
            }
        }
        // Wait for at least one pass to observe the pile.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while engine.metrics().snapshot().gc_reclaimed == 0 && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        driver.stop();
        let snap = engine.metrics().snapshot();
        assert!(snap.gc_passes > 0, "driver never ran");
        assert!(snap.gc_reclaimed > 0, "driver never reclaimed");
        // A final manual pass leaves only the newest committed version.
        engine.collect_garbage();
        assert_eq!(
            engine
                .shards()
                .store_for(EntityId(0))
                .version_count(EntityId(0)),
            1
        );
    }

    #[test]
    fn a_driver_stopped_at_once_still_completes_a_pass() {
        let engine = Arc::new(Engine::new(CertifierKind::Sgt, EngineConfig::default()));
        GcDriver::start(Arc::clone(&engine), Duration::from_millis(1)).stop();
        assert!(engine.metrics().snapshot().gc_passes >= 1);
    }

    #[test]
    fn dropping_the_driver_stops_the_thread() {
        let engine = Arc::new(Engine::new(CertifierKind::Sgt, EngineConfig::default()));
        {
            let _driver = GcDriver::start(Arc::clone(&engine), Duration::from_millis(1));
            std::thread::sleep(Duration::from_millis(5));
        }
        // If the thread were still running it would keep bumping the pass
        // counter; sample twice to show it stopped.
        let a = engine.metrics().snapshot().gc_passes;
        std::thread::sleep(Duration::from_millis(10));
        let b = engine.metrics().snapshot().gc_passes;
        assert_eq!(a, b);
        assert!(a > 0);
    }
}
