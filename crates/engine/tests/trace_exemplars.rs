//! The tail-exemplar attribution gate (experiment E18's acceptance):
//! on an uncontended workload (4 threads, θ = 0, buffered durability so
//! the WAL stages participate), every certifier's traced
//! run must retain tail exemplars, and at least 95% of the captured
//! outliers must name a dominant stage — an exemplar whose span tree
//! cannot say *where* the time went is a report that explains nothing.
//!
//! The watchdog rides along: the same runs double as the online
//! classification check under plain load (the chaos soaks cover the
//! failover story), with the zero-false-alarm assertion every
//! watchdog-enabled run carries.

use mvcc_engine::{run_closed_loop, CertifierKind, DurabilityConfig, LoadOptions, TelemetryMode};
use mvcc_workload::LoadProfile;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "tail capture needs release-build traffic volumes to be meaningful"
)]
fn every_certifier_attributes_at_least_95_percent_of_tail_exemplars() {
    let profile = LoadProfile {
        threads: 4,
        shards: 4,
        ops: 20_000,
        zipf_theta: 0.0,
        seed: 0x0e13,
        ..LoadProfile::default()
    };
    for kind in CertifierKind::all() {
        let dir = std::env::temp_dir().join(format!(
            "mvcc-exemplar-gate-{}-{}",
            std::process::id(),
            kind.name()
        ));
        let report = run_closed_loop(
            kind,
            &profile,
            LoadOptions {
                history_capacity: Some(512),
                durability: DurabilityConfig::buffered(&dir),
                telemetry: TelemetryMode::On,
                watchdog: true,
                ..LoadOptions::default()
            },
        );
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            !report.exemplars.is_empty(),
            "{kind}: a traced release run must capture tail exemplars"
        );
        let attribution = report.exemplar_attribution();
        assert!(
            attribution >= 0.95,
            "{kind}: only {:.0}% of {} exemplars name a dominant stage",
            attribution * 100.0,
            report.exemplars.len()
        );
        // Slowest-first is the reservoir's contract — the report's
        // "worst offender" really is the worst the run saw.
        for pair in report.exemplars.windows(2) {
            assert!(pair[0].total_us >= pair[1].total_us, "{kind}: not sorted");
        }
        let watchdog = report.watchdog.expect("watchdog was on");
        if kind != CertifierKind::Mvto {
            // MVTO's class (MVSR) is NP-complete and only soundly
            // checkable on small complete histories — at release traffic
            // volumes with a ring history every sample is (correctly)
            // skipped; the failover chaos soak covers MVTO's online
            // verification at checkable sizes.
            assert!(
                watchdog.windows >= 1,
                "{kind}: the watchdog never classified a window"
            );
        }
        assert_eq!(
            watchdog.violations, 0,
            "{kind}: the watchdog false-alarmed under plain load"
        );
    }
}
