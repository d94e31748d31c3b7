//! The bench-regression guard behind the `bench_guard` bin: re-read the
//! four `BENCH_*.json` artifacts with their shared types and check every
//! deliverable, engine-agreement bound, daemon invariant and speedup floor
//! committed in `BENCH_baseline.json`.

use std::path::Path;

use serde::Deserialize;

use crate::{FleetBench, FleetSearchBench, ServerBench, SweepBench, ThreadScaling, Timing};

/// Committed floors: a fresh speedup must stay above
/// `baseline_speedup * (1 - tolerance)`.
#[derive(Debug, Deserialize)]
struct Baseline {
    tolerance: f64,
    sweep: BaselineEntry,
    fleet: BaselineEntry,
    fleet_search: BaselineEntry,
    /// Floor for the sweep's SIMD-vs-scalar-walk speedup: a refactor that
    /// quietly de-vectorizes the lane kernel fails here even while the
    /// batched-vs-scalar-engine speedup still looks healthy.
    simd: BaselineEntry,
    /// Floor for the daemon's multiplexed-vs-sequential speedup. Near 1.0
    /// on a single core, so it guards the concurrency layer against
    /// growing real overhead rather than promising a gain.
    server: BaselineEntry,
    /// Floor for the multi-connection phase's throughput relative to the
    /// sequential baseline: guards the acceptor pool, the admission queue
    /// and the cancellation path against growing real overhead.
    server_multi: BaselineEntry,
}

#[derive(Debug, Deserialize)]
struct BaselineEntry {
    baseline_speedup: f64,
}

/// A timing with at least one positive, finite sample.
fn timed(t: &Timing) -> bool {
    t.samples >= 1
        && t.min_ms > 0.0
        && t.min_ms <= t.median_ms
        && t.median_ms.is_finite()
        && t.mad_ms >= 0.0
}

/// Shared checks for a bin's `scaling` section: pool sizes 1, 2, … with a
/// valid timing each.
fn check_scaling(kind: &str, scaling: &[ThreadScaling], check: &mut impl FnMut(bool, String)) {
    check(
        !scaling.is_empty(),
        format!("{kind}: scaling section is empty"),
    );
    for (i, p) in scaling.iter().enumerate() {
        check(
            p.threads == i + 1,
            format!("{kind}: scaling entry {i} ran {} threads", p.threads),
        );
        check(
            timed(&p.timing),
            format!("{kind}: malformed scaling timing at {} threads", p.threads),
        );
    }
}

fn read<T: Deserialize>(path: &Path, errors: &mut Vec<String>) -> Option<T> {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            errors.push(format!("{name}: cannot read ({e})"));
            return None;
        }
    };
    match serde_json::from_str(&text) {
        Ok(v) => Some(v),
        Err(e) => {
            errors.push(format!("{name}: deliverables mismatch ({e:?})"));
            None
        }
    }
}

/// Check the artifacts under `root` against `root/BENCH_baseline.json`.
/// `compositions` is the per-site composition count the artifacts must
/// record (`None` skips that check, for grids whose size varies).
/// Returns the number of checks passed, or every failure.
pub fn check(root: &Path, compositions: Option<usize>) -> Result<usize, Vec<String>> {
    let mut errors: Vec<String> = Vec::new();
    let Some(baseline) = read::<Baseline>(&root.join("BENCH_baseline.json"), &mut errors) else {
        return Err(errors);
    };
    let sweep: Option<SweepBench> = read(&root.join("BENCH_sweep.json"), &mut errors);
    let fleet: Option<FleetBench> = read(&root.join("BENCH_fleet.json"), &mut errors);
    let search: Option<FleetSearchBench> = read(&root.join("BENCH_fleet_search.json"), &mut errors);
    let server: Option<ServerBench> = read(&root.join("BENCH_server.json"), &mut errors);

    let mut checks = 0usize;
    let mut check = |ok: bool, msg: String| {
        checks += 1;
        if !ok {
            errors.push(msg);
        }
    };

    let tolerance = baseline.tolerance;
    check(
        (0.0..1.0).contains(&tolerance),
        format!("baseline: tolerance {tolerance} outside [0, 1)"),
    );
    let floor = |entry: &BaselineEntry| entry.baseline_speedup * (1.0 - tolerance);

    if let Some(a) = sweep {
        let f = floor(&baseline.sweep);
        check(
            a.speedup >= f,
            format!("sweep: speedup {:.2} below floor {f:.2}", a.speedup),
        );
        check(
            a.max_rel_error <= 1e-9,
            format!("sweep: engines disagree at {:e}", a.max_rel_error),
        );
        if let Some(n) = compositions {
            check(
                a.compositions == n,
                format!("sweep: {} compositions, expected {n}", a.compositions),
            );
        }
        check(
            timed(&a.scalar) && timed(&a.batched),
            "sweep: malformed timing".into(),
        );
        check(
            a.steps_per_year > 0 && a.threads >= 1,
            "sweep: malformed steps/threads".into(),
        );
        let simd_floor = floor(&baseline.simd);
        check(
            a.simd_speedup >= simd_floor,
            format!(
                "sweep: SIMD speedup {:.2} below floor {simd_floor:.2}",
                a.simd_speedup
            ),
        );
        check(
            a.simd_max_rel_error == 0.0,
            format!(
                "sweep: SIMD walk not bit-identical ({:e})",
                a.simd_max_rel_error
            ),
        );
        check(
            timed(&a.simd) && timed(&a.scalar_walk),
            "sweep: malformed SIMD A/B timing".into(),
        );
        check_scaling("sweep", &a.scaling, &mut check);
    }

    if let Some(a) = fleet {
        let f = floor(&baseline.fleet);
        check(
            a.speedup >= f,
            format!("fleet: speedup {:.2} below floor {f:.2}", a.speedup),
        );
        check(
            a.speedup_with_peak >= f,
            format!(
                "fleet: peak-tracking speedup {:.2} below floor {f:.2}",
                a.speedup_with_peak
            ),
        );
        check(
            a.max_rel_error <= 1e-9,
            format!("fleet: engines disagree at {:e}", a.max_rel_error),
        );
        if let Some(n) = compositions {
            check(
                a.plans == n,
                format!("fleet: {} plans, expected {n}", a.plans),
            );
        }
        check(
            a.peak_concurrent_import_mw > 0.0,
            "fleet: concurrent peak not recorded".into(),
        );
        check(
            a.sites.len() == 2
                && timed(&a.interleaved)
                && timed(&a.interleaved_with_peak)
                && timed(&a.sequential)
                && a.threads >= 1,
            "fleet: malformed sites/timings".into(),
        );
        check(
            a.simd_max_rel_error == 0.0,
            format!(
                "fleet: SIMD walk not bit-identical ({:e})",
                a.simd_max_rel_error
            ),
        );
        check(
            a.simd_speedup > 0.0 && timed(&a.simd) && timed(&a.scalar_walk),
            "fleet: malformed SIMD A/B timings".into(),
        );
        check_scaling("fleet", &a.scaling, &mut check);
    }

    if let Some(a) = search {
        let f = floor(&baseline.fleet_search);
        check(
            a.speedup >= f,
            format!("fleet_search: speedup {:.2} below floor {f:.2}", a.speedup),
        );
        check(
            a.agreement,
            "fleet_search: batched and scalar searches diverged".into(),
        );
        if let Some(n) = compositions {
            check(
                a.space_per_site.iter().all(|&d| d == n) && a.plan_space == n * n,
                format!(
                    "fleet_search: space {:?} / {} plans, expected {n} per site",
                    a.space_per_site, a.plan_space
                ),
            );
        }
        check(
            a.unique_evaluations >= 1 && a.unique_evaluations <= a.max_trials,
            format!(
                "fleet_search: {} unique evaluations for {} trials",
                a.unique_evaluations, a.max_trials
            ),
        );
        check(
            a.sites.len() == 2
                && a.front_size >= 1
                && timed(&a.batched)
                && timed(&a.scalar)
                && a.threads >= 1,
            "fleet_search: malformed sites/front/timings".into(),
        );
        check(
            a.simd_agreement,
            "fleet_search: SIMD-backed and scalar-walk searches diverged".into(),
        );
        check(
            a.simd_speedup > 0.0 && timed(&a.simd) && timed(&a.scalar_walk),
            "fleet_search: malformed SIMD A/B timings".into(),
        );
        check_scaling("fleet_search", &a.scaling, &mut check);
        // Telemetry: sanity only, no overhead gating. An instrumented
        // fleet search must have walked the fleet kernel.
        let t = &a.telemetry;
        check(
            t.stages
                .iter()
                .any(|s| s.name == "fleet.kernel" && s.calls > 0),
            "fleet_search: telemetry section has no fleet.kernel spans".into(),
        );
        check(
            t.stages.iter().all(|s| s.total_ms >= 0.0 && s.calls > 0),
            "fleet_search: malformed telemetry stage row".into(),
        );
        check(
            t.evals_per_sec > 0.0,
            "fleet_search: telemetry evals_per_sec not positive".into(),
        );
        check(
            (0.0..=1.0).contains(&t.cache_hit_rate),
            format!(
                "fleet_search: cache hit rate {} outside [0, 1]",
                t.cache_hit_rate
            ),
        );
    }

    if let Some(a) = server {
        let f = floor(&baseline.server);
        check(
            a.speedup >= f,
            format!("server: speedup {:.2} below floor {f:.2}", a.speedup),
        );
        check(
            a.agreement,
            "server: daemon fronts diverged from standalone runs".into(),
        );
        check(
            a.max_concurrent >= 4 && a.in_flight_peak >= a.max_concurrent,
            format!(
                "server: in-flight peak {} never reached max_concurrent {} — \
                 the throughput number measured a sequential run",
                a.in_flight_peak, a.max_concurrent
            ),
        );
        check(
            a.studies >= a.max_concurrent && a.sites == 2 && a.plan_space >= 1,
            "server: malformed workload shape".into(),
        );
        check(
            a.studies_per_sec > 0.0 && timed(&a.concurrent) && timed(&a.sequential),
            "server: malformed timing".into(),
        );
        check(
            a.prep_cache_misses >= 1 && a.prep_cache_hits > a.prep_cache_misses,
            format!(
                "server: cache traffic {}h/{}m — one shared fleet across {} \
                 studies must hit far more than it misses",
                a.prep_cache_hits, a.prep_cache_misses, a.studies
            ),
        );
        check(
            (0.0..=1.0).contains(&a.prep_cache_hit_rate),
            format!("server: hit rate {} outside [0, 1]", a.prep_cache_hit_rate),
        );

        let m = &a.multi_conn;
        let mf = floor(&baseline.server_multi);
        check(
            m.speedup >= mf,
            format!(
                "server multi_conn: speedup {:.2} below floor {mf:.2}",
                m.speedup
            ),
        );
        check(
            m.agreement,
            "server multi_conn: fronts diverged from standalone runs".into(),
        );
        check(
            m.connections >= 8 && m.studies >= 2 * m.connections,
            format!(
                "server multi_conn: {} connections / {} studies — the phase \
                 must drive at least 8 concurrent connections, 2 studies each",
                m.connections, m.studies
            ),
        );
        check(
            m.in_flight_peak <= m.max_concurrent,
            format!(
                "server multi_conn: in-flight peak {} exceeds the process-wide \
                 cap {} — the admission semaphore leaked",
                m.in_flight_peak, m.max_concurrent
            ),
        );
        check(
            m.in_flight_peak >= m.max_concurrent,
            format!(
                "server multi_conn: in-flight peak {} never reached the cap {} — \
                 the connections ran effectively sequentially",
                m.in_flight_peak, m.max_concurrent
            ),
        );
        check(
            m.queue_depth_peak >= 1,
            "server multi_conn: no study ever queued — the workload never \
             saturated the admission cap"
                .into(),
        );
        check(
            m.cancelled_done_frames == 0,
            format!(
                "server multi_conn: cancelled study produced {} Done frame(s) — \
                 a cancelled study's terminal frame must be Cancelled",
                m.cancelled_done_frames
            ),
        );
        check(
            m.studies_per_sec > 0.0 && timed(&m.timing),
            "server multi_conn: malformed timing".into(),
        );
    }

    if errors.is_empty() {
        Ok(checks)
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use serde::Serialize;

    use super::*;
    use crate::repo_root;

    const FILES: [&str; 5] = [
        "BENCH_baseline.json",
        "BENCH_sweep.json",
        "BENCH_fleet.json",
        "BENCH_fleet_search.json",
        "BENCH_server.json",
    ];

    #[test]
    fn committed_artifacts_pass_every_check() {
        check(&repo_root(), Some(1_089)).expect("committed artifacts pass every check");
    }

    /// A private copy of the committed artifacts, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("mgopt-bench-guard-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create scratch dir");
            for file in FILES {
                std::fs::copy(repo_root().join(file), dir.join(file)).expect("copy artifact");
            }
            Scratch(dir)
        }

        fn edit<T: Serialize + Deserialize>(&self, file: &str, f: impl FnOnce(&mut T)) {
            let path = self.0.join(file);
            let text = std::fs::read_to_string(&path).expect("read copy");
            let mut value: T = serde_json::from_str(&text).expect("parse copy");
            f(&mut value);
            let json = serde_json::to_string_pretty(&value).expect("serialize copy");
            std::fs::write(&path, json).expect("write copy");
        }

        fn failures(&self) -> Vec<String> {
            check(&self.0, Some(1_089)).expect_err("corrupted copy must fail")
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn corrupted_copies_fail_with_the_matching_message() {
        let copy = Scratch::new("simd");
        copy.edit("BENCH_sweep.json", |a: &mut SweepBench| {
            a.simd_max_rel_error = 1e-12;
        });
        assert_eq!(
            copy.failures(),
            ["sweep: SIMD walk not bit-identical (1e-12)"]
        );

        let copy = Scratch::new("agreement");
        copy.edit("BENCH_fleet_search.json", |a: &mut FleetSearchBench| {
            a.agreement = false;
        });
        assert_eq!(
            copy.failures(),
            ["fleet_search: batched and scalar searches diverged"]
        );

        let copy = Scratch::new("tolerance");
        let path = copy.0.join("BENCH_baseline.json");
        let text = std::fs::read_to_string(&path).expect("read baseline copy");
        std::fs::write(
            &path,
            text.replace("\"tolerance\": 0.5", "\"tolerance\": 1.5"),
        )
        .expect("write baseline copy");
        assert_eq!(copy.failures(), ["baseline: tolerance 1.5 outside [0, 1)"]);
    }
}
