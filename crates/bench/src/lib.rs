#![forbid(unsafe_code)]
//! Shared harness code for the experiment and benchmark binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it from scratch and writes a JSON artifact next to the
//! printed report:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig2_pareto` | Figure 2 (both sites) |
//! | `table1_2_candidates` | Tables 1 and 2 |
//! | `fig3_projection` | Figure 3 (both sites) |
//! | `fig4_coverage` | Figure 4 (Houston) |
//! | `search_performance` | §4.4 comparison |
//! | `beyond_carbon` | §4.3 additional objectives |
//!
//! The benchmark bins (`bench_sweep`, `fleet_sweep`, `fleet_search`,
//! `server_bench`) time every variant through one [`measure()`] (warm-up,
//! rotated interleaved samples, min/median/MAD) and write the
//! `BENCH_*.json` artifacts ([`SweepBench`], [`FleetBench`],
//! [`FleetSearchBench`], [`ServerBench`]) at the repository root;
//! `bench_guard` re-reads them with the same types ([`guard::check`]).
//!
//! ## Environment variables
//!
//! | Variable | Effect |
//! |---|---|
//! | `MGOPT_FAST=1` | Reduced 27-point composition space (smoke tests). |
//! | `MGOPT_DENSE="<mw>,<mwh>"` | Denser-than-paper grid: solar step in MW, battery step in MWh (e.g. `"2,5"`). Malformed values abort with a usage message. |
//! | `MGOPT_TRACE=<path>` | Structured JSONL telemetry trace (spans, counters, per-generation search events) written to `path`; summarize with the `trace_report` bin. Disabled costs one relaxed atomic load per instrumented call. |
//! | `MGOPT_SERVER_ADDR=<host:port>` | `mgopt_serve` binds this TCP address instead of serving stdin/stdout (port `0` picks a free port, printed on stderr). |
//! | `MGOPT_ACCEPTORS=<n>` | Daemon: max concurrently served TCP connections (default 8); further connections wait in the accept queue. |
//! | `MGOPT_SERVER_CONCURRENCY=<n>` | Daemon: process-wide max in-flight studies across all connections (default 4); excess studies wait in FIFO order and announce themselves with a `Queued` frame. |
//! | `MGOPT_SERVER_CACHE=<n>` | Daemon: prepared-scenario cache capacity (default 8, LRU). |
//! | `MGOPT_SERVER_MAX_FRAME=<bytes>` | Daemon: max request-line length (default 1048576); longer lines get an `Oversized` error frame. |
//! | `MGOPT_BLESS=1` | `cargo test --test wire_golden` rewrites the golden wire fixtures (`tests/fixtures/wire/*.jsonl`) instead of comparing against them. Commit the refreshed fixtures together with the `WIRE_VERSION` bump that justified them. |
//!
//! The default (no variables) regenerates the full 1,089-point studies
//! untraced.

mod artifact;
mod client;
pub mod guard;
mod measure;

pub use artifact::{
    repo_root, write_bench, FleetBench, FleetSearchBench, MultiConnBench, ServerBench, SweepBench,
};
pub use client::{send_frame, standalone_front, study};
pub use measure::{measure, scaling_sweep, ThreadScaling, Timing, Window};

use mgopt_core::{PreparedScenario, ScenarioConfig};
use mgopt_microgrid::CompositionSpace;
use mgopt_telemetry::{self as telemetry, Counter, Stage};
use serde::{Deserialize, Serialize};

/// `true` when `MGOPT_FAST=1` (reduced spaces for smoke runs).
pub fn fast_mode() -> bool {
    std::env::var("MGOPT_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The denser-than-paper grid requested via `MGOPT_DENSE="<mw>,<mwh>"`
/// (solar step in MW, battery step in MWh), if any.
///
/// A malformed value prints the [`parse_dense`] error (which states the
/// expected format) and exits with status 2 — a silently ignored typo
/// would mislabel benchmark artifacts, and a mid-bench panic buries the
/// usage message under a backtrace.
pub fn dense_steps() -> Option<(f64, f64)> {
    let v = std::env::var("MGOPT_DENSE").ok()?;
    match parse_dense(&v) {
        Ok(steps) => Some(steps),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// Parse an `MGOPT_DENSE` value: two comma-separated positive numbers
/// (solar step in MW, battery step in MWh). The `Err` message states the
/// expected format.
pub fn parse_dense(v: &str) -> Result<(f64, f64), String> {
    const USAGE: &str = "want \"<step_mw>,<step_mwh>\" with positive numbers, e.g. \"2,5\"";
    let parse = |s: &str| {
        s.trim()
            .parse::<f64>()
            .map_err(|_| format!("MGOPT_DENSE: bad number {s:?} ({USAGE})"))
    };
    match v.split(',').collect::<Vec<_>>()[..] {
        [mw, mwh] => {
            let steps = (parse(mw)?, parse(mwh)?);
            if steps.0 > 0.0 && steps.1 > 0.0 {
                Ok(steps)
            } else {
                Err(format!("MGOPT_DENSE: non-positive step in {v:?} ({USAGE})"))
            }
        }
        _ => Err(format!("MGOPT_DENSE: got {v:?} ({USAGE})")),
    }
}

/// The search space for the current mode: `MGOPT_FAST=1` shrinks it to 27
/// points, `MGOPT_DENSE="<mw>,<mwh>"` densifies the paper envelope (see
/// [`CompositionSpace::dense`]), default is the paper's 1,089-point grid.
pub fn space() -> CompositionSpace {
    if fast_mode() {
        CompositionSpace::tiny()
    } else if let Some((mw, mwh)) = dense_steps() {
        CompositionSpace::dense(mw, mwh)
    } else {
        CompositionSpace::paper()
    }
}

/// Prepared Houston scenario (paper configuration).
pub fn houston() -> PreparedScenario {
    ScenarioConfig {
        space: space(),
        ..ScenarioConfig::paper_houston()
    }
    .prepare()
}

/// Prepared Berkeley scenario (paper configuration).
pub fn berkeley() -> PreparedScenario {
    ScenarioConfig {
        space: space(),
        ..ScenarioConfig::paper_berkeley()
    }
    .prepare()
}

/// One stage row of a [`TelemetrySection`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryStage {
    /// Stage name (`"batch.kernel"`, …).
    pub name: String,
    /// Completed spans.
    pub calls: u64,
    /// Summed span time, ms (CPU-time semantics across worker threads).
    pub total_ms: f64,
}

/// The `telemetry` section of `BENCH_fleet_search.json`: per-stage time
/// breakdown plus engine throughput and memo-cache effectiveness from
/// instrumented (telemetry-enabled) runs. `bench_guard` sanity-checks it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySection {
    /// Stages with at least one recorded span.
    pub stages: Vec<TelemetryStage>,
    /// Candidate-steps pushed through the engine kernels per second of
    /// kernel CPU time (`(batch.rows + fleet.rows) / kernel seconds`).
    pub evals_per_sec: f64,
    /// NSGA-II memo-cache hit rate over sampled genomes, `[0, 1]`; zero
    /// when the run recorded no cache activity.
    pub cache_hit_rate: f64,
}

/// Snapshot the current telemetry aggregates into an artifact section.
///
/// Call after an instrumented run, having called
/// [`mgopt_telemetry::reset_stats`] at the start of the window you want
/// attributed.
pub fn collect_telemetry_section() -> TelemetrySection {
    let stages: Vec<TelemetryStage> = telemetry::stage_totals()
        .into_iter()
        .filter(|s| s.calls > 0)
        .map(|s| TelemetryStage {
            name: s.name.to_string(),
            calls: s.calls,
            total_ms: s.total_ms,
        })
        .collect();
    let rows =
        telemetry::counter_value(Counter::BatchRows) + telemetry::counter_value(Counter::FleetRows);
    let kernel_ms =
        telemetry::stage_ms(Stage::BatchKernel) + telemetry::stage_ms(Stage::FleetKernel);
    let evals_per_sec = if kernel_ms > 0.0 {
        rows as f64 / (kernel_ms / 1e3)
    } else {
        0.0
    };
    let hits = telemetry::counter_value(Counter::CacheHits);
    let misses = telemetry::counter_value(Counter::CacheMisses);
    let cache_hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    TelemetrySection {
        stages,
        evals_per_sec,
        cache_hit_rate,
    }
}

/// Write a JSON artifact under `results/` (best effort — printing is the
/// primary output; artifact failures only warn).
pub fn write_artifact<T: Serialize>(name: &str, value: &T) {
    let dir = repo_root().join("results");
    if std::fs::create_dir_all(&dir).is_err() {
        eprintln!("warning: could not create results dir");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("[artifact] {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: serialization failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_respects_fast_mode_env() {
        // Can't mutate the environment safely in parallel tests; just
        // check both space shapes are available.
        assert_eq!(CompositionSpace::paper().len(), 1_089);
        assert_eq!(CompositionSpace::tiny().len(), 27);
    }

    #[test]
    fn scenarios_prepare() {
        std::env::set_var("MGOPT_FAST", "1");
        let h = houston();
        assert_eq!(h.site_name(), "Houston, TX");
        std::env::remove_var("MGOPT_FAST");
    }

    #[test]
    fn parse_dense_accepts_two_positive_numbers() {
        assert_eq!(parse_dense("2,5"), Ok((2.0, 5.0)));
        assert_eq!(parse_dense(" 0.5 , 7.5 "), Ok((0.5, 7.5)));
    }

    #[test]
    fn parse_dense_errors_state_the_expected_format() {
        for bad in ["", "2", "2,5,9", "two,5", "2,", "-2,5", "0,5"] {
            let err = parse_dense(bad).unwrap_err();
            assert!(
                err.contains("MGOPT_DENSE") && err.contains("<step_mw>,<step_mwh>"),
                "unhelpful message for {bad:?}: {err}"
            );
        }
        assert!(parse_dense("two,5").unwrap_err().contains("bad number"));
        assert!(parse_dense("0,5").unwrap_err().contains("non-positive"));
    }

    #[test]
    fn telemetry_section_round_trips_through_json() {
        let section = TelemetrySection {
            stages: vec![TelemetryStage {
                name: "batch.kernel".into(),
                calls: 4,
                total_ms: 12.5,
            }],
            evals_per_sec: 1.5e8,
            cache_hit_rate: 0.25,
        };
        let json = serde_json::to_string(&section).unwrap();
        let back: TelemetrySection = serde_json::from_str(&json).unwrap();
        assert_eq!(back, section);
    }
}
