//! The committed benchmark artifacts (`BENCH_*.json` at the repository
//! root). The bin that writes an artifact and `bench_guard`, which checks
//! it, share its one type here. Every timing is a [`Timing`] from
//! [`measure()`](crate::measure()), and every speedup a ratio of medians.

use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use crate::{TelemetrySection, ThreadScaling, Timing};

/// `BENCH_sweep.json` (`bench_sweep`): the full exhaustive sweep through
/// the scalar rayon engine and the batched engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepBench {
    pub site: String,
    pub compositions: usize,
    pub steps_per_year: usize,
    /// Worker threads of the uncapped pool.
    pub threads: usize,
    /// Scalar rayon engine.
    pub scalar: Timing,
    /// Batched engine, default walk.
    pub batched: Timing,
    /// `scalar / batched`, medians.
    pub speedup: f64,
    /// Scalar vs batched engine over every metrics field; at most 1e-9.
    pub max_rel_error: f64,
    /// Batched engine forced onto the SIMD walk.
    pub simd: Timing,
    /// Batched engine forced onto the scalar walk.
    pub scalar_walk: Timing,
    /// `scalar_walk / simd`, medians: the lane kernel's gain like for like.
    pub simd_speedup: f64,
    /// Agreement between the forced walks. The lanes-are-candidates design
    /// makes this exactly `0.0`, not merely ≤1e-9.
    pub simd_max_rel_error: f64,
    /// The batched sweep at every pool size.
    pub scaling: Vec<ThreadScaling>,
}

/// `BENCH_fleet.json` (`fleet_sweep`): the uniform fleet sweep through the
/// interleaved fleet engine versus sequential per-site batch sweeps.
/// `speedup` compares equal deliverables (per-site results, peak tracking
/// off); sequential per-site sweeps cannot produce the fleet's concurrent
/// peak at all, so the full interleaved pass is `interleaved_with_peak`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetBench {
    pub sites: Vec<String>,
    pub plans: usize,
    pub steps_per_year: usize,
    pub threads: usize,
    /// Interleaved pass, peak tracking off.
    pub interleaved: Timing,
    /// Interleaved pass, peak tracking on.
    pub interleaved_with_peak: Timing,
    /// One batch sweep per site, one after the other.
    pub sequential: Timing,
    /// `sequential / interleaved`, medians.
    pub speedup: f64,
    /// `sequential / interleaved_with_peak`, medians.
    pub speedup_with_peak: f64,
    /// Fleet vs independent batch runs, per site; at most 1e-9.
    pub max_rel_error: f64,
    pub peak_concurrent_import_mw: f64,
    /// Interleaved pass (peak off) forced onto the SIMD walk.
    pub simd: Timing,
    /// Interleaved pass (peak off) forced onto the scalar walk.
    pub scalar_walk: Timing,
    /// `scalar_walk / simd`, medians.
    pub simd_speedup: f64,
    /// Agreement between the forced walks over per-site metrics; exactly
    /// `0.0` by design.
    pub simd_max_rel_error: f64,
    /// The interleaved pass (peak on) at every pool size.
    pub scaling: Vec<ThreadScaling>,
}

/// `BENCH_fleet_search.json` (`fleet_search`): NSGA-II over the fleet-plan
/// cross product with cohorts batched through the fleet engine, versus
/// the optimizer's per-genome rayon-scalar fallback.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSearchBench {
    pub sites: Vec<String>,
    pub space_per_site: Vec<usize>,
    pub plan_space: usize,
    pub population: usize,
    pub max_trials: usize,
    pub unique_evaluations: usize,
    pub cache_hit_rate: f64,
    pub front_size: usize,
    pub threads: usize,
    /// Search with batched cohorts.
    pub batched: Timing,
    /// Search through the per-genome fallback.
    pub scalar: Timing,
    /// `scalar / batched`, medians.
    pub speedup: f64,
    /// The batched and fallback searches produced bit-identical histories.
    pub agreement: bool,
    /// Batched search forced onto the SIMD walk.
    pub simd: Timing,
    /// Batched search forced onto the scalar walk.
    pub scalar_walk: Timing,
    /// `scalar_walk / simd`, medians. Search time includes NSGA-II
    /// bookkeeping, so this is lower than the kernel gain in
    /// `BENCH_sweep.json`.
    pub simd_speedup: f64,
    /// The forced-walk searches produced bit-identical histories.
    pub simd_agreement: bool,
    /// The batched search at every pool size.
    pub scaling: Vec<ThreadScaling>,
    /// Batched search with telemetry collection on, interleaved with
    /// `batched` (collection off) in one [`measure()`](crate::measure()).
    pub traced: Timing,
    /// `(traced / batched - 1) * 100`, medians.
    pub telemetry_overhead_pct: f64,
    /// What the traced runs collected.
    pub telemetry: TelemetrySection,
}

/// `BENCH_server.json` (`server_bench`): daemon throughput with studies
/// multiplexed over one connection versus answered one at a time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerBench {
    /// Studies per timed batch.
    pub studies: usize,
    pub population: usize,
    pub max_trials: usize,
    pub sites: usize,
    pub plan_space: u64,
    /// Daemon concurrency limit during the multiplexed run.
    pub max_concurrent: usize,
    /// High-water mark of overlapping studies; must reach
    /// `max_concurrent` for the throughput number to mean anything.
    pub in_flight_peak: usize,
    /// The batch multiplexed over one connection.
    pub concurrent: Timing,
    /// The same batch with each `Done` awaited before the next request.
    pub sequential: Timing,
    /// `studies / concurrent`, median, in studies per second.
    pub studies_per_sec: f64,
    /// `sequential / concurrent`, medians.
    pub speedup: f64,
    /// Prepared-cache traffic summed over every Accepted frame.
    pub prep_cache_hits: u64,
    pub prep_cache_misses: u64,
    pub prep_cache_hit_rate: f64,
    /// Every daemon front matched its standalone run bit for bit.
    pub agreement: bool,
    /// The multi-connection phase.
    pub multi_conn: MultiConnBench,
}

/// One shared daemon driven from many concurrent connections at once,
/// past the process-wide admission cap, with a mid-flight cancellation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiConnBench {
    /// Concurrently connected clients.
    pub connections: usize,
    /// Completed (non-cancelled) studies across all connections.
    pub studies: usize,
    /// Process-wide in-flight study cap during the run.
    pub max_concurrent: usize,
    /// High-water mark of overlapping studies; never above `max_concurrent`.
    pub in_flight_peak: usize,
    /// High-water mark of studies waiting behind the admission cap.
    pub queue_depth_peak: usize,
    /// The whole batch.
    pub timing: Timing,
    /// `studies / timing`, median, in studies per second.
    pub studies_per_sec: f64,
    /// Throughput relative to the sequential single-connection baseline
    /// scaled to this batch size, medians.
    pub speedup: f64,
    /// `Done` frames observed for the cancelled study; must be 0.
    pub cancelled_done_frames: usize,
    /// Every completed front matched its standalone run, on every
    /// connection.
    pub agreement: bool,
}

/// The repository root, where the `BENCH_*.json` artifacts live.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Write `artifact` as pretty JSON to `file` at the repository root.
pub fn write_bench<T: Serialize>(file: &str, artifact: &T) {
    let path = repo_root().join(file);
    let json = serde_json::to_string_pretty(artifact).expect("serialize bench artifact");
    std::fs::write(&path, json + "\n").expect("write bench artifact");
    println!("[artifact] {}", path.display());
}
