//! The bench-regression guard: re-read the freshly written
//! `BENCH_sweep.json` / `BENCH_fleet.json` / `BENCH_fleet_search.json` /
//! `BENCH_server.json` and fail (exit 1) when a deliverable is missing or
//! malformed, an engine-agreement bound is broken, or a recorded speedup
//! (a ratio of medians) degrades beyond the tolerance committed in
//! `BENCH_baseline.json`. The checks are [`mgopt_bench::guard::check`].
//!
//! ```text
//! cargo run --release -p mgopt-bench --bin bench_guard
//! ```
//!
//! Runs *after* the bench bins in CI, so a refactor that silently turns a
//! batched path into a scalar one (or breaks an artifact schema that
//! downstream tooling reads) fails the job instead of shipping. Every
//! check is reported before exiting, not just the first failure.

fn main() {
    // Per-site composition count of the current mode; `MGOPT_DENSE` grids
    // vary, so they skip the count check.
    let compositions = if std::env::var("MGOPT_DENSE").is_ok() {
        None
    } else if mgopt_bench::fast_mode() {
        Some(27)
    } else {
        Some(1_089)
    };
    match mgopt_bench::guard::check(&mgopt_bench::repo_root(), compositions) {
        Ok(checks) => println!("bench-guard: all {checks} checks passed"),
        Err(errors) => {
            for e in &errors {
                eprintln!("bench-guard: FAIL {e}");
            }
            std::process::exit(1);
        }
    }
}
