//! Emit `BENCH_sweep.json`: wall-clock of the full 1,089-candidate
//! exhaustive sweep through the scalar rayon engine and the batched
//! columnar engine, plus the agreement check between them.
//!
//! ```text
//! cargo run --release -p mgopt-bench --bin bench_sweep
//! ```
//!
//! Every timing is a [`measure`] median with its MAD over interleaved
//! samples, and every speedup a ratio of medians. Writes the
//! [`SweepBench`] artifact to the repository root (next to `ROADMAP.md`),
//! and prints the same numbers to stdout. `MGOPT_FAST=1` shrinks the
//! space for smoke runs (the artifact then records the reduced size).

use mgopt_bench::{measure, SweepBench};
use mgopt_core::{sweep_all, sweep_all_scalar, sweep_all_with_backend};
use mgopt_microgrid::BatchBackend;

/// Samples per variant: a multiple of 2, so each A/B variant leads
/// equally often.
const SAMPLES: usize = 6;

fn main() {
    let scenario = mgopt_bench::houston();
    let compositions = scenario.config.space.len();

    // Agreement check: the shared symmetric tolerance over every metrics
    // field (not an argument-order-dependent subset).
    let scalar_results = sweep_all_scalar(&scenario);
    let batched_results = sweep_all(&scenario);
    let mut max_rel_error = 0.0f64;
    for (s, b) in scalar_results.iter().zip(&batched_results) {
        assert_eq!(s.composition, b.composition);
        let err = s.metrics.max_rel_error(&b.metrics).0;
        // Propagate NaN explicitly — f64::max would silently drop it and
        // let a broken engine record perfect agreement.
        if err.is_nan() || err > max_rel_error {
            max_rel_error = err;
        }
    }
    assert!(
        max_rel_error <= 1e-9,
        "engines disagree: max relative error {max_rel_error:e}"
    );
    let t = measure(SAMPLES, 2, |v, _| match v {
        0 => {
            std::hint::black_box(sweep_all_scalar(&scenario));
        }
        _ => {
            std::hint::black_box(sweep_all(&scenario));
        }
    });
    let (scalar, batched) = (t[0], t[1]);

    // SIMD vs scalar chunk walk, like-for-like: both variants use the
    // batched engine with the backend forced. The walks are pinned
    // bit-identical, so the agreement check demands exact equality.
    let simd_results = sweep_all_with_backend(&scenario, BatchBackend::Simd);
    let scalar_walk_results = sweep_all_with_backend(&scenario, BatchBackend::Scalar);
    let mut simd_max_rel_error = 0.0f64;
    for (a, b) in simd_results.iter().zip(&scalar_walk_results) {
        let err = a.metrics.max_rel_error(&b.metrics).0;
        if err.is_nan() || err > simd_max_rel_error {
            simd_max_rel_error = err;
        }
    }
    assert_eq!(
        simd_max_rel_error, 0.0,
        "SIMD walk must be bit-identical to the scalar walk"
    );
    let backends = [BatchBackend::Simd, BatchBackend::Scalar];
    let t = measure(SAMPLES, 2, |v, _| {
        std::hint::black_box(sweep_all_with_backend(&scenario, backends[v]));
    });
    let (simd, scalar_walk) = (t[0], t[1]);

    // Multi-thread scaling of the default batched sweep.
    let scaling = mgopt_bench::scaling_sweep(SAMPLES, || {
        std::hint::black_box(sweep_all(&scenario));
    });

    let bench = SweepBench {
        site: scenario.site_name().to_string(),
        compositions,
        steps_per_year: scenario.data.len(),
        threads: rayon::current_num_threads(),
        scalar,
        batched,
        speedup: scalar.median_ms / batched.median_ms,
        max_rel_error,
        simd,
        scalar_walk,
        simd_speedup: scalar_walk.median_ms / simd.median_ms,
        simd_max_rel_error,
        scaling,
    };

    println!(
        "sweep of {} compositions ({} steps): scalar {:.1} ± {:.1} ms, \
         batched {:.1} ± {:.1} ms (median ± MAD), speedup {:.2}x",
        bench.compositions,
        bench.steps_per_year,
        scalar.median_ms,
        scalar.mad_ms,
        batched.median_ms,
        batched.mad_ms,
        bench.speedup
    );
    println!(
        "simd walk {:.1} ± {:.1} ms vs scalar walk {:.1} ± {:.1} ms: {:.2}x, max rel err {:e}",
        simd.median_ms,
        simd.mad_ms,
        scalar_walk.median_ms,
        scalar_walk.mad_ms,
        bench.simd_speedup,
        simd_max_rel_error
    );
    for p in &bench.scaling {
        println!(
            "threads {}: {:.1} ± {:.1} ms",
            p.threads, p.timing.median_ms, p.timing.mad_ms
        );
    }

    mgopt_bench::write_bench("BENCH_sweep.json", &bench);
}
