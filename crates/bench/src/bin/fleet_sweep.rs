//! Emit `BENCH_fleet.json`: wall-clock of the uniform fleet sweep (both
//! paper sites, every composition of the space assigned fleet-wide)
//! through the interleaved [`FleetEvaluator`](mgopt_microgrid::FleetEvaluator)
//! versus sequential per-site [`BatchEvaluator`] sweeps, plus the
//! cross-engine agreement check.
//!
//! ```text
//! cargo run --release -p mgopt-bench --bin fleet_sweep
//! ```
//!
//! Every timing is a [`measure`] median with its MAD over interleaved
//! samples, and every speedup a ratio of medians. Writes the
//! [`FleetBench`] artifact to the repository root (next to
//! `BENCH_sweep.json`) and prints the same numbers to stdout. `MGOPT_FAST=1` shrinks the space
//! for smoke runs; `MGOPT_DENSE="<mw>,<mwh>"` runs the denser grid the
//! interleaved engine makes interactive (the artifact records the actual
//! plan count either way).

use mgopt_bench::{measure, FleetBench};
use mgopt_core::{fleet_plans, fleet_sweep, FleetAssignment, FleetScenario};
use mgopt_microgrid::{BatchBackend, BatchEvaluator, Composition, Evaluator};

/// Samples per variant: a multiple of both 3 and 2, so each variant of
/// the three-way and the two-way rotation leads equally often.
const SAMPLES: usize = 24;

fn main() {
    let mut scenario = FleetScenario::paper();
    for m in &mut scenario.members {
        m.scenario.space = mgopt_bench::space();
    }
    let fleet = scenario.prepare();
    let plans = fleet_plans(&fleet, FleetAssignment::Uniform);
    let comps: Vec<Composition> = plans.iter().map(|p| p[0]).collect();

    // Agreement check: per-site fleet results must match independent
    // single-site batch runs on every metrics field.
    let fleet_results = fleet_sweep(&fleet, FleetAssignment::Uniform);
    let mut max_rel_error = 0.0f64;
    for (s, member) in fleet.members.iter().enumerate() {
        let independent = BatchEvaluator::new(&member.data, &member.load, &member.config.sim)
            .evaluate_batch(&comps);
        for (f, b) in fleet_results.iter().zip(&independent) {
            assert_eq!(f.per_site[s].composition, b.composition);
            let err = f.per_site[s].metrics.max_rel_error(&b.metrics).0;
            // Propagate NaN explicitly — f64::max would silently drop it
            // and let a broken engine record perfect agreement.
            if err.is_nan() || err > max_rel_error {
                max_rel_error = err;
            }
        }
    }
    assert!(
        max_rel_error <= 1e-9,
        "fleet and batch engines disagree: max relative error {max_rel_error:e}"
    );
    let peak_mw = fleet_results
        .iter()
        .filter_map(|r| r.fleet.peak_concurrent_import_kw)
        .fold(0.0f64, f64::max)
        / 1e3;

    // Interleaved (peak off), sequential per-site, interleaved (peak on).
    let t = measure(SAMPLES, 3, |v, _| match v {
        1 => {
            for member in &fleet.members {
                std::hint::black_box(
                    BatchEvaluator::new(&member.data, &member.load, &member.config.sim)
                        .evaluate_batch(&comps),
                );
            }
        }
        _ => {
            let ev = fleet.evaluator().with_peak_tracking(v == 2);
            std::hint::black_box(ev.evaluate_plans(&plans));
        }
    });
    let (interleaved, sequential, with_peak) = (t[0], t[1], t[2]);

    // SIMD vs scalar chunk walk on the interleaved engine, like-for-like
    // (peak tracking off in both). Bit-identity lets the agreement check
    // demand exact equality over per-site metrics.
    let backends = [BatchBackend::Simd, BatchBackend::Scalar];
    let [simd_results, scalar_walk_results] = backends.map(|backend| {
        fleet
            .evaluator()
            .with_peak_tracking(false)
            .with_backend(backend)
            .evaluate_plans(&plans)
    });
    let mut simd_max_rel_error = 0.0f64;
    for (a, b) in simd_results.iter().zip(&scalar_walk_results) {
        for (ra, rb) in a.per_site.iter().zip(&b.per_site) {
            let err = ra.metrics.max_rel_error(&rb.metrics).0;
            if err.is_nan() || err > simd_max_rel_error {
                simd_max_rel_error = err;
            }
        }
    }
    assert_eq!(
        simd_max_rel_error, 0.0,
        "SIMD fleet walk must be bit-identical to the scalar walk"
    );
    let t = measure(SAMPLES, 2, |v, _| {
        let ev = fleet
            .evaluator()
            .with_peak_tracking(false)
            .with_backend(backends[v]);
        std::hint::black_box(ev.evaluate_plans(&plans));
    });
    let (simd, scalar_walk) = (t[0], t[1]);

    // Multi-thread scaling of the full interleaved sweep (peak on, the
    // deliverable configuration).
    let scaling = mgopt_bench::scaling_sweep(SAMPLES, || {
        std::hint::black_box(fleet.evaluator().evaluate_plans(&plans));
    });

    let bench = FleetBench {
        sites: fleet.names.clone(),
        plans: plans.len(),
        steps_per_year: fleet.members[0].data.len(),
        threads: rayon::current_num_threads(),
        interleaved,
        interleaved_with_peak: with_peak,
        sequential,
        speedup: sequential.median_ms / interleaved.median_ms,
        speedup_with_peak: sequential.median_ms / with_peak.median_ms,
        max_rel_error,
        peak_concurrent_import_mw: peak_mw,
        simd,
        scalar_walk,
        simd_speedup: scalar_walk.median_ms / simd.median_ms,
        simd_max_rel_error,
        scaling,
    };

    println!(
        "fleet sweep of {} plans x {} sites ({} steps): interleaved {:.1} ± {:.1} ms, \
         sequential per-site {:.1} ± {:.1} ms (median ± MAD), speedup {:.2}x",
        bench.plans,
        bench.sites.len(),
        bench.steps_per_year,
        interleaved.median_ms,
        interleaved.mad_ms,
        sequential.median_ms,
        sequential.mad_ms,
        bench.speedup
    );
    println!(
        "with concurrent-peak tracking (a fleet metric sequential per-site \
         sweeps cannot produce): {:.1} ± {:.1} ms, {:.2}x",
        with_peak.median_ms, with_peak.mad_ms, bench.speedup_with_peak
    );
    println!(
        "fleet peak concurrent grid import across plans: {:.2} MW",
        peak_mw
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

    mgopt_bench::write_bench("BENCH_fleet.json", &bench);
}
