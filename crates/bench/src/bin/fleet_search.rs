//! Emit `BENCH_fleet_search.json`: wall-clock of NSGA-II over the
//! cross-product fleet-plan space (both paper sites) with cohorts routed
//! through the batched interleaved
//! [`FleetEvaluator`](mgopt_microgrid::FleetEvaluator) pass, versus the
//! same search forced onto the optimizer's default rayon-scalar fallback
//! (one single-plan pass per unseen genome) — so the batching speedup on
//! the *search* path is measured, not assumed.
//!
//! ```text
//! cargo run --release -p mgopt-bench --bin fleet_search
//! ```
//!
//! Every timing is a [`measure`] median with its MAD over interleaved
//! samples, and every speedup a ratio of medians. The telemetry overhead
//! compares the batched search with collection on and off, interleaved in
//! one `measure` call with equal sample counts. Writes the
//! [`FleetSearchBench`] artifact to the repository root (next to
//! `BENCH_fleet.json`) and prints the same numbers to stdout.
//! `MGOPT_FAST=1` shrinks the per-site spaces for smoke runs.

use mgopt_bench::{measure, FleetSearchBench};
use mgopt_core::{FleetProblem, FleetScenario};
use mgopt_microgrid::BatchBackend;
use mgopt_optimizer::{Nsga2Config, Nsga2Optimizer, Problem};
use mgopt_telemetry as telemetry;

/// Samples per variant: a multiple of both 3 and 2, so each variant of
/// the three-way and the two-way rotation leads equally often.
const SAMPLES: usize = 6;

/// Hides a problem's batched override so cohorts fall back to the
/// optimizer's default rayon-parallel scalar path — the baseline every
/// batched engine is measured against.
struct ScalarFallback<'a>(&'a FleetProblem<'a>);

impl Problem for ScalarFallback<'_> {
    fn dims(&self) -> &[usize] {
        self.0.dims()
    }

    fn n_objectives(&self) -> usize {
        self.0.n_objectives()
    }

    fn evaluate(&self, genome: &[u16]) -> Vec<f64> {
        self.0.evaluate(genome)
    }
}

fn main() {
    // Resolve MGOPT_TRACE first (installing any requested sink), then force
    // collection off so only the traced variant below collects.
    telemetry::enabled();
    telemetry::set_enabled(false);

    let mut scenario = FleetScenario::paper();
    for m in &mut scenario.members {
        m.scenario.space = mgopt_bench::space();
    }
    let fleet = scenario.prepare();
    let problem = FleetProblem::new(&fleet);
    let fallback = ScalarFallback(&problem);
    let config = Nsga2Config {
        population_size: 50,
        max_trials: 350,
        seed: 42,
        ..Nsga2Config::default()
    };
    let optimizer = Nsga2Optimizer::new(config.clone());

    // Agreement: identical seeds must yield identical histories.
    let batched_run = optimizer.run(&problem);
    let agreement = batched_run.history == optimizer.run(&fallback).history;
    assert!(
        agreement,
        "batched and scalar fleet searches diverged — the fleet engine \
         broke its cohort/single-plan agreement guarantee"
    );
    // Batched, fallback, and batched with telemetry collection on (spans,
    // counters, and events to any MGOPT_TRACE sink). Only the traced runs
    // feed the telemetry section.
    telemetry::reset_stats();
    let t = measure(SAMPLES, 3, |v, _| {
        let problem: &dyn Problem = if v == 1 { &fallback } else { &problem };
        telemetry::set_enabled(v == 2);
        std::hint::black_box(optimizer.run(problem).history.len());
        telemetry::set_enabled(false);
    });
    let (batched, scalar, traced) = (t[0], t[1], t[2]);
    let section = mgopt_bench::collect_telemetry_section();
    let overhead_pct = (traced.median_ms / batched.median_ms - 1.0) * 1e2;

    // SIMD vs scalar chunk walk on the search path: the same NSGA-II run
    // with the fleet engine's backend forced either way. Bit-identical
    // engines + identical seeds must reproduce the same trial history.
    let walks = [BatchBackend::Simd, BatchBackend::Scalar]
        .map(|backend| FleetProblem::new(&fleet).with_backend(backend));
    let simd_agreement = optimizer.run(&walks[0]).history == optimizer.run(&walks[1]).history;
    assert!(
        simd_agreement,
        "SIMD-backed search diverged from the scalar-walk search"
    );
    let t = measure(SAMPLES, 2, |v, _| {
        std::hint::black_box(optimizer.run(&walks[v]).history.len());
    });
    let (simd, scalar_walk) = (t[0], t[1]);

    // Multi-thread scaling of the batched search.
    let scaling = mgopt_bench::scaling_sweep(SAMPLES, || {
        std::hint::black_box(optimizer.run(&problem).history.len());
    });

    let bench = FleetSearchBench {
        sites: fleet.names.clone(),
        space_per_site: problem.dims().to_vec(),
        plan_space: problem.space_size(),
        population: config.population_size,
        max_trials: config.max_trials,
        unique_evaluations: batched_run.unique_evaluations,
        cache_hit_rate: batched_run.cache_hit_rate().unwrap_or(0.0),
        front_size: batched_run.pareto_front().len(),
        threads: rayon::current_num_threads(),
        batched,
        scalar,
        speedup: scalar.median_ms / batched.median_ms,
        agreement,
        simd,
        scalar_walk,
        simd_speedup: scalar_walk.median_ms / simd.median_ms,
        simd_agreement,
        scaling,
        traced,
        telemetry_overhead_pct: overhead_pct,
        telemetry: section,
    };

    println!(
        "NSGA-II over {} fleet plans ({} trials, {} unique): batched {:.1} ± {:.1} ms, \
         rayon-scalar fallback {:.1} ± {:.1} ms (median ± MAD), speedup {:.2}x",
        bench.plan_space,
        bench.max_trials,
        bench.unique_evaluations,
        batched.median_ms,
        batched.mad_ms,
        scalar.median_ms,
        scalar.mad_ms,
        bench.speedup
    );
    println!(
        "memo cache: {} hits / {} misses over {} sampled trials ({:.1}% hit rate)",
        batched_run.cache_hits,
        batched_run.cache_misses,
        batched_run.sampled_trials,
        bench.cache_hit_rate * 1e2
    );
    println!(
        "simd-backed search {:.1} ± {:.1} ms vs scalar-walk search {:.1} ± {:.1} ms: \
         {:.2}x, histories identical: {}",
        simd.median_ms,
        simd.mad_ms,
        scalar_walk.median_ms,
        scalar_walk.mad_ms,
        bench.simd_speedup,
        simd_agreement
    );
    for p in &bench.scaling {
        println!(
            "threads {}: {:.1} ± {:.1} ms",
            p.threads, p.timing.median_ms, p.timing.mad_ms
        );
    }
    println!(
        "telemetry: traced {:.1} ± {:.1} ms vs untraced {:.1} ± {:.1} ms ({overhead_pct:+.1}%)",
        traced.median_ms, traced.mad_ms, batched.median_ms, batched.mad_ms
    );
    for stage in &bench.telemetry.stages {
        println!(
            "  {:<16} {:>6} spans {:>10.1} ms (CPU)",
            stage.name, stage.calls, stage.total_ms
        );
    }
    println!(
        "  engine throughput {:.2e} candidate-steps/s of kernel CPU time",
        bench.telemetry.evals_per_sec
    );

    mgopt_bench::write_bench("BENCH_fleet_search.json", &bench);
}
