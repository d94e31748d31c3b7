//! The single-site batched evaluation engine.
//!
//! [`simulate_year`](crate::simulate_year) walks the year once per
//! composition: every candidate re-streams the site's PV / wind / CI /
//! price arrays. That is fine for a handful of candidates and wasteful for
//! a sweep: the paper's exhaustive baseline alone is 1,089 full-year
//! simulations, and NSGA-II / successive halving evaluate cohorts of the
//! same shape.
//!
//! This module simulates a **batch** of compositions in a single
//! time-major pass: the outer loop walks timesteps, the inner loop walks
//! lane groups of candidates, so each site sample is loaded once per step
//! instead of once per step *per candidate*. The pass is the lane walk of
//! [`crate::simd`] run over a one-site cohort with peak tracking off — the
//! same walk the [`fleet`](crate::fleet) engine runs over several sites.
//! Batches are split into chunks evaluated in parallel; chunk results are
//! reassembled in input order, so output is deterministic.
//!
//! ## Agreement guarantee
//!
//! The battery/dispatch recursion — everything that feeds back into state —
//! runs the *same arithmetic* as `ClcBattery`, lane by lane, so simulated
//! physics (SoC traces, battery cycles) are bit-identical to
//! [`simulate_period`](crate::simulate_period). Only the pure accumulators
//! are reorganized (raw sums scaled once at the end instead of per step),
//! which perturbs reported metrics by at most a few ulps.
//! `tests/engine_agreement.rs` pins scalar, cosim and batch to a relative
//! 1e-9 on every [`AnnualMetrics`](crate::AnnualMetrics) field, for full
//! years and partial windows.
//!
//! ## Evaluator abstraction
//!
//! [`Evaluator`] is the capability the search layers program against: "I
//! can score compositions at a prepared site". [`BatchEvaluator`] is the
//! engine of choice; [`ScalarEvaluator`] wraps the reference path for
//! cross-checks and one-off evaluations.

use mgopt_telemetry::{self as telemetry, Counter, Stage};
use mgopt_units::TimeSeries;
use rayon::prelude::*;

use crate::composition::Composition;
use crate::fleet::FleetSite;
use crate::metrics::AnnualResult;
use crate::simd::{walk, BatchBackend, WalkStages, CHUNK};
use crate::simulate::SimConfig;
use crate::site::SiteData;

const STAGES: WalkStages = WalkStages {
    prepare: Stage::BatchPrepare,
    kernel: Stage::BatchKernel,
    chunks: Counter::BatchChunks,
    rows: Counter::BatchRows,
};

/// Simulate a batch of compositions for a full year in one time-major pass.
///
/// Results are returned in input order and are deterministic regardless of
/// thread scheduling.
///
/// # Panics
/// Panics when `load_kw` does not match the site data's step/length.
pub fn simulate_batch(
    data: &SiteData,
    load_kw: &TimeSeries,
    comps: &[Composition],
    cfg: &SimConfig,
) -> Vec<AnnualResult> {
    simulate_batch_period(data, load_kw, comps, cfg, data.len())
}

/// [`simulate_batch`] with an explicit lane width.
pub fn simulate_batch_with_backend(
    data: &SiteData,
    load_kw: &TimeSeries,
    comps: &[Composition],
    cfg: &SimConfig,
    backend: BatchBackend,
) -> Vec<AnnualResult> {
    simulate_batch_period_with_backend(data, load_kw, comps, cfg, data.len(), backend)
}

/// Simulate only the first `n_steps` for every composition in the batch —
/// the low-fidelity cohort evaluation used by pruning searches.
///
/// # Panics
/// Panics when `load_kw` does not match the site data's step/length or
/// `n_steps` is zero.
pub fn simulate_batch_period(
    data: &SiteData,
    load_kw: &TimeSeries,
    comps: &[Composition],
    cfg: &SimConfig,
    n_steps: usize,
) -> Vec<AnnualResult> {
    simulate_batch_period_with_backend(data, load_kw, comps, cfg, n_steps, BatchBackend::default())
}

/// [`simulate_batch_period`] with an explicit lane width: a one-site
/// cohort through the lane walk, peak tracking off. Both widths are
/// pinned bit-identical by `tests/engine_agreement.rs`, SoC traces
/// included.
///
/// # Panics
/// Same contract as [`simulate_batch_period`].
pub fn simulate_batch_period_with_backend(
    data: &SiteData,
    load_kw: &TimeSeries,
    comps: &[Composition],
    cfg: &SimConfig,
    n_steps: usize,
    backend: BatchBackend,
) -> Vec<AnnualResult> {
    assert_eq!(load_kw.step(), data.step(), "load step mismatch");
    assert_eq!(load_kw.len(), data.len(), "load length mismatch");
    assert!(n_steps > 0, "n_steps must be positive");
    if comps.is_empty() {
        return Vec::new();
    }
    let n = n_steps.min(data.len());

    // Stage-total snapshots attribute this call's prepare/kernel time in
    // the emitted event (search layers call engines sequentially, so the
    // deltas are this call's own spans).
    let trace = telemetry::enabled().then(|| {
        (
            // mgopt-lint: allow(determinism) — wall clock feeds the batch_eval trace only, never results
            std::time::Instant::now(),
            telemetry::stage_ms(Stage::BatchPrepare),
            telemetry::stage_ms(Stage::BatchKernel),
        )
    });

    let site = [FleetSite {
        name: "",
        data,
        load: load_kw,
        cfg,
    }];
    let (out, _) = walk(&site, comps, n, false, backend, STAGES);

    if let Some((t0, prep0, kern0)) = trace {
        telemetry::Event::new("batch_eval")
            .u64("candidates", comps.len() as u64)
            .u64("steps", n as u64)
            .u64("chunks", comps.len().div_ceil(CHUNK) as u64)
            .u64("rows", (comps.len() * n) as u64)
            .bool("simd", backend == BatchBackend::Simd)
            .f64(
                "prepare_ms",
                telemetry::stage_ms(Stage::BatchPrepare) - prep0,
            )
            .f64("kernel_ms", telemetry::stage_ms(Stage::BatchKernel) - kern0)
            .f64("wall_ms", t0.elapsed().as_secs_f64() * 1e3)
            .emit();
    }
    out
}

/// The capability search layers program against: scoring compositions at a
/// prepared site. `Sync` because cohorts are evaluated in parallel.
pub trait Evaluator: Sync {
    /// Evaluate one composition over the full year.
    fn evaluate(&self, comp: &Composition) -> AnnualResult;

    /// Evaluate a batch over the full year, in input order.
    fn evaluate_batch(&self, comps: &[Composition]) -> Vec<AnnualResult>;

    /// Evaluate a batch over only the first `n_steps` (low fidelity).
    fn evaluate_batch_period(&self, comps: &[Composition], n_steps: usize) -> Vec<AnnualResult>;
}

/// The reference evaluator: one scalar [`simulate_year`](crate::simulate_year)
/// per composition.
#[derive(Debug, Clone, Copy)]
pub struct ScalarEvaluator<'a> {
    /// Prepared site data.
    pub data: &'a SiteData,
    /// The load trace.
    pub load: &'a TimeSeries,
    /// Simulation parameters.
    pub cfg: &'a SimConfig,
}

impl Evaluator for ScalarEvaluator<'_> {
    fn evaluate(&self, comp: &Composition) -> AnnualResult {
        crate::simulate::simulate_year(self.data, self.load, comp, self.cfg)
    }

    fn evaluate_batch(&self, comps: &[Composition]) -> Vec<AnnualResult> {
        comps
            .par_iter()
            .map(|c| crate::simulate::simulate_year(self.data, self.load, c, self.cfg))
            .collect()
    }

    fn evaluate_batch_period(&self, comps: &[Composition], n_steps: usize) -> Vec<AnnualResult> {
        comps
            .par_iter()
            .map(|c| crate::simulate::simulate_period(self.data, self.load, c, self.cfg, n_steps))
            .collect()
    }
}

/// The batched columnar evaluator: one time-major pass per batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchEvaluator<'a> {
    /// Prepared site data.
    pub data: &'a SiteData,
    /// The load trace.
    pub load: &'a TimeSeries,
    /// Simulation parameters.
    pub cfg: &'a SimConfig,
    backend: BatchBackend,
}

impl<'a> BatchEvaluator<'a> {
    /// Create an evaluator over prepared inputs (the 4-lane walk).
    pub fn new(data: &'a SiteData, load: &'a TimeSeries, cfg: &'a SimConfig) -> Self {
        Self {
            data,
            load,
            cfg,
            backend: BatchBackend::default(),
        }
    }

    /// Force a lane width (A/B benches, agreement tests).
    pub fn with_backend(mut self, backend: BatchBackend) -> Self {
        self.backend = backend;
        self
    }
}

impl Evaluator for BatchEvaluator<'_> {
    fn evaluate(&self, comp: &Composition) -> AnnualResult {
        self.evaluate_batch(std::slice::from_ref(comp))
            .pop()
            .expect("one composition in, one result out")
    }

    fn evaluate_batch(&self, comps: &[Composition]) -> Vec<AnnualResult> {
        simulate_batch_with_backend(self.data, self.load, comps, self.cfg, self.backend)
    }

    fn evaluate_batch_period(&self, comps: &[Composition], n_steps: usize) -> Vec<AnnualResult> {
        simulate_batch_period_with_backend(
            self.data,
            self.load,
            comps,
            self.cfg,
            n_steps,
            self.backend,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::AnnualMetrics;
    use crate::policy::DispatchPolicy;
    use crate::simulate::{simulate_period, simulate_year};
    use crate::site::Site;
    use mgopt_units::SimDuration;
    use mgopt_workload::HpcWorkload;

    fn setup() -> (SiteData, TimeSeries) {
        let data = Site::houston().prepare(SimDuration::from_hours(1.0), 42);
        let load = HpcWorkload::perlmutter_like(42).generate(SimDuration::from_hours(1.0));
        (data, load)
    }

    fn assert_metrics_close(a: &AnnualMetrics, b: &AnnualMetrics, what: &str) {
        // The shared symmetric tolerance (mgopt_units::rel_error) over
        // every metrics field; embodied carbon is pure bookkeeping and
        // must match exactly.
        let (err, field) = a.max_rel_error(b);
        assert!(err <= 1e-9, "{what}: {field} rel err {err:e}");
        assert!(a.embodied_t == b.embodied_t, "{what}: embodied");
    }

    #[test]
    fn batch_of_one_matches_scalar() {
        let (data, load) = setup();
        let cfg = SimConfig::default();
        for comp in [
            Composition::BASELINE,
            Composition::new(4, 0.0, 7_500.0),
            Composition::new(3, 8_000.0, 22_500.0),
            Composition::new(0, 16_000.0, 60_000.0),
        ] {
            let scalar = simulate_year(&data, &load, &comp, &cfg);
            let batch = simulate_batch(&data, &load, &[comp], &cfg);
            assert_eq!(batch.len(), 1);
            assert_metrics_close(&scalar.metrics, &batch[0].metrics, &comp.to_string());
        }
    }

    #[test]
    fn big_batch_matches_scalar_everywhere() {
        let (data, load) = setup();
        let cfg = SimConfig::default();
        // A batch larger than one chunk, mixed shapes, sweep-like ordering.
        let mut comps = Vec::new();
        for w in [0u32, 2, 7] {
            for s in [0.0, 8_000.0, 40_000.0] {
                for b in [0.0, 7_500.0, 37_500.0, 60_000.0] {
                    comps.push(Composition::new(w, s, b));
                }
            }
        }
        let results = simulate_batch(&data, &load, &comps, &cfg);
        assert_eq!(results.len(), comps.len());
        for (comp, r) in comps.iter().zip(&results) {
            assert_eq!(r.composition, *comp, "order preserved");
            let scalar = simulate_year(&data, &load, comp, &cfg);
            assert_metrics_close(&scalar.metrics, &r.metrics, &comp.to_string());
        }
    }

    #[test]
    fn partial_periods_match_scalar() {
        let (data, load) = setup();
        let cfg = SimConfig::default();
        let comps = [
            Composition::new(4, 0.0, 7_500.0),
            Composition::new(0, 12_000.0, 37_500.0),
        ];
        for n in [1usize, 24, 1_095, 8_760] {
            let batch = simulate_batch_period(&data, &load, &comps, &cfg, n);
            for (comp, r) in comps.iter().zip(&batch) {
                let scalar = simulate_period(&data, &load, comp, &cfg, n);
                assert_metrics_close(&scalar.metrics, &r.metrics, &format!("{comp} n={n}"));
            }
        }
    }

    #[test]
    fn policies_agree_including_stateful_battery_interaction() {
        let (data, load) = setup();
        for policy in [
            DispatchPolicy::Islanded,
            DispatchPolicy::CarbonAwareGridCharge {
                ci_threshold_g_per_kwh: 330.0,
                target_soc: 0.9,
            },
            DispatchPolicy::BatterySparing {
                deficit_threshold_kw: 200.0,
            },
        ] {
            let cfg = SimConfig {
                policy,
                ..SimConfig::default()
            };
            let comp = Composition::new(3, 8_000.0, 22_500.0);
            let scalar = simulate_year(&data, &load, &comp, &cfg);
            let batch = simulate_batch(&data, &load, &[comp], &cfg);
            assert_metrics_close(&scalar.metrics, &batch[0].metrics, policy.name());
        }
    }

    #[test]
    fn soc_traces_match_scalar_exactly() {
        let (data, load) = setup();
        let cfg = SimConfig {
            record_soc: true,
            ..SimConfig::default()
        };
        let comp = Composition::new(2, 4_000.0, 15_000.0);
        let scalar = simulate_year(&data, &load, &comp, &cfg);
        let batch = simulate_batch(&data, &load, &[comp], &cfg);
        assert_eq!(scalar.soc_trace_hourly, batch[0].soc_trace_hourly);
    }

    #[test]
    fn evaluators_agree_and_preserve_order() {
        let (data, load) = setup();
        let cfg = SimConfig::default();
        let comps: Vec<Composition> = (0..10)
            .map(|i| Composition::new(i % 5, (i % 3) as f64 * 10_000.0, (i % 4) as f64 * 7_500.0))
            .collect();
        let scalar = ScalarEvaluator {
            data: &data,
            load: &load,
            cfg: &cfg,
        };
        let batch = BatchEvaluator::new(&data, &load, &cfg);
        let a = scalar.evaluate_batch(&comps);
        let b = batch.evaluate_batch(&comps);
        for ((x, y), comp) in a.iter().zip(&b).zip(&comps) {
            assert_eq!(x.composition, *comp);
            assert_eq!(y.composition, *comp);
            assert_metrics_close(&x.metrics, &y.metrics, &comp.to_string());
        }
        let single = batch.evaluate(&comps[3]);
        assert_metrics_close(&b[3].metrics, &single.metrics, "single-eval");
    }

    #[test]
    fn empty_batch_is_empty() {
        let (data, load) = setup();
        let out = simulate_batch(&data, &load, &[], &SimConfig::default());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "n_steps must be positive")]
    fn zero_step_period_panics_instead_of_reporting_garbage_rates() {
        // Regression: a zero-step window used to fall through to the
        // `days.max(1e-9)` guard in the finish formulas and report
        // near-zero-day rates; the API boundary now rejects it.
        let (data, load) = setup();
        simulate_batch_period(
            &data,
            &load,
            &[Composition::BASELINE],
            &SimConfig::default(),
            0,
        );
    }

    #[test]
    #[should_panic(expected = "n_steps must be positive")]
    fn evaluator_zero_step_period_panics() {
        let (data, load) = setup();
        let cfg = SimConfig::default();
        BatchEvaluator::new(&data, &load, &cfg).evaluate_batch_period(&[Composition::BASELINE], 0);
    }

    #[test]
    fn simd_walk_is_bit_identical_to_scalar_walk_for_every_policy() {
        let (data, load) = setup();
        for policy in [
            DispatchPolicy::SelfConsumption,
            DispatchPolicy::Islanded,
            DispatchPolicy::CarbonAwareGridCharge {
                ci_threshold_g_per_kwh: 330.0,
                target_soc: 0.9,
            },
            DispatchPolicy::BatterySparing {
                deficit_threshold_kw: 200.0,
            },
        ] {
            let cfg = SimConfig {
                policy,
                ..SimConfig::default()
            };
            // Batch sizes exercising full lanes, padded lanes and
            // multiple chunks; null-battery lanes included.
            let comps: Vec<Composition> = (0..67)
                .map(|i| {
                    Composition::new(
                        (i % 5) as u32,
                        (i % 3) as f64 * 10_000.0,
                        (i % 4) as f64 * 7_500.0,
                    )
                })
                .collect();
            let scalar = BatchEvaluator::new(&data, &load, &cfg)
                .with_backend(BatchBackend::Scalar)
                .evaluate_batch(&comps);
            let simd = BatchEvaluator::new(&data, &load, &cfg)
                .with_backend(BatchBackend::Simd)
                .evaluate_batch(&comps);
            for (a, b) in scalar.iter().zip(&simd) {
                assert_eq!(
                    a.metrics,
                    b.metrics,
                    "{}: {} diverges",
                    policy.name(),
                    a.composition
                );
            }
        }
    }

    #[test]
    fn four_lane_walk_records_full_year_soc_traces() {
        // The 4-lane walk records SoC per lane: a forced Simd pass with
        // record_soc on yields one trace entry per hour.
        let (data, load) = setup();
        let cfg = SimConfig {
            record_soc: true,
            ..SimConfig::default()
        };
        let comp = Composition::new(2, 4_000.0, 15_000.0);
        let forced = BatchEvaluator::new(&data, &load, &cfg)
            .with_backend(BatchBackend::Simd)
            .evaluate(&comp);
        assert_eq!(forced.soc_trace_hourly.len(), 8_760);
    }

    #[test]
    #[should_panic(expected = "load length mismatch")]
    fn mismatched_load_panics() {
        let (data, _) = setup();
        let short = TimeSeries::new(SimDuration::from_hours(1.0), vec![1.0; 100]);
        simulate_batch(
            &data,
            &short,
            &[Composition::BASELINE],
            &SimConfig::default(),
        );
    }
}
