//! Monte-Carlo robustness analysis.
//!
//! The paper's related work stresses "optimization under operational
//! uncertainty" (Lian et al.); our substrates are stochastic, so the
//! natural question is how sensitive a chosen composition is to the
//! weather/workload year it encounters. This experiment re-simulates one
//! composition under many seeds and reports the distribution of the key
//! metrics — planning numbers a designer can trust.

use mgopt_microgrid::{simulate_year, Composition};
use mgopt_units::stats;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::scenario::ScenarioConfig;

/// Distribution summary of one metric across seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricDistribution {
    /// Metric name.
    pub name: String,
    /// Mean over seeds.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// 5th percentile.
    pub p5: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Worst observed value (max for emissions, min for coverage handled
    /// by the caller's interpretation; this is the plain max).
    pub max: f64,
    /// Best observed value (plain min).
    pub min: f64,
}

impl MetricDistribution {
    fn from_samples(name: &str, xs: &[f64]) -> Self {
        Self {
            name: name.to_string(),
            mean: stats::mean(xs),
            std: stats::std(xs),
            p5: stats::percentile(xs, 5.0),
            p95: stats::percentile(xs, 95.0),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }
}

/// Robustness-study output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessOutput {
    /// Site name.
    pub site: String,
    /// The studied composition.
    pub composition: Composition,
    /// Number of Monte-Carlo years.
    pub n_seeds: usize,
    /// Distributions: operational tCO2/day, coverage %, battery cycles.
    pub operational_t_per_day: MetricDistribution,
    /// Coverage distribution (percent).
    pub coverage_pct: MetricDistribution,
    /// Battery-cycle distribution.
    pub battery_cycles: MetricDistribution,
}

/// Simulate `comp` under `n_seeds` independently synthesized years, all
/// prepared over one shared site template.
pub fn run(base: &ScenarioConfig, comp: Composition, n_seeds: usize) -> RobustnessOutput {
    assert!(n_seeds >= 2, "need at least two seeds for a distribution");
    let template = base.site_template();
    let results: Vec<_> = (0..n_seeds as u64)
        .into_par_iter()
        .map(|k| {
            let scenario = ScenarioConfig {
                seed: base.seed.wrapping_add(k * 7_919),
                ..base.clone()
            }
            .prepare_with(&template);
            let r = simulate_year(&scenario.data, &scenario.load, &comp, &scenario.config.sim);
            (
                r.metrics.operational_t_per_day,
                r.metrics.coverage_pct(),
                r.metrics.battery_cycles,
            )
        })
        .collect();

    let op: Vec<f64> = results.iter().map(|r| r.0).collect();
    let cov: Vec<f64> = results.iter().map(|r| r.1).collect();
    let cyc: Vec<f64> = results.iter().map(|r| r.2).collect();

    RobustnessOutput {
        site: base.site.name().to_string(),
        composition: comp,
        n_seeds,
        operational_t_per_day: MetricDistribution::from_samples("operational_t_per_day", &op),
        coverage_pct: MetricDistribution::from_samples("coverage_pct", &cov),
        battery_cycles: MetricDistribution::from_samples("battery_cycles", &cyc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use mgopt_microgrid::CompositionSpace;

    fn base() -> ScenarioConfig {
        ScenarioConfig {
            space: CompositionSpace::tiny(),
            ..ScenarioConfig::paper_houston()
        }
    }

    #[test]
    fn baseline_is_nearly_seed_invariant() {
        // Load and CI are exactly mean-calibrated, so the grid-only
        // baseline barely moves across seeds.
        let out = run(&base(), Composition::BASELINE, 5);
        assert_eq!(out.n_seeds, 5);
        assert!(
            out.operational_t_per_day.std < 0.15,
            "baseline std {}",
            out.operational_t_per_day.std
        );
        assert!((out.operational_t_per_day.mean - 15.54).abs() < 0.2);
        assert_eq!(out.coverage_pct.mean, 0.0);
    }

    #[test]
    fn renewable_build_has_real_interannual_variability() {
        let out = run(&base(), Composition::new(4, 8_000.0, 22_500.0), 5);
        // Weather-driven: std must be visible but bounded.
        assert!(
            out.coverage_pct.std > 0.05,
            "cov std {}",
            out.coverage_pct.std
        );
        assert!(out.coverage_pct.std < 5.0);
        assert!(out.operational_t_per_day.std > 0.01);
        // Percentiles bracket the mean.
        assert!(out.operational_t_per_day.p5 <= out.operational_t_per_day.mean);
        assert!(out.operational_t_per_day.p95 >= out.operational_t_per_day.mean);
        assert!(out.operational_t_per_day.min <= out.operational_t_per_day.p5);
        assert!(out.operational_t_per_day.max >= out.operational_t_per_day.p95);
    }

    #[test]
    #[should_panic(expected = "at least two seeds")]
    fn single_seed_panics() {
        run(&base(), Composition::BASELINE, 1);
    }
}
