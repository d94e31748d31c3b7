//! Scenario configuration — the Hydra-YAML equivalent.
//!
//! A [`ScenarioConfig`] is a plain serde value (JSON in this workspace)
//! that fully determines an experiment: site, simulation step, seeds,
//! workload, search space, and simulation parameters. `prepare()` turns it
//! into the heavyweight [`PreparedScenario`] (unit generation profiles
//! from a synthesized weather year, CI/price signals, load trace) shared
//! by all trials.

use mgopt_microgrid::{CompositionSpace, SimConfig, Site, SiteData, SiteTemplate};
use mgopt_units::{SimDuration, TimeSeries};
use mgopt_workload::{constant_load, diurnal_web_load, HpcWorkload, HpcWorkloadParams};
use serde::{Deserialize, Serialize};

/// Built-in sites (the paper's two case studies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SitePreset {
    /// Berkeley, CA (CAISO).
    Berkeley,
    /// Houston, TX (ERCOT).
    Houston,
}

impl SitePreset {
    /// Materialize the site definition.
    pub fn site(self) -> Site {
        match self {
            SitePreset::Berkeley => Site::berkeley(),
            SitePreset::Houston => Site::houston(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SitePreset::Berkeley => "Berkeley, CA",
            SitePreset::Houston => "Houston, TX",
        }
    }
}

/// Workload families.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadConfig {
    /// Synthetic Perlmutter-class HPC trace (the paper's workload).
    PerlmutterLike {
        /// Exact mean power, kW.
        mean_kw: f64,
    },
    /// Perfectly flat load.
    Constant {
        /// Power, kW.
        kw: f64,
    },
    /// Interactive/web diurnal load.
    Web {
        /// Exact mean power, kW.
        mean_kw: f64,
    },
}

impl WorkloadConfig {
    /// Generate the year-long power trace.
    pub fn generate(&self, step: SimDuration, seed: u64) -> TimeSeries {
        match *self {
            WorkloadConfig::PerlmutterLike { mean_kw } => {
                let params = HpcWorkloadParams {
                    mean_power_kw: mean_kw,
                    peak_power_kw: (mean_kw * 1.6).max(mean_kw + 1.0),
                    ..HpcWorkloadParams::default()
                };
                HpcWorkload::new(params, seed).generate(step)
            }
            WorkloadConfig::Constant { kw } => constant_load(step, kw),
            WorkloadConfig::Web { mean_kw } => diurnal_web_load(step, mean_kw, seed),
        }
    }
}

/// A fully specified experiment scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// The site.
    pub site: SitePreset,
    /// Simulation step in minutes (the paper runs minutely; 60 is the
    /// default here and reproduces the same annual statistics).
    pub step_minutes: u32,
    /// Master seed for every stochastic substrate.
    pub seed: u64,
    /// Workload family.
    pub workload: WorkloadConfig,
    /// Search space.
    pub space: CompositionSpace,
    /// Simulation parameters (battery model, policy, embodied factors).
    pub sim: SimConfig,
}

impl ScenarioConfig {
    /// The paper's Houston scenario.
    pub fn paper_houston() -> Self {
        Self {
            site: SitePreset::Houston,
            step_minutes: 60,
            seed: 42,
            workload: WorkloadConfig::PerlmutterLike { mean_kw: 1_620.0 },
            space: CompositionSpace::paper(),
            sim: SimConfig::default(),
        }
    }

    /// The paper's Berkeley scenario.
    pub fn paper_berkeley() -> Self {
        Self {
            site: SitePreset::Berkeley,
            ..Self::paper_houston()
        }
    }

    /// Simulation step as a duration.
    pub fn step(&self) -> SimDuration {
        SimDuration::from_minutes(self.step_minutes as f64)
    }

    /// The seed-independent tables of this scenario's site at its step.
    /// Every scenario differing only in `seed`, `workload`, `space` or
    /// `sim` can prepare over the same template.
    ///
    /// # Panics
    /// Panics unless [`Site::supports_step`] holds for the step.
    pub fn site_template(&self) -> SiteTemplate {
        self.site.site().template(self.step())
    }

    /// Synthesize all inputs (expensive; do once, share across trials).
    /// Builds a one-shot [`site_template`](Self::site_template) and drops
    /// it; use [`prepare_with`](Self::prepare_with) to share one.
    ///
    /// # Panics
    /// Panics unless [`Site::supports_step`] holds for the step.
    pub fn prepare(&self) -> PreparedScenario {
        self.prepare_with(&self.site_template())
    }

    /// Synthesize all inputs over a shared template of this scenario's
    /// site and step — bit-identical to [`prepare`](Self::prepare).
    ///
    /// # Panics
    /// Panics when `template` belongs to another site or step.
    pub fn prepare_with(&self, template: &SiteTemplate) -> PreparedScenario {
        let step = self.step();
        assert!(
            template.step() == step && template.site().name == self.site.name(),
            "template of {} at {} does not match scenario {} at {}",
            template.site().name,
            template.step(),
            self.site.name(),
            step
        );
        PreparedScenario {
            config: self.clone(),
            data: template.prepare(self.seed),
            load: self.workload.generate(step, self.seed),
        }
    }
}

/// A scenario with all inputs synthesized.
#[derive(Debug, Clone)]
pub struct PreparedScenario {
    /// The originating configuration.
    pub config: ScenarioConfig,
    /// Site data (unit profiles, CI, prices).
    pub data: SiteData,
    /// The data-center load trace, kW.
    pub load: TimeSeries,
}

impl PreparedScenario {
    /// Site display name.
    pub fn site_name(&self) -> &str {
        &self.data.site.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenarios_differ_only_in_site() {
        let h = ScenarioConfig::paper_houston();
        let b = ScenarioConfig::paper_berkeley();
        assert_eq!(h.seed, b.seed);
        assert_eq!(h.space, b.space);
        assert_ne!(h.site, b.site);
    }

    #[test]
    fn serde_round_trip() {
        let cfg = ScenarioConfig::paper_houston();
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        assert!(json.contains("Houston"));
    }

    #[test]
    fn prepare_produces_consistent_shapes() {
        let cfg = ScenarioConfig {
            step_minutes: 60,
            ..ScenarioConfig::paper_berkeley()
        };
        let prepared = cfg.prepare();
        assert_eq!(prepared.load.len(), prepared.data.len());
        assert_eq!(prepared.load.step(), prepared.data.step());
        assert_eq!(prepared.site_name(), "Berkeley, CA");
    }

    #[test]
    fn workload_families_generate() {
        let step = SimDuration::from_hours(1.0);
        let hpc = WorkloadConfig::PerlmutterLike { mean_kw: 1_620.0 }.generate(step, 1);
        assert!((hpc.mean() - 1_620.0).abs() < 1e-6);
        let flat = WorkloadConfig::Constant { kw: 500.0 }.generate(step, 1);
        assert_eq!(flat.std(), 0.0);
        let web = WorkloadConfig::Web { mean_kw: 800.0 }.generate(step, 1);
        assert!((web.mean() - 800.0).abs() < 1e-6);
        assert!(web.std() > 0.0);
    }

    #[test]
    fn shared_template_prepares_the_same_bits() {
        let cfg = ScenarioConfig {
            space: CompositionSpace::tiny(),
            ..ScenarioConfig::paper_berkeley()
        };
        let template = cfg.site_template();
        for seed in [3, 4] {
            let cfg = ScenarioConfig {
                seed,
                ..cfg.clone()
            };
            let (a, b) = (cfg.prepare_with(&template), cfg.prepare());
            assert_eq!(a.data.pv_unit_kw, b.data.pv_unit_kw);
            assert_eq!(a.data.wind_unit_kw, b.data.wind_unit_kw);
            assert_eq!(a.data.ci_g_per_kwh, b.data.ci_g_per_kwh);
            assert_eq!(a.data.price_usd_per_mwh, b.data.price_usd_per_mwh);
            assert_eq!(a.load, b.load);
        }
    }

    #[test]
    #[should_panic(expected = "does not match scenario")]
    fn foreign_template_is_refused() {
        let houston = ScenarioConfig::paper_houston().site_template();
        ScenarioConfig::paper_berkeley().prepare_with(&houston);
    }

    #[test]
    fn preparation_deterministic() {
        let cfg = ScenarioConfig::paper_houston();
        let a = cfg.prepare();
        let b = cfg.prepare();
        assert_eq!(a.load, b.load);
        assert_eq!(a.data.ci_g_per_kwh, b.data.ci_g_per_kwh);
    }
}
