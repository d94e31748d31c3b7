//! The year simulator.
//!
//! Two equivalent paths:
//!
//! * [`simulate_year`] — a tight fixed-step loop over precomputed unit
//!   profiles, one composition at a time through [`StorageKernel`]; the
//!   independent oracle the batch and fleet engines are pinned against.
//! * [`simulate_year_cosim`] — the same physics expressed through the
//!   `mgopt-cosim` actor/bus machinery, used by examples and as a
//!   cross-check; the two agree to numerical precision (tested).

use mgopt_cosim::{
    Actor, BusState, DispatchStrategy, Microgrid, Monitor, SelfConsumption, SignalActor, StepRecord,
};
use mgopt_storage::{ClcBattery, ClcParams, NullStorage, Storage};
use mgopt_units::{Power, SimDuration, SimTime, TimeSeries};
use serde::{Deserialize, Serialize};

use crate::composition::Composition;
use crate::embodied::EmbodiedDb;
use crate::metrics::{AnnualMetrics, AnnualResult};
use crate::policy::DispatchPolicy;
use crate::site::SiteData;

/// Simulation configuration shared across trials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Battery model parameters (C/L/C).
    pub battery: ClcParams,
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// Embodied-carbon factors.
    pub embodied: EmbodiedDb,
    /// Export remuneration as a fraction of the import price (0 = spill).
    pub export_price_factor: f64,
    /// Record an hourly SoC trace for rainflow/degradation analysis.
    pub record_soc: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            battery: ClcParams::default(),
            policy: DispatchPolicy::SelfConsumption,
            embodied: EmbodiedDb::paper(),
            export_price_factor: 0.3,
            record_soc: false,
        }
    }
}

/// Monomorphized storage dispatch for [`simulate_period`]: an enum over
/// the storage models a composition can carry, replacing
/// `Box<dyn Storage + Send>` in the loop.
///
/// Methods forward to the exact same [`ClcBattery`] arithmetic the cosim
/// engine uses — the kernel changes *dispatch*, not physics.
#[derive(Debug, Clone)]
pub enum StorageKernel {
    /// No battery: refuses all power, zero state.
    Null,
    /// A C/L/C lithium-ion battery.
    Clc(ClcBattery),
}

impl StorageKernel {
    /// The kernel for a composition under the given battery parameters.
    pub fn for_composition(comp: &Composition, params: &ClcParams) -> Self {
        if comp.battery_kwh > 0.0 {
            StorageKernel::Clc(ClcBattery::new(
                mgopt_units::Energy::from_kwh(comp.battery_kwh),
                params.clone(),
            ))
        } else {
            StorageKernel::Null
        }
    }

    /// Current state of charge (0 for [`StorageKernel::Null`]).
    #[inline]
    pub fn soc(&self) -> f64 {
        match self {
            StorageKernel::Null => 0.0,
            StorageKernel::Clc(b) => b.soc(),
        }
    }

    /// Request `power` for `dt`; returns the accepted/delivered power in kW.
    #[inline]
    pub fn update_kw(&mut self, power: Power, dt: SimDuration) -> f64 {
        match self {
            StorageKernel::Null => 0.0,
            StorageKernel::Clc(b) => b.update(power, dt).kw(),
        }
    }

    /// Equivalent full cycles so far.
    pub fn equivalent_full_cycles(&self) -> f64 {
        match self {
            StorageKernel::Null => 0.0,
            StorageKernel::Clc(b) => b.equivalent_full_cycles(),
        }
    }
}

/// Simulate one composition for one year (fast path).
///
/// # Panics
/// Panics when `load_kw` does not match the site data's step/length.
pub fn simulate_year(
    data: &SiteData,
    load_kw: &TimeSeries,
    comp: &Composition,
    cfg: &SimConfig,
) -> AnnualResult {
    simulate_period(data, load_kw, comp, cfg, data.len())
}

/// Simulate only the first `n_steps` of the year — the low-fidelity
/// evaluation used by pruning/early-stopping searches (§4.4 future work).
/// Rates (tCO2/day, coverage) are normalized to the simulated period.
///
/// # Panics
/// Panics when `load_kw` does not match the site data's step/length or
/// `n_steps` is zero.
pub fn simulate_period(
    data: &SiteData,
    load_kw: &TimeSeries,
    comp: &Composition,
    cfg: &SimConfig,
    n_steps: usize,
) -> AnnualResult {
    assert_eq!(load_kw.step(), data.step(), "load step mismatch");
    assert_eq!(load_kw.len(), data.len(), "load length mismatch");
    assert!(n_steps > 0, "n_steps must be positive");

    let n = n_steps.min(data.len());
    let dt_h = data.step().hours();
    let dt = data.step();
    let steps_per_hour = (3_600 / data.step().secs()).max(1) as usize;

    // Enum dispatch: no allocation, no virtual call per step.
    let mut battery = StorageKernel::for_composition(comp, &cfg.battery);

    let pv = data.pv_unit_kw.values();
    let wind = data.wind_unit_kw.values();
    let load = load_kw.values();
    let ci = data.ci_g_per_kwh.values();
    let price = data.price_usd_per_mwh.values();

    let mut acc = Accumulators::default();
    let mut soc_trace = Vec::new();
    if cfg.record_soc {
        soc_trace.reserve(n / steps_per_hour + 1);
    }

    let islanded = cfg.policy.is_islanded();
    for i in 0..n {
        let gen = comp.solar_kw * pv[i] + comp.wind_turbines as f64 * wind[i];
        let demand = load[i];
        let p_delta = gen - demand;

        let request = cfg
            .policy
            .storage_request(Power::from_kw(p_delta), battery.soc(), ci[i]);
        let p_storage = battery.update_kw(request, dt);

        let residual = p_delta - p_storage;
        let (import, export, unmet) = if islanded && residual < 0.0 {
            (0.0, 0.0, -residual)
        } else if residual < 0.0 {
            (-residual, 0.0, 0.0)
        } else {
            (0.0, residual, 0.0)
        };

        acc.record(
            gen,
            demand,
            import,
            export,
            p_storage,
            unmet,
            ci[i],
            price[i],
            dt_h,
            cfg.export_price_factor,
        );
        if cfg.record_soc && i % steps_per_hour == 0 {
            soc_trace.push(battery.soc());
        }
    }

    let cycles = battery.equivalent_full_cycles();
    let days = n as f64 * dt_h / 24.0;
    AnnualResult {
        composition: *comp,
        metrics: acc.finish(comp, cfg, cycles, n, days),
        soc_trace_hourly: soc_trace,
    }
}

/// Running totals of the fast path.
#[derive(Debug, Default)]
struct Accumulators {
    demand_kwh: f64,
    production_kwh: f64,
    import_kwh: f64,
    export_kwh: f64,
    direct_kwh: f64,
    charge_kwh: f64,
    discharge_kwh: f64,
    unmet_kwh: f64,
    op_kg: f64,
    cost_usd: f64,
    self_sufficient_steps: usize,
}

impl Accumulators {
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn record(
        &mut self,
        gen: f64,
        demand: f64,
        import: f64,
        export: f64,
        p_storage: f64,
        unmet: f64,
        ci: f64,
        price: f64,
        dt_h: f64,
        export_factor: f64,
    ) {
        self.demand_kwh += demand * dt_h;
        self.production_kwh += gen * dt_h;
        self.import_kwh += import * dt_h;
        self.export_kwh += export * dt_h;
        self.direct_kwh += gen.min(demand).max(0.0) * dt_h;
        if p_storage > 0.0 {
            self.charge_kwh += p_storage * dt_h;
        } else {
            self.discharge_kwh += -p_storage * dt_h;
        }
        self.unmet_kwh += unmet * dt_h;
        self.op_kg += import * dt_h * ci / 1e3;
        // price is $/MWh; energy in kWh -> /1000.
        self.cost_usd += import * dt_h * price / 1e3;
        self.cost_usd -= export * dt_h * price * export_factor / 1e3;
        if import <= 1e-9 {
            self.self_sufficient_steps += 1;
        }
    }

    fn finish(
        &self,
        comp: &Composition,
        cfg: &SimConfig,
        battery_cycles: f64,
        steps: usize,
        days: f64,
    ) -> AnnualMetrics {
        let op_t_total = self.op_kg / 1e3;
        // Scale to a per-year figure so partial-period (multi-fidelity)
        // simulations report comparable numbers.
        let op_t_year = op_t_total * 365.0 / days.max(1e-9);
        let demand = self.demand_kwh.max(1e-12);
        AnnualMetrics {
            demand_mwh: self.demand_kwh / 1e3,
            production_mwh: self.production_kwh / 1e3,
            grid_import_mwh: self.import_kwh / 1e3,
            grid_export_mwh: self.export_kwh / 1e3,
            direct_use_mwh: self.direct_kwh / 1e3,
            battery_charge_mwh: self.charge_kwh / 1e3,
            battery_discharge_mwh: self.discharge_kwh / 1e3,
            unmet_mwh: self.unmet_kwh / 1e3,
            operational_t_per_day: op_t_total / days.max(1e-9),
            operational_t_per_year: op_t_year,
            embodied_t: cfg.embodied.total_t(comp),
            coverage: (1.0 - self.import_kwh / demand).clamp(0.0, 1.0),
            direct_coverage: (self.direct_kwh / demand).clamp(0.0, 1.0),
            battery_cycles,
            self_sufficient_fraction: self.self_sufficient_steps as f64 / steps.max(1) as f64,
            energy_cost_usd: self.cost_usd,
        }
    }
}

/// A cosim dispatch strategy that adapts [`DispatchPolicy`] with a CI
/// signal for carbon-aware variants.
struct PolicyAdapter {
    policy: DispatchPolicy,
    ci: TimeSeries,
}

impl DispatchStrategy for PolicyAdapter {
    fn storage_request(&mut self, state: &BusState) -> Power {
        let ci = self.ci.at(state.t);
        self.policy.storage_request(state.p_delta, state.soc, ci)
    }

    fn grid_import_limit(&mut self, _state: &BusState) -> Option<Power> {
        if self.policy.is_islanded() {
            Some(Power::ZERO)
        } else {
            None
        }
    }

    fn name(&self) -> &str {
        self.policy.name()
    }
}

/// Build the cosim [`Microgrid`] equivalent of a fast-path trial.
pub fn build_cosim_microgrid(
    data: &SiteData,
    load_kw: &TimeSeries,
    comp: &Composition,
    cfg: &SimConfig,
) -> Microgrid {
    let actors: Vec<Box<dyn Actor>> = vec![
        Box::new(SignalActor::producer(
            "solar-farm",
            data.pv_unit_kw.scaled(comp.solar_kw),
        )),
        Box::new(SignalActor::producer(
            "wind-farm",
            data.wind_unit_kw.scaled(comp.wind_turbines as f64),
        )),
        Box::new(SignalActor::consumer("data-center", load_kw.clone())),
    ];

    let storage: Box<dyn Storage + Send> = if comp.battery_kwh > 0.0 {
        Box::new(ClcBattery::new(
            mgopt_units::Energy::from_kwh(comp.battery_kwh),
            cfg.battery.clone(),
        ))
    } else {
        Box::new(NullStorage::new())
    };

    let strategy: Box<dyn DispatchStrategy> = match cfg.policy {
        DispatchPolicy::SelfConsumption => Box::new(SelfConsumption::default()),
        _ => Box::new(PolicyAdapter {
            policy: cfg.policy,
            ci: data.ci_g_per_kwh.clone(),
        }),
    };
    Microgrid::new(actors, storage, strategy)
}

/// Monitor that reproduces the fast-path accumulators from cosim records.
struct MetricsMonitor<'a> {
    acc: Accumulators,
    ci: &'a TimeSeries,
    price: &'a TimeSeries,
    export_factor: f64,
}

impl Monitor for MetricsMonitor<'_> {
    fn record(&mut self, rec: &StepRecord) {
        let dt_h = rec.dt.hours();
        self.acc.record(
            rec.p_production.kw(),
            -rec.p_consumption.kw(),
            rec.grid_import().kw(),
            rec.grid_export().kw(),
            rec.p_storage.kw(),
            rec.p_unmet.kw(),
            self.ci.at(rec.t),
            self.price.at(rec.t),
            dt_h,
            self.export_factor,
        );
    }
}

/// Simulate one composition for one year through the cosim engine.
pub fn simulate_year_cosim(
    data: &SiteData,
    load_kw: &TimeSeries,
    comp: &Composition,
    cfg: &SimConfig,
) -> AnnualResult {
    let mut mg = build_cosim_microgrid(data, load_kw, comp, cfg);
    let mut monitor = MetricsMonitor {
        acc: Accumulators::default(),
        ci: &data.ci_g_per_kwh,
        price: &data.price_usd_per_mwh,
        export_factor: cfg.export_price_factor,
    };
    let result = mg.run(
        SimTime::START,
        SimDuration::from_secs(data.step().secs() * data.len() as i64),
        data.step(),
        &mut [&mut monitor],
    );
    let cycles = mg.storage().equivalent_full_cycles();
    let days = result.steps as f64 * data.step().hours() / 24.0;
    AnnualResult {
        composition: *comp,
        metrics: monitor.acc.finish(comp, cfg, cycles, result.steps, days),
        soc_trace_hourly: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Site;
    use mgopt_workload::HpcWorkload;

    fn setup() -> (SiteData, TimeSeries) {
        let data = Site::houston().prepare(SimDuration::from_hours(1.0), 42);
        let load = HpcWorkload::perlmutter_like(42).generate(SimDuration::from_hours(1.0));
        (data, load)
    }

    #[test]
    fn baseline_matches_ci_mean() {
        let (data, load) = setup();
        let r = simulate_year(&data, &load, &Composition::BASELINE, &SimConfig::default());
        // Pure grid power at 1.62 MW mean: the paper's Houston baseline.
        assert!(
            (r.metrics.operational_t_per_day - 15.54).abs() < 0.25,
            "houston baseline {} t/day",
            r.metrics.operational_t_per_day
        );
        assert_eq!(r.metrics.embodied_t, 0.0);
        assert_eq!(r.metrics.coverage, 0.0);
        assert_eq!(r.metrics.battery_cycles, 0.0);
    }

    #[test]
    fn renewables_cut_emissions_monotonically() {
        let (data, load) = setup();
        let cfg = SimConfig::default();
        let none = simulate_year(&data, &load, &Composition::BASELINE, &cfg);
        let some = simulate_year(&data, &load, &Composition::new(4, 0.0, 0.0), &cfg);
        let more = simulate_year(&data, &load, &Composition::new(8, 8_000.0, 0.0), &cfg);
        assert!(some.metrics.operational_t_per_day < none.metrics.operational_t_per_day);
        assert!(more.metrics.operational_t_per_day < some.metrics.operational_t_per_day);
        assert!(more.metrics.coverage > some.metrics.coverage);
    }

    #[test]
    fn battery_raises_coverage() {
        let (data, load) = setup();
        let cfg = SimConfig::default();
        let no_bat = simulate_year(&data, &load, &Composition::new(4, 8_000.0, 0.0), &cfg);
        let bat = simulate_year(&data, &load, &Composition::new(4, 8_000.0, 30_000.0), &cfg);
        assert!(bat.metrics.coverage > no_bat.metrics.coverage);
        assert!(bat.metrics.battery_cycles > 10.0);
        assert!(bat.metrics.grid_export_mwh < no_bat.metrics.grid_export_mwh);
    }

    #[test]
    fn energy_balance_closes() {
        let (data, load) = setup();
        let cfg = SimConfig::default();
        let r = simulate_year(&data, &load, &Composition::new(4, 12_000.0, 30_000.0), &cfg);
        let m = &r.metrics;
        // production + import + discharge = demand + export + charge (± battery SoC drift)
        let lhs = m.production_mwh + m.grid_import_mwh + m.battery_discharge_mwh;
        let rhs = m.demand_mwh + m.grid_export_mwh + m.battery_charge_mwh;
        let drift_allowance = 30.0 + 0.13 * m.battery_charge_mwh; // losses + SoC drift
        assert!(
            (lhs - rhs).abs() < drift_allowance,
            "balance violated: lhs {lhs} rhs {rhs}"
        );
    }

    #[test]
    fn fast_path_agrees_with_cosim() {
        let (data, load) = setup();
        let cfg = SimConfig::default();
        for comp in [
            Composition::BASELINE,
            Composition::new(4, 0.0, 7_500.0),
            Composition::new(3, 8_000.0, 22_500.0),
        ] {
            let fast = simulate_year(&data, &load, &comp, &cfg);
            let cosim = simulate_year_cosim(&data, &load, &comp, &cfg);
            let a = &fast.metrics;
            let b = &cosim.metrics;
            assert!(
                (a.operational_t_per_day - b.operational_t_per_day).abs() < 1e-9,
                "{comp}"
            );
            assert!(
                (a.grid_import_mwh - b.grid_import_mwh).abs() < 1e-6,
                "{comp}"
            );
            assert!((a.coverage - b.coverage).abs() < 1e-9, "{comp}");
            assert!((a.battery_cycles - b.battery_cycles).abs() < 1e-9, "{comp}");
            assert!(
                (a.energy_cost_usd - b.energy_cost_usd).abs() < 1e-3,
                "{comp}"
            );
        }
    }

    #[test]
    fn islanded_policy_tracks_unmet_load() {
        let (data, load) = setup();
        let cfg = SimConfig {
            policy: DispatchPolicy::Islanded,
            ..SimConfig::default()
        };
        let r = simulate_year(&data, &load, &Composition::new(4, 8_000.0, 30_000.0), &cfg);
        assert_eq!(r.metrics.grid_import_mwh, 0.0);
        assert!(
            r.metrics.unmet_mwh > 0.0,
            "a 4-turbine island cannot cover everything"
        );
        assert!(
            r.metrics.coverage == 1.0,
            "no imports implies full (served) coverage"
        );
    }

    #[test]
    fn carbon_aware_charging_uses_clean_grid_power() {
        let (data, load) = setup();
        let base = simulate_year(
            &data,
            &load,
            &Composition::new(0, 0.0, 30_000.0),
            &SimConfig::default(),
        );
        let aware = simulate_year(
            &data,
            &load,
            &Composition::new(0, 0.0, 30_000.0),
            &SimConfig {
                policy: DispatchPolicy::CarbonAwareGridCharge {
                    ci_threshold_g_per_kwh: 330.0,
                    target_soc: 0.9,
                },
                ..SimConfig::default()
            },
        );
        // The aware policy cycles the battery (grid arbitrage on carbon)...
        assert!(aware.metrics.battery_cycles > base.metrics.battery_cycles + 5.0);
        // ...and reduces emissions per unit of demand served from the grid
        // even though total imports grow (charging losses).
        let base_ci = base.metrics.operational_t_per_year / base.metrics.grid_import_mwh;
        let aware_ci = aware.metrics.operational_t_per_year / aware.metrics.grid_import_mwh;
        assert!(
            aware_ci < base_ci,
            "effective CI should drop: {aware_ci} vs {base_ci}"
        );
    }

    #[test]
    fn soc_trace_recorded_when_requested() {
        let (data, load) = setup();
        let cfg = SimConfig {
            record_soc: true,
            ..SimConfig::default()
        };
        let r = simulate_year(&data, &load, &Composition::new(2, 4_000.0, 15_000.0), &cfg);
        assert_eq!(r.soc_trace_hourly.len(), 8_760);
        for &s in &r.soc_trace_hourly {
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    #[should_panic(expected = "load length mismatch")]
    fn mismatched_load_panics() {
        let (data, _) = setup();
        let short = TimeSeries::new(SimDuration::from_hours(1.0), vec![1.0; 100]);
        simulate_year(&data, &short, &Composition::BASELINE, &SimConfig::default());
    }

    #[test]
    #[should_panic(expected = "n_steps must be positive")]
    fn zero_step_period_panics_instead_of_reporting_garbage_rates() {
        // Regression: a zero-step window used to fall through to the
        // `days.max(1e-9)` guard in `Accumulators::finish` and report
        // near-zero-day rates; the API boundary now rejects it (matching
        // the `steps_for_fidelity` clamp upstream).
        let (data, load) = setup();
        simulate_period(
            &data,
            &load,
            &Composition::BASELINE,
            &SimConfig::default(),
            0,
        );
    }

    #[test]
    fn one_step_period_reports_finite_rates() {
        // The smallest legal window: every rate must be finite and the
        // per-day normalization must use the true (tiny) day count.
        let (data, load) = setup();
        let r = simulate_period(
            &data,
            &load,
            &Composition::BASELINE,
            &SimConfig::default(),
            1,
        );
        assert!(r.metrics.operational_t_per_day.is_finite());
        assert!(r.metrics.operational_t_per_year.is_finite());
        // One baseline hour of grid import: the per-day rate is 24x the
        // hour's emissions, not an absurd near-zero-day blow-up.
        let hour_t = r.metrics.grid_import_mwh * 1e3 * data.ci_g_per_kwh.values()[0] / 1e6;
        assert!((r.metrics.operational_t_per_day - hour_t * 24.0).abs() < 1e-9);
        assert!(
            (r.metrics.operational_t_per_year - r.metrics.operational_t_per_day * 365.0).abs()
                < 1e-9
        );
    }
}
