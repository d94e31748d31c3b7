//! Integration tests for the extension features: alternative storage
//! technologies on the cosim bus, weather/CI file I/O feeding the models,
//! and the multi-fidelity pruned search.

use microgrid_opt::cosim::{Actor, MemoryMonitor, Microgrid, SelfConsumption, SignalActor};
use microgrid_opt::gridcarbon;
use microgrid_opt::prelude::*;
use microgrid_opt::sam::{GenerationModel, PvSystem, WindFarm};
use microgrid_opt::storage::{HydrogenStorage, PumpedHydro, PumpedHydroParams, Storage};
use microgrid_opt::units::Energy;
use microgrid_opt::weather;

fn scenario() -> PreparedScenario {
    ScenarioConfig {
        space: CompositionSpace::tiny(),
        ..ScenarioConfig::paper_houston()
    }
    .prepare()
}

fn run_microgrid_with_storage(
    s: &PreparedScenario,
    storage: Box<dyn Storage + Send>,
    days: i64,
) -> (f64, f64) {
    let actors: Vec<Box<dyn Actor>> = vec![
        Box::new(SignalActor::producer(
            "wind",
            s.data.wind_unit_kw.scaled(4.0),
        )),
        Box::new(SignalActor::consumer("dc", s.load.clone())),
    ];
    let mut mg = Microgrid::new(actors, storage, Box::new(SelfConsumption::default()));
    let mut mon = MemoryMonitor::new();
    mg.run(
        SimTime::START,
        SimDuration::from_days(days),
        s.data.step(),
        &mut [&mut mon],
    );
    let h = s.data.step().hours();
    let import: f64 = mon.records().iter().map(|r| r.grid_import().kw() * h).sum();
    let export: f64 = mon.records().iter().map(|r| r.grid_export().kw() * h).sum();
    (import, export)
}

#[test]
fn hydrogen_and_pumped_hydro_reduce_imports_on_the_bus() {
    let s = scenario();
    let (import_none, export_none) =
        run_microgrid_with_storage(&s, Box::new(microgrid_opt::storage::NullStorage::new()), 60);
    let (import_h2, export_h2) = run_microgrid_with_storage(
        &s,
        Box::new(HydrogenStorage::with_defaults(Energy::from_mwh(40.0))),
        60,
    );
    let (import_ph, export_ph) = run_microgrid_with_storage(
        &s,
        Box::new(PumpedHydro::new(PumpedHydroParams {
            initial_fill: 0.5,
            ..PumpedHydroParams::default()
        })),
        60,
    );
    // Any store must cut both imports and exports vs no storage.
    assert!(import_h2 < import_none, "{import_h2} vs {import_none}");
    assert!(export_h2 < export_none);
    assert!(import_ph < import_none);
    assert!(export_ph < export_none);
    // Pumped hydro (rt ~0.78) converts surplus to served load more
    // efficiently than hydrogen (rt ~0.36) at comparable power ratings.
    let served_ph = import_none - import_ph;
    let spent_ph = export_none - export_ph;
    let served_h2 = import_none - import_h2;
    let spent_h2 = export_none - export_h2;
    let eff_ph = served_ph / spent_ph;
    let eff_h2 = served_h2 / spent_h2;
    assert!(
        eff_ph > eff_h2,
        "pumped hydro effective rt {eff_ph:.2} should beat hydrogen {eff_h2:.2}"
    );
}

#[test]
fn exported_weather_file_reproduces_generation_profiles() {
    let s = scenario();
    // Export the site's weather, re-import it, and rebuild the unit
    // profiles: they must match the originals exactly.
    let mut buf = Vec::new();
    let weather = s.data.site.weather_year(s.data.step(), s.config.seed);
    weather::io::write_csv(&weather, &mut buf).unwrap();
    let imported = weather::io::read_csv(buf.as_slice()).unwrap();

    let pv = PvSystem::with_capacity_kw(1_000.0, imported.location.latitude_deg);
    let rebuilt_pv = pv.simulate(&imported).scaled(1.0 / 1_000.0);
    assert_eq!(rebuilt_pv, s.data.pv_unit_kw);

    let wind = WindFarm::with_turbines(1);
    let rebuilt_wind = wind.simulate(&imported);
    assert_eq!(rebuilt_wind, s.data.wind_unit_kw);
}

#[test]
fn exported_ci_trace_round_trips_through_accounting() {
    let s = scenario();
    let mut buf = Vec::new();
    gridcarbon::io::write_csv(&s.data.ci_g_per_kwh, &mut buf).unwrap();
    let imported = gridcarbon::io::read_csv(buf.as_slice()).unwrap();
    assert_eq!(imported, s.data.ci_g_per_kwh);

    let flat_import = TimeSeries::constant_year(s.data.step(), 1_620.0);
    let a = gridcarbon::accounting::daily_operational_emissions_t(&flat_import, &imported);
    let b =
        gridcarbon::accounting::daily_operational_emissions_t(&flat_import, &s.data.ci_g_per_kwh);
    assert_eq!(a, b);
    assert!((a - 15.54).abs() < 0.05, "houston baseline via file {a}");
}

#[test]
fn partial_period_simulation_normalizes_rates() {
    let s = scenario();
    let comp = Composition::new(4, 8_000.0, 22_500.0);
    let full = simulate_year(&s.data, &s.load, &comp, &s.config.sim);
    let quarter = microgrid_opt::microgrid::simulate_period(
        &s.data,
        &s.load,
        &comp,
        &s.config.sim,
        s.data.len() / 4,
    );
    // Q1 is winter-heavy, so rates differ — but must be the same order of
    // magnitude and internally consistent.
    assert!(quarter.metrics.demand_mwh < 0.3 * full.metrics.demand_mwh);
    let ratio =
        quarter.metrics.operational_t_per_day / full.metrics.operational_t_per_day.max(1e-9);
    assert!(
        (0.2..5.0).contains(&ratio),
        "per-day rate should be period-normalized, ratio {ratio}"
    );
}

#[test]
fn multi_fidelity_problem_converges_to_full_fidelity() {
    let s = scenario();
    let problem = CompositionProblem::new(&s, ObjectiveSet::paper());
    use microgrid_opt::optimizer::MultiFidelityProblem;
    use microgrid_opt::optimizer::Problem;
    let genome = vec![1u16, 1, 1];
    let full = problem.evaluate(&genome);
    let at_one = problem.evaluate_at_fidelity(&genome, 1.0);
    assert_eq!(full, at_one, "fidelity 1.0 must equal the plain evaluation");
    // Lower fidelity: same embodied, different (noisy) operational.
    let low = problem.evaluate_at_fidelity(&genome, 0.25);
    assert_eq!(low[1], full[1], "embodied independent of fidelity");
    assert!(low[0].is_finite());
}
