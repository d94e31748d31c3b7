#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mgopt-sam
//!
//! Renewable-generation performance models in the style of NREL's System
//! Advisor Model (SAM) — the two SSC compute modules the paper uses:
//!
//! * [`pvwatts`] — the PVWatts v5 photovoltaic chain: plane-of-array
//!   transposition (isotropic or HDKR), NOCT cell temperature, linear DC
//!   power with temperature derate, system losses, and the PVWatts
//!   part-load inverter curve.
//! * [`windpower`] — the Windpower module: hub-height shear extrapolation,
//!   air-density correction, turbine power curve, and farm-level wake /
//!   availability losses.
//!
//! Both consume a [`mgopt_weather::WeatherYear`] and produce an AC power
//! [`TimeSeries`] (kW) on the same step — exactly how the paper maps SAM
//! output onto Vessim's actor/signal interface.

pub mod pvwatts;
pub mod windpower;

pub use pvwatts::{ArraySun, PvSystem, PvSystemParams, TranspositionModel};
pub use windpower::{PowerCurve, WindFarm, WindFarmParams, WindTurbineParams};

use mgopt_units::TimeSeries;
use mgopt_weather::WeatherYear;

/// A renewable generation system that converts weather into AC power.
pub trait GenerationModel {
    /// Simulate one year; returns AC power in kW at the weather's step.
    fn simulate(&self, weather: &WeatherYear) -> TimeSeries;

    /// Nameplate AC-side rating in kW (for capacity-factor reporting).
    fn rated_kw(&self) -> f64;

    /// Capacity factor of a simulated year.
    fn capacity_factor(&self, weather: &WeatherYear) -> f64 {
        let ts = self.simulate(weather);
        if self.rated_kw() <= 0.0 {
            0.0
        } else {
            ts.mean() / self.rated_kw()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgopt_units::SimDuration;
    use mgopt_weather::{Climate, WeatherGenerator};

    #[test]
    fn trait_objects_compose() {
        let weather =
            WeatherGenerator::new(Climate::berkeley(), 1).generate(SimDuration::from_hours(1.0));
        let systems: Vec<Box<dyn GenerationModel>> = vec![
            Box::new(PvSystem::with_capacity_kw(
                4_000.0,
                weather.location.latitude_deg,
            )),
            Box::new(WindFarm::with_turbines(2)),
        ];
        for s in &systems {
            let ts = s.simulate(&weather);
            assert_eq!(ts.len(), weather.len());
            let cf = s.capacity_factor(&weather);
            assert!((0.0..1.0).contains(&cf));
        }
    }
}
