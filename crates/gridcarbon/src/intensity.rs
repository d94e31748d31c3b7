//! Hourly average grid carbon-intensity synthesis.
//!
//! Following the paper (§4.1), operational carbon is accounted with
//! *average* carbon intensity (the Electricity Maps/GHG-Protocol
//! convention), not marginal intensity.

use mgopt_units::{SimDuration, SimTime, TimeSeries, SECONDS_PER_YEAR};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Supported grid regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GridRegion {
    /// California ISO — solar-dominated duck curve, low mean intensity.
    Caiso,
    /// Electric Reliability Council of Texas — wind at night, gas peakers.
    Ercot,
}

/// Parametric carbon-intensity model for one grid region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CarbonIntensityModel {
    /// Region the parameters describe.
    pub region: GridRegion,
    /// Calibration target: exact annual mean in gCO2/kWh.
    pub annual_mean_g_per_kwh: f64,
    /// 24 relative multipliers (local hour 0..23); mean ≈ 1.
    pub diurnal_shape: [f64; 24],
    /// Relative amplitude of the seasonal cycle.
    pub seasonal_amplitude: f64,
    /// Month (0-based, fractional ok) where the seasonal cycle peaks.
    pub seasonal_peak_month: f64,
    /// How much deeper the diurnal shape swings in summer than winter
    /// (1 = no modulation). Captures "more solar in summer" for CAISO.
    pub summer_shape_gain: f64,
    /// Relative standard deviation of the AR(1) noise.
    pub noise_std: f64,
    /// Noise decorrelation time in hours.
    pub noise_decorrelation_h: f64,
    /// Hard floor in gCO2/kWh (a grid is never fully carbon-free).
    pub floor_g_per_kwh: f64,
}

impl CarbonIntensityModel {
    /// Default calibrated parameters for a region.
    ///
    /// Means are chosen so the paper's no-microgrid baselines reproduce:
    /// Houston 15.54 tCO2/day and Berkeley 9.33 tCO2/day at a 1.62 MW
    /// average load (38.88 MWh/day).
    pub fn for_region(region: GridRegion) -> Self {
        match region {
            GridRegion::Caiso => Self {
                region,
                // 9.33 t / 38.88 MWh = 239.97 g/kWh
                annual_mean_g_per_kwh: 9_330.0 / 38.88,
                // Duck curve: solar crushes midday intensity, evening ramp
                // brings gas online.
                diurnal_shape: [
                    1.12, 1.10, 1.08, 1.07, 1.08, 1.12, 1.15, 1.02, 0.82, 0.62, 0.52, 0.47, 0.45,
                    0.45, 0.48, 0.55, 0.72, 0.98, 1.22, 1.32, 1.32, 1.27, 1.21, 1.16,
                ],
                seasonal_amplitude: 0.10,
                seasonal_peak_month: 8.0, // late-summer evening gas peaks
                summer_shape_gain: 1.35,  // deeper duck in summer
                noise_std: 0.10,
                noise_decorrelation_h: 6.0,
                floor_g_per_kwh: 40.0,
            },
            GridRegion::Ercot => Self {
                region,
                // 15.54 t / 38.88 MWh = 399.69 g/kWh
                annual_mean_g_per_kwh: 15_540.0 / 38.88,
                // Wind blows at night; afternoon A/C load brings gas/coal.
                diurnal_shape: [
                    0.86, 0.83, 0.81, 0.80, 0.82, 0.87, 0.94, 1.02, 1.08, 1.11, 1.14, 1.17, 1.19,
                    1.21, 1.22, 1.21, 1.19, 1.16, 1.12, 1.07, 1.01, 0.96, 0.91, 0.88,
                ],
                seasonal_amplitude: 0.08,
                seasonal_peak_month: 7.0, // summer A/C
                summer_shape_gain: 1.15,
                noise_std: 0.12,
                noise_decorrelation_h: 8.0,
                floor_g_per_kwh: 120.0,
            },
        }
    }

    /// Deterministic (noise-free) relative shape at an instant.
    pub fn relative_shape(&self, t: SimTime) -> f64 {
        let cal = t.calendar();
        let month_frac = cal.fraction_of_year() * 12.0;
        let seasonal = 1.0
            + self.seasonal_amplitude
                * ((month_frac - self.seasonal_peak_month) / 12.0 * std::f64::consts::TAU).cos();
        // Interpolate the 24-point diurnal template.
        let h = cal.hour_of_day();
        let i = h.floor() as usize % 24;
        let j = (i + 1) % 24;
        let frac = h - h.floor();
        let base = self.diurnal_shape[i] * (1.0 - frac) + self.diurnal_shape[j] * frac;
        // Summer deepens the diurnal swing around its mean of ~1:
        // the weight is 1 in mid-July and 0 in mid-January.
        let summer = 0.5 * (1.0 + ((month_frac - 6.5) / 12.0 * std::f64::consts::TAU).cos());
        let gain = 1.0 + (self.summer_shape_gain - 1.0) * summer;
        let diurnal = 1.0 + (base - 1.0) * gain;
        (seasonal * diurnal).max(0.05)
    }

    /// [`relative_shape`](Self::relative_shape) at every step of the year:
    /// the seed-independent half of [`generate`](Self::generate).
    ///
    /// # Panics
    /// Panics unless the step divides the year.
    pub fn shape_year(&self, step: SimDuration) -> Vec<f64> {
        let step_s = step.secs();
        assert!(
            step_s > 0 && SECONDS_PER_YEAR % step_s == 0,
            "step must divide the year"
        );
        (0..SECONDS_PER_YEAR / step_s)
            .map(|i| self.relative_shape(SimTime::from_secs(i * step_s)))
            .collect()
    }

    /// Generate one year of carbon intensity (gCO2/kWh) at the given step,
    /// exactly mean-calibrated to `annual_mean_g_per_kwh`.
    ///
    /// # Panics
    /// Panics unless the step divides the year.
    pub fn generate(&self, step: SimDuration, seed: u64) -> TimeSeries {
        self.generate_over(&self.shape_year(step), step, seed)
    }

    /// [`generate`](Self::generate) over a precomputed
    /// [`shape_year`](Self::shape_year) table: the seeded AR(1) noise, the
    /// mean calibration and the floor.
    ///
    /// # Panics
    /// Panics unless `shape` holds one entry per step of the year.
    pub fn generate_over(&self, shape: &[f64], step: SimDuration, seed: u64) -> TimeSeries {
        let step_s = step.secs();
        assert!(
            step_s > 0 && shape.len() as i64 * step_s == SECONDS_PER_YEAR,
            "shape table must cover the year at the step"
        );
        let n = shape.len();

        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0xc0_2e_11_55);
        let steps_per_hour = 3_600.0 / step_s as f64;
        let rho = (-1.0 / (self.noise_decorrelation_h * steps_per_hour).max(1e-9)).exp();
        let innovation = (1.0 - rho * rho).sqrt();
        let mut g = 0.0f64;

        let mut values = Vec::with_capacity(n);
        for &relative in shape {
            let eps: f64 = {
                // Box-Muller on two uniforms.
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            };
            g = rho * g + innovation * eps;
            let noise = 1.0 + self.noise_std * g;
            values.push(relative * noise.max(0.1));
        }

        // Exact mean calibration, then floor.
        let mean: f64 = values.iter().sum::<f64>() / n as f64;
        let scale = self.annual_mean_g_per_kwh / mean;
        for v in values.iter_mut() {
            *v = (*v * scale).max(self.floor_g_per_kwh);
        }
        TimeSeries::new(step, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgopt_units::stats;

    fn hourly(region: GridRegion, seed: u64) -> TimeSeries {
        CarbonIntensityModel::for_region(region).generate(SimDuration::from_hours(1.0), seed)
    }

    #[test]
    fn annual_means_match_paper_baselines() {
        let caiso = hourly(GridRegion::Caiso, 1);
        let ercot = hourly(GridRegion::Ercot, 1);
        // Baselines: mean CI * 38.88 MWh/day = t/day (floor clipping adds
        // <0.5% bias, tolerated here).
        let caiso_daily_t = caiso.mean() * 38_880.0 / 1e6;
        let ercot_daily_t = ercot.mean() * 38_880.0 / 1e6;
        assert!((caiso_daily_t - 9.33).abs() < 0.05, "caiso {caiso_daily_t}");
        assert!(
            (ercot_daily_t - 15.54).abs() < 0.05,
            "ercot {ercot_daily_t}"
        );
    }

    #[test]
    fn caiso_duck_curve_shape() {
        let m = CarbonIntensityModel::for_region(GridRegion::Caiso);
        // Midday (hour 12) far below evening (hour 20), July day 190.
        let noon = m.relative_shape(SimTime::from_secs(190 * 86_400 + 12 * 3_600));
        let evening = m.relative_shape(SimTime::from_secs(190 * 86_400 + 20 * 3_600));
        assert!(noon < 0.55 * evening, "noon {noon} evening {evening}");
    }

    #[test]
    fn ercot_nights_cleaner_than_afternoons() {
        let ercot = hourly(GridRegion::Ercot, 2);
        let mut night = Vec::new();
        let mut afternoon = Vec::new();
        for d in 0..365 {
            night.push(ercot.values()[d * 24 + 3]);
            afternoon.push(ercot.values()[d * 24 + 14]);
        }
        assert!(stats::mean(&night) < 0.85 * stats::mean(&afternoon));
    }

    #[test]
    fn caiso_cleaner_than_ercot() {
        assert!(hourly(GridRegion::Caiso, 3).mean() < 0.7 * hourly(GridRegion::Ercot, 3).mean());
    }

    #[test]
    fn values_respect_floor_and_are_positive() {
        for region in [GridRegion::Caiso, GridRegion::Ercot] {
            let model = CarbonIntensityModel::for_region(region);
            let ts = model.generate(SimDuration::from_hours(1.0), 4);
            for &v in ts.values() {
                assert!(v >= model.floor_g_per_kwh - 1e-9);
                assert!(v < 4.0 * model.annual_mean_g_per_kwh);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(hourly(GridRegion::Caiso, 7), hourly(GridRegion::Caiso, 7));
        assert_ne!(hourly(GridRegion::Caiso, 7), hourly(GridRegion::Caiso, 8));
    }

    #[test]
    fn subhourly_generation() {
        let ts = CarbonIntensityModel::for_region(GridRegion::Ercot)
            .generate(SimDuration::from_minutes(15.0), 5);
        assert_eq!(ts.len(), 4 * 8_760);
    }

    #[test]
    #[should_panic(expected = "step must divide the year")]
    fn bad_step_panics() {
        CarbonIntensityModel::for_region(GridRegion::Caiso)
            .generate(SimDuration::from_secs(7_001), 1);
    }

    #[test]
    fn summer_duck_deeper_than_winter() {
        let m = CarbonIntensityModel::for_region(GridRegion::Caiso);
        let jan_noon = m.relative_shape(SimTime::from_secs(15 * 86_400 + 12 * 3_600));
        let jul_noon = m.relative_shape(SimTime::from_secs(196 * 86_400 + 12 * 3_600));
        assert!(
            jul_noon < jan_noon,
            "summer noon {jul_noon} vs winter {jan_noon}"
        );
    }

    #[test]
    fn autocorrelated_noise() {
        let ts = hourly(GridRegion::Ercot, 11);
        // Remove the diurnal template by differencing across days, then
        // check the residual retains persistence.
        let r1 = stats::autocorrelation(ts.values(), 1);
        assert!(r1 > 0.5, "lag-1 autocorrelation {r1}");
    }
}
