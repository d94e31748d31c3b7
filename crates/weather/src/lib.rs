#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mgopt-weather
//!
//! Synthetic solar and wind resource data — the workspace's substitute for
//! the NREL National Solar Radiation Database (NSRDB) and WIND Toolkit used
//! by the paper.
//!
//! The pipeline mirrors how measured weather files are produced and consumed:
//!
//! 1. deterministic **solar geometry** ([`solar_pos`]) and a **clear-sky
//!    model** ([`clearsky`]) give the cloud-free irradiance envelope;
//! 2. a seeded stochastic **cloud process** ([`cloud`]) yields an hourly
//!    clear-sky index with realistic multi-day overcast spells;
//! 3. the product is **decomposed** ([`decomposition`]) into DNI/DHI exactly
//!    like ground-station pipelines do (Erbs);
//! 4. **wind speeds** ([`wind`]) come from a translated-Gaussian process
//!    with the site's Weibull marginal, seasonal and diurnal structure;
//! 5. **temperature** ([`temperature`]) and site pressure complete the
//!    records the SAM-style performance models need.
//!
//! Everything is deterministic given a [`Climate`] and a seed.
//!
//! ## Seed-independent and seeded stages
//!
//! Stage 1 and the climatology shapes of stages 4 and 5 (the wind's
//! monthly Weibull scale and diurnal factor, the temperature's seasonal
//! mean and diurnal offset) depend only on the site and the step, never
//! on the seed. A [`WeatherTemplate`] tabulates them once per
//! (climate, step). [`WeatherTemplate::generate`] then runs only the
//! seeded processes over the tables: the cloud regime chain, the
//! decomposition of each all-sky sample, and the temperature and wind
//! anomalies. [`WeatherGenerator::generate`] is a one-shot template, so
//! both paths run the same per-step arithmetic and give the same bits.
pub mod clearsky;
pub mod climate;
pub mod cloud;
pub mod decomposition;
pub mod io;
pub mod location;
pub mod math;
pub mod solar_pos;
pub mod temperature;
pub mod wind;

use mgopt_units::time::{month_of_day, DAYS_PER_YEAR};
use mgopt_units::{
    SimDuration, SimTime, TimeSeries, SECONDS_PER_DAY, SECONDS_PER_HOUR, SECONDS_PER_YEAR,
};
use serde::{Deserialize, Serialize};

pub use climate::Climate;
pub use location::Location;

/// One synthesized weather year for a site, at a fixed step.
///
/// Irradiance series are in W/m², temperature in °C, wind speed in m/s at
/// the climatology's reference height, pressure in Pa.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeatherYear {
    /// The site this weather belongs to.
    pub location: Location,
    /// Global horizontal irradiance, W/m².
    pub ghi: TimeSeries,
    /// Direct normal irradiance, W/m².
    pub dni: TimeSeries,
    /// Diffuse horizontal irradiance, W/m².
    pub dhi: TimeSeries,
    /// Ambient air temperature, °C.
    pub temp_air_c: TimeSeries,
    /// Wind speed at `wind_ref_height_m`, m/s.
    pub wind_speed_ms: TimeSeries,
    /// Height the wind series refers to, meters.
    pub wind_ref_height_m: f64,
    /// Power-law shear exponent for height extrapolation.
    pub wind_shear_exponent: f64,
    /// Site air pressure, Pa (constant barometric value).
    pub pressure_pa: f64,
}

impl WeatherYear {
    /// Step size shared by all series.
    pub fn step(&self) -> SimDuration {
        self.ghi.step()
    }

    /// Number of samples per series.
    pub fn len(&self) -> usize {
        self.ghi.len()
    }

    /// `true` if the year holds no samples (cannot happen by construction).
    pub fn is_empty(&self) -> bool {
        self.ghi.is_empty()
    }
}

/// Barometric pressure at an elevation (standard atmosphere), Pa.
pub fn pressure_at_elevation_pa(elevation_m: f64) -> f64 {
    101_325.0 * (1.0 - 2.255_77e-5 * elevation_m).powf(5.255_88)
}

/// Whether the synthesizer can produce a year at `step`: the step must
/// divide a day, and either divide an hour or be a whole number of hours.
/// Every such step also divides the year.
pub fn supports_step(step: SimDuration) -> bool {
    let s = step.secs();
    s > 0 && SECONDS_PER_DAY % s == 0 && (SECONDS_PER_HOUR % s == 0 || s % SECONDS_PER_HOUR == 0)
}

/// One synthesized weather sample, in [`WeatherYear`] units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherSample {
    /// Global horizontal irradiance, W/m².
    pub ghi: f64,
    /// Direct normal irradiance, W/m².
    pub dni: f64,
    /// Diffuse horizontal irradiance, W/m².
    pub dhi: f64,
    /// Ambient air temperature, °C.
    pub temp_air_c: f64,
    /// Wind speed at the climatology's reference height, m/s.
    pub wind_speed_ms: f64,
}

/// The seed-independent tables of one climate's weather year at one step.
///
/// Per step: the zenith cosine and the clear-sky GHI. Per day of year:
/// extraterrestrial normal irradiance, the seasonal temperature mean and
/// the month's Weibull wind scale. Per step of the day: the diurnal
/// temperature offset and wind factor. Each entry is the value the
/// per-instant functions ([`solar_pos`], [`clearsky`], [`temperature`],
/// [`wind`]) return, so combining them with the seeded processes in
/// [`generate`](Self::generate) reproduces the inline arithmetic bit for
/// bit.
#[derive(Debug, Clone)]
pub struct WeatherTemplate {
    climate: Climate,
    step: SimDuration,
    cos_zenith: Vec<f64>,
    clearsky_ghi: Vec<f64>,
    ext_normal_w_m2: Vec<f64>,
    temp_seasonal_c: Vec<f64>,
    wind_scale_ms: Vec<f64>,
    temp_diurnal_c: Vec<f64>,
    wind_diurnal: Vec<f64>,
}

impl WeatherTemplate {
    /// Tabulate `climate` at `step`.
    ///
    /// # Panics
    /// Panics unless [`supports_step`] holds for `step`.
    pub fn new(climate: &Climate, step: SimDuration) -> Self {
        Self::with_sun(climate, step, |_, _| {})
    }

    /// Like [`new`](Self::new), and hands each step's instant and sun
    /// position to `visit` in time order, so callers can tabulate their
    /// own geometry without computing the sun a second time.
    ///
    /// # Panics
    /// Panics unless [`supports_step`] holds for `step`.
    pub fn with_sun(
        climate: &Climate,
        step: SimDuration,
        mut visit: impl FnMut(SimTime, &solar_pos::SunPosition),
    ) -> Self {
        assert!(
            supports_step(step),
            "weather step must divide a day and either divide an hour or be a whole number of hours"
        );
        let step_s = step.secs();
        let n = (SECONDS_PER_YEAR / step_s) as usize;
        let mut cos_zenith = Vec::with_capacity(n);
        let mut clearsky_ghi = Vec::with_capacity(n);
        for i in 0..n {
            let t = SimTime::from_secs(i as i64 * step_s);
            let pos = solar_pos::sun_position(&climate.location, t);
            cos_zenith.push(pos.cos_zenith());
            clearsky_ghi.push(clearsky::clearsky_ghi_from_position(&pos));
            visit(t, &pos);
        }
        let days = 0..DAYS_PER_YEAR as u32;
        let steps_of_day = (0..SECONDS_PER_DAY / step_s)
            .map(|k| SimTime::from_secs(k * step_s).calendar().hour_of_day());
        Self {
            climate: climate.clone(),
            step,
            cos_zenith,
            clearsky_ghi,
            ext_normal_w_m2: days
                .clone()
                .map(solar_pos::extraterrestrial_normal_w_m2)
                .collect(),
            temp_seasonal_c: days
                .clone()
                .map(|d| temperature::seasonal_mean_c(&climate.temperature, d))
                .collect(),
            wind_scale_ms: days
                .map(|d| wind::monthly_scale_ms(&climate.wind, month_of_day(d)))
                .collect(),
            temp_diurnal_c: steps_of_day
                .clone()
                .map(|h| temperature::diurnal_offset_c(&climate.temperature, h))
                .collect(),
            wind_diurnal: steps_of_day
                .map(|h| wind::diurnal_factor(&climate.wind, h))
                .collect(),
        }
    }

    /// The step every table is sampled at.
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// Samples per year.
    pub fn len(&self) -> usize {
        self.cos_zenith.len()
    }

    /// `true` if the year holds no samples (cannot happen by construction).
    pub fn is_empty(&self) -> bool {
        self.cos_zenith.is_empty()
    }

    /// Zenith cosine per step, clamped at zero below the horizon.
    pub fn cos_zenith(&self) -> &[f64] {
        &self.cos_zenith
    }

    /// Site air pressure, Pa.
    pub fn pressure_pa(&self) -> f64 {
        pressure_at_elevation_pa(self.climate.location.elevation_m)
    }

    /// Heap bytes held by the tables.
    pub fn table_bytes(&self) -> usize {
        std::mem::size_of::<f64>()
            * [
                &self.cos_zenith,
                &self.clearsky_ghi,
                &self.ext_normal_w_m2,
                &self.temp_seasonal_c,
                &self.wind_scale_ms,
                &self.temp_diurnal_c,
                &self.wind_diurnal,
            ]
            .iter()
            .map(|v| v.capacity())
            .sum::<usize>()
    }

    /// Run the seeded processes over the tables and hand every step's
    /// sample to `sink` in time order, with its step index.
    ///
    /// The cloud process always runs at hourly resolution (clouds do not
    /// need sub-hourly regime switches); irradiance, temperature and wind
    /// are produced at the template's step.
    pub fn for_each_sample(&self, seed: u64, mut sink: impl FnMut(usize, WeatherSample)) {
        let step_s = self.step.secs();
        let steps_per_day = self.temp_diurnal_c.len();
        let kci = cloud::CloudGenerator::new(self.climate.solar.clone(), seed).generate_year();
        let mut temp_gen =
            temperature::TemperatureGenerator::new(self.climate.temperature.clone(), seed);
        let mut wind_gen = wind::WindGenerator::new(self.climate.wind.clone(), seed, step_s);
        for i in 0..self.len() {
            let hour_idx = (i as i64 * step_s / SECONDS_PER_HOUR) as usize % kci.len();
            let (day, k) = (i / steps_per_day, i % steps_per_day);
            let cos_z = self.cos_zenith[i];
            let g = self.clearsky_ghi[i] * kci[hour_idx];
            let ext = self.ext_normal_w_m2[day] * cos_z;
            let kt = if ext > 1.0 {
                (g / ext).clamp(0.0, 1.1)
            } else {
                0.0
            };
            let comps = decomposition::decompose(g, kt, cos_z);
            let temp_air_c = temp_gen.step_over(self.temp_seasonal_c[day] + self.temp_diurnal_c[k]);
            let wind_speed_ms = wind_gen.step_over(self.wind_scale_ms[day], self.wind_diurnal[k]);
            sink(
                i,
                WeatherSample {
                    ghi: comps.ghi,
                    dni: comps.dni,
                    dhi: comps.dhi,
                    temp_air_c,
                    wind_speed_ms,
                },
            );
        }
    }

    /// Synthesize the full year for `seed`.
    pub fn generate(&self, seed: u64) -> WeatherYear {
        let n = self.len();
        let mut ghi = Vec::with_capacity(n);
        let mut dni = Vec::with_capacity(n);
        let mut dhi = Vec::with_capacity(n);
        let mut temp = Vec::with_capacity(n);
        let mut wind_v = Vec::with_capacity(n);
        self.for_each_sample(seed, |_, s| {
            ghi.push(s.ghi);
            dni.push(s.dni);
            dhi.push(s.dhi);
            temp.push(s.temp_air_c);
            wind_v.push(s.wind_speed_ms);
        });
        let step = self.step;
        WeatherYear {
            location: self.climate.location.clone(),
            ghi: TimeSeries::new(step, ghi),
            dni: TimeSeries::new(step, dni),
            dhi: TimeSeries::new(step, dhi),
            temp_air_c: TimeSeries::new(step, temp),
            wind_speed_ms: TimeSeries::new(step, wind_v),
            wind_ref_height_m: self.climate.wind.ref_height_m,
            wind_shear_exponent: self.climate.wind.shear_exponent,
            pressure_pa: self.pressure_pa(),
        }
    }
}

/// Top-level generator: one [`Climate`] + seed → [`WeatherYear`].
#[derive(Debug, Clone)]
pub struct WeatherGenerator {
    climate: Climate,
    seed: u64,
}

impl WeatherGenerator {
    /// Create a generator for a site climatology.
    pub fn new(climate: Climate, seed: u64) -> Self {
        Self { climate, seed }
    }

    /// The climatology driving this generator.
    pub fn climate(&self) -> &Climate {
        &self.climate
    }

    /// Synthesize a full year at the given step: a one-shot
    /// [`WeatherTemplate`].
    ///
    /// # Panics
    /// Panics unless [`supports_step`] holds for `step`.
    pub fn generate(&self, step: SimDuration) -> WeatherYear {
        WeatherTemplate::new(&self.climate, step).generate(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgopt_units::stats;

    fn berkeley_year() -> WeatherYear {
        WeatherGenerator::new(Climate::berkeley(), 42).generate(SimDuration::from_hours(1.0))
    }

    fn houston_year() -> WeatherYear {
        WeatherGenerator::new(Climate::houston(), 42).generate(SimDuration::from_hours(1.0))
    }

    #[test]
    fn hourly_year_has_8760_samples() {
        let w = berkeley_year();
        assert_eq!(w.len(), 8_760);
        assert_eq!(w.step(), SimDuration::from_hours(1.0));
        assert_eq!(w.ghi.len(), w.wind_speed_ms.len());
    }

    #[test]
    fn subhourly_generation_works() {
        let w =
            WeatherGenerator::new(Climate::berkeley(), 1).generate(SimDuration::from_minutes(15.0));
        assert_eq!(w.len(), 4 * 8_760);
    }

    #[test]
    #[should_panic(expected = "weather step")]
    fn incompatible_step_panics() {
        WeatherGenerator::new(Climate::berkeley(), 1).generate(SimDuration::from_secs(7_000));
    }

    #[test]
    fn supported_steps_divide_a_day_and_align_with_the_hour() {
        let ok = |min: f64| supports_step(SimDuration::from_minutes(min));
        for min in [1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 360.0, 1_440.0] {
            assert!(ok(min), "{min} min");
        }
        // 7 min does not divide an hour; 5 h and 73 h do not divide a day.
        for min in [0.0, 7.0, 90.0, 300.0, 4_380.0] {
            assert!(!ok(min), "{min} min");
        }
    }

    #[test]
    fn irradiance_physical_bounds() {
        let w = houston_year();
        for (i, (&g, (&b, &d))) in w
            .ghi
            .values()
            .iter()
            .zip(w.dni.values().iter().zip(w.dhi.values()))
            .enumerate()
        {
            assert!((0.0..1_300.0).contains(&g), "sample {i}: ghi {g}");
            assert!((0.0..=1_100.0).contains(&b), "sample {i}: dni {b}");
            assert!(d >= 0.0 && d <= g + 1e-9, "sample {i}: dhi {d} > ghi {g}");
        }
    }

    #[test]
    fn nights_are_dark() {
        let w = berkeley_year();
        // 03:00 local on ten sampled days.
        for day in (0..365).step_by(37) {
            let idx = day * 24 + 3;
            assert_eq!(w.ghi.values()[idx], 0.0, "day {day} 03:00 not dark");
        }
    }

    #[test]
    fn annual_insolation_site_contrast() {
        let b = berkeley_year();
        let h = houston_year();
        // kWh/m²/yr
        let b_insol = b.ghi.energy_kwh() / 1_000.0;
        let h_insol = h.ghi.energy_kwh() / 1_000.0;
        // Plausible ranges for the two climates.
        assert!((1_500.0..2_200.0).contains(&b_insol), "berkeley {b_insol}");
        assert!((1_300.0..2_000.0).contains(&h_insol), "houston {h_insol}");
        assert!(b_insol > h_insol, "berkeley should out-sun houston");
    }

    #[test]
    fn wind_site_contrast() {
        let b = berkeley_year();
        let h = houston_year();
        let bm = stats::mean(b.wind_speed_ms.values());
        let hm = stats::mean(h.wind_speed_ms.values());
        assert!(hm > 5.8, "houston mean wind {hm}");
        assert!(bm < 5.8, "berkeley mean wind {bm}");
        assert!(hm - bm > 1.2);
    }

    #[test]
    fn determinism_and_seed_sensitivity() {
        let a = WeatherGenerator::new(Climate::houston(), 7).generate(SimDuration::from_hours(1.0));
        let b = WeatherGenerator::new(Climate::houston(), 7).generate(SimDuration::from_hours(1.0));
        let c = WeatherGenerator::new(Climate::houston(), 8).generate(SimDuration::from_hours(1.0));
        assert_eq!(a, b);
        assert_ne!(a.ghi, c.ghi);
        assert_ne!(a.wind_speed_ms, c.wind_speed_ms);
    }

    #[test]
    fn pressure_decreases_with_elevation() {
        assert!(pressure_at_elevation_pa(0.0) > pressure_at_elevation_pa(1_000.0));
        assert!((pressure_at_elevation_pa(0.0) - 101_325.0).abs() < 1.0);
        // Denver-ish
        let p1600 = pressure_at_elevation_pa(1_600.0);
        assert!((82_000.0..85_000.0).contains(&p1600), "p(1600m) = {p1600}");
    }

    #[test]
    fn temperature_seasonal_shape() {
        let h = houston_year();
        let july: f64 = stats::mean(&h.temp_air_c.values()[181 * 24..212 * 24]);
        let jan: f64 = stats::mean(&h.temp_air_c.values()[0..31 * 24]);
        assert!(july > jan + 10.0, "july {july} vs jan {jan}");
    }
}
