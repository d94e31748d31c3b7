//! Stochastic wind-speed synthesis.
//!
//! A translated-Gaussian process: an AR(1) standard-normal series is mapped
//! through the normal CDF onto the per-month Weibull quantile function, then
//! modulated by a diurnal cycle. This preserves (a) the target Weibull
//! marginal distribution — which fixes the turbine capacity factor — and
//! (b) realistic multi-hour lulls and storms via the AR autocorrelation,
//! which is what makes batteries matter.

use mgopt_units::SimTime;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::climate::WindClimate;
use crate::cloud::sample_standard_normal;
use crate::math::{norm_cdf, weibull_quantile, Ar1};

/// Stochastic wind-speed generator at the climatology's reference height.
#[derive(Debug)]
pub struct WindGenerator {
    climate: WindClimate,
    rng: ChaCha12Rng,
    process: Ar1,
    steps_per_hour: f64,
}

impl WindGenerator {
    /// Create a generator producing samples every `step_s` seconds.
    pub fn new(climate: WindClimate, seed: u64, step_s: i64) -> Self {
        assert!(step_s > 0);
        let steps_per_hour = 3_600.0 / step_s as f64;
        let decorrelation_steps = climate.decorrelation_h * steps_per_hour;
        Self {
            climate,
            rng: ChaCha12Rng::seed_from_u64(seed ^ 0x3141_5926),
            process: Ar1::new(Ar1::rho_for_decorrelation_steps(decorrelation_steps)),
            steps_per_hour,
        }
    }

    /// Wind speed (m/s) at the reference height at time `t`.
    ///
    /// Call once per simulation step in time order.
    pub fn step(&mut self, t: SimTime) -> f64 {
        let cal = t.calendar();
        self.step_over(
            monthly_scale_ms(&self.climate, cal.month),
            diurnal_factor(&self.climate, cal.hour_of_day()),
        )
    }

    /// Wind speed over a precomputed [`monthly_scale_ms`] and
    /// [`diurnal_factor`], advancing the process one step — the seeded
    /// half of [`step`](Self::step).
    pub fn step_over(&mut self, scale_ms: f64, diurnal: f64) -> f64 {
        let eps = sample_standard_normal(&mut self.rng);
        let g = self.process.step(eps);
        let u = norm_cdf(g);
        let speed = weibull_quantile(u, scale_ms, self.climate.weibull_shape);
        (speed * diurnal).max(0.0)
    }

    /// Samples per hour implied by the construction step.
    pub fn steps_per_hour(&self) -> f64 {
        self.steps_per_hour
    }
}

/// Weibull scale parameter in a month (0-based), m/s.
pub fn monthly_scale_ms(climate: &WindClimate, month: u32) -> f64 {
    climate.weibull_scale_ms * climate.monthly_scale_factor[month as usize]
}

/// Diurnal speed multiplier at a fractional hour of day. It is
/// `1 + A cos(phase)`, whose mean over a day is 1, so the modulation
/// preserves the daily mean to first order.
pub fn diurnal_factor(climate: &WindClimate, hour_of_day: f64) -> f64 {
    let phase = (hour_of_day - climate.diurnal_peak_hour) / 24.0 * std::f64::consts::TAU;
    1.0 + climate.diurnal_amplitude * phase.cos()
}

/// Extrapolate a wind speed between heights with the power law
/// `v2 = v1 (h2 / h1)^alpha`.
pub fn power_law_shear(v_ref: f64, ref_height_m: f64, target_height_m: f64, alpha: f64) -> f64 {
    assert!(ref_height_m > 0.0 && target_height_m > 0.0);
    v_ref * (target_height_m / ref_height_m).powf(alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::climate::Climate;
    use crate::math::weibull_mean;
    use mgopt_units::{stats, SimDuration, SimTime};

    fn generate_year(climate: &WindClimate, seed: u64) -> Vec<f64> {
        let step = SimDuration::from_hours(1.0);
        let mut g = WindGenerator::new(climate.clone(), seed, step.secs());
        let mut t = SimTime::START;
        let mut out = Vec::with_capacity(8_760);
        for _ in 0..8_760 {
            out.push(g.step(t));
            t += step;
        }
        out
    }

    #[test]
    fn annual_mean_tracks_weibull_mean() {
        let c = Climate::houston().wind;
        let speeds = generate_year(&c, 1);
        let mean_factor: f64 = c.monthly_scale_factor.iter().sum::<f64>() / 12.0;
        let expected = weibull_mean(c.weibull_scale_ms * mean_factor, c.weibull_shape);
        let actual = stats::mean(&speeds);
        assert!(
            (actual - expected).abs() / expected < 0.08,
            "mean {actual} vs expected {expected}"
        );
    }

    #[test]
    fn speeds_nonnegative_and_bounded() {
        for seed in 0..3 {
            let speeds = generate_year(&Climate::berkeley().wind, seed);
            for &v in &speeds {
                assert!(v >= 0.0);
                assert!(v < 45.0, "implausible speed {v}");
            }
        }
    }

    #[test]
    fn autocorrelated_not_white_noise() {
        let speeds = generate_year(&Climate::houston().wind, 2);
        let r1 = stats::autocorrelation(&speeds, 1);
        assert!(r1 > 0.7, "lag-1 autocorrelation {r1}");
        let r24 = stats::autocorrelation(&speeds, 24);
        assert!(r24 < r1);
    }

    #[test]
    fn houston_windier_than_berkeley() {
        let h = stats::mean(&generate_year(&Climate::houston().wind, 3));
        let b = stats::mean(&generate_year(&Climate::berkeley().wind, 3));
        assert!(h > b + 1.0, "houston {h} vs berkeley {b}");
    }

    #[test]
    fn deterministic_per_seed() {
        let c = Climate::houston().wind;
        assert_eq!(generate_year(&c, 9), generate_year(&c, 9));
        assert_ne!(generate_year(&c, 9), generate_year(&c, 10));
    }

    #[test]
    fn lulls_exist_for_storage_to_cover() {
        // Multi-hour low-wind periods must occur (they drive the battery
        // and grid-import behaviour in the paper's Houston scenario).
        let speeds = generate_year(&Climate::houston().wind, 4);
        let mut longest_lull = 0usize;
        let mut run = 0usize;
        for &v in &speeds {
            if v < 3.5 {
                run += 1;
                longest_lull = longest_lull.max(run);
            } else {
                run = 0;
            }
        }
        assert!(longest_lull >= 6, "longest lull {longest_lull} h");
    }

    #[test]
    fn shear_extrapolation() {
        let v100 = power_law_shear(8.0, 100.0, 100.0, 0.14);
        assert_eq!(v100, 8.0);
        let v140 = power_law_shear(8.0, 100.0, 140.0, 0.14);
        assert!(v140 > 8.0 && v140 < 9.0);
        let v10 = power_law_shear(8.0, 100.0, 10.0, 0.14);
        assert!(v10 < 6.0);
    }

    #[test]
    fn seasonality_visible() {
        let c = Climate::houston().wind;
        let speeds = generate_year(&c, 5);
        let spring = stats::mean(&speeds[59 * 24..151 * 24]); // Mar-May
        let late_summer = stats::mean(&speeds[212 * 24..243 * 24]); // Aug
        assert!(
            spring > late_summer,
            "spring {spring} <= august {late_summer}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn shear_monotone_in_height(v in 0.0f64..30.0, h in 10.0f64..200.0) {
            let alpha = 0.14;
            let up = power_law_shear(v, 100.0, h + 10.0, alpha);
            let lo = power_law_shear(v, 100.0, h, alpha);
            prop_assert!(up >= lo);
        }
    }
}
