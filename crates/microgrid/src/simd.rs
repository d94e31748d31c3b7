//! The lane layer, and the one chunk walk the batch and fleet engines run.
//!
//! Stable Rust has no `std::simd`; this module provides an explicit
//! `N`-lane `f64` vector ([`F64x4`], `N` = [`LANES`] = 4 unless stated,
//! `#[repr(align(32))]` so a 4-lane group fills one AVX register / half a
//! cache line) with branchless `min`/`max`/`select` combinators, plus a
//! lane-wide C/L/C battery envelope ([`LaneKernel`]), dispatch-policy
//! requests ([`LanePolicy`]) and the raw metric accumulators ([`LaneAcc`]).
//! Every lane type is generic in `N`.
//!
//! ## One walk
//!
//! Every [`simulate_batch`](crate::simulate_batch) and
//! [`FleetEvaluator`](crate::FleetEvaluator) pass runs the same walk: the
//! cohort is split into chunks of 64 plans evaluated in parallel;
//! per chunk, each site's plans are packed into [`LaneGroup`]s of `N`
//! lanes, and the walk advances every site in blocks of steps, one
//! group step per group and step (generation, policy request, battery,
//! residual split, accumulate). The single-site batch engine is a
//! one-site cohort with peak tracking off. [`BatchBackend`] picks the
//! width: `Scalar` walks `N = 1`, `Simd` (the default) walks `N = 4`.
//!
//! A cohort that does not fill its final group is padded with inert lanes
//! ([`Composition::BASELINE`], battery inactive, SoC pinned at 0). Their
//! results are never extracted and their imports never reach the
//! concurrent-import row, so no remainder loop is needed. SoC traces are
//! recorded per lane, so every configuration runs the same walk.
//!
//! ## The lanes-are-candidates invariant
//!
//! Each lane holds a **different candidate composition**, never a
//! different timestep of the same candidate. Per-candidate state only
//! ever interacts with its own lane, so the arithmetic each candidate
//! sees — operand values, operation order, rounding — is independent of
//! `N`, and the two widths are **bit-identical**, not merely close. The
//! branchy charge/idle/discharge envelope is select-based: both envelope
//! branches are evaluated lane-wide and the per-lane result is chosen
//! bitwise, which never perturbs the chosen value. Every element-wise op
//! lowers to the same scalar `f64` operation per lane (`f64::min`,
//! `f64::max`, `f64::clamp`, `+`, `*`, `/`, never a fused multiply-add),
//! so agreement with the `ClcBattery` recursion of
//! [`simulate_period`](crate::simulate_period) does not depend on how LLVM
//! vectorizes the fixed-width loops.

// The element-wise ops are written as explicit `for i in 0..N` index loops
// on purpose: every lane must run the exact scalar f64 operation, and the
// fixed-width indexed form is the clearest statement of that (and what
// LLVM unrolls/vectorizes). Iterator adapters obscure the lane index the
// whole module is organized around.
#![allow(clippy::needless_range_loop)]

use std::ops::{Add, BitAnd, Div, Mul, Neg, Not, Sub};

use mgopt_storage::{ClcBattery, ClcParams, Storage};
use mgopt_telemetry::{self as telemetry, Counter, Stage};
use rayon::prelude::*;

use crate::composition::Composition;
use crate::fleet::FleetSite;
use crate::metrics::{AnnualMetrics, AnnualResult};
use crate::policy::DispatchPolicy;
use crate::simulate::SimConfig;

/// Lanes per vector on the fast path: four `f64`s, one 256-bit register.
pub const LANES: usize = 4;

/// Which lane width the walk uses. Both widths run the same code and are
/// pinned bit-identical; tests and benches force one for A/B runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchBackend {
    /// One lane per group (`N = 1`).
    Scalar,
    /// [`LANES`] lanes per group (`N = 4`).
    #[default]
    Simd,
}

// ---------------------------------------------------------------------
// F64x4 / Mask4
// ---------------------------------------------------------------------

/// `N` `f64` lanes (four by default), register-aligned.
///
/// Every element-wise op is a fixed `N`-iteration loop over the matching
/// scalar `f64` operation, so per-lane results are bit-identical to
/// scalar code whether or not LLVM emits vector instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(32))]
pub struct F64x4<const N: usize = LANES>(pub [f64; N]);

/// A per-lane boolean as all-ones / all-zeros bit patterns, the shape
/// hardware compare instructions produce and [`Mask4::select`] consumes
/// bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(32))]
pub struct Mask4<const N: usize = LANES>(pub [u64; N]);

impl<const N: usize> F64x4<N> {
    /// All lanes `+0.0`.
    pub const ZERO: Self = F64x4([0.0; N]);

    /// All lanes `v`.
    #[inline]
    pub fn splat(v: f64) -> Self {
        F64x4([v; N])
    }

    /// Lane `i`.
    #[inline]
    pub fn lane(self, i: usize) -> f64 {
        self.0[i]
    }

    #[inline]
    fn map(self, f: impl Fn(f64) -> f64) -> Self {
        let mut r = [0.0; N];
        for i in 0..N {
            r[i] = f(self.0[i]);
        }
        F64x4(r)
    }

    #[inline]
    fn zip(self, o: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        let mut r = [0.0; N];
        for i in 0..N {
            r[i] = f(self.0[i], o.0[i]);
        }
        F64x4(r)
    }

    /// Lane-wise `f64::min` (matches the scalar engine's `min` calls).
    #[inline]
    pub fn min(self, o: Self) -> Self {
        self.zip(o, f64::min)
    }

    /// Lane-wise `f64::max`.
    #[inline]
    pub fn max(self, o: Self) -> Self {
        self.zip(o, f64::max)
    }

    /// Lane-wise `f64::clamp(0.0, 1.0)` (the envelope's taper clamp).
    #[inline]
    pub fn clamp01(self) -> Self {
        self.map(|a| a.clamp(0.0, 1.0))
    }

    #[inline]
    fn cmp(self, o: Self, f: impl Fn(f64, f64) -> bool) -> Mask4<N> {
        let mut r = [0u64; N];
        for i in 0..N {
            r[i] = if f(self.0[i], o.0[i]) { !0 } else { 0 };
        }
        Mask4(r)
    }

    /// Lane-wise `<`.
    #[inline]
    pub fn lt(self, o: Self) -> Mask4<N> {
        self.cmp(o, |a, b| a < b)
    }

    /// Lane-wise `>`.
    #[inline]
    pub fn gt(self, o: Self) -> Mask4<N> {
        self.cmp(o, |a, b| a > b)
    }

    /// Lane-wise `<=`.
    #[inline]
    pub fn le(self, o: Self) -> Mask4<N> {
        self.cmp(o, |a, b| a <= b)
    }

    /// Lane-wise `>=`.
    #[inline]
    pub fn ge(self, o: Self) -> Mask4<N> {
        self.cmp(o, |a, b| a >= b)
    }

    /// Lane-wise `!=` (IEEE: `-0.0` equals `+0.0`, `NaN != NaN`).
    #[inline]
    pub fn ne(self, o: Self) -> Mask4<N> {
        self.cmp(o, |a, b| a != b)
    }
}

impl<const N: usize> Default for F64x4<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: usize> Add for F64x4<N> {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }
}

impl<const N: usize> Sub for F64x4<N> {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }
}

impl<const N: usize> Mul for F64x4<N> {
    type Output = Self;
    #[inline]
    fn mul(self, o: Self) -> Self {
        self.zip(o, |a, b| a * b)
    }
}

impl<const N: usize> Div for F64x4<N> {
    type Output = Self;
    #[inline]
    fn div(self, o: Self) -> Self {
        self.zip(o, |a, b| a / b)
    }
}

impl<const N: usize> Neg for F64x4<N> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        self.map(|a| -a)
    }
}

impl<const N: usize> Mask4<N> {
    /// Per-lane `if mask { a } else { b }`, as a bitwise blend — the
    /// chosen lane's bits pass through unmodified, so selection never
    /// perturbs a value.
    #[inline]
    pub fn select(self, a: F64x4<N>, b: F64x4<N>) -> F64x4<N> {
        let mut r = [0.0; N];
        for i in 0..N {
            r[i] = f64::from_bits((a.0[i].to_bits() & self.0[i]) | (b.0[i].to_bits() & !self.0[i]));
        }
        F64x4(r)
    }

    /// `true` when any lane is set.
    #[inline]
    pub fn any(self) -> bool {
        self.0.iter().any(|&b| b != 0)
    }

    /// Lane `i` as a bool.
    #[inline]
    pub fn lane(self, i: usize) -> bool {
        self.0[i] != 0
    }
}

impl<const N: usize> BitAnd for Mask4<N> {
    type Output = Self;
    #[inline]
    fn bitand(self, o: Self) -> Self {
        let mut r = [0u64; N];
        for i in 0..N {
            r[i] = self.0[i] & o.0[i];
        }
        Mask4(r)
    }
}

impl<const N: usize> Not for Mask4<N> {
    type Output = Self;
    #[inline]
    fn not(self) -> Self {
        let mut r = [0u64; N];
        for i in 0..N {
            r[i] = !self.0[i];
        }
        Mask4(r)
    }
}

// ---------------------------------------------------------------------
// Lane-wide C/L/C battery envelope
// ---------------------------------------------------------------------

/// Chunk-uniform C/L/C parameters, splatted once per chunk and site.
///
/// Validated through [`ClcBattery::new`] when the first active lane is
/// built, so the lane path panics on invalid parameters exactly when the
/// scalar kernel would.
#[derive(Debug, Clone, Copy)]
pub struct LaneParams<const N: usize = LANES> {
    eta: F64x4<N>,
    min_soc: F64x4<N>,
    charge_taper_soc: F64x4<N>,
    charge_taper_den: F64x4<N>,
    discharge_width: F64x4<N>,
    discharge_taper_top: F64x4<N>,
    hours: F64x4<N>,
}

impl<const N: usize> LaneParams<N> {
    /// Splat one parameter set for a chunk stepping `dt_h` hours.
    pub fn new(p: &ClcParams, dt_h: f64) -> Self {
        LaneParams {
            eta: F64x4::splat(p.round_trip_efficiency.sqrt()),
            min_soc: F64x4::splat(p.min_soc),
            charge_taper_soc: F64x4::splat(p.charge_taper_soc),
            charge_taper_den: F64x4::splat(1.0 - p.charge_taper_soc),
            discharge_width: F64x4::splat(p.discharge_taper_width),
            discharge_taper_top: F64x4::splat(p.min_soc + p.discharge_taper_width),
            hours: F64x4::splat(dt_h),
        }
    }
}

/// `N` candidates' battery state, one per lane.
///
/// Lanes whose composition has no battery are inactive: their SoC is
/// pinned at `0.0` (what a battery-less composition reports to policies)
/// and they accept no power. Inactive lanes carry a capacity placeholder
/// of `1.0` so the always-evaluated envelope never divides by zero; the
/// `active` mask discards those results.
#[derive(Debug, Clone, Copy)]
pub struct LaneKernel<const N: usize = LANES> {
    soc: F64x4<N>,
    discharged: F64x4<N>,
    cap: F64x4<N>,
    pmax_charge: F64x4<N>,
    pmax_discharge: F64x4<N>,
    active: Mask4<N>,
}

impl<const N: usize> LaneKernel<N> {
    /// Build lane state for `N` compositions.
    ///
    /// # Panics
    /// Panics on invalid parameters, via the same [`ClcBattery::new`]
    /// validation the scalar kernel runs.
    pub fn new(comps: &[Composition; N], params: &ClcParams) -> Self {
        let mut soc = [0.0; N];
        let mut cap = [1.0; N];
        let mut pmax_c = [0.0; N];
        let mut pmax_d = [0.0; N];
        let mut active = [0u64; N];
        for (i, c) in comps.iter().enumerate() {
            if c.battery_kwh > 0.0 {
                // Route through the scalar constructor so validation
                // panics exactly when the scalar engine would.
                let b =
                    ClcBattery::new(mgopt_units::Energy::from_kwh(c.battery_kwh), params.clone());
                soc[i] = b.soc();
                let kwh = b.capacity().kwh();
                cap[i] = kwh;
                pmax_c[i] = params.max_charge_c_rate * kwh;
                pmax_d[i] = params.max_discharge_c_rate * kwh;
                active[i] = !0;
            }
        }
        LaneKernel {
            soc: F64x4(soc),
            discharged: F64x4::ZERO,
            cap: F64x4(cap),
            pmax_charge: F64x4(pmax_c),
            pmax_discharge: F64x4(pmax_d),
            active: Mask4(active),
        }
    }

    /// Current per-lane SoC (0 on inactive lanes).
    #[inline]
    pub fn soc(&self) -> F64x4<N> {
        self.soc
    }

    /// One step of the C/L/C envelope, all `N` candidates at once:
    /// request `request` kW for the chunk's `dt`, returning the
    /// accepted/delivered power per lane.
    ///
    /// Both envelope branches run lane-wide with `ClcBattery::update`'s
    /// exact expression order; per-lane results are chosen bitwise. The
    /// `moving` mask reproduces the scalar early return for zero
    /// requests and inactive (battery-less) lanes: those lanes return
    /// `+0.0` and their state is untouched.
    #[inline(always)]
    pub fn step(&mut self, request: F64x4<N>, p: &LaneParams<N>) -> F64x4<N> {
        let one = F64x4::splat(1.0);

        // Scalar `update` returns ZERO untouched when the request is
        // zero (or the lane has no battery); `!=` treats -0.0 as zero,
        // matching `power == Power::ZERO`.
        let moving = self.active & request.ne(F64x4::ZERO);
        let charging = request.gt(F64x4::ZERO);
        let take_c = moving & charging;
        let take_d = moving & !charging;

        // Adjacent candidates see the same weather, so all lanes usually
        // agree on the branch — skip an entirely untaken side rather than
        // always paying both. A skipped side's lanes were discarded
        // bitwise by the selects below anyway (lanes never mix, so
        // dropping dead-lane arithmetic cannot perturb a kept lane), and
        // the untaken side carries ~4 vector divides, the most expensive
        // ops in the walk. Both sides read the pre-step `soc0`; the masks
        // are disjoint, so the sequential state updates equal the
        // original three-way select.
        let soc0 = self.soc;
        let mut ret = F64x4::ZERO;

        if take_c.any() {
            // Charge side (power > 0), exactly ClcBattery::update's order.
            let frac_c = ((one - soc0) / p.charge_taper_den).clamp01();
            let limit_c = soc0
                .le(p.charge_taper_soc)
                .select(self.pmax_charge, self.pmax_charge * frac_c);
            let p_c = request.min(limit_c);
            let headroom = (one - soc0) * self.cap;
            let max_term_c = headroom / p.eta;
            let term_c = (p_c * p.hours).min(max_term_c);
            let soc_c = (soc0 + term_c * p.eta / self.cap).min(one);
            let ret_c = term_c / p.hours;
            self.soc = take_c.select(soc_c, self.soc);
            ret = take_c.select(ret_c, ret);
        }

        if take_d.any() {
            // Discharge side (power <= 0).
            let frac_d = ((soc0 - p.min_soc) / p.discharge_width).clamp01();
            let limit_d = soc0
                .ge(p.discharge_taper_top)
                .select(self.pmax_discharge, self.pmax_discharge * frac_d);
            let p_d = (-request).min(limit_d);
            let usable = (soc0 - p.min_soc).max(F64x4::ZERO) * self.cap;
            let max_term_d = usable * p.eta;
            let term_d = (p_d * p.hours).min(max_term_d);
            let soc_d = (soc0 - term_d / p.eta / self.cap).max(p.min_soc);
            let ret_d = -(term_d / p.hours);
            self.soc = take_d.select(soc_d, self.soc);
            self.discharged = take_d.select(self.discharged + term_d, self.discharged);
            ret = take_d.select(ret_d, ret);
        }

        ret
    }

    /// Equivalent full cycles of lane `i` (0 on inactive lanes), same
    /// formula as `Storage::equivalent_full_cycles`.
    pub fn equivalent_full_cycles(&self, i: usize) -> f64 {
        if self.active.lane(i) {
            self.discharged.lane(i) / self.cap.lane(i)
        } else {
            0.0
        }
    }
}

// ---------------------------------------------------------------------
// Lane-wide dispatch policy
// ---------------------------------------------------------------------

/// A [`DispatchPolicy`] resolved once per chunk into its lane-wide form.
#[derive(Debug, Clone, Copy)]
pub enum LanePolicy<const N: usize = LANES> {
    /// SelfConsumption / Islanded: the request is the net bus power.
    Passthrough,
    /// Carbon-aware grid charging (threshold test is per-step scalar,
    /// the SoC test per lane).
    CarbonAware {
        /// Charge from the grid when CI is below this, g/kWh.
        ci_threshold: f64,
        /// Stop grid-charging at this SoC.
        target_soc: F64x4<N>,
    },
    /// Battery-sparing: small deficits don't discharge.
    Sparing {
        /// Deficits smaller than this are served from the grid, kW.
        threshold: F64x4<N>,
    },
}

impl<const N: usize> LanePolicy<N> {
    /// Resolve a scalar policy.
    pub fn new(policy: DispatchPolicy) -> Self {
        match policy {
            DispatchPolicy::SelfConsumption | DispatchPolicy::Islanded => LanePolicy::Passthrough,
            DispatchPolicy::CarbonAwareGridCharge {
                ci_threshold_g_per_kwh,
                target_soc,
            } => LanePolicy::CarbonAware {
                ci_threshold: ci_threshold_g_per_kwh,
                target_soc: F64x4::splat(target_soc),
            },
            DispatchPolicy::BatterySparing {
                deficit_threshold_kw,
            } => LanePolicy::Sparing {
                threshold: F64x4::splat(deficit_threshold_kw),
            },
        }
    }

    /// Lane-wide `DispatchPolicy::storage_request`.
    #[inline(always)]
    pub fn request(&self, p_delta: F64x4<N>, soc: F64x4<N>, ci: f64) -> F64x4<N> {
        match *self {
            LanePolicy::Passthrough => p_delta,
            LanePolicy::CarbonAware {
                ci_threshold,
                target_soc,
            } => {
                if ci < ci_threshold {
                    soc.lt(target_soc)
                        .select(F64x4::splat(f64::MAX / 4.0).max(p_delta), p_delta)
                } else {
                    p_delta
                }
            }
            LanePolicy::Sparing { threshold } => {
                (p_delta.lt(F64x4::ZERO) & (-p_delta).lt(threshold)).select(F64x4::ZERO, p_delta)
            }
        }
    }
}

/// Split the post-storage residual into (import, export, unmet) exactly
/// like the scalar three-way branch: negative residuals import (or go
/// unmet when islanded), non-negative residuals export.
#[inline(always)]
pub fn split_residual<const N: usize>(
    residual: F64x4<N>,
    islanded: bool,
) -> (F64x4<N>, F64x4<N>, F64x4<N>) {
    let neg = residual.lt(F64x4::ZERO);
    let export = neg.select(F64x4::ZERO, residual);
    if islanded {
        (F64x4::ZERO, export, neg.select(-residual, F64x4::ZERO))
    } else {
        (neg.select(-residual, F64x4::ZERO), export, F64x4::ZERO)
    }
}

// ---------------------------------------------------------------------
// Lane-wide accumulators
// ---------------------------------------------------------------------

/// Raw per-lane accumulators: unscaled sums of per-step kW values.
///
/// The scalar path multiplies by `dt_h` and divides by 1e3 on every step;
/// those are pure output transforms (nothing feeds back into simulation
/// state), so the walk applies them once, when it reads a lane out.
/// Inactive additions contribute `+0.0` (or the exact `-0.0` the scalar
/// else-branch adds), which never changes accumulator bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneAcc<const N: usize = LANES> {
    production: F64x4<N>,
    import: F64x4<N>,
    export: F64x4<N>,
    direct: F64x4<N>,
    charge: F64x4<N>,
    discharge: F64x4<N>,
    unmet: F64x4<N>,
    op_weighted: F64x4<N>,
    cost_import: F64x4<N>,
    cost_export: F64x4<N>,
    self_sufficient_steps: F64x4<N>,
}

impl<const N: usize> LaneAcc<N> {
    /// Record one step for all `N` lanes. All arguments are kW-scale
    /// except `ci` (g/kWh) and `price` ($/MWh); `demand` is the step's
    /// load.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        gen: F64x4<N>,
        demand: F64x4<N>,
        import: F64x4<N>,
        export: F64x4<N>,
        p_storage: F64x4<N>,
        unmet: F64x4<N>,
        ci: F64x4<N>,
        price: F64x4<N>,
    ) {
        self.production = self.production + gen;
        self.import = self.import + import;
        self.export = self.export + export;
        self.direct = self.direct + gen.min(demand).max(F64x4::ZERO);
        // Scalar: `if p_storage > 0 { charge += p } else { discharge += -p }`.
        // The uncharging lanes add +0.0 to `charge` (bit-preserving: the
        // accumulator is never -0.0) and the charging lanes add +0.0 to
        // `discharge`; the else-branch's `-p_storage` is added verbatim,
        // including the `-0.0` the scalar path adds for idle steps.
        let charging = p_storage.gt(F64x4::ZERO);
        self.charge = self.charge + charging.select(p_storage, F64x4::ZERO);
        self.discharge = self.discharge + charging.select(F64x4::ZERO, -p_storage);
        self.unmet = self.unmet + unmet;
        self.op_weighted = self.op_weighted + import * ci;
        self.cost_import = self.cost_import + import * price;
        self.cost_export = self.cost_export + export * price;
        // Exact small-integer counting in f64 (steps/year << 2^53).
        self.self_sufficient_steps = self.self_sufficient_steps
            + import
                .le(F64x4::splat(1e-9))
                .select(F64x4::splat(1.0), F64x4::ZERO);
    }

    /// Scale lane `i`'s raw sums into [`AnnualMetrics`] (mirrors the
    /// scalar `Accumulators::finish` formulas).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn metrics(
        &self,
        i: usize,
        comp: &Composition,
        cfg: &SimConfig,
        battery_cycles: f64,
        steps: usize,
        days: f64,
        demand_kwh: f64,
        dt_h: f64,
    ) -> AnnualMetrics {
        let import_kwh = self.import.lane(i) * dt_h;
        let op_kg = self.op_weighted.lane(i) * dt_h / 1e3;
        let op_t_total = op_kg / 1e3;
        let op_t_year = op_t_total * 365.0 / days.max(1e-9);
        let demand = demand_kwh.max(1e-12);
        let (cost_import, cost_export) = (self.cost_import.lane(i), self.cost_export.lane(i));
        let cost_usd = (cost_import - cost_export * cfg.export_price_factor) * dt_h / 1e3;
        let direct = self.direct.lane(i);
        AnnualMetrics {
            demand_mwh: demand_kwh / 1e3,
            production_mwh: self.production.lane(i) * dt_h / 1e3,
            grid_import_mwh: import_kwh / 1e3,
            grid_export_mwh: self.export.lane(i) * dt_h / 1e3,
            direct_use_mwh: direct * dt_h / 1e3,
            battery_charge_mwh: self.charge.lane(i) * dt_h / 1e3,
            battery_discharge_mwh: self.discharge.lane(i) * dt_h / 1e3,
            unmet_mwh: self.unmet.lane(i) * dt_h / 1e3,
            operational_t_per_day: op_t_total / days.max(1e-9),
            operational_t_per_year: op_t_year,
            embodied_t: cfg.embodied.total_t(comp),
            coverage: (1.0 - import_kwh / demand).clamp(0.0, 1.0),
            direct_coverage: (direct * dt_h / demand).clamp(0.0, 1.0),
            battery_cycles,
            self_sufficient_fraction: self.self_sufficient_steps.lane(i) / steps.max(1) as f64,
            energy_cost_usd: cost_usd,
        }
    }
}

// ---------------------------------------------------------------------
// Lane groups and the walk
// ---------------------------------------------------------------------

/// One site's inputs at one step, splatted across the lanes: PV per
/// installed kW, output per turbine, load (kW), grid CI (g/kWh, kept
/// scalar for the policy's threshold test) and price ($/MWh).
struct LaneInputs<const N: usize> {
    pv: F64x4<N>,
    wind: F64x4<N>,
    load: F64x4<N>,
    ci: f64,
    price: F64x4<N>,
}

/// One lane-width group of candidates at one site: generation
/// coefficients, battery state and accumulators for `N` consecutive
/// plans.
#[derive(Debug, Clone, Copy)]
pub struct LaneGroup<const N: usize = LANES> {
    /// Per-lane solar capacity, kW.
    pub solar: F64x4<N>,
    /// Per-lane wind turbine count.
    pub wind: F64x4<N>,
    /// Per-lane battery state.
    pub kernel: LaneKernel<N>,
    /// Per-lane raw accumulators.
    pub acc: LaneAcc<N>,
}

impl<const N: usize> LaneGroup<N> {
    /// Build a group from `N` compositions.
    pub fn new(comps: &[Composition; N], params: &ClcParams) -> Self {
        LaneGroup {
            solar: F64x4(comps.map(|c| c.solar_kw)),
            wind: F64x4(comps.map(|c| c.wind_turbines as f64)),
            kernel: LaneKernel::new(comps, params),
            acc: LaneAcc::default(),
        }
    }

    /// Advance every lane one step — generation, policy request, battery,
    /// residual split, accumulation — and return the per-lane grid import.
    #[inline(always)]
    fn step(
        &mut self,
        x: &LaneInputs<N>,
        params: &LaneParams<N>,
        policy: &LanePolicy<N>,
        islanded: bool,
    ) -> F64x4<N> {
        // The same mul/mul/add as `simulate_period` (no fused
        // multiply-add — rounding must match).
        let gen = self.solar * x.pv + self.wind * x.wind;
        let p_delta = gen - x.load;
        let request = policy.request(p_delta, self.kernel.soc(), x.ci);
        let p_storage = self.kernel.step(request, params);
        let (import, export, unmet) = split_residual(p_delta - p_storage, islanded);
        self.acc.record(
            gen,
            x.load,
            import,
            export,
            p_storage,
            unmet,
            F64x4::splat(x.ci),
            x.price,
        );
        import
    }
}

/// Advance one site's groups by one step, handing each group's first plan
/// index and per-lane grid import to `sink`.
///
/// Kept out of line, with the lane helpers it calls forced inline, so the
/// whole step compiles to one loop body like a hand-written walk. Left to
/// the compiler's heuristics, `LaneKernel::step` and `LaneAcc::record`
/// were outlined and passed their lane vectors through memory (measured
/// 2.7× slower); inlining this loop into the walk also measured slower.
#[inline(never)]
fn step_groups<const N: usize>(
    groups: &mut [LaneGroup<N>],
    x: &LaneInputs<N>,
    params: &LaneParams<N>,
    policy: &LanePolicy<N>,
    islanded: bool,
    mut sink: impl FnMut(usize, F64x4<N>),
) {
    for (g, p0) in groups.iter_mut().zip((0..).step_by(N)) {
        sink(p0, g.step(x, params, policy, islanded));
    }
}

/// Plans per parallel chunk: a multiple of [`LANES`], so only a cohort's
/// final chunk can hold padded lanes; 64 is the scheduling granularity /
/// state-locality sweet spot.
pub(crate) const CHUNK: usize = 64;

/// Steps per interleave block: sites advance in lockstep at block
/// granularity (their physics never couple — only the concurrent-import
/// metric does, which the block buffer keeps step-aligned). Large enough
/// to amortize the per-site loop setup, small enough that the buffer
/// (`BLOCK × CHUNK × 8` bytes ≈ 64 KiB) stays cache-resident.
const BLOCK: usize = 128;

/// The telemetry a walk reports under: the engine's stages and counters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WalkStages {
    pub(crate) prepare: Stage,
    pub(crate) kernel: Stage,
    pub(crate) chunks: Counter,
    pub(crate) rows: Counter,
}

/// One site's lane state within a chunk.
struct SiteLanes<'a, const N: usize> {
    cols: [&'a [f64]; 5],
    params: LaneParams<N>,
    policy: LanePolicy<N>,
    islanded: bool,
    record_soc: bool,
    groups: Vec<LaneGroup<N>>,
}

/// Evaluate a cohort of plans over `sites` for the first `n` steps
/// (`0 < n <=` the sites' shared horizon, checked by the callers).
///
/// `flat` holds one composition per (plan, site), plan-major:
/// `flat[p * sites.len() + s]`. Returns one result per entry of `flat`,
/// in the same order, and — when `track_peak` — each plan's peak
/// concurrent grid import, kW (empty otherwise).
pub(crate) fn walk(
    sites: &[FleetSite<'_>],
    flat: &[Composition],
    n: usize,
    track_peak: bool,
    backend: BatchBackend,
    stages: WalkStages,
) -> (Vec<AnnualResult>, Vec<f64>) {
    let ns = sites.len();
    let dt_h = sites[0].data.step().hours();
    // Demand is per-site, identical across plans: accumulate it once.
    let demand_kwh: Vec<f64> = sites
        .iter()
        .map(|s| s.load.values()[..n].iter().sum::<f64>() * dt_h)
        .collect();
    let chunks: Vec<&[Composition]> = flat.chunks(CHUNK * ns).collect();
    let walked: Vec<(Vec<AnnualResult>, Vec<f64>)> = chunks
        .into_par_iter()
        .map(|chunk| match backend {
            BatchBackend::Scalar => {
                walk_chunk::<1>(sites, chunk, n, &demand_kwh, track_peak, stages)
            }
            BatchBackend::Simd => {
                walk_chunk::<LANES>(sites, chunk, n, &demand_kwh, track_peak, stages)
            }
        })
        .collect();
    let mut results = Vec::with_capacity(flat.len());
    let mut peaks = Vec::new();
    for (r, p) in walked {
        results.extend(r);
        peaks.extend(p);
    }
    (results, peaks)
}

/// Walk one chunk of plans over `0..n`, `N` lanes per group.
fn walk_chunk<const N: usize>(
    sites: &[FleetSite<'_>],
    flat: &[Composition],
    n: usize,
    demand_kwh: &[f64],
    track_peak: bool,
    stages: WalkStages,
) -> (Vec<AnnualResult>, Vec<f64>) {
    let ns = sites.len();
    let m = flat.len() / ns;
    let dt = sites[0].data.step();
    let dt_h = dt.hours();
    let steps_per_hour = (3_600 / dt.secs()).max(1) as usize;

    let prepare_span = telemetry::span(stages.prepare);

    // Per site, group `g` holds plans `g*N .. g*N+N`; the final group is
    // padded with inert lanes.
    let mut lanes: Vec<SiteLanes<N>> = sites
        .iter()
        .enumerate()
        .map(|(s, site)| SiteLanes {
            cols: [
                site.data.pv_unit_kw.values(),
                site.data.wind_unit_kw.values(),
                site.load.values(),
                site.data.ci_g_per_kwh.values(),
                site.data.price_usd_per_mwh.values(),
            ],
            params: LaneParams::new(&site.cfg.battery, dt_h),
            policy: LanePolicy::new(site.cfg.policy),
            islanded: site.cfg.policy.is_islanded(),
            record_soc: site.cfg.record_soc,
            groups: (0..m)
                .step_by(N)
                .map(|p0| {
                    let comps: [Composition; N] = std::array::from_fn(|j| {
                        flat.get((p0 + j) * ns + s)
                            .copied()
                            .unwrap_or(Composition::BASELINE)
                    });
                    LaneGroup::new(&comps, &site.cfg.battery)
                })
                .collect(),
        })
        .collect();
    // Hourly SoC traces, site-major (`s * m + p`).
    let mut traces: Vec<Vec<f64>> = (0..ns * m)
        .map(|k| {
            if sites[k / m].cfg.record_soc {
                Vec::with_capacity(n / steps_per_hour + 1)
            } else {
                Vec::new()
            }
        })
        .collect();
    let mut peaks: Vec<f64> = vec![0.0; if track_peak { m } else { 0 }];
    let block = BLOCK.min(n);
    let mut import_buf = vec![0.0f64; block * m];

    drop(prepare_span);
    let kernel_span = telemetry::span(stages.kernel);

    for i0 in (0..n).step_by(block) {
        let i1 = (i0 + block).min(n);
        for (s, site) in lanes.iter_mut().enumerate() {
            let first_site = s == 0;
            let traces_s = &mut traces[s * m..(s + 1) * m];
            let SiteLanes {
                cols: [pv, wind, load, ci, price],
                params,
                policy,
                islanded,
                record_soc,
                groups,
            } = site;
            for (i, row) in (i0..i1).zip(import_buf.chunks_exact_mut(m)) {
                let x = LaneInputs {
                    pv: F64x4::splat(pv[i]),
                    wind: F64x4::splat(wind[i]),
                    load: F64x4::splat(load[i]),
                    ci: ci[i],
                    price: F64x4::splat(price[i]),
                };
                // Two instances of the group loop: the peak-free one is
                // the hot path of the batch engine and of uncapped fleet
                // searches, and carries no per-group branch.
                if track_peak {
                    step_groups(groups, &x, params, policy, *islanded, |p0, import| {
                        // Step-aligned fleet import: the first site
                        // overwrites the block buffer (no reset pass),
                        // later sites accumulate. Zipping with the row's
                        // tail stops at the last real plan, so padded
                        // lanes never land.
                        for (dst, v) in row[p0..].iter_mut().zip(import.0) {
                            *dst = if first_site { v } else { *dst + v };
                        }
                    });
                } else {
                    step_groups(groups, &x, params, policy, *islanded, |_, _| {});
                }
                if *record_soc && i % steps_per_hour == 0 {
                    for (g, p0) in groups.iter().zip((0..).step_by(N)) {
                        for (t, v) in traces_s[p0..].iter_mut().zip(g.kernel.soc().0) {
                            t.push(v);
                        }
                    }
                }
            }
        }
        // Fold the block's concurrent imports into the running peaks:
        // branchless f64::max over contiguous rows auto-vectorizes.
        if track_peak {
            for row in import_buf.chunks_exact(m).take(i1 - i0) {
                for (peak, &v) in peaks.iter_mut().zip(row) {
                    *peak = peak.max(v);
                }
            }
        }
    }

    drop(kernel_span);
    telemetry::add(stages.chunks, 1);
    telemetry::add(stages.rows, (m * ns * n) as u64);

    let days = n as f64 * dt_h / 24.0;
    let results = flat
        .iter()
        .enumerate()
        .map(|(k, comp)| {
            let (p, s) = (k / ns, k % ns);
            let g = &lanes[s].groups[p / N];
            let cycles = g.kernel.equivalent_full_cycles(p % N);
            AnnualResult {
                composition: *comp,
                metrics: g.acc.metrics(
                    p % N,
                    comp,
                    sites[s].cfg,
                    cycles,
                    n,
                    days,
                    demand_kwh[s],
                    dt_h,
                ),
                soc_trace_hourly: std::mem::take(&mut traces[s * m + p]),
            }
        })
        .collect();
    (results, peaks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::StorageKernel;
    use mgopt_units::{Power, SimDuration};

    #[test]
    fn arithmetic_matches_scalar_ops_bitwise() {
        let a = F64x4([1.5, -0.0, f64::MAX, 3.7e-310]);
        let b = F64x4([2.5, 0.0, 2.0, 1.1]);
        for i in 0..4 {
            assert_eq!((a + b).lane(i).to_bits(), (a.lane(i) + b.lane(i)).to_bits());
            assert_eq!((a - b).lane(i).to_bits(), (a.lane(i) - b.lane(i)).to_bits());
            assert_eq!((a * b).lane(i).to_bits(), (a.lane(i) * b.lane(i)).to_bits());
            assert_eq!((a / b).lane(i).to_bits(), (a.lane(i) / b.lane(i)).to_bits());
            assert_eq!(
                a.min(b).lane(i).to_bits(),
                a.lane(i).min(b.lane(i)).to_bits()
            );
            assert_eq!(
                a.max(b).lane(i).to_bits(),
                a.lane(i).max(b.lane(i)).to_bits()
            );
        }
    }

    #[test]
    fn select_is_a_bitwise_blend() {
        let a = F64x4([1.0, 2.0, -0.0, f64::NAN]);
        let b = F64x4([5.0, 6.0, 7.0, 8.0]);
        let m = Mask4([!0, 0, !0, !0]);
        let r = m.select(a, b);
        assert_eq!(r.lane(0), 1.0);
        assert_eq!(r.lane(1), 6.0);
        assert_eq!(r.lane(2).to_bits(), (-0.0f64).to_bits());
        assert!(r.lane(3).is_nan());
    }

    #[test]
    fn comparisons_treat_signed_zero_and_nan_like_ieee() {
        let z = F64x4([-0.0, 0.0, f64::NAN, 1.0]);
        let ne = z.ne(F64x4::ZERO);
        assert!(!ne.lane(0), "-0.0 == +0.0");
        assert!(!ne.lane(1));
        assert!(ne.lane(2), "NaN != NaN");
        assert!(ne.lane(3));
        assert!(!z.lt(F64x4::ZERO).lane(2), "NaN compares false");
    }

    #[test]
    fn mask_combinators() {
        let m = Mask4([!0, 0, !0, 0]);
        assert!(m.any());
        assert!(!(m & !m).any());
        assert_eq!((!m).0, [0, !0, 0, !0]);
    }

    #[test]
    fn lane_kernel_tracks_scalar_battery_bit_for_bit() {
        let params = ClcParams::default();
        let comps = [
            Composition::new(0, 0.0, 7_500.0),
            Composition::new(0, 0.0, 0.0), // null lane
            Composition::new(0, 0.0, 60_000.0),
            Composition::new(0, 0.0, 22_500.0),
        ];
        let dt = SimDuration::from_hours(1.0);
        let mut lanes = LaneKernel::new(&comps, &params);
        let lane_params = LaneParams::new(&params, dt.hours());
        let mut scalars: Vec<StorageKernel> = comps
            .iter()
            .map(|c| StorageKernel::for_composition(c, &params))
            .collect();
        // A request pattern hitting charge, discharge, idle and the
        // taper regions, identical across lanes.
        let reqs = [
            4_000.0, -2_000.0, 0.0, 12_000.0, 12_000.0, -9_000.0, -0.0, 800.0, -30_000.0, 5.0,
        ];
        for &r in reqs.iter().cycle().take(500) {
            let got = lanes.step(F64x4::splat(r), &lane_params);
            for (i, k) in scalars.iter_mut().enumerate() {
                let want = k.update_kw(Power::from_kw(r), dt);
                assert_eq!(
                    got.lane(i).to_bits(),
                    want.to_bits(),
                    "lane {i} request {r}"
                );
                assert_eq!(lanes.soc().lane(i).to_bits(), k.soc().to_bits(), "soc {i}");
            }
        }
        for (i, k) in scalars.iter().enumerate() {
            assert_eq!(
                lanes.equivalent_full_cycles(i).to_bits(),
                k.equivalent_full_cycles().to_bits(),
                "cycles {i}"
            );
        }
    }

    #[test]
    fn lane_policies_match_scalar_requests_bitwise() {
        let policies = [
            DispatchPolicy::SelfConsumption,
            DispatchPolicy::Islanded,
            DispatchPolicy::CarbonAwareGridCharge {
                ci_threshold_g_per_kwh: 330.0,
                target_soc: 0.9,
            },
            DispatchPolicy::BatterySparing {
                deficit_threshold_kw: 200.0,
            },
        ];
        let socs = F64x4([0.1, 0.5, 0.95, 0.0]);
        for policy in policies {
            let lane = LanePolicy::new(policy);
            for p_delta in [-500.0, -100.0, -0.0, 0.0, 50.0, 4_000.0] {
                for ci in [10.0, 400.0] {
                    let got = lane.request(F64x4::splat(p_delta), socs, ci);
                    for i in 0..4 {
                        let want = policy
                            .storage_request(Power::from_kw(p_delta), socs.lane(i), ci)
                            .kw();
                        assert_eq!(
                            got.lane(i).to_bits(),
                            want.to_bits(),
                            "{} lane {i} p_delta {p_delta} ci {ci}",
                            policy.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn split_residual_matches_scalar_branches() {
        let residuals = [-5.0, -0.0, 0.0, 3.0];
        for islanded in [false, true] {
            let (import, export, unmet) = split_residual(F64x4(residuals), islanded);
            for (i, &r) in residuals.iter().enumerate() {
                let (wi, we, wu) = if islanded && r < 0.0 {
                    (0.0, 0.0, -r)
                } else if r < 0.0 {
                    (-r, 0.0, 0.0)
                } else {
                    (0.0, r, 0.0)
                };
                assert_eq!(import.lane(i).to_bits(), wi.to_bits(), "import {r}");
                assert_eq!(export.lane(i).to_bits(), we.to_bits(), "export {r}");
                assert_eq!(unmet.lane(i).to_bits(), wu.to_bits(), "unmet {r}");
            }
        }
    }

    #[test]
    fn the_four_lane_walk_is_the_default() {
        assert_eq!(BatchBackend::default(), BatchBackend::Simd);
    }

    #[test]
    #[should_panic(expected = "invalid C/L/C parameters")]
    fn lane_kernel_panics_on_invalid_params_like_scalar() {
        let bad = ClcParams {
            discharge_taper_width: 0.0,
            ..ClcParams::default()
        };
        LaneKernel::new(&[Composition::new(0, 0.0, 100.0)], &bad);
    }
}
