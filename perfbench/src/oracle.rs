//! The correctness oracle. Every study the benchmark times is checked
//! bit for bit against a reference computed outside the timed window on
//! the scalar chunk walk (`BatchBackend::Scalar`), the engine's agreement
//! oracle.

use std::sync::Mutex;

use mgopt_core::wire::PlanPoint;
use mgopt_core::{FleetProblem, PreparedFleet};
use mgopt_microgrid::{AnnualResult, BatchBackend};
use mgopt_optimizer::{Nsga2Config, Nsga2Optimizer, OptimizationResult, Problem};

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// The empty digest.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Fold in one word, byte by byte.
    pub fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Fold in a float's exact bits.
    pub fn f64(self, x: f64) -> Self {
        self.word(x.to_bits())
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a search result: every sampled trial's genome, objective
/// bits and violation bits, in order, plus the trial counts.
pub fn digest_search(r: &OptimizationResult) -> u64 {
    let mut d = Digest::new()
        .word(r.sampled_trials as u64)
        .word(r.unique_evaluations as u64);
    for t in &r.history {
        d = d.word(t.genome.len() as u64);
        for &g in &t.genome {
            d = d.word(u64::from(g));
        }
        d = t
            .objectives
            .iter()
            .fold(d.word(t.objectives.len() as u64), |d, &x| d.f64(x));
        d = t
            .violations
            .iter()
            .fold(d.word(t.violations.len() as u64), |d, &x| d.f64(x));
    }
    d.finish()
}

/// Digest of a sweep: every composition and every annual metric's bits.
pub fn digest_sweep(rs: &[AnnualResult]) -> u64 {
    let mut d = Digest::new().word(rs.len() as u64);
    for r in rs {
        let c = &r.composition;
        d = d
            .word(u64::from(c.wind_turbines))
            .f64(c.solar_kw)
            .f64(c.battery_kwh);
        d = r.metrics.fields().iter().fold(d, |d, &(_, x)| d.f64(x));
        d = r.soc_trace_hourly.iter().fold(d, |d, &x| d.f64(x));
    }
    d.finish()
}

/// NSGA-II settings for a study budget.
pub fn nsga(population_size: usize, max_trials: usize, seed: u64) -> Nsga2Optimizer {
    Nsga2Optimizer::new(Nsga2Config {
        population_size,
        max_trials,
        seed,
        ..Nsga2Config::default()
    })
}

/// The scalar-walk reference search over `fleet`.
pub fn reference_search(
    fleet: &PreparedFleet,
    population_size: usize,
    max_trials: usize,
    seed: u64,
) -> OptimizationResult {
    let problem = FleetProblem::new(fleet).with_backend(BatchBackend::Scalar);
    nsga(population_size, max_trials, seed).run(&problem)
}

/// What the oracle compares of a daemon study's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Generations run, including generation 0.
    pub generations: u32,
    /// Trials sampled.
    pub sampled_trials: u64,
    /// Distinct genomes simulated.
    pub unique_evaluations: u64,
    /// [`digest_front`] of the final front.
    pub front: u64,
}

/// Digest of a front as the daemon encodes it: every genome, plan,
/// objective bit and violation bit, in order.
pub fn digest_front(front: &[PlanPoint]) -> u64 {
    let mut d = Digest::new().word(front.len() as u64);
    for p in front {
        d = p
            .genome
            .iter()
            .fold(d.word(p.genome.len() as u64), |d, &g| d.word(u64::from(g)));
        for c in &p.plan {
            d = d
                .word(u64::from(c.wind_turbines))
                .f64(c.solar_kw)
                .f64(c.battery_kwh);
        }
        d = p
            .objectives
            .iter()
            .fold(d.word(p.objectives.len() as u64), |d, &x| d.f64(x));
        d = d.f64(p.violation);
    }
    d.finish()
}

/// Run NSGA-II on `problem` the way the daemon does: the answer is the
/// front of the last generation plus the trial counts.
pub fn front_run(
    fleet: &PreparedFleet,
    problem: &dyn Problem,
    population_size: usize,
    max_trials: usize,
    seed: u64,
) -> Answer {
    let mut generations = 0;
    let mut front = Vec::new();
    let result = nsga(population_size, max_trials, seed).run_observed(problem, &mut |view| {
        generations = view.generation as u32 + 1;
        front = view
            .front
            .iter()
            .map(|(genome, eval)| PlanPoint {
                genome: genome.clone(),
                plan: genome
                    .iter()
                    .zip(&fleet.members)
                    .map(|(&g, m)| m.config.space.at(g as usize))
                    .collect(),
                objectives: eval.objectives.clone(),
                violation: eval.total_violation(),
            })
            .collect();
    });
    Answer {
        generations,
        sampled_trials: result.sampled_trials as u64,
        unique_evaluations: result.unique_evaluations as u64,
        front: digest_front(&front),
    }
}

/// The scalar-walk reference for a daemon study over `fleet`.
pub fn reference_front(
    fleet: &PreparedFleet,
    population_size: usize,
    max_trials: usize,
    seed: u64,
) -> Answer {
    let problem = FleetProblem::new(fleet).with_backend(BatchBackend::Scalar);
    front_run(fleet, &problem, population_size, max_trials, seed)
}

/// `f` over `items` on two threads (the benchmark's load never uses more),
/// results in input order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = Mutex::new(0usize);
    let out: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = {
                    let mut n = next.lock().expect("work index poisoned");
                    let i = *n;
                    *n += 1;
                    i
                };
                let Some(item) = items.get(i) else { break };
                *out[i].lock().expect("result slot poisoned") = Some(f(item));
            });
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every item was mapped")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgopt_microgrid::Composition;

    fn point(x: f64) -> PlanPoint {
        PlanPoint {
            genome: vec![1, 2],
            plan: vec![Composition::new(1, 4_000.0, 0.0); 2],
            objectives: vec![x, 2.0],
            violation: 0.0,
        }
    }

    #[test]
    fn front_digests_see_every_bit() {
        let d = |x: f64| digest_front(&[point(x)]);
        assert_eq!(d(1.0), d(1.0));
        assert_ne!(d(1.0), d(f64::from_bits(1.0f64.to_bits() + 1)));
        assert_ne!(d(0.0), d(-0.0));
        assert_ne!(digest_front(&[point(1.0)]), digest_front(&[]));
        let mut moved = point(1.0);
        moved.plan[1].battery_kwh = 7_500.0;
        assert_ne!(digest_front(&[moved]), d(1.0));
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = Digest::new().f64(1.0).finish();
        let b = Digest::new()
            .f64(f64::from_bits(1.0f64.to_bits() ^ 1))
            .finish();
        assert_ne!(a, b);
        assert_ne!(
            Digest::new().f64(0.0).finish(),
            Digest::new().f64(-0.0).finish()
        );
    }

    #[test]
    fn par_map_keeps_order() {
        let xs: Vec<u64> = (0..100).collect();
        assert_eq!(
            par_map(&xs, |x| x * 3),
            xs.iter().map(|x| x * 3).collect::<Vec<_>>()
        );
    }
}
