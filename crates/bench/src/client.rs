//! Client-side helpers shared by the daemon bins (`server_bench`,
//! `server_soak`): the study they submit, the standalone oracle its
//! daemon front must equal, and request-frame writing.

use std::io::Write;

use mgopt_core::wire::{
    encode_request, FleetSpec, PlanPoint, Request, RequestFrame, StudyBudget, StudyRequest,
    WIRE_VERSION,
};
use mgopt_core::FleetProblem;
use mgopt_microgrid::CompositionSpace;
use mgopt_optimizer::{Nsga2Config, Nsga2Optimizer};

/// An unstreamed NSGA-II study of the paper fleet over a 2 × 2 × 2
/// composition space per site (64 plans).
pub fn study(seed: u64, population_size: usize, max_trials: usize) -> StudyRequest {
    StudyRequest {
        fleet: FleetSpec::Preset("paper".into()),
        space: Some(CompositionSpace {
            wind_choices: vec![0, 4],
            solar_choices_kw: vec![0.0, 16_000.0],
            battery_choices_kwh: vec![0.0, 22_500.0],
        }),
        objectives: None,
        budget: StudyBudget {
            population_size,
            max_trials,
            seed,
        },
        peak_cap_kw: None,
        stream: false,
    }
}

/// The front a standalone (no daemon) run produces for `study`, honouring
/// its `peak_cap_kw` the way the daemon does.
pub fn standalone_front(study: &StudyRequest) -> Vec<PlanPoint> {
    let fleet = study.resolved_scenario().expect("valid study").prepare();
    let mut problem = FleetProblem::new(&fleet);
    if let Some(cap) = study.peak_cap_kw {
        problem = problem.with_peak_cap_kw(cap);
    }
    let optimizer = Nsga2Optimizer::new(Nsga2Config {
        population_size: study.budget.population_size,
        max_trials: study.budget.max_trials,
        seed: study.budget.seed,
        ..Nsga2Config::default()
    });
    let mut last = Vec::new();
    optimizer.run_observed(&problem, &mut |view| {
        last = view
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
    last
}

/// Write one request frame (`id`, `req`) as a wire line.
pub fn send_frame(mut writer: impl Write, id: &str, req: Request) {
    let frame = RequestFrame {
        v: WIRE_VERSION,
        id: id.into(),
        req,
    };
    writeln!(writer, "{}", encode_request(&frame)).expect("daemon connection writable");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_front_honours_the_peak_cap() {
        let uncapped = study(1, 6, 12);
        assert!(standalone_front(&uncapped)
            .iter()
            .all(|p| p.violation == 0.0));
        // No plan of the paper fleet keeps its concurrent grid import
        // under 1 kW, so a capped front consists of violating plans only.
        let capped = StudyRequest {
            peak_cap_kw: Some(1.0),
            ..uncapped
        };
        let front = standalone_front(&capped);
        assert!(!front.is_empty() && front.iter().all(|p| p.violation > 0.0));
    }
}
