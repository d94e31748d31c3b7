//! The in-process workloads: `search_paper` (NSGA-II over the fleet
//! engine) and `sweep_sites` (the single-site batch engine).

use std::time::Instant;

use mgopt_core::{
    sweep_all, sweep_all_with_backend, FleetProblem, FleetScenario, PreparedScenario,
    ScenarioConfig,
};
use mgopt_microgrid::BatchBackend;

use crate::gen;
use crate::harness::{fleet_layers, overhead, replay_prepare, setup_reps, traced, write_trace};
use crate::oracle::{self, digest_search, digest_sweep};
use crate::report::{self, peak_rss_mib, Layers, Run};
use crate::stats::mean;
use crate::trace::{Recorder, Span, TracedProblem};
use crate::Args;

/// The paper's NSGA-II budget.
const PAPER_POPULATION: usize = 50;
const PAPER_TRIALS: usize = 350;

struct StudyRec {
    k: u64,
    seed: u64,
    ms: f64,
    traced: bool,
    digest: u64,
    sampled: usize,
    unique: usize,
}

/// `search_paper`: one paper-budget NSGA-II study at a time over the
/// prepared two-site paper fleet.
pub fn search_paper(args: &Args) -> Run {
    let (setup_s, fleet) = setup_reps(|| FleetScenario::paper().prepare());
    let problem = FleetProblem::new(&fleet);
    let rec = Recorder::new();
    let mut roots = Vec::new();
    let mut studies = Vec::new();

    let steal0 = report::steal_s();
    let t0 = Instant::now();
    let deadline = t0 + args.window();
    let mut k = 0u64;
    while Instant::now() < deadline {
        let seed = gen::search_seed(args.seed, k);
        let search = oracle::nsga(PAPER_POPULATION, PAPER_TRIALS, seed);
        let traced = traced(args, k);
        let t = Instant::now();
        let result = if traced {
            let root = rec.open("study", Some(k), None);
            let tp = TracedProblem {
                inner: &problem,
                recorder: &rec,
                study: k,
                parent: root,
            };
            let r = search.run(&tp);
            rec.close(root, 0);
            roots.push(root);
            r
        } else {
            search.run(&problem)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        studies.push(StudyRec {
            k,
            seed,
            ms,
            traced,
            digest: digest_search(&result),
            sampled: result.sampled_trials,
            unique: result.unique_evaluations,
        });
        k += 1;
    }
    let window_s = t0.elapsed().as_secs_f64();
    let peak = peak_rss_mib();

    let refs = oracle::par_map(&studies, |s| {
        digest_search(&oracle::reference_search(
            &fleet,
            PAPER_POPULATION,
            PAPER_TRIALS,
            s.seed,
        ))
    });
    let failed = studies
        .iter()
        .zip(&refs)
        .filter(|(s, r)| {
            let bad = s.digest != **r;
            if bad {
                eprintln!(
                    "search_paper study {}: result differs from the scalar reference",
                    s.k
                );
            }
            bad
        })
        .count() as u64;

    let mut layers = Layers::default();
    if args.trace {
        let spans = rec.spans();
        let steps = fleet.members[0].data.len();
        fleet_layers(&mut layers, &spans, &roots, fleet.n_sites(), steps);
        let t: Vec<&StudyRec> = studies.iter().filter(|s| s.traced).collect();
        let n = t.len().max(1) as f64;
        let sampled: usize = t.iter().map(|s| s.sampled).sum();
        let unique: usize = t.iter().map(|s| s.unique).sum();
        layers.set("optimizer.sampled_trials", sampled as f64 / n);
        layers.set(
            "optimizer.unique_ratio",
            unique as f64 / sampled.max(1) as f64,
        );
        let configs: Vec<ScenarioConfig> = fleet.members.iter().map(|m| m.config.clone()).collect();
        layers.set("prepare.site_ms", replay_prepare(&rec, &configs, 3));
        overhead(
            &mut layers,
            &studies.iter().map(|s| (s.traced, s.ms)).collect::<Vec<_>>(),
        );
        layers.set("trace.studies", t.len() as f64);
        write_trace(&rec, args, "search_paper");
    }

    Run {
        setup_s,
        latencies_ms: studies.iter().map(|s| s.ms).collect(),
        window_s,
        attempted: studies.len() as u64,
        failed,
        peak_rss_mib: peak,
        steal_share: report::steal_share(steal0, window_s),
        layers,
    }
}

/// `sweep_sites`: full-space sweeps of the prepared Houston and Berkeley
/// paper scenarios, alternating; one site's sweep is one study.
pub fn sweep_sites(args: &Args) -> Run {
    let (setup_s, sites) = setup_reps(|| -> [PreparedScenario; 2] {
        [
            ScenarioConfig::paper_houston().prepare(),
            ScenarioConfig::paper_berkeley().prepare(),
        ]
    });
    let rec = Recorder::new();
    let mut studies: Vec<(u64, f64, bool, u64)> = Vec::new();

    let steal0 = report::steal_s();
    let t0 = Instant::now();
    let deadline = t0 + args.window();
    let mut k = 0u64;
    while Instant::now() < deadline {
        let site = &sites[(k % 2) as usize];
        let traced = traced(args, k);
        let t = Instant::now();
        let results = if traced {
            let id = rec.open("sweep.site", Some(k), None);
            let r = sweep_all(site);
            rec.close(id, r.len() as u64);
            r
        } else {
            sweep_all(site)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        studies.push((k, ms, traced, digest_sweep(&results)));
        k += 1;
    }
    let window_s = t0.elapsed().as_secs_f64();
    let peak = peak_rss_mib();

    let refs = oracle::par_map(&sites, |s| {
        digest_sweep(&sweep_all_with_backend(s, BatchBackend::Scalar))
    });
    let failed = studies
        .iter()
        .filter(|(k, _, _, d)| {
            let bad = *d != refs[(k % 2) as usize];
            if bad {
                eprintln!("sweep_sites study {k}: sweep differs from the scalar reference");
            }
            bad
        })
        .count() as u64;

    let mut layers = Layers::default();
    if args.trace {
        let spans = rec.spans();
        let sweeps: Vec<&Span> = spans.iter().filter(|s| s.name == "sweep.site").collect();
        let busy: Vec<f64> = sweeps.iter().map(|s| s.dur_ns() as f64 / 1e6).collect();
        layers.set("engine.batch_busy_ms", mean(&busy));
        layers.set("trace.study_ms_mean", mean(&busy));
        let busy_ns: u64 = sweeps.iter().map(|s| s.dur_ns()).sum();
        let rows: u64 = sweeps.iter().map(|s| s.work).sum();
        let steps = sites[0].data.len() as f64;
        layers.set(
            "engine.batch_ns_per_site_step",
            busy_ns as f64 / (rows.max(1) as f64 * steps),
        );
        let configs: Vec<ScenarioConfig> = sites.iter().map(|s| s.config.clone()).collect();
        layers.set("prepare.site_ms", replay_prepare(&rec, &configs, 3));
        overhead(
            &mut layers,
            &studies.iter().map(|s| (s.2, s.1)).collect::<Vec<_>>(),
        );
        layers.set("trace.studies", sweeps.len() as f64);
        write_trace(&rec, args, "sweep_sites");
    }

    Run {
        setup_s,
        latencies_ms: studies.iter().map(|s| s.1).collect(),
        window_s,
        attempted: studies.len() as u64,
        failed,
        peak_rss_mib: peak,
        steal_share: report::steal_share(steal0, window_s),
        layers,
    }
}
