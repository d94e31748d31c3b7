//! What every workload shares: repeated set-up, the choice of traced
//! studies, replays, and the per-layer metrics derived from spans.

use std::time::{Duration, Instant};

use mgopt_core::ScenarioConfig;

use crate::report::Layers;
use crate::stats::median;
use crate::trace::{coverage_ns, self_time_ns, Recorder, Span};
use crate::Args;

/// Set-ups per run: at least this many, and more until they add up to
/// [`SETUP_MIN_TOTAL`], so the reported median rests on enough samples
/// even when one set-up takes well under a millisecond.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 40;
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(300);

/// Run `setup` repeatedly; return every duration (seconds) and the last
/// result. Earlier results are dropped (and so torn down) before the next
/// set-up starts.
pub fn setup_reps<T>(mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    let mut total = Duration::ZERO;
    loop {
        let t = Instant::now();
        let value = setup();
        let dt = t.elapsed();
        times.push(dt.as_secs_f64());
        total += dt;
        let enough = times.len() >= SETUP_MIN_REPS && total >= SETUP_MIN_TOTAL;
        if enough || times.len() >= SETUP_MAX_REPS {
            return (times, value);
        }
    }
}

/// Whether study `k` is traced in a `--trace 1` run. Studies alternate in
/// pairs, so traced and untraced studies share the run's conditions and
/// their latency ratio is the trace's overhead; pairs (not single
/// studies) keep the two daemon connections, which take even and odd
/// indices, on both sides.
pub fn traced(args: &Args, k: u64) -> bool {
    args.trace && (k / 2) % 2 == 1
}

/// Time `ScenarioConfig::prepare` on `configs` (`reps` passes) as
/// `replay.prepare` spans; returns the median call, ms.
pub fn replay_prepare(rec: &Recorder, configs: &[ScenarioConfig], reps: usize) -> f64 {
    let mut ms = Vec::new();
    for _ in 0..reps {
        for c in configs {
            let id = rec.open("replay.prepare", None, None);
            let t = Instant::now();
            let prepared = c.prepare();
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            rec.close(id, prepared.data.len() as u64);
        }
    }
    median(&ms).unwrap_or(0.0)
}

/// Spans named `name` whose parent is `root`.
fn children<'a>(spans: &'a [Span], root: usize, name: &str) -> Vec<&'a Span> {
    spans
        .iter()
        .filter(|s| s.parent == Some(root) && s.name == name)
        .collect()
}

/// Engine and search-bookkeeping layers of traced studies whose root
/// spans are `roots` and whose cohort evaluations are `engine.fleet`
/// children; `steps` is the simulated steps per site. Returns the mean
/// engine busy time per study, ms.
pub fn fleet_layers(
    layers: &mut Layers,
    spans: &[Span],
    roots: &[usize],
    sites: usize,
    steps: usize,
) -> f64 {
    let (mut calls, mut rows, mut busy, mut wall, mut own) = (0usize, 0u64, 0u64, 0u64, 0u64);
    for &r in roots {
        let kids = children(spans, r, "engine.fleet");
        let iv: Vec<(u64, u64)> = kids.iter().map(|c| (c.start_ns, c.end_ns)).collect();
        calls += kids.len();
        rows += kids.iter().map(|c| c.work).sum::<u64>();
        busy += coverage_ns(spans[r].start_ns, spans[r].end_ns, &iv);
        wall += spans[r].dur_ns();
        own += self_time_ns(&spans[r], &kids);
    }
    let n = roots.len().max(1) as f64;
    layers.set("engine.fleet_calls", calls as f64 / n);
    // NSGA-II evaluates one cohort per generation, generation 0 included.
    layers.set("optimizer.generations", calls as f64 / n);
    layers.set("engine.fleet_rows", rows as f64 / n);
    layers.set("engine.fleet_busy_ms", busy as f64 / n / 1e6);
    let site_steps = rows as f64 * (sites * steps) as f64;
    if site_steps > 0.0 {
        layers.set("engine.fleet_ns_per_site_step", busy as f64 / site_steps);
    }
    layers.set("optimizer.self_ms", own as f64 / n / 1e6);
    layers.set("trace.study_ms_mean", wall as f64 / n / 1e6);
    if wall > 0 {
        layers.set("engine.fleet_share", busy as f64 / wall as f64);
    }
    busy as f64 / n / 1e6
}

/// `trace.overhead_ratio`: traced ÷ untraced median latency.
pub fn overhead(layers: &mut Layers, samples: &[(bool, f64)]) {
    let side = |t: bool| -> Vec<f64> { samples.iter().filter(|s| s.0 == t).map(|s| s.1).collect() };
    if let (Some(on), Some(off)) = (median(&side(true)), median(&side(false))) {
        layers.set("trace.overhead_ratio", on / off);
    }
}

/// Write the run's spans beside the benchmark, one JSON object per line.
pub fn write_trace(rec: &Recorder, args: &Args, workload: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}-seed{}.jsonl", args.seed));
    match rec.write_jsonl(&path) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => eprintln!("could not write the trace to {}: {e}", path.display()),
    }
}
