//! Metric names, units and the result line.

use std::collections::BTreeMap;

use crate::stats;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["search_paper", "sweep_sites", "serve_small", "serve_cold"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("study_ms_p50", "ms"),
    ("study_ms_p90", "ms"),
    ("studies_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A workload that never
/// enters a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("prepare.site_ms", "ms"),
    ("prepare.calls", "calls/study"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookups", "count"),
    ("engine.fleet_calls", "calls/study"),
    ("engine.fleet_rows", "rows/study"),
    ("engine.fleet_busy_ms", "ms"),
    ("engine.fleet_ns_per_site_step", "ns"),
    ("engine.fleet_share", "ratio"),
    ("engine.batch_busy_ms", "ms"),
    ("engine.batch_ns_per_site_step", "ns"),
    ("optimizer.self_ms", "ms"),
    ("optimizer.generations", "count"),
    ("optimizer.unique_ratio", "ratio"),
    ("optimizer.sampled_trials", "count"),
    ("server.accept_ms", "ms"),
    ("server.queued_ratio", "ratio"),
    ("server.wall_ms", "ms"),
    ("server.outside_ms", "ms"),
    ("wire.frames_per_study", "count"),
    ("wire.bytes_per_study", "bytes"),
    ("wire.parse_request_us", "us"),
    ("wire.encode_response_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.study_ms_mean", "ms"),
    ("trace.studies", "count"),
];

/// Per-layer values of one traced run, keyed by [`PER_LAYER`] name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Set a per-layer metric.
    ///
    /// # Panics
    /// Panics on a name outside [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Each set-up's duration, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every study that completed in the timed window, ms.
    pub latencies_ms: Vec<f64>,
    /// Length of the timed window, seconds.
    pub window_s: f64,
    /// Studies started.
    pub attempted: u64,
    /// Error frames, wrong results and unfinished studies.
    pub failed: u64,
    /// Peak resident memory, MiB.
    pub peak_rss_mib: f64,
    /// Share of the machine's CPU time the hypervisor took during the
    /// timed window (steal), when the kernel reports it.
    pub steal_share: Option<f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: Layers,
}

/// One printed metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    note: String,
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    let correct = run.attempted - run.failed;
    let mut out = Vec::new();
    let mut push = |name, value: f64, note: String| {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("end-to-end metric is listed");
        out.push(Metric {
            name,
            unit,
            value,
            note,
        });
    };
    if let Some(v) = stats::median(&run.setup_s) {
        push(
            "setup_s",
            v,
            format!("median of {} set-ups", run.setup_s.len()),
        );
    }
    if let Some(v) = stats::median(&run.latencies_ms) {
        push("study_ms_p50", v, format!("n={}", run.latencies_ms.len()));
    }
    match stats::tail(&run.latencies_ms, 90.0) {
        Some(t) => push(
            "study_ms_p90",
            t.value,
            format!("n={}, {} beyond", t.samples, t.beyond),
        ),
        None => eprintln!(
            "study_ms_p90 not reported: {} samples leave fewer than {} beyond it",
            run.latencies_ms.len(),
            stats::MIN_BEYOND
        ),
    }
    push(
        "studies_per_s",
        correct as f64 / run.window_s.max(f64::MIN_POSITIVE),
        format!("{correct} correct in {:.3} s", run.window_s),
    );
    push("peak_rss_mb", run.peak_rss_mib, "VmHWM".into());
    out
}

fn per_layer(run: &Run) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: run.layers.get(name),
            note: String::new(),
        })
        .collect()
}

/// Print the human-readable report, then the result line: one JSON
/// object with `correct`, `attempted`, `failed` and the end-to-end
/// (`trace == false`) or per-layer (`trace == true`) metrics.
pub fn print(workload: &str, run: &Run, trace: bool) {
    let e2e = end_to_end(run);
    let layers = if trace { per_layer(run) } else { Vec::new() };
    println!("workload {workload}");
    for m in e2e.iter().chain(&layers) {
        println!(
            "  {:<32} {:>14.6} {:<12} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    if let Some(steal) = run.steal_share {
        println!(
            "  host steal during the window: {:.1}% of CPU time (timings are noisier when high)",
            steal * 100.0
        );
    }
    println!(
        "  {:<32} {:>14.6} {:<12} {} failed of {} attempted",
        "fail_ratio",
        run.failed as f64 / run.attempted.max(1) as f64,
        "failed/attempted",
        run.failed,
        run.attempted
    );
    let metrics: Vec<String> = (if trace { &layers } else { &e2e })
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0 && run.attempted > 0,
        run.attempted,
        run.failed,
        metrics.join(", ")
    );
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor has stolen from this machine so far, seconds
/// (the `steal` column of `/proc/stat`, in USER_HZ = 100 ticks).
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: f64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
    Some(ticks / 100.0)
}

/// Steal during a window that began at `start` (a [`steal_s`] reading)
/// and lasted `window_s`, as a share of all cores' time.
pub fn steal_share(start: Option<f64>, window_s: f64) -> Option<f64> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    Some((steal_s()? - start?) / (window_s * cores))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
    pub fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn listed(section: &serde::Value) -> Vec<(String, String)> {
        section
            .as_seq()
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn every_name_fits_the_grammar() {
        let names = WORKLOADS
            .iter()
            .chain(END_TO_END.iter().map(|(n, _)| n))
            .chain(PER_LAYER.iter().map(|(n, _)| n));
        for n in names {
            assert!(valid_name(n), "{n}");
        }
        for bad in ["", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        let mut all: Vec<&str> = PER_LAYER
            .iter()
            .chain(&END_TO_END)
            .map(|(n, _)| *n)
            .collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are used once");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let spec: serde::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let own = |xs: &[(&str, &str)]| {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(listed(spec.get("end_to_end").unwrap()), own(&END_TO_END));
        assert_eq!(listed(spec.get("per_layer").unwrap()), own(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(|w| w.as_seq())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn layers_reject_unknown_names() {
        let r = std::panic::catch_unwind(|| Layers::default().set("engine.nope", 1.0));
        assert!(r.is_err());
    }
}
