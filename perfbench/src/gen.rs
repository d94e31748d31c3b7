//! Seeded input generation. Every input a workload hands the program —
//! NSGA-II seeds, `serve_cold` site seeds, request lines — is a pure
//! function of the workload seed and the study index, so the same seed
//! gives the same inputs however the studies interleave in time.

use mgopt_core::wire::{
    encode_request, resolve_preset, FleetSpec, Request, RequestFrame, StudyBudget, StudyRequest,
    WIRE_VERSION,
};
use mgopt_core::FleetScenario;
use mgopt_microgrid::CompositionSpace;

/// Independent seed streams derived from one workload seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// NSGA-II seed of study `k`.
    Search = 1,
    /// Site seed of `serve_cold` study `k`'s members.
    ColdMember = 2,
    /// The daemon warm-up study.
    Warmup = 3,
}

/// SplitMix64 finalizer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `k`-th value of `stream` under workload seed `seed`.
pub fn derive(seed: u64, stream: Stream, k: u64) -> u64 {
    mix64(mix64(mix64(seed) ^ stream as u64) ^ k)
}

/// NSGA-II seed of study `k`.
pub fn search_seed(seed: u64, k: u64) -> u64 {
    derive(seed, Stream::Search, k)
}

/// Correlation id of study `k` on the wire.
pub fn study_id(k: u64) -> String {
    format!("s{k}")
}

/// Study index of a correlation id made by [`study_id`].
pub fn study_index(id: &str) -> Option<u64> {
    id.strip_prefix('s')?.parse().ok()
}

/// The `serve_small` study: the `paper-tiny` preset, pop 16 / 64 trials,
/// streamed.
pub fn small_study(nsga_seed: u64) -> StudyRequest {
    StudyRequest {
        fleet: FleetSpec::Preset("paper-tiny".into()),
        space: None,
        objectives: None,
        budget: StudyBudget {
            population_size: 16,
            max_trials: 64,
            seed: nsga_seed,
        },
        peak_cap_kw: None,
        stream: true,
    }
}

/// The `paper-tiny` fleet as the daemon resolves it.
pub fn paper_tiny() -> FleetScenario {
    resolve_preset("paper-tiny").expect("paper-tiny is a known preset")
}

/// Site seeds of `serve_cold` study `k`'s two members.
pub fn cold_member_seeds(seed: u64, k: u64) -> [u64; 2] {
    [
        derive(seed, Stream::ColdMember, 2 * k),
        derive(seed, Stream::ColdMember, 2 * k + 1),
    ]
}

/// The `serve_cold` study `k`: an inline two-site paper fleet over the
/// tiny space whose members carry fresh site seeds, so every member
/// misses the daemon's prepared cache.
pub fn cold_study(seed: u64, k: u64) -> StudyRequest {
    let mut fleet = FleetScenario::paper();
    for (m, s) in fleet.members.iter_mut().zip(cold_member_seeds(seed, k)) {
        m.scenario.space = CompositionSpace::tiny();
        m.scenario.seed = s;
    }
    StudyRequest {
        fleet: FleetSpec::Inline(fleet),
        space: None,
        objectives: None,
        budget: StudyBudget {
            population_size: 16,
            max_trials: 64,
            seed: search_seed(seed, k),
        },
        peak_cap_kw: None,
        stream: false,
    }
}

/// One request line (no trailing newline).
pub fn request_line(id: &str, study: StudyRequest) -> String {
    encode_request(&RequestFrame {
        v: WIRE_VERSION,
        id: id.to_string(),
        req: Request::Study(study),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(seed: u64) -> Vec<String> {
        (0..6u64)
            .flat_map(|k| {
                [
                    request_line(&study_id(k), small_study(search_seed(seed, k))),
                    request_line(&study_id(k), cold_study(seed, k)),
                ]
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_request_lines() {
        assert_eq!(lines(1), lines(1));
        assert_eq!(lines(987_654_321), lines(987_654_321));
    }

    #[test]
    fn different_seeds_give_different_cold_member_seeds() {
        let a: Vec<u64> = (0..64).flat_map(|k| cold_member_seeds(1, k)).collect();
        let b: Vec<u64> = (0..64).flat_map(|k| cold_member_seeds(2, k)).collect();
        assert!(a.iter().all(|s| !b.contains(s)));
        assert_ne!(lines(1), lines(2));
    }

    #[test]
    fn cold_member_seeds_are_fresh_within_a_run() {
        let mut all: Vec<u64> = (0..4096).flat_map(|k| cold_member_seeds(7, k)).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a repeated member seed would hit the cache");
    }

    #[test]
    fn cold_requests_carry_their_member_seeds() {
        let StudyRequest {
            fleet: FleetSpec::Inline(fleet),
            ..
        } = cold_study(5, 3)
        else {
            panic!("serve_cold studies are inline fleets");
        };
        let seeds: Vec<u64> = fleet.members.iter().map(|m| m.scenario.seed).collect();
        assert_eq!(seeds, cold_member_seeds(5, 3));
    }

    #[test]
    fn study_ids_round_trip() {
        assert_eq!(study_index(&study_id(42)), Some(42));
        assert_eq!(study_index("x1"), None);
    }
}
