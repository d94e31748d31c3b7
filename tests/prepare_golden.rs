//! Bit-level pinning of prepared scenario inputs.
//!
//! Every `f64` bit of the five prepared series (`pv_unit_kw`,
//! `wind_unit_kw`, `ci_g_per_kwh`, `price_usd_per_mwh`, `load`) is folded
//! into an FNV-1a digest and compared with a committed value, for both
//! case-study sites × three seeds × two step sizes. Any reorganisation of
//! the preparation pipeline (precomputed tables, hoisted constants, a
//! different evaluation order) must leave these digests untouched; a
//! changed digest means a changed input year, which silently changes every
//! downstream result.

use std::sync::Arc;

use microgrid_opt::core::cache::PreparedCache;
use microgrid_opt::core::{PreparedScenario, ScenarioConfig, SitePreset};
use microgrid_opt::prelude::CompositionSpace;

fn fnv1a_bits(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn config(site: SitePreset, seed: u64, step_minutes: u32) -> ScenarioConfig {
    ScenarioConfig {
        site,
        seed,
        step_minutes,
        space: CompositionSpace::tiny(),
        ..ScenarioConfig::paper_houston()
    }
}

/// `[pv, wind, ci, price, load]` digests of one prepared scenario.
fn digests(p: &PreparedScenario) -> [u64; 5] {
    [
        fnv1a_bits(p.data.pv_unit_kw.values()),
        fnv1a_bits(p.data.wind_unit_kw.values()),
        fnv1a_bits(p.data.ci_g_per_kwh.values()),
        fnv1a_bits(p.data.price_usd_per_mwh.values()),
        fnv1a_bits(p.load.values()),
    ]
}

/// `(site, seed, step_minutes, [pv, wind, ci, price, load])`.
#[rustfmt::skip]
const GOLDEN: &[(SitePreset, u64, u32, [u64; 5])] = &[
    (SitePreset::Houston, 1, 60, [0x923e059813ce535a, 0xc3a7b70f7034fa0c, 0x409f6b330e50356c, 0x0dbbcda333cbd386, 0xca7cb4a0d448359b]),
    (SitePreset::Houston, 1, 15, [0x9940a37a54698997, 0xd3f9e975845a51b5, 0x6bfcaca2bb67392e, 0xc4b44d91ed6a6a71, 0x88034b0b34356ade]),
    (SitePreset::Houston, 42, 60, [0xbd3adc8e100f5ae9, 0xc0ea0289181dc5e0, 0xa99dff58c6241981, 0x78a1bff9c418410d, 0x0aee648c989cc598]),
    (SitePreset::Houston, 42, 15, [0xdf8b6af11581df10, 0x892730da8ecd6fcb, 0x36095a1fe7df3a3a, 0xb1f3d8f442a8c5b2, 0x1abe09e76fd3c9f6]),
    (SitePreset::Houston, 20_261_017, 60, [0x8f39988959bf86c8, 0x3301e826ebbb2052, 0x954082330f5908ae, 0x654d0b1d4287a17e, 0x71b37cc3f9244061]),
    (SitePreset::Houston, 20_261_017, 15, [0xa9513e4135249ab1, 0x9d07219aca756e57, 0xef1840e15b38f109, 0x696d680095b58179, 0xa776802b858df495]),
    (SitePreset::Berkeley, 1, 60, [0x0b6df88be3031f45, 0x1ee4b6e212d141f4, 0x84d39a5d34c09694, 0x07af5493859a60ae, 0xca7cb4a0d448359b]),
    (SitePreset::Berkeley, 1, 15, [0x18da634e3edd4087, 0x46263fa5bd7e7c09, 0xec1dada1fbde1c3c, 0xb44365762d3529a5, 0x88034b0b34356ade]),
    (SitePreset::Berkeley, 42, 60, [0x0eac09a0aeaf9188, 0x5474ed9a08356ba5, 0xdbfb656e6e7bdcab, 0x07af5493859a60ae, 0x0aee648c989cc598]),
    (SitePreset::Berkeley, 42, 15, [0x3c3af6a08d1090fd, 0x660b13d3fab248f7, 0x1c7ed1c7eac386e5, 0xb44365762d3529a5, 0x1abe09e76fd3c9f6]),
    (SitePreset::Berkeley, 20_261_017, 60, [0x2051d3499de4f460, 0x78ea17bb976163a1, 0x97fcb8b1bb34b3ce, 0x07af5493859a60ae, 0x71b37cc3f9244061]),
    (SitePreset::Berkeley, 20_261_017, 15, [0x1e3c0a47b13cd684, 0x173ab0ebf58ba940, 0xe18dfd4398eca829, 0xb44365762d3529a5, 0xa776802b858df495]),
];

#[test]
fn prepared_series_match_committed_digests() {
    let mut mismatches = Vec::new();
    for &(site, seed, step, expected) in GOLDEN {
        let got = digests(&config(site, seed, step).prepare());
        if got != expected {
            mismatches.push(format!(
                "(SitePreset::{site:?}, {seed}, {step}, [{:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}]),",
                got[0], got[1], got[2], got[3], got[4]
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "prepared-data digests moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn cache_prepared_equals_standalone_prepared() {
    let cache = PreparedCache::new(4);
    for site in [SitePreset::Houston, SitePreset::Berkeley] {
        for seed in [1u64, 42] {
            let cfg = config(site, seed, 60);
            let (cached, _) = cache.get_or_prepare(&cfg);
            assert_eq!(
                digests(&cached),
                digests(&cfg.prepare()),
                "{site:?} seed {seed}"
            );
        }
    }
}

#[test]
fn seeds_of_one_site_share_one_template() {
    let cache = PreparedCache::new(4);
    let (a, b) = (
        config(SitePreset::Houston, 1, 60),
        config(SitePreset::Houston, 42, 60),
    );
    let (_, first) = cache.get_or_prepare(&a);
    let (_, second) = cache.get_or_prepare(&b);
    assert_eq!(first.template_misses, 1);
    assert_eq!(
        second.template_hits, 1,
        "the second seed reuses the template"
    );
    let (ta, _) = cache.site_template(&a);
    let (tb, _) = cache.site_template(&b);
    assert!(Arc::ptr_eq(&ta, &tb));
    assert_eq!(cache.template_count(), 1);
}
