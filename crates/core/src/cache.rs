//! Shared prepared-scenario cache — the daemon's hot-site store.
//!
//! Preparing a scenario (weather synthesis, unit profiles, CI/price
//! signals, load trace) is the expensive part of answering a study
//! request; the search itself reuses those arrays read-only. A
//! [`PreparedCache`] keeps two tiers, both handed out as [`Arc`]s that
//! stay alive for in-flight studies even after eviction:
//!
//! 1. **Prepared scenarios**, keyed by the **canonical serialization of
//!    the entire [`ScenarioConfig`]**, so two scenarios differing in a
//!    single field — one weather-jitter seed, one battery choice — can
//!    never collide. A hit skips preparation entirely.
//! 2. **Site templates** ([`SiteTemplate`]), keyed by (site preset,
//!    `step_minutes`). A template holds the seed-independent tables of
//!    one site at one step: per step the zenith cosine, clear-sky GHI, PV
//!    incidence cosine and carbon-intensity shape; per day and per step
//!    of the day the temperature and wind climatology factors. A
//!    scenario miss on an already-templated site runs only the seeded
//!    processes over it, bit-identical to a standalone
//!    [`ScenarioConfig::prepare`] (which builds a one-shot template and
//!    drops it).
//!
//! Each tier holds at most `capacity` entries and evicts its least
//! recently used initialized entry beyond that, independently of the
//! other tier; there is no process-global state. A template is touched
//! only when a scenario misses, so a site whose scenarios all hit can age
//! out of the template tier while its scenarios stay cached.
//!
//! Concurrency: the map lock is held only to look up or insert a slot;
//! the actual preparation runs outside it through a per-slot
//! [`OnceLock`], so distinct scenarios prepare in parallel while
//! concurrent requests for the *same* scenario (or template) block on one
//! preparation instead of duplicating it. A preparation that panics
//! removes its slot before the panic propagates, so it pins no capacity
//! and the next request retries.
//!
//! Every scenario lookup bumps [`Counter::PrepCacheHits`] or
//! [`Counter::PrepCacheMisses`]; every template lookup (one per scenario
//! preparation) bumps [`Counter::PrepTemplateHits`] or
//! [`Counter::PrepTemplateMisses`], surfacing both hit rates in the
//! `MGOPT_TRACE` counter snapshot.

// mgopt-lint: allow(determinism) — prepared-site cache is keyed lookup only; eviction scans use the ordered tick, not map order
use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mgopt_microgrid::SiteTemplate;
use mgopt_telemetry::{self as telemetry, Counter};

use crate::scenario::{PreparedScenario, ScenarioConfig, SitePreset};

/// The canonical cache key: the config's compact JSON. Collision-free by
/// construction (equal keys ⇔ equal configs), at the cost of a string
/// compare per lookup — negligible next to a preparation.
pub fn scenario_cache_key(config: &ScenarioConfig) -> String {
    serde_json::to_string(config).expect("scenario configs always encode")
}

/// A short FNV-1a digest of the canonical key, for logs and trace events
/// (never used for lookup, so digest collisions are cosmetic).
pub fn scenario_key_hash(config: &ScenarioConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in scenario_cache_key(config).bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cache outcome of one or more lookups (see
/// [`PreparedCache::get_or_prepare`] and
/// [`FleetScenario::prepare_shared`](crate::FleetScenario::prepare_shared)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrepStats {
    /// Scenarios served from the cache.
    pub hits: u32,
    /// Scenarios synthesized (or awaited while another request
    /// synthesized them).
    pub misses: u32,
    /// Syntheses that reused a cached site template.
    pub template_hits: u32,
    /// Syntheses that built their site template first.
    pub template_misses: u32,
}

impl std::ops::AddAssign for PrepStats {
    fn add_assign(&mut self, o: Self) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.template_hits += o.template_hits;
        self.template_misses += o.template_misses;
    }
}

/// One cached value: filled at most once, outside the map lock.
struct Slot<T> {
    cell: Arc<OnceLock<Arc<T>>>,
    last_used: u64,
}

type Tier<K, T> = HashMap<K, Slot<T>>;
type TemplateKey = (SitePreset, u32);

#[derive(Default)]
struct Inner {
    scenarios: Tier<String, PreparedScenario>,
    templates: Tier<TemplateKey, SiteTemplate>,
    tick: u64,
}

/// A bounded, thread-safe two-tier cache of prepared scenarios and site
/// templates (LRU eviction per tier).
pub struct PreparedCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl PreparedCache {
    /// Create a cache holding at most `capacity` prepared scenarios and
    /// at most `capacity` site templates (minimum 1 each).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                // mgopt-lint: allow(determinism) — victim choice is min_by_key over unique ticks, order-independent
                scenarios: HashMap::new(),
                // mgopt-lint: allow(determinism) — victim choice is min_by_key over unique ticks, order-independent
                templates: HashMap::new(),
                tick: 0,
            }),
        }
    }

    /// The configured capacity (per tier).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached (or in-flight) scenarios.
    pub fn len(&self) -> usize {
        self.lock().scenarios.len()
    }

    /// Whether no scenario is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of cached (or in-flight) site templates.
    pub fn template_count(&self) -> usize {
        self.lock().templates.len()
    }

    /// Fetch the prepared form of `config`, synthesizing it at most once
    /// per cache residency, over a shared site template. Returns the
    /// shared scenario and this lookup's [`PrepStats`]: one hit or one
    /// miss, plus the template outcome when this call ran the synthesis.
    ///
    /// The returned [`Arc`] is yours regardless of later evictions — a
    /// study holding it is never invalidated under load.
    ///
    /// # Panics
    /// Propagates a panic of the preparation (e.g. an unsupported step)
    /// after removing the slots it would have filled.
    pub fn get_or_prepare(&self, config: &ScenarioConfig) -> (Arc<PreparedScenario>, PrepStats) {
        let key = scenario_cache_key(config);
        let (cell, hit) = self.lookup(|inner| &mut inner.scenarios, &key);
        telemetry::add(
            if hit {
                Counter::PrepCacheHits
            } else {
                Counter::PrepCacheMisses
            },
            1,
        );
        let mut stats = PrepStats {
            hits: u32::from(hit),
            misses: u32::from(!hit),
            ..PrepStats::default()
        };
        let prepared = self.fill(
            |inner| &mut inner.scenarios,
            &key,
            &cell,
            || {
                let (template, template_hit) = self.site_template(config);
                stats.template_hits = u32::from(template_hit);
                stats.template_misses = u32::from(!template_hit);
                config.prepare_with(&template)
            },
        );
        (prepared, stats)
    }

    /// The shared template of `config`'s site and step, built at most once
    /// per cache residency, and whether it was already cached.
    ///
    /// # Panics
    /// Propagates a panic of the template build (an unsupported step)
    /// after removing its slot.
    pub fn site_template(&self, config: &ScenarioConfig) -> (Arc<SiteTemplate>, bool) {
        let key = (config.site, config.step_minutes);
        let (cell, hit) = self.lookup(|inner| &mut inner.templates, &key);
        telemetry::add(
            if hit {
                Counter::PrepTemplateHits
            } else {
                Counter::PrepTemplateMisses
            },
            1,
        );
        let template = self.fill(
            |inner| &mut inner.templates,
            &key,
            &cell,
            || config.site_template(),
        );
        (template, hit)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Preparations run outside the lock, so a poisoned lock only means
        // a panic between plain map operations; the maps stay consistent.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Find or insert the slot for `key` in one tier, evicting that tier's
    /// LRU entry beyond capacity. Returns the slot's cell and whether it
    /// already existed.
    fn lookup<K: Eq + Hash + Clone, T>(
        &self,
        tier: impl FnOnce(&mut Inner) -> &mut Tier<K, T>,
        key: &K,
    ) -> (Arc<OnceLock<Arc<T>>>, bool) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let slots = tier(&mut inner);
        if let Some(slot) = slots.get_mut(key) {
            slot.last_used = tick;
            return (Arc::clone(&slot.cell), true);
        }
        let cell = Arc::new(OnceLock::new());
        slots.insert(
            key.clone(),
            Slot {
                cell: Arc::clone(&cell),
                last_used: tick,
            },
        );
        if slots.len() > self.capacity {
            evict_lru(slots, key);
        }
        (cell, false)
    }

    /// Fill `cell` (once) with `init`. If `init` panics, remove the slot
    /// — when it is still this cell — so a failed preparation pins no
    /// capacity, then let the panic continue.
    fn fill<K: Eq + Hash, T>(
        &self,
        tier: impl FnOnce(&mut Inner) -> &mut Tier<K, T>,
        key: &K,
        cell: &Arc<OnceLock<Arc<T>>>,
        init: impl FnOnce() -> T,
    ) -> Arc<T> {
        match catch_unwind(AssertUnwindSafe(|| {
            Arc::clone(cell.get_or_init(|| Arc::new(init())))
        })) {
            Ok(value) => value,
            Err(panic) => {
                let mut inner = self.lock();
                let slots = tier(&mut inner);
                if slots.get(key).is_some_and(|s| Arc::ptr_eq(&s.cell, cell)) {
                    slots.remove(key);
                }
                drop(inner);
                resume_unwind(panic)
            }
        }
    }
}

impl Drop for PreparedCache {
    /// Release the cached values on a short-lived thread.
    ///
    /// Study workers prepare the values, but the cache is usually dropped
    /// by a long-lived thread (the one that owns the server). glibc parks
    /// small freed chunks in the freeing thread's own cache, and a parked
    /// chunk keeps the freed tables beneath it in the worker's arena
    /// resident, about 1 MB per arena per dropped cache. A thread that
    /// exits right after the drop hands its parked chunks back, so the
    /// arenas can return the memory. If the thread cannot be spawned, the
    /// values are dropped here.
    fn drop(&mut self) {
        let inner = std::mem::take(self.inner.get_mut().unwrap_or_else(PoisonError::into_inner));
        if let Ok(releaser) = std::thread::Builder::new().spawn(move || drop(inner)) {
            let _ = releaser.join();
        }
    }
}

/// Evict the least-recently-used *initialized* slot other than `keep`.
/// In-flight slots (preparation still running) are never evicted, so a
/// burst of distinct scenarios can transiently exceed capacity rather
/// than lose work.
fn evict_lru<K: Eq + Hash + Clone, T>(slots: &mut Tier<K, T>, keep: &K) {
    if let Some(victim) = slots
        .iter()
        .filter(|(k, slot)| *k != keep && slot.cell.get().is_some())
        .min_by_key(|(_, slot)| slot.last_used)
        .map(|(k, _)| k.clone())
    {
        slots.remove(&victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgopt_microgrid::CompositionSpace;

    fn tiny(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            space: CompositionSpace::tiny(),
            ..ScenarioConfig::paper_houston()
        }
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = PreparedCache::new(4);
        let (a, stats_a) = cache.get_or_prepare(&tiny(1));
        let (b, stats_b) = cache.get_or_prepare(&tiny(1));
        assert_eq!((stats_a.hits, stats_a.misses), (0, 1));
        assert_eq!((stats_b.hits, stats_b.misses), (1, 0));
        assert_eq!(stats_b.template_hits + stats_b.template_misses, 0);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn seed_jitter_does_not_collide() {
        // Two scenarios differing only in the weather/workload seed must
        // occupy distinct cache entries with distinct prepared inputs.
        let cache = PreparedCache::new(4);
        assert_ne!(scenario_cache_key(&tiny(1)), scenario_cache_key(&tiny(2)));
        let (a, _) = cache.get_or_prepare(&tiny(1));
        let (b, stats) = cache.get_or_prepare(&tiny(2));
        assert_eq!(stats.misses, 1, "different seed must miss");
        assert_eq!(cache.len(), 2);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.load, b.load, "jittered workloads must differ");
    }

    #[test]
    fn lru_eviction_keeps_hot_entries_and_live_arcs() {
        let cache = PreparedCache::new(2);
        let (first, _) = cache.get_or_prepare(&tiny(1));
        let _ = cache.get_or_prepare(&tiny(2));
        let _ = cache.get_or_prepare(&tiny(1)); // touch 1: seed 2 is now LRU
        let _ = cache.get_or_prepare(&tiny(3)); // evicts seed 2
        assert_eq!(cache.len(), 2);
        let (_, stats1) = cache.get_or_prepare(&tiny(1));
        assert_eq!(stats1.hits, 1, "hot entry survived eviction");
        let (_, stats2) = cache.get_or_prepare(&tiny(2));
        assert_eq!(stats2.misses, 1, "LRU entry was evicted");
        // The Arc handed out before eviction is still fully usable.
        assert_eq!(first.load.len(), first.data.len());
    }

    #[test]
    fn concurrent_same_key_prepares_once() {
        let cache = Arc::new(PreparedCache::new(4));
        let arcs: Vec<Arc<PreparedScenario>> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    s.spawn(move || cache.get_or_prepare(&tiny(9)).0)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for other in &arcs[1..] {
            assert!(Arc::ptr_eq(&arcs[0], other));
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn templates_are_keyed_by_site_and_step() {
        let cache = PreparedCache::new(4);
        let (_, first) = cache.get_or_prepare(&tiny(1));
        let (_, second) = cache.get_or_prepare(&tiny(2));
        assert_eq!((first.template_hits, first.template_misses), (0, 1));
        assert_eq!((second.template_hits, second.template_misses), (1, 0));
        assert_eq!((cache.len(), cache.template_count()), (2, 1));
        // Another site, or another step, is another template.
        let berkeley = ScenarioConfig {
            site: SitePreset::Berkeley,
            ..tiny(1)
        };
        let quarter_hourly = ScenarioConfig {
            step_minutes: 15,
            ..tiny(1)
        };
        assert!(!cache.site_template(&berkeley).1);
        assert!(!cache.site_template(&quarter_hourly).1);
        assert_eq!(cache.template_count(), 3);
    }

    #[test]
    fn template_tier_is_lru_bounded_by_capacity() {
        let cache = PreparedCache::new(1);
        let houston = tiny(1);
        let berkeley = ScenarioConfig {
            site: SitePreset::Berkeley,
            ..tiny(1)
        };
        let (h, _) = cache.site_template(&houston);
        let _ = cache.site_template(&berkeley);
        assert_eq!(cache.template_count(), 1);
        let (h_again, hit) = cache.site_template(&houston);
        assert!(!hit, "LRU template was evicted");
        assert!(!Arc::ptr_eq(&h, &h_again));
        // The evicted template handed out earlier is still whole.
        assert_eq!(h.step(), h_again.step());
    }

    #[test]
    fn failed_preparations_do_not_pin_cache_slots() {
        // A 7-minute step does not divide an hour: preparation panics.
        // Every attempt must give its slots back, so repeated bad
        // requests can neither grow the cache past capacity nor block a
        // later good one.
        let cache = PreparedCache::new(8);
        for seed in 0..20 {
            let bad = ScenarioConfig {
                step_minutes: 7,
                ..tiny(seed)
            };
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| cache.get_or_prepare(&bad)));
            assert!(outcome.is_err(), "step 7 must not prepare");
        }
        assert_eq!((cache.len(), cache.template_count()), (0, 0));
        let (_, stats) = cache.get_or_prepare(&tiny(1));
        assert_eq!((stats.misses, stats.template_misses), (1, 1));
        assert_eq!((cache.len(), cache.template_count()), (1, 1));
    }

    #[test]
    fn key_hash_is_stable_and_seed_sensitive() {
        assert_eq!(scenario_key_hash(&tiny(1)), scenario_key_hash(&tiny(1)));
        assert_ne!(scenario_key_hash(&tiny(1)), scenario_key_hash(&tiny(2)));
    }
}
