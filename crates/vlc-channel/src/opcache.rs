//! The operating-point cache: interned `SlotDetector`/`ChannelErrorProbs`.
//!
//! [`ChannelConfig::detector_with`] walks the full analytic receive chain
//! — Lambertian `cosᵐ` powers, shot/RIN/thermal noise composition, ADC
//! quantization, Gaussian tails — every time it is called. Link
//! simulations call it once per *frame*, yet the operating point only
//! actually changes when gain, ambient or fault state moves. This module interns
//! the computed operating points the way `combinat` interns its binomial
//! tables: an Arc-shared, clone-cheap [`OperatingPointCache`] maps the
//! **exact bit pattern** of (config fingerprint, extra gain, saturation
//! flag) to the finished [`CachedOp`].
//!
//! Keying by exact bits (not by hash alone, and not within an epsilon)
//! makes the cache semantically invisible: two queries share an entry
//! only if every input `f64` is bit-identical, in which case
//! `detector_with` — a pure function — would have produced bit-identical
//! outputs anyway. The `cached_detector_is_bit_identical` proptest pins
//! this down across random configurations.
//!
//! The map has no capacity bound, so it suits a workload that revisits a
//! few operating points, like one link's frames. The multi-cell
//! simulation does not use it: a moving user almost never repeats an
//! operating point, so a per-run map only grew (to hundreds of MB on a
//! 32×32-luminaire, 1000-user minute) without hitting. The cell core keeps
//! a per-user two-slot memo instead (`smartvlc-sim`'s `cell::event`).
//!
//! Determinism: caches are **per pipeline instance** (one per
//! [`crate::link::OpticalChannel`]), never a process-wide singleton. A global map would make the
//! `channel.opcache.hit`/`channel.opcache.miss` telemetry counters depend
//! on which worker thread warmed the cache first, breaking the repo's
//! byte-identical-artifacts-at-any-`SMARTVLC_THREADS` contract. Within
//! one instance, hit/miss sequences are a pure function of the query
//! sequence.
//!
//! Setting `SMARTVLC_OPCACHE=off` (or `0`) force-disables value reuse
//! for A/B validation: the cache still performs *identical bookkeeping*
//! (key construction, map population, hit/miss counters) but returns a
//! freshly computed value on every query — so artifacts must stay
//! byte-identical with the cache on or off, and any divergence would
//! indict the cache itself.

use crate::detector::{ChannelErrorProbs, SlotDetector};
use crate::link::{ChannelConfig, CONFIG_FINGERPRINT_WORDS};
use smartvlc_obs as obs;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One interned operating point: the detector and its analytic error
/// probabilities, computed together on a cache miss.
#[derive(Clone, Copy, Debug)]
pub struct CachedOp {
    /// The analytic slot detector at this operating point.
    pub detector: SlotDetector,
    /// `detector.error_probs()`, precomputed (the Q-function `exp` runs
    /// once per operating point instead of once per query).
    pub probs: ChannelErrorProbs,
}

/// Exact-bit cache key: the config fingerprint plus the two extra
/// `detector_with` inputs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct OpKey {
    cfg: [u64; CONFIG_FINGERPRINT_WORDS],
    extra_gain_bits: u64,
    saturated: bool,
}

impl OpKey {
    fn new(cfg: &ChannelConfig, extra_gain: f64, saturated: bool) -> OpKey {
        OpKey {
            cfg: cfg.fingerprint(),
            extra_gain_bits: extra_gain.to_bits(),
            saturated,
        }
    }
}

struct CacheInner {
    map: Mutex<HashMap<OpKey, CachedOp>>,
    /// When false (`SMARTVLC_OPCACHE=off`), bookkeeping runs identically
    /// but every query returns a fresh computation.
    enabled: bool,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Arc-backed handle to an interned operating-point map; `Clone` shares
/// the map (cheap, like [`combinat::BinomialTable::shared`]'s `Arc`s).
///
/// [`combinat::BinomialTable::shared`]: https://docs.rs/combinat
#[derive(Clone)]
pub struct OperatingPointCache {
    inner: Arc<CacheInner>,
}

impl Default for OperatingPointCache {
    fn default() -> Self {
        OperatingPointCache::new()
    }
}

impl OperatingPointCache {
    /// A fresh cache. Value reuse honors the `SMARTVLC_OPCACHE`
    /// environment variable (`off`/`0` disables it, see module docs);
    /// bookkeeping is identical either way.
    pub fn new() -> OperatingPointCache {
        // The one environment read in this crate, allowed by
        // scripts/check_no_env.sh: perfbench builds caches through this
        // constructor, so the read goes with ROADMAP items 1 and 4.
        let enabled = !matches!(
            std::env::var("SMARTVLC_OPCACHE").as_deref(),
            Ok("off") | Ok("0")
        );
        OperatingPointCache::with_enabled(enabled)
    }

    /// A fresh cache with value reuse explicitly on or off (tests;
    /// production callers use [`OperatingPointCache::new`]).
    pub fn with_enabled(enabled: bool) -> OperatingPointCache {
        OperatingPointCache {
            inner: Arc::new(CacheInner {
                map: Mutex::new(HashMap::new()),
                enabled,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }

    /// The interned operating point for `(cfg, extra_gain, saturated)` —
    /// bit-identical to `cfg.detector_with(extra_gain, saturated)` (and
    /// its `error_probs()`), computed at most once per distinct exact-bit
    /// key for this cache's lifetime.
    pub fn query(&self, cfg: &ChannelConfig, extra_gain: f64, saturated: bool) -> CachedOp {
        let key = OpKey::new(cfg, extra_gain, saturated);
        {
            let map = self.inner.map.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(&op) = map.get(&key) {
                drop(map);
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                obs::counter_add(obs::key!("channel.opcache.hit"), 1);
                if self.inner.enabled {
                    return op;
                }
                // Force-disabled: same counters, same map state, fresh
                // math. Any byte difference between this and the cached
                // value would be a keying bug (asserted debug-side).
                let fresh = compute(cfg, extra_gain, saturated);
                debug_assert_eq!(
                    fresh.detector.mu_on_a.to_bits(),
                    op.detector.mu_on_a.to_bits()
                );
                return fresh;
            }
        }
        // Compute outside the lock (the BinomialTable::shared idiom);
        // per-instance use is single-threaded, so a racing duplicate
        // insert cannot occur in practice and would be harmless (pure
        // function: both sides computed identical bits).
        let op = compute(cfg, extra_gain, saturated);
        let mut map = self.inner.map.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(key).or_insert(op);
        drop(map);
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        obs::counter_add(obs::key!("channel.opcache.miss"), 1);
        op
    }

    /// Queries answered from the map so far.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Queries that computed (and interned) a new operating point.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Distinct operating points interned.
    pub fn len(&self) -> usize {
        self.inner
            .map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// True when no operating point has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn compute(cfg: &ChannelConfig, extra_gain: f64, saturated: bool) -> CachedOp {
    let detector = cfg.detector_with(extra_gain, saturated);
    CachedOp {
        detector,
        probs: detector.error_probs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(d: &SlotDetector) -> (u64, u64, u64) {
        (
            d.mu_on_a.to_bits(),
            d.mu_off_a.to_bits(),
            d.sigma_a.to_bits(),
        )
    }

    #[test]
    fn hit_returns_the_interned_bits() {
        let cfg = ChannelConfig::paper_bench(3.6);
        let cache = OperatingPointCache::with_enabled(true);
        let direct = cfg.detector_with(0.7, false);
        let first = cache.query(&cfg, 0.7, false);
        let second = cache.query(&cfg, 0.7, false);
        assert_eq!(bits(&first.detector), bits(&direct));
        assert_eq!(bits(&second.detector), bits(&direct));
        assert_eq!(
            first.probs.p_off_error.to_bits(),
            direct.error_probs().p_off_error.to_bits()
        );
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_bits_are_distinct_entries() {
        let cache = OperatingPointCache::with_enabled(true);
        let a = ChannelConfig::paper_bench(3.0);
        let mut b = a;
        b.ambient_lux = a.ambient_lux + 1.0;
        cache.query(&a, 1.0, false);
        cache.query(&b, 1.0, false);
        cache.query(&a, 1.0, true); // saturation flag is part of the key
        cache.query(&a, 0.5, false); // so is the extra gain
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn disabled_cache_keeps_identical_bookkeeping_and_values() {
        let cfg = ChannelConfig::paper_bench(2.5);
        let on = OperatingPointCache::with_enabled(true);
        let off = OperatingPointCache::with_enabled(false);
        for _ in 0..3 {
            let a = on.query(&cfg, 1.0, false);
            let b = off.query(&cfg, 1.0, false);
            assert_eq!(bits(&a.detector), bits(&b.detector));
            assert_eq!(a.probs.p_off_error.to_bits(), b.probs.p_off_error.to_bits());
        }
        assert_eq!((on.hits(), on.misses()), (off.hits(), off.misses()));
        assert_eq!(on.len(), off.len());
    }

    #[test]
    fn clones_share_the_map() {
        let cfg = ChannelConfig::paper_bench(1.5);
        let a = OperatingPointCache::with_enabled(true);
        let b = a.clone();
        a.query(&cfg, 1.0, false);
        b.query(&cfg, 1.0, false);
        assert_eq!((a.hits(), a.misses()), (1, 1));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn diffuse_component_is_part_of_the_key() {
        use crate::optics::DiffuseReflection;
        let cache = OperatingPointCache::with_enabled(true);
        let plain = ChannelConfig::paper_bench(3.0);
        let mut diffuse = plain;
        diffuse.geometry.diffuse = Some(DiffuseReflection::office());
        let a = cache.query(&plain, 1.0, false);
        let b = cache.query(&diffuse, 1.0, false);
        assert_eq!(cache.misses(), 2, "diffuse config must not collide");
        assert_ne!(bits(&a.detector), bits(&b.detector));
    }
}
