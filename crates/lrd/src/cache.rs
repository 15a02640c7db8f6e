//! Shared read-only precomputation caches for the generation hot paths.
//!
//! Replicated experiments (the paper runs up to 1000 replications per
//! point in Figs. 14–17) repeat the Durbin–Levinson coefficient schedule
//! (`φ_{k,·}` rows and innovation variances `v_k`) behind Hosking's method
//! per replication — O(n²) time and O(n²/2) memory, a function of the ACF
//! alone. This module memoizes it behind a process-global cache keyed by
//! an [`acf_fingerprint`] (FNV-1a over the exact bit patterns of the lags
//! actually consumed) so concurrent replications share one `Arc`'d copy.
//!
//! Davies–Harte samplers are not cached here: the object that owns the
//! model ACF keeps its own (`UnifiedGenerator` in `svbr-core`), which
//! needs no fingerprint per lookup.
//!
//! **Memory cap and fallback.** A Hosking schedule costs
//! `n(n+1)/2 + 2n` f64s. Entries beyond [`HOSKING_ENTRY_BYTES_CAP`] are
//! never cached: [`hosking_coefficients`] returns
//! [`CachedHosking::Streaming`] and the caller falls back to the O(k)-memory
//! streaming [`HoskingSampler`](crate::hosking::HoskingSampler) recursion
//! (identical output — the schedule is the same arithmetic either way).
//! When a cache's *total* footprint would exceed its cap
//! ([`HOSKING_CACHE_BYTES_CAP`] / [`FFT_PLAN_CACHE_BYTES_CAP`]) the
//! cache is cleared wholesale before inserting — a crude but deterministic
//! generation scheme that keeps the process footprint bounded without
//! LRU bookkeeping on the hot path.
//!
//! Observability: `cache.hosking.{hit,miss,bypass}` and
//! `cache.fft_plan.{hit,miss}` counters, plus `cache.hosking.bytes` /
//! `cache.fft_plan.bytes` gauges tracking the resident footprint.
//!
//! A second cache memoizes the [`FftPlan`] (twiddle tables + bit-reversal
//! permutation) keyed by transform length alone, so every Davies–Harte
//! setup and per-path transform at one length shares a single plan.

use crate::acf::Acf;
use crate::fft::FftPlan;
use crate::hosking::PreparedHosking;
use crate::LrdError;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Largest single Hosking coefficient schedule the cache will hold
/// (64 MiB ≈ n = 4090). Larger horizons bypass the cache entirely.
pub const HOSKING_ENTRY_BYTES_CAP: usize = 64 << 20;

/// Total resident cap for the Hosking schedule cache; exceeding it clears
/// the cache before the next insert.
pub const HOSKING_CACHE_BYTES_CAP: usize = 192 << 20;

/// Total resident cap for the FFT-plan cache. Plans are keyed by transform
/// length alone and cost ~48 bytes per point, so this holds every length
/// the workloads in this repo touch simultaneously.
pub const FFT_PLAN_CACHE_BYTES_CAP: usize = 8 << 20;

/// Fingerprint the first `lags` autocorrelation values (exact f64 bit
/// patterns, FNV-1a). Two ACFs agreeing bit-for-bit on every consumed lag
/// are interchangeable for the cached computation, so this is a sound key.
pub fn acf_fingerprint<A: Acf + ?Sized>(acf: &A, lags: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3); // FNV prime
        }
    };
    mix(lags as u64);
    for k in 0..lags {
        mix(acf.r(k).to_bits());
    }
    h
}

/// Result of a Hosking coefficient-schedule lookup.
#[derive(Debug, Clone)]
pub enum CachedHosking {
    /// The shared precomputed schedule: every replication pays only the
    /// O(k) conditional-mean dot product per step.
    Shared(Arc<PreparedHosking>),
    /// The horizon exceeds [`HOSKING_ENTRY_BYTES_CAP`]: run the streaming
    /// Durbin–Levinson recursion per path instead (same output, O(n)
    /// memory, but the O(n²) coefficient work repeats per replication).
    Streaming,
}

// Ordered maps keep every walk over the cache deterministic (the analyze
// pass's `det-unordered-collection` rule holds these crates to that), and
// the key tuples are already `Ord`.
type HoskingCache = Cache<(u64, usize), Arc<PreparedHosking>>;
type PlanCache = Cache<usize, Arc<FftPlan>>;

struct Cache<K: Ord, V> {
    map: BTreeMap<K, V>,
    bytes: usize,
}

impl<K: Ord, V> Cache<K, V> {
    fn empty() -> Self {
        Self {
            map: BTreeMap::new(),
            bytes: 0,
        }
    }
}

/// Insert `value` under `key`, keeping the cache's resident footprint
/// under `total_cap`: when the next entry would overflow, the whole map is
/// cleared first (crude but deterministic generational eviction — no LRU
/// bookkeeping on the hot path). Returns the footprint after the insert.
fn insert_bounded<K: Ord, V>(
    cache: &mut Cache<K, V>,
    key: K,
    value: V,
    entry_bytes: usize,
    total_cap: usize,
    evictions: &svbr_obsv::Counter,
) -> usize {
    if cache.bytes + entry_bytes > total_cap {
        cache.map.clear();
        cache.bytes = 0;
        evictions.add(1);
    }
    if cache.map.insert(key, value).is_none() {
        cache.bytes += entry_bytes;
    }
    cache.bytes
}

fn hosking_cache() -> &'static Mutex<HoskingCache> {
    static CACHE: OnceLock<Mutex<HoskingCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Cache::empty()))
}

fn plan_cache() -> &'static Mutex<PlanCache> {
    static CACHE: OnceLock<Mutex<PlanCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Cache::empty()))
}

/// Bytes held by one prepared schedule: the triangular `φ` rows plus the
/// `v` and `phi_sum` vectors.
fn hosking_entry_bytes(n: usize) -> usize {
    (n * (n + 1) / 2 + 2 * n) * std::mem::size_of::<f64>()
}

/// Dimensional view of the flat `cache.<backend>.hit/miss` counters: one
/// `cache.lookups` family labeled by backend and outcome.
fn observe_lookup(backend: &str, outcome: &str) {
    if !svbr_obsv::enabled() {
        return;
    }
    svbr_obsv::counter_with(
        "cache.lookups",
        &[("backend", backend), ("outcome", outcome)],
    )
    .inc();
}

/// Look up (or compute and insert) the Durbin–Levinson coefficient
/// schedule for `(acf, n)`.
///
/// Returns [`CachedHosking::Streaming`] when the schedule would exceed
/// [`HOSKING_ENTRY_BYTES_CAP`]; otherwise the shared schedule, computed at
/// most once per distinct `(ACF fingerprint, n)` process-wide.
pub fn hosking_coefficients<A: Acf>(acf: &A, n: usize) -> Result<CachedHosking, LrdError> {
    if hosking_entry_bytes(n) > HOSKING_ENTRY_BYTES_CAP {
        svbr_obsv::counter("cache.hosking.bypass").add(1);
        return Ok(CachedHosking::Streaming);
    }
    let key = (acf_fingerprint(acf, n), n);
    {
        let cache = hosking_cache()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = cache.map.get(&key) {
            svbr_obsv::counter("cache.hosking.hit").add(1);
            observe_lookup("hosking", "hit");
            return Ok(CachedHosking::Shared(Arc::clone(hit)));
        }
    }
    // Computed outside the lock: preparing is O(n²) and must not serialize
    // unrelated lookups. A racing duplicate insert is harmless (identical
    // value; last writer wins).
    svbr_obsv::counter("cache.hosking.miss").add(1);
    observe_lookup("hosking", "miss");
    let prepared = Arc::new(PreparedHosking::new(acf, n)?);
    let mut cache = hosking_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let resident = insert_bounded(
        &mut cache,
        key,
        Arc::clone(&prepared),
        hosking_entry_bytes(n),
        HOSKING_CACHE_BYTES_CAP,
        &svbr_obsv::counter("cache.hosking.evictions"),
    );
    svbr_obsv::gauge("cache.hosking.bytes").set(resident as f64);
    Ok(CachedHosking::Shared(prepared))
}

/// Look up (or build and insert) the [`FftPlan`] for transforms of length
/// `n`. The plan is a pure function of the length, so every Davies–Harte
/// setup, replication fan-out, and serve chunk generator targeting the same
/// power of two shares one `Arc`'d table.
///
/// # Panics
/// Panics if `n` is not a power of two (same contract as [`FftPlan::new`]).
pub fn fft_plan(n: usize) -> Arc<FftPlan> {
    {
        let cache = plan_cache().lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = cache.map.get(&n) {
            svbr_obsv::counter("cache.fft_plan.hit").add(1);
            observe_lookup("fft_plan", "hit");
            return Arc::clone(hit);
        }
    }
    // Built outside the lock, like the Hosking cache: planning is O(n) but
    // a racing duplicate insert is harmless (identical tables).
    svbr_obsv::counter("cache.fft_plan.miss").add(1);
    observe_lookup("fft_plan", "miss");
    let plan = Arc::new(FftPlan::new(n));
    let bytes = plan.footprint_bytes();
    let mut cache = plan_cache().lock().unwrap_or_else(PoisonError::into_inner);
    let resident = insert_bounded(
        &mut cache,
        n,
        Arc::clone(&plan),
        bytes,
        FFT_PLAN_CACHE_BYTES_CAP,
        &svbr_obsv::counter("cache.fft_plan.evictions"),
    );
    svbr_obsv::gauge("cache.fft_plan.bytes").set(resident as f64);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acf::{ExponentialAcf, FgnAcf};
    use crate::hosking::HoskingSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fingerprint_distinguishes_acfs_and_lags() -> Result<(), Box<dyn std::error::Error>> {
        let a = FgnAcf::new(0.8)?;
        let b = FgnAcf::new(0.81)?;
        assert_eq!(acf_fingerprint(&a, 64), acf_fingerprint(&a, 64));
        assert_ne!(acf_fingerprint(&a, 64), acf_fingerprint(&b, 64));
        assert_ne!(acf_fingerprint(&a, 64), acf_fingerprint(&a, 65));
        Ok(())
    }

    #[test]
    fn hosking_cache_returns_shared_schedule() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.77)?;
        let a = hosking_coefficients(&acf, 96)?;
        let b = hosking_coefficients(&acf, 96)?;
        let (CachedHosking::Shared(a), CachedHosking::Shared(b)) = (a, b) else {
            return Err("expected shared schedules".into());
        };
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(a.len(), 96);
        Ok(())
    }

    #[test]
    fn cached_path_matches_streaming_hosking_bitwise() -> Result<(), Box<dyn std::error::Error>> {
        // The tentpole's exactness contract: the shared schedule drives the
        // same arithmetic and the same rng consumption as the streaming
        // recursion, so fixed-seed paths agree bit-for-bit.
        for (h, n) in [(0.6, 17), (0.85, 128), (0.95, 300)] {
            let acf = FgnAcf::new(h)?;
            let CachedHosking::Shared(prep) = hosking_coefficients(&acf, n)? else {
                return Err("within cap".into());
            };
            let mut r1 = StdRng::seed_from_u64(1234);
            let mut r2 = StdRng::seed_from_u64(1234);
            let cached = prep.sample_path(&mut r1);
            let streamed = HoskingSampler::new(&acf)?.generate(n, &mut r2)?;
            assert_eq!(cached, streamed, "H={h} n={n}");
        }
        Ok(())
    }

    #[test]
    fn oversized_horizon_bypasses_to_streaming() -> Result<(), Box<dyn std::error::Error>> {
        // Just past the per-entry cap: (n(n+1)/2 + 2n)·8 > 64 MiB at n = 4100.
        assert!(hosking_entry_bytes(4100) > HOSKING_ENTRY_BYTES_CAP);
        let acf = ExponentialAcf::new(0.3)?;
        assert!(matches!(
            hosking_coefficients(&acf, 4100)?,
            CachedHosking::Streaming
        ));
        Ok(())
    }

    #[test]
    fn fft_plan_cache_shares_and_matches_fresh_plan() {
        let a = fft_plan(512);
        let b = fft_plan(512);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(a.len(), 512);
        // The cached plan produces the same bits as a freshly built one.
        let data: Vec<crate::fft::Complex> = (0..512)
            .map(|i| crate::fft::Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let fresh = FftPlan::new(512);
        let mut x = data.clone();
        a.fft(&mut x);
        let mut y = data;
        fresh.fft(&mut y);
        for (p, q) in x.iter().zip(y.iter()) {
            assert_eq!(p.re.to_bits(), q.re.to_bits());
            assert_eq!(p.im.to_bits(), q.im.to_bits());
        }
    }

    #[test]
    fn entry_size_model_is_sane() {
        assert_eq!(hosking_entry_bytes(0), 0);
        assert_eq!(hosking_entry_bytes(1), 24);
        assert!(hosking_entry_bytes(4090) <= HOSKING_ENTRY_BYTES_CAP);
    }

    /// Largest horizon whose schedule still fits the per-entry cap.
    fn per_entry_boundary() -> usize {
        let mut n = 1;
        while hosking_entry_bytes(n + 1) <= HOSKING_ENTRY_BYTES_CAP {
            n += 1;
        }
        n
    }

    #[test]
    fn per_entry_cap_boundary_is_sharp() {
        let n = per_entry_boundary();
        assert!(hosking_entry_bytes(n) <= HOSKING_ENTRY_BYTES_CAP);
        assert!(hosking_entry_bytes(n + 1) > HOSKING_ENTRY_BYTES_CAP);
        // The cap is 64 MiB, so the boundary sits near n ≈ 4093 — a sanity
        // band rather than an exact pin, so retuning the cap only moves it.
        assert!((4000..4200).contains(&n), "boundary moved: n = {n}");
        // One past the boundary must bypass without computing anything.
        let acf = ExponentialAcf::new(0.3).expect("valid acf");
        assert!(matches!(
            hosking_coefficients(&acf, n + 1).expect("bypass is not an error"),
            CachedHosking::Streaming
        ));
    }

    #[test]
    #[cfg_attr(miri, ignore)] // O(n²) at the 64 MiB boundary — minutes under Miri
    fn streaming_fallback_is_bitwise_equal_to_cached_schedule(
    ) -> Result<(), Box<dyn std::error::Error>> {
        // An entry straddling the per-entry cap takes the streaming path;
        // the contract is that callers cannot tell: same seed, same bits.
        // Build the over-cap schedule directly (only the cache refuses it)
        // and compare against the streaming recursion.
        let n = per_entry_boundary() + 1;
        let acf = FgnAcf::new(0.8)?;
        assert!(matches!(
            hosking_coefficients(&acf, n)?,
            CachedHosking::Streaming
        ));
        let prep = PreparedHosking::new(acf, n)?;
        let mut r1 = StdRng::seed_from_u64(77);
        let mut r2 = StdRng::seed_from_u64(77);
        let cached = prep.sample_path(&mut r1);
        let streamed = HoskingSampler::new(&acf)?.generate(n, &mut r2)?;
        assert_eq!(cached, streamed, "fallback diverged at n = {n}");
        Ok(())
    }

    #[test]
    fn total_cap_eviction_clears_wholesale_and_accounts_bytes() {
        let evictions = svbr_obsv::Counter::new();
        let mut cache: Cache<u32, &str> = Cache {
            map: BTreeMap::new(),
            bytes: 0,
        };
        // Two 40-byte entries fit a 100-byte cap...
        assert_eq!(insert_bounded(&mut cache, 1, "a", 40, 100, &evictions), 40);
        assert_eq!(insert_bounded(&mut cache, 2, "b", 40, 100, &evictions), 80);
        assert_eq!(evictions.get(), 0);
        // ...the third would hit 120 > 100: wholesale clear, then insert.
        assert_eq!(insert_bounded(&mut cache, 3, "c", 40, 100, &evictions), 40);
        assert_eq!(evictions.get(), 1);
        assert_eq!(cache.map.len(), 1);
        assert!(cache.map.contains_key(&3), "only the new entry survives");
        // Re-inserting an existing key must not double-count its bytes.
        assert_eq!(insert_bounded(&mut cache, 3, "c2", 40, 100, &evictions), 40);
        assert_eq!(cache.map.len(), 1);
        // An entry larger than the whole cap still lands (the caller's
        // per-entry cap is the real gate); the clear fires first.
        assert_eq!(
            insert_bounded(&mut cache, 4, "d", 150, 100, &evictions),
            150
        );
        assert_eq!(evictions.get(), 2);
    }
}
