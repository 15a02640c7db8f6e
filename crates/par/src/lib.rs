//! # svbr-par — deterministic parallel replication engine
//!
//! The paper's experiments (attenuation refinement, overflow-probability
//! Monte Carlo, IS valley search) all repeat an expensive per-replication
//! computation — typically Hosking's O(n²) exact sampler — across many
//! *independent* replications. This crate shards those replications over
//! `std::thread::scope` workers while keeping the output **bit-identical
//! for any thread count, including 1**:
//!
//! 1. **Seed derivation.** Every replication `i` draws from its own RNG
//!    stream seeded with [`derive_seed`]`(master_seed, i)` — a SplitMix64
//!    counter scheme. The stream a replication consumes depends only on
//!    `(master_seed, i)`, never on which worker ran it or how many workers
//!    exist.
//! 2. **Static sharding.** [`run_replications`] splits `0..n_reps` into
//!    contiguous index blocks, one per worker — no work stealing, no
//!    queue nondeterminism.
//! 3. **Index-ordered merge.** Each worker returns its block's results as
//!    a `Vec`; blocks are concatenated in index order on the calling
//!    thread. Callers fold the returned `Vec` sequentially, so floating
//!    point accumulation order is fixed regardless of parallelism.
//!
//! The only thread primitive used is `std::thread::scope`; the
//! `no-raw-thread` svbr-lint rule confines raw thread spawning to this
//! crate so every parallel code path in the workspace inherits these
//! guarantees.
//!
//! Observability: each run emits a `par.run` point (replications, workers)
//! and bumps the `par.runs` / `par.replications` counters; the
//! `par.workers` gauge tracks the most recent worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;

pub use arena::Arena;

use std::ops::Range;

/// The SplitMix64 stream increment (odd, ≈ 2⁶⁴/φ): consecutive replication
/// indices land far apart in the 2⁶⁴ state space before finalization.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Derive the RNG seed for replication `index` of a run keyed by
/// `master_seed`.
///
/// This is the SplitMix64 finalizer applied to
/// `master_seed + (index + 1)·GOLDEN_GAMMA`. Properties the workspace
/// relies on:
///
/// * **Pure**: depends only on `(master_seed, index)` — a replication can
///   be re-run in isolation (e.g. when resuming a checkpointed fan-out)
///   and reproduce its exact stream.
/// * **Decorrelated**: the finalizer's avalanche breaks the lattice
///   structure of `seed + i`-style derivation, so per-replication
///   `StdRng` streams do not overlap in practice.
/// * `index + 1` (not `index`) keeps replication 0 distinct from the raw
///   master seed.
pub fn derive_seed(master_seed: u64, index: u64) -> u64 {
    let mut z = master_seed.wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Worker count from the environment: `SVBR_THREADS` if set and parseable,
/// else `std::thread::available_parallelism()`, else 1.
pub fn threads_from_env() -> usize {
    threads_from_str(std::env::var("SVBR_THREADS").ok().as_deref())
}

/// Pure core of [`threads_from_env`], split out for testability.
fn threads_from_str(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Map contiguous index blocks of `0..n` to `Vec<T>`s in parallel and
/// concatenate the results in index order.
///
/// `f` is called once per worker with that worker's index range; it must
/// depend only on the range contents (not on worker identity), which makes
/// the concatenated output independent of `threads`. With `threads <= 1`
/// (or `n <= 1`) the closure runs inline on the calling thread — no
/// spawning, identical output.
///
/// A panic inside `f` propagates to the caller.
pub fn par_map_blocks<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let workers = threads.clamp(1, n.max(1));
    observe_run(n, workers);
    if workers <= 1 {
        return f(0..n);
    }
    let chunk = n.div_ceil(workers);
    let mut parts: Vec<Vec<T>> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for t in 0..workers {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            let f = &f;
            handles.push(s.spawn(move || f(lo..hi)));
        }
        for h in handles {
            // svbr-lint: allow(no-expect) propagating a worker panic to the caller is the contract
            parts.push(h.join().expect("svbr-par worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part);
    }
    out
}

/// Run `n_reps` independent replications, each with its own RNG seed
/// derived from `(master_seed, replication_index)`, and return the
/// per-replication results **in replication order**.
///
/// `f(index, seed)` must seed all of its randomness from `seed` (e.g.
/// `StdRng::seed_from_u64(seed)`); under that contract the returned `Vec`
/// is bit-identical for every `threads` value. Callers that reduce the
/// results (sums, averages) must fold the returned `Vec` sequentially to
/// keep the floating-point accumulation order fixed.
pub fn run_replications<T, F>(master_seed: u64, n_reps: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    par_map_blocks(n_reps, threads, |range| {
        range
            .map(|i| f(i, derive_seed(master_seed, i as u64)))
            .collect()
    })
}

/// Emit the `par.*` metrics for one executor run.
fn observe_run(reps: usize, workers: usize) {
    if !svbr_obsv::enabled() {
        return;
    }
    svbr_obsv::counter("par.runs").add(1);
    svbr_obsv::counter("par.replications").add(reps as u64);
    svbr_obsv::gauge("par.workers").set(workers as f64);
    // Per-shard item counts, labeled by shard ordinal. Mirrors the static
    // block layout below; cardinality is bounded by the worker count.
    let chunk = reps.div_ceil(workers.max(1));
    for t in 0..workers {
        let lo = t * chunk;
        let hi = ((t + 1) * chunk).min(reps);
        if lo >= hi {
            break;
        }
        let shard = t.to_string();
        svbr_obsv::counter_with("par.shard.items", &[("shard", shard.as_str())])
            .add((hi - lo) as u64);
    }
    svbr_obsv::point(
        "par.run",
        &[("replications", reps as f64), ("workers", workers as f64)],
    );
    // Completed replications drive the flight-recorder window schedule.
    svbr_obsv::record_tick(reps as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_pure_and_spread_out() {
        assert_eq!(derive_seed(42, 0), derive_seed(42, 0));
        // Distinct indices and distinct masters give distinct seeds.
        let mut seen = std::collections::HashSet::new();
        for master in [0u64, 1, 42, u64::MAX] {
            for i in 0..1000u64 {
                assert!(seen.insert(derive_seed(master, i)), "collision at {i}");
            }
        }
        // Replication 0 is not the raw master seed.
        assert_ne!(derive_seed(7, 0), 7);
    }

    #[test]
    fn results_are_index_ordered_for_any_thread_count() {
        let f = |i: usize, seed: u64| (i, seed);
        let reference = run_replications(99, 37, 1, f);
        assert_eq!(reference.len(), 37);
        for (i, &(idx, seed)) in reference.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(seed, derive_seed(99, i as u64));
        }
        for threads in [2, 3, 8, 64] {
            assert_eq!(run_replications(99, 37, threads, f), reference);
        }
    }

    #[test]
    fn float_fold_is_thread_count_invariant() {
        // Simulated per-replication outcome with nonassociative-sensitive
        // magnitudes; the sequential fold over the ordered Vec must be
        // bit-identical for every thread count.
        let f = |i: usize, seed: u64| ((seed >> 11) as f64) * 1e-3 + (i as f64) * 1e9;
        let fold = |v: Vec<f64>| v.into_iter().sum::<f64>().to_bits();
        let reference = fold(run_replications(5, 101, 1, f));
        for threads in [2, 4, 8, 16] {
            assert_eq!(fold(run_replications(5, 101, threads, f)), reference);
        }
    }

    #[test]
    fn degenerate_sizes() {
        assert!(run_replications(1, 0, 4, |i, _| i).is_empty());
        assert_eq!(run_replications(1, 1, 8, |i, _| i), vec![0]);
        // More threads than replications: clamped, still complete.
        assert_eq!(run_replications(1, 3, 100, |i, _| i), vec![0, 1, 2]);
    }

    #[test]
    fn par_map_blocks_concatenates_in_order() {
        let f = |r: Range<usize>| r.collect::<Vec<_>>();
        let all: Vec<usize> = (0..57).collect();
        for threads in [1, 2, 5, 7, 57, 100] {
            assert_eq!(par_map_blocks(57, threads, f), all);
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            par_map_blocks(8, 4, |r| {
                assert!(!r.contains(&5), "boom");
                r.collect::<Vec<_>>()
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn threads_from_str_parses_and_falls_back() {
        assert_eq!(threads_from_str(Some("3")), 3);
        assert_eq!(threads_from_str(Some(" 12 ")), 12);
        // Unset / invalid / zero fall back to host parallelism (>= 1).
        assert!(threads_from_str(None) >= 1);
        assert!(threads_from_str(Some("zero")) >= 1);
        assert!(threads_from_str(Some("0")) >= 1);
    }
}
