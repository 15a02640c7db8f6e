//! Heuristic "valley" search for the near-optimal twist (Fig. 14).
//!
//! "The IS estimator … is always unbiased, while the sample path properties
//! as well as the variance of the IS estimator are dramatically affected by
//! the choice of twisting parameter values. Typically … the normalized
//! variance exhibits a clear 'valley' around the most favorable parameter
//! values." (§4)

use crate::estimator::{IsEstimate, IsEstimator, IsEvent};
use crate::IsError;
use svbr_lrd::acf::Acf;
use svbr_marginal::transform::GaussianTransform;
use svbr_marginal::Marginal;

/// One evaluated point of the valley plot.
#[derive(Debug, Clone, Copy)]
pub struct TwistPoint {
    /// The twist `m*`.
    pub twist: f64,
    /// The IS estimate at this twist.
    pub estimate: IsEstimate,
}

impl TwistPoint {
    /// Normalized variance (`∞` when the estimate is 0 — i.e. the twist was
    /// too weak for any replication to reach the event).
    pub fn normalized_variance(&self) -> f64 {
        self.estimate.normalized_variance()
    }
}

/// Evaluate the normalized variance at each candidate twist and return the
/// full valley plus the index of its minimum.
///
/// The Durbin–Levinson preparation is done once. Each of the `n_reps`
/// replications (seed `svbr_par::derive_seed(base_seed, r)`, over
/// `threads` threads) draws one untwisted path and scores every twist on
/// it ([`IsEstimator::replicate_twists`]): the twists share their random
/// numbers, which sharpens the valley's shape comparison, and each slot's
/// dot product is paid once instead of once per twist. Every twist's
/// estimate is folded in replication-index order, so the valley is
/// bit-identical for any thread count.
///
/// Rejects an empty or non-finite twist list, `n_reps == 0`, and the
/// inputs [`IsEstimator::new`] rejects (`horizon == 0`, `service <= 0`,
/// non-finite service or buffer).
#[allow(clippy::too_many_arguments)]
pub fn valley_search<A: Acf, M: Marginal + Sync>(
    acf: A,
    horizon: usize,
    transform: GaussianTransform<M>,
    service: f64,
    buffer: f64,
    event: IsEvent,
    twists: &[f64],
    n_reps: usize,
    base_seed: u64,
    threads: usize,
) -> Result<(Vec<TwistPoint>, usize), IsError> {
    if twists.is_empty() {
        return Err(IsError::InvalidParameter {
            name: "twists",
            constraint: "at least one candidate",
        });
    }
    if !twists.iter().all(|t| t.is_finite()) {
        return Err(IsError::InvalidParameter {
            name: "twists",
            constraint: "every twist finite",
        });
    }
    if n_reps == 0 {
        return Err(IsError::InvalidParameter {
            name: "n_reps",
            constraint: ">= 1",
        });
    }
    let est = IsEstimator::new(acf, horizon, transform, service, buffer, 0.0, event)?;
    let estimates = est.run_twists_from(twists, n_reps, base_seed, 0, threads);
    let mut points = Vec::with_capacity(twists.len());
    for (&twist, estimate) in twists.iter().zip(estimates) {
        if svbr_obsv::enabled() {
            svbr_obsv::point(
                "is.valley",
                &[
                    ("twist", twist),
                    ("buffer", buffer),
                    ("p", estimate.p),
                    ("normalized_variance", estimate.normalized_variance()),
                    ("hits", estimate.hits as f64),
                ],
            );
        }
        points.push(TwistPoint { twist, estimate });
    }
    let best = points
        .iter()
        .enumerate()
        .min_by(|a, b| {
            a.1.normalized_variance()
                .total_cmp(&b.1.normalized_variance())
        })
        .map(|(i, _)| i)
        // svbr-lint: allow(no-expect) `points` has one entry per twist and twists was checked non-empty
        .expect("non-empty");
    Ok((points, best))
}

/// A large-deviations starting point for the twist search.
///
/// The most likely overflow path crosses the buffer at some time `t ≤ k`;
/// under a constant background twist `m`, crossing by `t` requires the
/// *foreground* mean to satisfy `E[h(Z + m)] ≈ service + buffer/t`, and
/// (white-noise large deviations) the measure-change cost of sustaining
/// the twist for `t` slots is `≈ t·m²/2`. This routine scans crossing
/// times on a log grid, solves the drift equation for `m(t)` by bisection
/// (the mean is nondecreasing in the twist because `h` is monotone), and
/// returns the cost-minimizing twist, clamped to `[0, 6]`.
///
/// The paper reports that closed-form optimization is intractable after
/// the transform and falls back to the empirical valley (Fig. 14); this
/// initializer doesn't replace the valley — correlations and the exact
/// variance criterion shift the optimum — but lands inside it, so only a
/// *local* search around it is needed (see
/// `suggested_twist_lands_in_valley`).
pub fn suggest_twist<M: Marginal>(
    target: &M,
    service: f64,
    buffer: f64,
    horizon: usize,
    quad_points: usize,
) -> Result<f64, IsError> {
    if !(service > 0.0 && buffer >= 0.0 && horizon > 0) {
        return Err(IsError::InvalidParameter {
            name: "service/buffer/horizon",
            constraint: "service > 0, buffer >= 0, horizon >= 1",
        });
    }
    let mean_at = |m: f64| -> f64 {
        svbr_marginal::special::normal_expectation(
            |z| target.quantile(svbr_marginal::norm_cdf(z + m)),
            quad_points,
        )
    };
    let twist_for_drift = |needed: f64| -> Option<f64> {
        if mean_at(0.0) >= needed {
            return Some(0.0);
        }
        if mean_at(6.0) < needed {
            return None; // even a 6σ shift can't supply this drift
        }
        let (mut lo, mut hi) = (0.0f64, 6.0f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if mean_at(mid) < needed {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(0.5 * (lo + hi))
    };
    // Log grid of candidate crossing times 1..=horizon.
    let mut best: Option<(f64, f64)> = None; // (cost, twist)
    let steps = 24usize;
    for i in 0..=steps {
        let t = ((horizon as f64).ln() * i as f64 / steps as f64)
            .exp()
            .round();
        let t = t.clamp(1.0, horizon as f64);
        let needed = service + buffer / t;
        let Some(m) = twist_for_drift(needed) else {
            continue;
        };
        // svbr-lint: allow(float-eq) exact zero sentinel returned by the heuristic, not a computed value
        if m == 0.0 {
            return Ok(0.0); // the event is not rare; no twist required
        }
        let cost = t * m * m / 2.0;
        if best.is_none_or(|(c, _)| cost < c) {
            best = Some((cost, m));
        }
    }
    Ok(best.map(|(_, m)| m).unwrap_or(6.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use svbr_lrd::acf::FgnAcf;
    use svbr_marginal::Normal as NormalDist;

    #[test]
    fn valley_has_interior_minimum() -> Result<(), Box<dyn std::error::Error>> {
        // Rare event under white noise: untwisted MC sees almost nothing
        // (∞ or huge normalized variance), over-twisting inflates weights,
        // a middle twist wins.
        let twists = [0.0, 0.5, 1.0, 1.5, 2.5, 4.0, 6.0];
        let (points, best) = valley_search(
            FgnAcf::new(0.5)?,
            60,
            GaussianTransform::new(NormalDist::standard()),
            1.0,
            10.0,
            IsEvent::FirstPassage,
            &twists,
            4_000,
            11,
            4,
        )?;
        assert_eq!(points.len(), twists.len());
        assert!(best > 0, "twist 0 cannot be optimal for a rare event");
        assert!(
            best < twists.len() - 1,
            "extreme over-twisting should not be optimal (best = {})",
            points[best].twist
        );
        // The winning estimate must be usable.
        assert!(points[best].estimate.p > 0.0);
        assert!(points[best].normalized_variance().is_finite());
        Ok(())
    }

    #[test]
    fn untwisted_point_misses_rare_event() -> Result<(), Box<dyn std::error::Error>> {
        let (points, _) = valley_search(
            FgnAcf::new(0.5)?,
            40,
            GaussianTransform::new(NormalDist::standard()),
            1.2,
            12.0,
            IsEvent::FirstPassage,
            &[0.0, 2.0],
            2_000,
            5,
            2,
        )?;
        // At twist 0 the event {W crosses 12 under drift −1.2} is
        // essentially invisible at 2000 reps.
        assert_eq!(points[0].estimate.hits, 0);
        assert!(points[0].normalized_variance().is_infinite());
        assert!(points[1].estimate.hits > 0);
        Ok(())
    }

    #[test]
    fn suggested_twist_matches_ld_optimum_for_gaussian_target(
    ) -> Result<(), Box<dyn std::error::Error>> {
        // For a standard-normal target h is the identity: E[h(Z+m)] = m.
        // Cost(t) = t·(service + b/t)²/2 is minimized at t* = b/service,
        // giving m* = 2·service.
        let m = suggest_twist(&NormalDist::standard(), 1.0, 10.0, 60, 60)?;
        assert!((m - 2.0).abs() < 0.15, "m* = {m}");
        // Horizon shorter than t*: crossing must happen by k, m* = 1 + b/k.
        let m = suggest_twist(&NormalDist::standard(), 1.0, 10.0, 5, 60)?;
        assert!((m - 3.0).abs() < 0.25, "m* = {m}");
        // Not rare (target mean already exceeds the needed drift) → 0.
        let rich = NormalDist::new(5.0, 1.0)?;
        let z = suggest_twist(&rich, 1.0, 10.0, 1_000, 60)?;
        assert_eq!(z, 0.0);
        Ok(())
    }

    #[test]
    fn suggested_twist_saturates_when_unreachable() -> Result<(), Box<dyn std::error::Error>> {
        // No 6σ shift of a standard normal reaches drift 100: saturate at 6.
        let m = suggest_twist(&NormalDist::standard(), 100.0, 10.0, 1, 60)?;
        assert!((m - 6.0).abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn suggested_twist_lands_in_valley() -> Result<(), Box<dyn std::error::Error>> {
        // The drift-matching twist must be competitive: within 10x of the
        // best normalized variance found by a full grid search.
        let service = 1.0;
        let buffer = 10.0;
        let horizon = 60;
        let suggested = suggest_twist(&NormalDist::standard(), service, buffer, horizon, 60)?;
        let grid: Vec<f64> = (1..=12).map(|i| i as f64 * 0.5).collect();
        let mut twists = grid.clone();
        twists.push(suggested);
        let (points, best) = valley_search(
            FgnAcf::new(0.5)?,
            horizon,
            GaussianTransform::new(NormalDist::standard()),
            service,
            buffer,
            IsEvent::FirstPassage,
            &twists,
            4_000,
            7,
            4,
        )?;
        let suggested_point = points.last().expect("non-empty");
        let best_nv = points[best].normalized_variance();
        assert!(
            suggested_point.normalized_variance() < 10.0 * best_nv,
            "suggested m* = {suggested}: nv {} vs best {}",
            suggested_point.normalized_variance(),
            best_nv
        );
        Ok(())
    }

    #[test]
    fn suggest_twist_validation() {
        assert!(suggest_twist(&NormalDist::standard(), 0.0, 1.0, 10, 40).is_err());
        assert!(suggest_twist(&NormalDist::standard(), 1.0, -1.0, 10, 40).is_err());
        assert!(suggest_twist(&NormalDist::standard(), 1.0, 1.0, 0, 40).is_err());
    }

    fn search_white_noise(
        service: f64,
        buffer: f64,
        twists: &[f64],
        n_reps: usize,
        threads: usize,
    ) -> Result<(Vec<TwistPoint>, usize), IsError> {
        valley_search(
            FgnAcf::new(0.5)?,
            30,
            GaussianTransform::new(NormalDist::standard()),
            service,
            buffer,
            IsEvent::FirstPassage,
            twists,
            n_reps,
            3,
            threads,
        )
    }

    #[test]
    fn valley_search_is_bit_identical_across_thread_counts(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let twists = [0.0, 0.5, 1.0, 2.0];
        let (baseline, best) = search_white_noise(0.8, 4.0, &twists, 600, 1)?;
        assert!(baseline.iter().skip(1).all(|p| p.estimate.hits > 0));
        for threads in [2usize, 8] {
            let (points, b) = search_white_noise(0.8, 4.0, &twists, 600, threads)?;
            assert_eq!(b, best, "threads={threads}");
            for (p, q) in points.iter().zip(&baseline) {
                let (e, f) = (p.estimate, q.estimate);
                assert_eq!(e.p.to_bits(), f.p.to_bits(), "threads={threads}");
                assert_eq!(e.variance.to_bits(), f.variance.to_bits());
                assert_eq!(e.hits, f.hits);
                assert_eq!(e.n, f.n);
                assert_eq!(e.mean_slots.to_bits(), f.mean_slots.to_bits());
            }
        }
        Ok(())
    }

    #[test]
    fn embedded_valley_search_is_bit_identical_across_thread_counts(
    ) -> Result<(), Box<dyn std::error::Error>> {
        // The paper's composite background through `pd_project`: the
        // valley runs on exact circulant paths.
        let table = svbr_lrd::pd_project(svbr_lrd::CompositeAcf::paper_fit(), 150)?;
        let twists = [0.0, 0.5, 1.0, 2.0];
        let search = |threads| {
            valley_search(
                &table,
                150,
                GaussianTransform::new(NormalDist::standard()),
                0.5,
                12.0,
                IsEvent::FirstPassage,
                &twists,
                400,
                9,
                threads,
            )
        };
        let (baseline, best) = search(1)?;
        assert!(baseline.iter().all(|p| p.estimate.hits > 0));
        for threads in [2usize, 8] {
            let (points, b) = search(threads)?;
            assert_eq!(b, best, "threads={threads}");
            for (p, q) in points.iter().zip(&baseline) {
                let (e, f) = (p.estimate, q.estimate);
                assert_eq!(e.p.to_bits(), f.p.to_bits(), "threads={threads}");
                assert_eq!(e.variance.to_bits(), f.variance.to_bits());
                assert_eq!(e.hits, f.hits);
                assert_eq!(e.n, f.n);
                assert_eq!(e.mean_slots.to_bits(), f.mean_slots.to_bits());
            }
        }
        Ok(())
    }

    #[test]
    fn valley_twists_share_random_numbers() -> Result<(), Box<dyn std::error::Error>> {
        // Common random numbers: a twist's replications are the same
        // experiments whatever the other twists are, and the point for a
        // twist equals a plain run of the estimator at that twist on the
        // same seed schedule.
        let (both, _) = search_white_noise(0.8, 4.0, &[0.5, 1.5], 400, 2)?;
        let (alone, _) = search_white_noise(0.8, 4.0, &[1.5], 400, 2)?;
        assert_eq!(both[1].estimate, alone[0].estimate);
        let est = IsEstimator::new(
            FgnAcf::new(0.5)?,
            30,
            GaussianTransform::new(NormalDist::standard()),
            0.8,
            4.0,
            1.5,
            IsEvent::FirstPassage,
        )?;
        assert_eq!(est.run_parallel(400, 3, 1), alone[0].estimate);
        Ok(())
    }

    #[test]
    fn valley_search_rejects_nan_twist() {
        let r = search_white_noise(1.0, 4.0, &[0.5, f64::NAN], 10, 1);
        assert!(matches!(
            r,
            Err(IsError::InvalidParameter { name: "twists", .. })
        ));
        let r = search_white_noise(1.0, 4.0, &[f64::INFINITY], 10, 1);
        assert!(matches!(
            r,
            Err(IsError::InvalidParameter { name: "twists", .. })
        ));
    }

    #[test]
    fn valley_search_rejects_nonpositive_service() {
        for service in [0.0, -1.0, f64::NAN] {
            let r = search_white_noise(service, 4.0, &[0.5], 10, 1);
            assert!(
                matches!(r, Err(IsError::Domain(_))),
                "service {service}: {r:?}"
            );
        }
    }

    #[test]
    fn valley_search_rejects_non_finite_buffer() {
        for buffer in [f64::NAN, f64::INFINITY] {
            let r = search_white_noise(1.0, buffer, &[0.5], 10, 1);
            assert!(
                matches!(r, Err(IsError::Domain(_))),
                "buffer {buffer}: {r:?}"
            );
        }
    }

    #[test]
    fn valley_search_rejects_zero_reps() {
        let r = search_white_noise(1.0, 4.0, &[0.5], 0, 1);
        assert!(matches!(
            r,
            Err(IsError::InvalidParameter { name: "n_reps", .. })
        ));
    }

    #[test]
    fn rejects_empty_twists() -> Result<(), Box<dyn std::error::Error>> {
        let r = valley_search(
            FgnAcf::new(0.5)?,
            10,
            GaussianTransform::new(NormalDist::standard()),
            1.0,
            1.0,
            IsEvent::FirstPassage,
            &[],
            10,
            0,
            1,
        );
        assert!(r.is_err());
        Ok(())
    }
}
