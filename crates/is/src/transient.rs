//! Importance-sampled transient curves (Fig. 15).
//!
//! Fig. 15 plots `Pr(Q_k > b)` against the stop time `k` for empty and full
//! initial buffers. One IS replication can score *every* stop time at once:
//! run the twisted path to the full horizon, maintain the Lindley recursion
//! and the running log-likelihood ratio, and at each requested stop time
//! record `1{Q_k > b}·L(k)`. The twisted path is the untwisted one shifted
//! by `m*`, slot by slot (the same per-slot step as
//! [`crate::IsEstimator::replicate_twists`]).

use crate::path::{for_each_g, Score, SharedSlot};
use crate::IsError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use svbr_lrd::acf::Acf;
use svbr_lrd::cache::{hosking_coefficients, CachedHosking};
use svbr_lrd::gauss::Normal;
use svbr_lrd::hosking::PreparedHosking;
use svbr_lrd::{kernels, DaviesHarte};
use svbr_marginal::transform::GaussianTransform;
use svbr_marginal::Marginal;

/// Configuration for an IS transient-curve run.
#[derive(Debug, Clone)]
pub struct TransientConfig {
    /// Deterministic per-slot service rate.
    pub service: f64,
    /// Buffer threshold `b`.
    pub buffer: f64,
    /// Initial queue level `Q_0`.
    pub initial: f64,
    /// Twist `m*` applied to the background process.
    pub twist: f64,
    /// Stop times (nondecreasing, last one = horizon).
    pub stop_times: Vec<usize>,
}

/// Per-stop-time IS estimates.
#[derive(Debug, Clone)]
pub struct TransientEstimate {
    /// The stop times.
    pub stop_times: Vec<usize>,
    /// `P̂(Q_k > b)` per stop time.
    pub p: Vec<f64>,
    /// Estimator variance per stop time.
    pub variance: Vec<f64>,
    /// Replications used.
    pub n: usize,
}

impl TransientEstimate {
    /// `(k, P̂, std_err)` rows.
    pub fn rows(&self) -> Vec<(usize, f64, f64)> {
        self.stop_times
            .iter()
            .zip(self.p.iter().zip(self.variance.iter()))
            .map(|(&k, (&p, &v))| (k, p, v.sqrt()))
            .collect()
    }
}

/// Estimate the transient overflow curve by importance sampling.
///
/// Each replication runs to the horizon (no early termination — every stop
/// time needs its indicator) and is scored at all stop times. When `acf`
/// carries a circulant embedding exact over the horizon
/// ([`Acf::embedding`]), the untwisted path is one Davies–Harte draw and
/// stop time `t` is weighted in closed form,
/// `ln L_t = −m*·g_tᵀx0[..t] − ½m*²·G_t`, from the rows `g_t = Σ_t⁻¹·1_t`
/// at the stop times only. Otherwise the path is drawn by the
/// Durbin–Levinson recursion, whose coefficient schedule is fetched from
/// the process cache ([`hosking_coefficients`]) — repeated curves over the
/// same ACF and horizon share one schedule instead of re-running the O(n²)
/// recursion.
///
/// Replication `i` draws from the seed
/// `svbr_par::derive_seed(master_seed, i)`; per-replication scores are
/// folded in replication-index order, so the curve is **bit-identical for
/// any thread count**.
pub fn is_transient_curve<A, M>(
    acf: A,
    transform: &GaussianTransform<M>,
    config: &TransientConfig,
    n_reps: usize,
    master_seed: u64,
    threads: usize,
) -> Result<TransientEstimate, IsError>
where
    A: Acf,
    M: Marginal + Sync,
{
    if config.stop_times.is_empty()
        || config.stop_times.windows(2).any(|w| w[1] < w[0])
        || config.stop_times[0] == 0
    {
        return Err(IsError::InvalidParameter {
            name: "stop_times",
            constraint: "non-empty, nondecreasing, starting >= 1",
        });
    }
    if n_reps == 0 {
        return Err(IsError::InvalidParameter {
            name: "n_reps",
            constraint: ">= 1",
        });
    }
    if !(config.service > 0.0 && config.initial >= 0.0 && config.twist.is_finite()) {
        return Err(IsError::InvalidParameter {
            name: "service/initial/twist",
            constraint: "service > 0, initial >= 0, finite twist",
        });
    }
    // svbr-lint: allow(no-expect) stop_times emptiness is rejected by the guard above
    let horizon = *config.stop_times.last().expect("non-empty");
    let twist = config.twist;
    // One weight vector per replication (0.0 where the stop time missed),
    // folded below in replication-index order for thread-count invariance.
    let per_rep = match acf.embedding() {
        Some(embedding) if horizon <= embedding.exact_lags() => {
            let sampler = DaviesHarte::from_embedding(embedding, horizon)?;
            let stops = stop_rows(&acf, &config.stop_times)?;
            svbr_par::run_replications(master_seed, n_reps, threads, |_rep, seed| {
                let x0 = sampler.generate(&mut StdRng::seed_from_u64(seed));
                score_stops(&x0, transform, config, |stop, t| {
                    let (g, total) = &stops[stop];
                    let dot = kernels::dot(g, &x0[..t]);
                    Score { dot, total: *total }.log_lr(twist)
                })
            })
        }
        _ => {
            let prepared: Arc<PreparedHosking> = match hosking_coefficients(&acf, horizon)? {
                CachedHosking::Shared(p) => p,
                // Horizon past the cache's memory cap: pay the recursion locally.
                CachedHosking::Streaming => Arc::new(PreparedHosking::new(acf, horizon)?),
            };
            svbr_par::run_replications(master_seed, n_reps, threads, |_rep, seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut normal = Normal::new();
                let mut x0 = Vec::with_capacity(horizon);
                let mut cum_log_lr = Vec::with_capacity(horizon);
                let mut log_lr = 0.0f64;
                for _ in 0..horizon {
                    let slot = SharedSlot::draw(&prepared, &mut x0, &mut normal, &mut rng);
                    log_lr += slot.twisted(twist).1;
                    cum_log_lr.push(log_lr);
                }
                score_stops(&x0, transform, config, |_, t| cum_log_lr[t - 1])
            })
        }
    };
    let m = config.stop_times.len();
    let mut sums = vec![0.0f64; m];
    let mut sums_sq = vec![0.0f64; m];
    for weights in &per_rep {
        for (i, &w) in weights.iter().enumerate() {
            sums[i] += w;
            sums_sq[i] += w * w;
        }
    }
    let n = n_reps as f64;
    let p: Vec<f64> = sums.iter().map(|&s| s / n).collect();
    let variance: Vec<f64> = sums_sq
        .iter()
        .zip(p.iter())
        .map(|(&s2, &pk)| ((s2 / n - pk * pk).max(0.0)) / n)
        .collect();
    Ok(TransientEstimate {
        stop_times: config.stop_times.clone(),
        p,
        variance,
        n: n_reps,
    })
}

/// Run the Lindley recursion over `x0 + m*` from the configured initial
/// level and score each stop time `t`: `1{Q_t > b}·exp(log_lr(stop, t))`,
/// `stop` indexing `config.stop_times`.
fn score_stops<M: Marginal>(
    x0: &[f64],
    transform: &GaussianTransform<M>,
    config: &TransientConfig,
    log_lr: impl Fn(usize, usize) -> f64,
) -> Vec<f64> {
    let stops = &config.stop_times;
    let mut weights = vec![0.0f64; stops.len()];
    let mut q = config.initial;
    let mut next = 0usize;
    for (i, &x) in x0.iter().enumerate() {
        let y = transform.apply(x + config.twist);
        q = (q + y - config.service).max(0.0);
        while next < stops.len() && stops[next] == i + 1 {
            if q > config.buffer {
                weights[next] = log_lr(next, i + 1).exp();
            }
            next += 1;
        }
    }
    weights
}

/// `(g_t, G_t)` at each stop time `t` (see [`crate::path::for_each_g`]):
/// all the closed-form weights need, without the O(k²) table of every row.
fn stop_rows<A: Acf>(acf: A, stop_times: &[usize]) -> Result<Vec<(Vec<f64>, f64)>, IsError> {
    let horizon = stop_times.last().copied().unwrap_or(0);
    let mut rows = Vec::with_capacity(stop_times.len());
    let mut tau = 0usize;
    for_each_g(acf, horizon, |g, total| {
        tau += 1;
        while rows.len() < stop_times.len() && stop_times[rows.len()] == tau {
            // svbr-analyze: allow(alloc-in-hot-loop) bounded: one row per stop time, stop_times.len() copies in all
            rows.push((g.to_vec(), total));
        }
    })?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svbr_lrd::acf::FgnAcf;
    use svbr_marginal::Normal as NormalDist;

    fn config(stop_times: Vec<usize>, twist: f64, initial: f64) -> TransientConfig {
        TransientConfig {
            service: 0.7,
            buffer: 3.0,
            initial,
            twist,
            stop_times,
        }
    }

    #[test]
    fn matches_plain_mc_at_zero_twist() -> Result<(), Box<dyn std::error::Error>> {
        let t = GaussianTransform::new(NormalDist::standard());
        let acf = FgnAcf::new(0.5)?;
        let est = is_transient_curve(acf, &t, &config(vec![10, 50, 150], 0.0, 0.0), 20_000, 1, 4)?;
        // Plain-MC comparison via the queue crate.
        let mut rng = StdRng::seed_from_u64(99);
        let mut normal = Normal::new();
        let mc = svbr_queue::transient_curve(
            |_| (0..150).map(|_| normal.sample(&mut rng)).collect(),
            20_000,
            &[10, 50, 150],
            0.7,
            3.0,
            svbr_queue::InitialCondition::Empty,
        )?;
        for (i, (&p_is, &p_mc)) in est.p.iter().zip(mc.iter()).enumerate() {
            let tol =
                4.0 * (est.variance[i].sqrt() + (p_mc * (1.0 - p_mc) / 20_000.0).sqrt()) + 1e-4;
            assert!(
                (p_is - p_mc).abs() < tol,
                "stop {i}: IS {p_is} vs MC {p_mc}"
            );
        }
        Ok(())
    }

    #[test]
    fn twisted_estimate_agrees_with_untwisted() -> Result<(), Box<dyn std::error::Error>> {
        let t = GaussianTransform::new(NormalDist::standard());
        let acf = FgnAcf::new(0.5)?;
        let a = is_transient_curve(acf, &t, &config(vec![40], 0.0, 0.0), 40_000, 2, 4)?;
        let b = is_transient_curve(acf, &t, &config(vec![40], 0.5, 0.0), 40_000, 3, 4)?;
        let tol = 4.0 * (a.variance[0].sqrt() + b.variance[0].sqrt());
        assert!(
            (a.p[0] - b.p[0]).abs() < tol,
            "untwisted {} vs twisted {}",
            a.p[0],
            b.p[0]
        );
        Ok(())
    }

    #[test]
    fn full_start_exceeds_empty_start_early() -> Result<(), Box<dyn std::error::Error>> {
        let t = GaussianTransform::new(NormalDist::standard());
        let acf = FgnAcf::new(0.5)?;
        let empty = is_transient_curve(acf, &t, &config(vec![5, 100], 0.3, 0.0), 10_000, 4, 4)?;
        let full = is_transient_curve(acf, &t, &config(vec![5, 100], 0.3, 3.0), 10_000, 5, 4)?;
        assert!(
            full.p[0] > empty.p[0],
            "early: full {} vs empty {}",
            full.p[0],
            empty.p[0]
        );
        // Late: closer together (both near steady state).
        assert!((full.p[1] - empty.p[1]).abs() < (full.p[0] - empty.p[0]));
        Ok(())
    }

    #[test]
    fn curve_is_bit_identical_across_thread_counts() -> Result<(), Box<dyn std::error::Error>> {
        let t = GaussianTransform::new(NormalDist::standard());
        let acf = FgnAcf::new(0.7)?;
        let cfg = config(vec![5, 20, 60], 0.4, 0.0);
        let baseline = is_transient_curve(acf, &t, &cfg, 400, 21, 1)?;
        assert!(baseline.p.iter().any(|&p| p > 0.0), "need non-trivial hits");
        for threads in [2usize, 8] {
            let est = is_transient_curve(acf, &t, &cfg, 400, 21, threads)?;
            for (i, (p, v)) in est.p.iter().zip(est.variance.iter()).enumerate() {
                assert_eq!(
                    p.to_bits(),
                    baseline.p[i].to_bits(),
                    "p[{i}] at threads={threads}"
                );
                assert_eq!(
                    v.to_bits(),
                    baseline.variance[i].to_bits(),
                    "variance[{i}] at threads={threads}"
                );
            }
        }
        Ok(())
    }

    /// The paper's composite background, projected with its circulant.
    fn composite_table(k: usize) -> Result<svbr_lrd::acf::TabulatedAcf, svbr_lrd::LrdError> {
        svbr_lrd::pd_project(svbr_lrd::CompositeAcf::paper_fit(), k)
    }

    #[test]
    fn embedded_curve_is_bit_identical_across_thread_counts(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let t = GaussianTransform::new(NormalDist::standard());
        let table = composite_table(60)?;
        let cfg = config(vec![5, 20, 60], 0.4, 0.0);
        let baseline = is_transient_curve(&table, &t, &cfg, 400, 21, 1)?;
        assert!(baseline.p.iter().any(|&p| p > 0.0), "need non-trivial hits");
        for threads in [2usize, 8] {
            let est = is_transient_curve(&table, &t, &cfg, 400, 21, threads)?;
            for (i, (p, v)) in est.p.iter().zip(est.variance.iter()).enumerate() {
                assert_eq!(
                    p.to_bits(),
                    baseline.p[i].to_bits(),
                    "p[{i}] threads={threads}"
                );
                assert_eq!(v.to_bits(), baseline.variance[i].to_bits());
            }
        }
        Ok(())
    }

    #[test]
    fn embedded_curve_agrees_with_recursion() -> Result<(), Box<dyn std::error::Error>> {
        // Same table values; circulant paths with closed-form weights vs
        // the Durbin–Levinson recursion, on independent streams.
        let t = GaussianTransform::new(NormalDist::standard());
        let embedded = composite_table(80)?;
        let plain = svbr_lrd::pd_project_table(svbr_lrd::CompositeAcf::paper_fit(), 80)?;
        let mut cfg = config(vec![10, 40, 80], 0.3, 0.0);
        cfg.buffer = 8.0;
        let a = is_transient_curve(&embedded, &t, &cfg, 20_000, 31, 2)?;
        let b = is_transient_curve(&plain, &t, &cfg, 20_000, 32, 2)?;
        for i in 0..3 {
            let tol = 4.0 * (a.variance[i].sqrt() + b.variance[i].sqrt());
            assert!(b.p[i] > 0.0, "stop {i}: no hits");
            assert!(
                (a.p[i] - b.p[i]).abs() < tol,
                "stop {i}: circulant {} vs recursion {} (tol {tol})",
                a.p[i],
                b.p[i]
            );
        }
        Ok(())
    }

    #[test]
    fn rows_shape() -> Result<(), Box<dyn std::error::Error>> {
        let t = GaussianTransform::new(NormalDist::standard());
        let acf = FgnAcf::new(0.5)?;
        let est = is_transient_curve(acf, &t, &config(vec![5, 10], 0.2, 0.0), 500, 6, 2)?;
        let rows = est.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 5);
        assert!(rows.iter().all(|r| r.1 >= 0.0 && r.2 >= 0.0));
        Ok(())
    }

    #[test]
    fn validation() -> Result<(), Box<dyn std::error::Error>> {
        let t = GaussianTransform::new(NormalDist::standard());
        let acf = FgnAcf::new(0.5)?;
        assert!(is_transient_curve(acf, &t, &config(vec![], 0.0, 0.0), 10, 1, 1).is_err());
        assert!(is_transient_curve(acf, &t, &config(vec![0, 5], 0.0, 0.0), 10, 1, 1).is_err());
        assert!(is_transient_curve(acf, &t, &config(vec![5, 3], 0.0, 0.0), 10, 1, 1).is_err());
        assert!(is_transient_curve(acf, &t, &config(vec![5], 0.0, 0.0), 0, 1, 1).is_err());
        let mut c = config(vec![5], 0.0, 0.0);
        c.initial = -1.0;
        assert!(is_transient_curve(acf, &t, &c, 10, 1, 1).is_err());
        Ok(())
    }
}
