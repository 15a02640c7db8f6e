//! Where a replication's untwisted background path comes from, and how a
//! twist's likelihood ratio is scored on it (see the crate docs).

use rand::Rng;
use svbr_domain::SvbrError;
use svbr_lrd::acf::Acf;
use svbr_lrd::gauss::Normal;
use svbr_lrd::hosking::{HoskingSampler, PreparedHosking};
use svbr_lrd::{kernels, CirculantEmbedding, DaviesHarte};

/// The path source of an [`crate::IsEstimator`], shared by its clones.
#[derive(Debug)]
pub(crate) enum PathSource {
    /// Durbin–Levinson rows `φ_τ`: the path is drawn slot by slot and
    /// the log-LR accumulated per slot ([`SharedSlot`]).
    Recursion(PreparedHosking),
    /// The background's carried circulant: the whole path in one FFT,
    /// each twist scored in closed form when it stops.
    Circulant(CirculantPaths),
}

impl PathSource {
    /// The circulant source when `acf` carries an embedding exact over
    /// `horizon` lags, else the Durbin–Levinson rows.
    pub(crate) fn new<A: Acf>(acf: A, horizon: usize) -> Result<Self, SvbrError> {
        Ok(match acf.embedding() {
            Some(embedding) if horizon <= embedding.exact_lags() => {
                Self::Circulant(CirculantPaths::new(&acf, embedding, horizon)?)
            }
            _ => Self::Recursion(PreparedHosking::new(&acf, horizon)?),
        })
    }

    /// The horizon `k`.
    pub(crate) fn len(&self) -> usize {
        match self {
            Self::Recursion(prepared) => prepared.len(),
            Self::Circulant(paths) => paths.sampler.len(),
        }
    }
}

/// One slot of the untwisted Durbin–Levinson path, carrying everything a
/// twist needs (see the crate docs): under twist `m*` the slot's background
/// value is `x0 + m*`, and its log-likelihood-ratio increment depends only
/// on the innovation `ε`, the conditional variance `v` and `s = 1 − Σφ`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SharedSlot {
    x0: f64,
    eps: f64,
    var: f64,
    s: f64,
}

impl SharedSlot {
    /// Draw the next slot of the untwisted path (slot `hist.len()`) and
    /// append its value to `hist` — one O(k) dot product for every twist.
    pub(crate) fn draw<R: Rng + ?Sized>(
        prepared: &PreparedHosking,
        hist: &mut Vec<f64>,
        normal: &mut Normal,
        rng: &mut R,
    ) -> Self {
        let m = prepared.moments(hist.len(), hist);
        let eps = normal.sample(rng) * m.var.sqrt();
        let x0 = m.mean + eps;
        hist.push(x0);
        Self {
            x0,
            eps,
            var: m.var,
            s: 1.0 - m.phi_sum,
        }
    }

    /// The twisted background value `x0 + m*` and the log-likelihood-ratio
    /// increment `−shift·(2ε + shift)/(2v)`, `shift = m*·(1 − Σφ)`, of this
    /// slot under twist `m*`.
    #[inline]
    pub(crate) fn twisted(&self, twist: f64) -> (f64, f64) {
        let shift = twist * self.s;
        // svbr-lint: allow(float-eq) exact zero: untwisted replications must skip the LR update entirely
        let d_log_lr = if shift != 0.0 {
            -(shift * (2.0 * self.eps + shift) / (2.0 * self.var))
        } else {
            0.0
        };
        (self.x0 + twist, d_log_lr)
    }
}

/// Exact circulant paths of a carried embedding, with the rows that score
/// a twist on them: `g_τ = Σ_τ⁻¹·1_τ` and `G_τ = g_τᵀ·1_τ` for every
/// stopping time `τ = 1..=k`.
#[derive(Debug)]
pub(crate) struct CirculantPaths {
    pub(crate) sampler: DaviesHarte,
    /// `g_τ` at index `τ − 1`, for `τ = 1..=k`: the same k(k+1)/2 doubles
    /// the `φ` rows take. One allocation per row, as for the `φ` rows: a
    /// single k(k+1)/2 block (25 MB at k = 2500) left the allocator
    /// holding ~13 MB more peak RSS across successive estimators.
    g: Vec<Vec<f64>>,
    /// `G_τ` at index `τ − 1`.
    g_total: Vec<f64>,
}

impl CirculantPaths {
    fn new<A: Acf>(
        acf: A,
        embedding: &CirculantEmbedding,
        horizon: usize,
    ) -> Result<Self, SvbrError> {
        let mut span = svbr_obsv::span("is.circulant_prepare");
        span.field("n", horizon as f64);
        let sampler = DaviesHarte::from_embedding(embedding, horizon)?;
        let mut g = Vec::with_capacity(horizon);
        let mut g_total = Vec::with_capacity(horizon);
        for_each_g(acf, horizon, |row, total| {
            g.push(row.to_vec());
            g_total.push(total);
        })?;
        Ok(Self {
            sampler,
            g,
            g_total,
        })
    }

    /// The score of the prefix `x0` stopped at `τ = x0.len()` (≥ 1).
    pub(crate) fn score(&self, x0: &[f64]) -> Score {
        let tau = x0.len();
        Score {
            dot: kernels::dot(&self.g[tau - 1], x0),
            total: self.g_total[tau - 1],
        }
    }
}

/// `g_τᵀ·x0[..τ]` and `G_τ` of one stopped prefix: what the closed-form
/// log-LR of every twist needs ([`Score::log_lr`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Score {
    pub(crate) dot: f64,
    pub(crate) total: f64,
}

impl Score {
    /// `ln L_τ = −m*·g_τᵀx0 − ½m*²·G_τ`: the log ratio of the untwisted to
    /// the twisted Gaussian density of `x0 + m*` over the first `τ` slots.
    #[inline]
    pub(crate) fn log_lr(self, twist: f64) -> f64 {
        // svbr-lint: allow(float-eq) exact zero: untwisted replications carry no likelihood ratio
        if twist == 0.0 {
            return 0.0;
        }
        -twist * self.dot - 0.5 * twist * twist * self.total
    }
}

/// Walk `g_τ = Σ_τ⁻¹·1_τ` and `G_τ = g_τᵀ·1_τ` for `τ = 1..=horizon`,
/// handing each to `visit`.
///
/// With `φ_τ`, `v_τ` the Durbin–Levinson row and innovation variance of
/// slot `τ` and `s_τ = 1 − Σφ_τ`, the innovations of a path are
/// independent with variances `v_τ`, so `Σ⁻¹ = Lᵀ·D⁻¹·L` for the
/// unit-lower-triangular `L` whose row `τ` is `[−φ_τ reversed, 1]`. Hence
///
/// ```text
/// g_{τ+1} = [g_τ; 0] + (s_τ/v_τ)·[−φ_τ reversed; 1],   G_{τ+1} = G_τ + s_τ²/v_τ
/// ```
///
/// and `g_τᵀx = Σ_{i<τ} s_i·ε_i/v_i`: the per-slot log-LR increments of
/// [`SharedSlot::twisted`], summed in closed form.
pub(crate) fn for_each_g<A: Acf>(
    acf: A,
    horizon: usize,
    mut visit: impl FnMut(&[f64], f64),
) -> Result<(), SvbrError> {
    let mut dl = HoskingSampler::new(&acf)?;
    let mut g = Vec::with_capacity(horizon);
    let mut total = 0.0;
    for _ in 0..horizon {
        let m = dl.next_moments()?;
        let s = 1.0 - m.phi_sum;
        let c = s / m.var;
        for (gj, &phi) in g.iter_mut().zip(dl.phi().iter().rev()) {
            *gj -= c * phi;
        }
        g.push(c);
        total += c * s;
        visit(&g, total);
        dl.push(0.0); // history values don't affect the recursion
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use svbr_lrd::acf::{CompositeAcf, FgnAcf};
    use svbr_lrd::pd_project;

    #[test]
    fn closed_form_lr_matches_dl_accumulation_at_every_stop(
    ) -> Result<(), Box<dyn std::error::Error>> {
        // On one exact circulant path, the closed form at every stopping
        // time equals the per-slot Durbin–Levinson sum of
        // `SharedSlot::twisted` increments over the same path.
        let k = 400;
        for table in [
            pd_project(CompositeAcf::paper_fit(), k)?,
            pd_project(FgnAcf::new(0.85)?, k)?,
        ] {
            let PathSource::Circulant(paths) = PathSource::new(&table, k)? else {
                return Err("a pd_project table must give the circulant source".into());
            };
            let prepared = PreparedHosking::new(&table, k)?;
            let mut worst = 0.0f64;
            for seed in 0..5 {
                let x0 = paths.sampler.generate(&mut StdRng::seed_from_u64(seed));
                for twist in [0.5, 2.0, 5.0] {
                    let mut acc = 0.0;
                    for tau in 1..=k {
                        let i = tau - 1;
                        let m = prepared.moments(i, &x0[..i]);
                        let slot = SharedSlot {
                            x0: x0[i],
                            eps: x0[i] - m.mean,
                            var: m.var,
                            s: 1.0 - m.phi_sum,
                        };
                        acc += slot.twisted(twist).1;
                        let got = paths.score(&x0[..tau]).log_lr(twist);
                        worst = worst.max((got - acc).abs() / acc.abs());
                    }
                }
            }
            assert!(worst <= 1e-12, "max relative |Δ log L| {worst:e}");
            assert_eq!(paths.score(&[0.3]).log_lr(0.0), 0.0);
        }
        Ok(())
    }

    #[test]
    fn source_follows_the_embedding_and_horizon() -> Result<(), Box<dyn std::error::Error>> {
        let table = pd_project(FgnAcf::new(0.8)?, 50)?;
        assert!(matches!(
            PathSource::new(&table, 50)?,
            PathSource::Circulant(_)
        ));
        assert!(matches!(
            PathSource::new(&table, 10)?,
            PathSource::Circulant(_)
        ));
        // Past the exact lags, and for ACFs without an embedding: DL.
        assert!(matches!(
            PathSource::new(&table, 51)?,
            PathSource::Recursion(_)
        ));
        assert!(matches!(
            PathSource::new(FgnAcf::new(0.8)?, 50)?,
            PathSource::Recursion(_)
        ));
        for source in [
            PathSource::new(&table, 37)?,
            PathSource::new(FgnAcf::new(0.8)?, 37)?,
        ] {
            assert_eq!(source.len(), 37);
        }
        Ok(())
    }
}
