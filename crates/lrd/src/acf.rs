//! Autocorrelation-function (ACF) models.
//!
//! The unified model of the paper is driven entirely by the ACF `r(k)` handed
//! to Hosking's generator: the SRD structure comes from a superposition of
//! decaying exponentials below a knee lag `Kt`, the LRD structure from a
//! power law `L·k^{-β}` above it (paper eqs. 10–13). This module provides
//! those building blocks plus the classical exact fGn and FARIMA(0,d,0)
//! autocorrelations and the lag-rescaling used for the composite I-B-P model
//! (eq. 15).

use crate::davies_harte::CirculantEmbedding;
use crate::{check_hurst, LrdError};

/// A normalized autocorrelation function of a stationary process.
///
/// Implementations must return `r(0) = 1` and `|r(k)| <= 1` for all lags.
/// Positive definiteness is *not* enforced by the trait (the paper's
/// composite model is only checked empirically); the generators detect
/// violations at run time.
pub trait Acf {
    /// The autocorrelation at integer lag `k` (with `r(0) = 1`).
    fn r(&self, k: usize) -> f64;

    /// Materialize the first `n` lags `[r(0), r(1), …, r(n-1)]`.
    fn table(&self, n: usize) -> Vec<f64> {
        (0..n).map(|k| self.r(k)).collect()
    }

    /// The nonnegative circulant these lags were cut from, when the ACF
    /// carries one ([`crate::davies_harte::pd_project`] tables do): its
    /// first [`CirculantEmbedding::exact_lags`] lags equal `r(k)`, so
    /// [`crate::DaviesHarte::from_embedding`] draws exact paths of that
    /// many samples. `None` by default. A wrapper that changes the lags
    /// must leave it `None`.
    fn embedding(&self) -> Option<&CirculantEmbedding> {
        None
    }
}

impl<A: Acf + ?Sized> Acf for &A {
    fn r(&self, k: usize) -> f64 {
        (**self).r(k)
    }

    fn embedding(&self) -> Option<&CirculantEmbedding> {
        (**self).embedding()
    }
}

impl Acf for Box<dyn Acf + Send + Sync> {
    fn r(&self, k: usize) -> f64 {
        (**self).r(k)
    }

    fn embedding(&self) -> Option<&CirculantEmbedding> {
        (**self).embedding()
    }
}

/// A raw tabulated ACF (e.g. estimated from an empirical trace).
///
/// Lags beyond the table are extrapolated as zero.
#[derive(Debug, Clone)]
pub struct TabulatedAcf {
    values: Vec<f64>,
    /// The circulant the table was cut from (see [`Acf::embedding`]).
    embedding: Option<CirculantEmbedding>,
}

impl TabulatedAcf {
    /// Wrap a table of autocorrelations; `values[0]` must be `1.0` and
    /// every entry must be a valid correlation in `[-1, 1]` (a few ulps of
    /// accumulated floating-point overshoot are clamped in).
    pub fn new(values: Vec<f64>) -> Result<Self, LrdError> {
        if values.is_empty() || (values[0] - 1.0).abs() > 1e-12 {
            return Err(LrdError::InvalidParameter {
                name: "values",
                constraint: "non-empty with values[0] == 1.0",
            });
        }
        let mut values = values;
        for v in values.iter_mut() {
            *v = svbr_domain::Correlation::new_clamped(*v, 1e-9)?.value();
        }
        Ok(Self {
            values,
            embedding: None,
        })
    }

    /// Attach the circulant whose first `embedding.exact_lags()` lags are
    /// this table's values.
    pub(crate) fn with_embedding(self, embedding: CirculantEmbedding) -> Self {
        Self {
            embedding: Some(embedding),
            ..self
        }
    }

    /// Number of tabulated lags.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no lags are stored (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl Acf for TabulatedAcf {
    fn r(&self, k: usize) -> f64 {
        self.values.get(k).copied().unwrap_or(0.0)
    }

    fn embedding(&self) -> Option<&CirculantEmbedding> {
        self.embedding.as_ref()
    }
}

/// Exact autocorrelation of fractional Gaussian noise with Hurst parameter
/// `H`:
///
/// `r(k) = ½ (|k+1|^{2H} − 2|k|^{2H} + |k−1|^{2H})`
///
/// For `H > ½` this decays as `H(2H−1)k^{2H−2}`, i.e. hyperbolically
/// (long-range dependent, non-summable); for `H = ½` it is white noise.
#[derive(Debug, Clone, Copy)]
pub struct FgnAcf {
    h: f64,
}

impl FgnAcf {
    /// Construct for Hurst parameter `0 < h < 1`.
    pub fn new(h: f64) -> Result<Self, LrdError> {
        Ok(Self { h: check_hurst(h)? })
    }

    /// The Hurst parameter.
    pub fn hurst(&self) -> f64 {
        self.h
    }
}

impl Acf for FgnAcf {
    fn r(&self, k: usize) -> f64 {
        if k == 0 {
            return 1.0;
        }
        let two_h = 2.0 * self.h;
        let k = k as f64;
        0.5 * ((k + 1.0).powf(two_h) - 2.0 * k.powf(two_h) + (k - 1.0).powf(two_h))
    }
}

/// Exact autocorrelation of a FARIMA(0,d,0) process (Hosking 1981):
///
/// `r(k) = r(k−1)·(k−1+d)/(k−d)`, `r(0)=1`.
///
/// Long-range dependent for `0 < d < ½`, with `H = d + ½`. The recursion is
/// evaluated lazily and cached so random access stays O(1) amortized.
#[derive(Debug, Clone)]
pub struct FarimaAcf {
    d: f64,
    cache: std::cell::RefCell<Vec<f64>>,
}

impl FarimaAcf {
    /// Construct for fractional-differencing parameter `-0.5 < d < 0.5`.
    pub fn new(d: f64) -> Result<Self, LrdError> {
        if d <= -0.5 || d >= 0.5 || !d.is_finite() {
            return Err(LrdError::InvalidParameter {
                name: "d",
                constraint: "-0.5 < d < 0.5",
            });
        }
        Ok(Self {
            d,
            cache: std::cell::RefCell::new(vec![1.0]),
        })
    }

    /// Construct from a Hurst parameter via `d = H − ½`.
    pub fn from_hurst(h: f64) -> Result<Self, LrdError> {
        Self::new(check_hurst(h)? - 0.5)
    }

    /// The fractional-differencing parameter d.
    pub fn d(&self) -> f64 {
        self.d
    }

    /// The implied Hurst parameter `H = d + ½`.
    pub fn hurst(&self) -> f64 {
        self.d + 0.5
    }
}

impl Acf for FarimaAcf {
    fn r(&self, k: usize) -> f64 {
        let mut cache = self.cache.borrow_mut();
        while cache.len() <= k {
            let j = cache.len() as f64;
            // svbr-lint: allow(no-expect) cache is seeded with r(0)=1 before any push
            let prev = *cache.last().expect("cache starts non-empty");
            cache.push(prev * (j - 1.0 + self.d) / (j - self.d));
        }
        cache[k]
    }
}

/// A single decaying exponential `r(k) = exp(−λk)` — the paper's SRD
/// component (and the ACF of an AR(1) process with `φ = e^{−λ}`).
#[derive(Debug, Clone, Copy)]
pub struct ExponentialAcf {
    lambda: f64,
}

impl ExponentialAcf {
    /// Construct with decay rate `λ > 0`.
    pub fn new(lambda: f64) -> Result<Self, LrdError> {
        if lambda > 0.0 && lambda.is_finite() {
            Ok(Self { lambda })
        } else {
            Err(LrdError::InvalidParameter {
                name: "lambda",
                constraint: "lambda > 0",
            })
        }
    }

    /// The decay rate λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl Acf for ExponentialAcf {
    fn r(&self, k: usize) -> f64 {
        (-self.lambda * k as f64).exp()
    }
}

/// A pure power law `r(k) = L·k^{−β}` for `k ≥ 1` — the paper's LRD
/// component, with `β = 2 − 2H`.
#[derive(Debug, Clone, Copy)]
pub struct PowerLawAcf {
    l: f64,
    beta: f64,
}

impl PowerLawAcf {
    /// Construct with scale `L > 0` and exponent `0 < β < 1`
    /// (so the ACF is non-summable, i.e. long-range dependent).
    pub fn new(l: f64, beta: f64) -> Result<Self, LrdError> {
        if !(l > 0.0 && l.is_finite()) {
            return Err(LrdError::InvalidParameter {
                name: "L",
                constraint: "L > 0",
            });
        }
        if !(beta > 0.0 && beta < 1.0) {
            return Err(LrdError::InvalidParameter {
                name: "beta",
                constraint: "0 < beta < 1",
            });
        }
        Ok(Self { l, beta })
    }

    /// The scale constant L.
    pub fn scale(&self) -> f64 {
        self.l
    }

    /// The decay exponent β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The implied Hurst parameter `H = 1 − β/2`.
    pub fn hurst(&self) -> f64 {
        1.0 - self.beta / 2.0
    }
}

impl Acf for PowerLawAcf {
    fn r(&self, k: usize) -> f64 {
        if k == 0 {
            1.0
        } else {
            (self.l * (k as f64).powf(-self.beta)).min(1.0)
        }
    }
}

/// One `w·exp(−λk)` term of the composite model's SRD superposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpTerm {
    /// Mixture weight `w_i` (the weights sum to 1, paper eq. 11).
    pub weight: f64,
    /// Decay rate `λ_i > 0`.
    pub rate: f64,
}

/// The paper's composite SRD+LRD autocorrelation model (eqs. 10–13):
///
/// ```text
/// r(k) = Σᵢ wᵢ·exp(−λᵢ·k)   for 1 ≤ k <  Kt     (short-range part)
/// r(k) = L·k^(−β)            for      k ≥ Kt     (long-range part)
/// r(0) = 1
/// ```
///
/// subject to `Σ wᵢ = 1` and the continuity condition
/// `L·Kt^{−β} = Σ wᵢ·exp(−λᵢ·Kt)` (eq. 12). The paper's fit for
/// *Last Action Hero* is a single exponential:
/// `r̂(k) = exp(−0.00565k)·I(k<60) + 1.59k^{−0.2}·I(k≥60)`.
#[derive(Debug, Clone)]
pub struct CompositeAcf {
    terms: Vec<ExpTerm>,
    l: f64,
    beta: f64,
    knee: usize,
}

impl CompositeAcf {
    /// Construct the composite model.
    ///
    /// `terms` is the SRD exponential mixture (weights should sum to ≈1),
    /// `l` and `beta` parameterize the LRD power law, `knee` is the
    /// crossover lag `Kt ≥ 1`. The continuity condition of eq. 12 is not
    /// enforced exactly — the paper itself fits the two pieces separately —
    /// but a large mismatch (> 0.2 in correlation) is rejected since it
    /// invariably breaks positive definiteness.
    pub fn new(terms: Vec<ExpTerm>, l: f64, beta: f64, knee: usize) -> Result<Self, LrdError> {
        if terms.is_empty() {
            return Err(LrdError::InvalidParameter {
                name: "terms",
                constraint: "at least one exponential term",
            });
        }
        for t in &terms {
            if !(t.rate > 0.0 && t.rate.is_finite()) {
                return Err(LrdError::InvalidParameter {
                    name: "terms[i].rate",
                    constraint: "rate > 0",
                });
            }
            if !(t.weight >= 0.0 && t.weight.is_finite()) {
                return Err(LrdError::InvalidParameter {
                    name: "terms[i].weight",
                    constraint: "weight >= 0",
                });
            }
        }
        let wsum: f64 = terms.iter().map(|t| t.weight).sum();
        if (wsum - 1.0).abs() > 1e-6 {
            return Err(LrdError::InvalidParameter {
                name: "terms",
                constraint: "weights must sum to 1 (eq. 11)",
            });
        }
        if knee == 0 {
            return Err(LrdError::InvalidParameter {
                name: "knee",
                constraint: "knee >= 1",
            });
        }
        let pl = PowerLawAcf::new(l, beta)?;
        let srd_at_knee: f64 = terms
            .iter()
            .map(|t| t.weight * (-t.rate * knee as f64).exp())
            .sum();
        if (pl.r(knee) - srd_at_knee).abs() > 0.2 {
            return Err(LrdError::InvalidParameter {
                name: "continuity",
                constraint: "|L*Kt^-beta - SRD(Kt)| <= 0.2 (eq. 12)",
            });
        }
        Ok(Self {
            terms,
            l,
            beta,
            knee,
        })
    }

    /// Single-exponential convenience constructor (the form the paper fits):
    /// `r(k) = exp(−λk)` below the knee, `L·k^{−β}` above.
    pub fn single(lambda: f64, l: f64, beta: f64, knee: usize) -> Result<Self, LrdError> {
        Self::new(
            vec![ExpTerm {
                weight: 1.0,
                rate: lambda,
            }],
            l,
            beta,
            knee,
        )
    }

    /// The paper's fitted model for the *Last Action Hero* trace (eq. 13):
    /// `exp(−0.00565k)` below lag 60, `1.59·k^{−0.2}` at and above it.
    pub fn paper_fit() -> Self {
        // svbr-lint: allow(no-expect) constants from Table 2 satisfy the constructor's range checks
        Self::single(0.005_650_93, 1.594_68, 0.2, 60).expect("paper parameters are valid")
    }

    /// The knee lag Kt.
    pub fn knee(&self) -> usize {
        self.knee
    }

    /// The LRD scale L.
    pub fn scale(&self) -> f64 {
        self.l
    }

    /// The LRD exponent β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The SRD exponential mixture.
    pub fn terms(&self) -> &[ExpTerm] {
        &self.terms
    }

    /// The implied Hurst parameter `H = 1 − β/2`.
    pub fn hurst(&self) -> f64 {
        1.0 - self.beta / 2.0
    }

    /// Divide the whole ACF by the attenuation factor `a` and re-solve the
    /// SRD rate so the short-range part stays a (mixture of) exponential(s)
    /// passing through the lifted knee value (paper §3.2 Step 4, eq. 14):
    ///
    /// `exp(−λ'·Kt) = r̂(Kt)/a` for the single-exponential case; for a
    /// mixture every rate is scaled by the same factor `λ'ᵢ = c·λᵢ` with `c`
    /// chosen so the mixture hits the lifted knee value.
    pub fn compensate(&self, a: f64) -> Result<CompensatedAcf, LrdError> {
        if !(a > 0.0 && a <= 1.0) {
            return Err(LrdError::InvalidParameter {
                name: "a",
                constraint: "0 < a <= 1 (Appendix A)",
            });
        }
        let kt = self.knee as f64;
        let target = (PowerLawAcf::new(self.l, self.beta)?.r(self.knee) / a).min(0.999_999);
        // Solve Σ wᵢ exp(−c·λᵢ·Kt) = target for c by bisection; the mixture
        // value is strictly decreasing in c, so the root is unique.
        let mix = |c: f64| -> f64 {
            self.terms
                .iter()
                .map(|t| t.weight * (-c * t.rate * kt).exp())
                .sum()
        };
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        while mix(hi) > target {
            hi *= 2.0;
            if hi > 1e9 {
                return Err(LrdError::InvalidParameter {
                    name: "a",
                    constraint: "attenuation too strong to compensate",
                });
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if mix(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let c = 0.5 * (lo + hi);
        let terms = self
            .terms
            .iter()
            .map(|t| ExpTerm {
                weight: t.weight,
                rate: c * t.rate,
            })
            .collect();
        Ok(CompensatedAcf {
            inner: Self {
                terms,
                l: self.l,
                beta: self.beta,
                knee: self.knee,
            },
            a,
        })
    }
}

impl Acf for CompositeAcf {
    fn r(&self, k: usize) -> f64 {
        if k == 0 {
            1.0
        } else if k < self.knee {
            self.terms
                .iter()
                .map(|t| t.weight * (-t.rate * k as f64).exp())
                .sum()
        } else {
            (self.l * (k as f64).powf(-self.beta)).min(1.0)
        }
    }
}

/// A [`CompositeAcf`] whose LRD part has been divided by the attenuation
/// factor `a` and whose SRD rates were re-solved per eq. 14. This is the
/// background ACF fed to Hosking's method in Step 4 of the paper.
#[derive(Debug, Clone)]
pub struct CompensatedAcf {
    inner: CompositeAcf,
    a: f64,
}

impl CompensatedAcf {
    /// The attenuation factor that was compensated for.
    pub fn attenuation(&self) -> f64 {
        self.a
    }

    /// The compensated composite model (SRD rates already re-solved).
    pub fn composite(&self) -> &CompositeAcf {
        &self.inner
    }
}

impl Acf for CompensatedAcf {
    fn r(&self, k: usize) -> f64 {
        if k == 0 {
            1.0
        } else if k < self.inner.knee {
            // SRD part: the re-solved exponential mixture (already lifted).
            self.inner
                .terms
                .iter()
                .map(|t| t.weight * (-t.rate * k as f64).exp())
                .sum()
        } else {
            // LRD part lifted by 1/a, clamped below 1 to stay a valid ACF.
            ((self.inner.l / self.a) * (k as f64).powf(-self.inner.beta)).min(0.999_999)
        }
    }
}

/// Lag-rescaled ACF, `r(k) = r₀(k/K)` — the paper's eq. 15, used to turn the
/// I-frame ACF (sampled once per GOP of `K` frames) into the background ACF
/// of the composite per-frame model. Fractional lags are linearly
/// interpolated between the integer lags of the base ACF.
#[derive(Debug, Clone)]
pub struct LagScaledAcf<A> {
    base: A,
    scale: f64,
}

impl<A: Acf> LagScaledAcf<A> {
    /// Construct with scale factor `K > 0` (lags shrink by `1/K`).
    pub fn new(base: A, scale: f64) -> Result<Self, LrdError> {
        if scale > 0.0 && scale.is_finite() {
            Ok(Self { base, scale })
        } else {
            Err(LrdError::InvalidParameter {
                name: "scale",
                constraint: "scale > 0",
            })
        }
    }

    /// The lag-scale factor K.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl<A: Acf> Acf for LagScaledAcf<A> {
    fn r(&self, k: usize) -> f64 {
        if k == 0 {
            return 1.0;
        }
        let x = k as f64 / self.scale;
        let lo = x.floor() as usize;
        let frac = x - lo as f64;
        // svbr-lint: allow(float-eq) exact integer lag: interpolation weight is identically zero
        if frac == 0.0 {
            self.base.r(lo)
        } else {
            (1.0 - frac) * self.base.r(lo) + frac * self.base.r(lo + 1)
        }
    }
}

/// ACF multiplied by a constant at all positive lags:
/// `r(0)=1, r(k)=c·r₀(k)` — handy for modeling the attenuation a Gaussian
/// ACF suffers under the marginal transform (Appendix A).
#[derive(Debug, Clone)]
pub struct ScaledAcf<A> {
    base: A,
    c: f64,
}

impl<A: Acf> ScaledAcf<A> {
    /// Construct with factor `0 < c <= 1`.
    pub fn new(base: A, c: f64) -> Result<Self, LrdError> {
        if c > 0.0 && c <= 1.0 {
            Ok(Self { base, c })
        } else {
            Err(LrdError::InvalidParameter {
                name: "c",
                constraint: "0 < c <= 1",
            })
        }
    }
}

impl<A: Acf> Acf for ScaledAcf<A> {
    fn r(&self, k: usize) -> f64 {
        if k == 0 {
            1.0
        } else {
            self.c * self.base.r(k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn fgn_white_noise_at_half() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.5)?;
        assert_close(acf.r(0), 1.0, 0.0);
        for k in 1..20 {
            assert_close(acf.r(k), 0.0, 1e-12);
        }
        Ok(())
    }

    #[test]
    fn fgn_acf_values() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.9)?;
        assert_close(acf.r(0), 1.0, 0.0);
        // r(1) = ½(2^1.8 − 2) for H=0.9
        assert_close(acf.r(1), 0.5 * (2f64.powf(1.8) - 2.0), 1e-12);
        // positive correlations, decreasing
        let mut prev = acf.r(1);
        for k in 2..200 {
            let cur = acf.r(k);
            assert!(cur > 0.0);
            assert!(cur < prev, "fGn ACF must decrease at lag {k}");
            prev = cur;
        }
        Ok(())
    }

    #[test]
    fn fgn_asymptotic_power_law() -> Result<(), Box<dyn std::error::Error>> {
        // r(k) ~ H(2H-1) k^{2H-2}
        let h = 0.8;
        let acf = FgnAcf::new(h)?;
        let k = 10_000usize;
        let asym = h * (2.0 * h - 1.0) * (k as f64).powf(2.0 * h - 2.0);
        assert_close(acf.r(k) / asym, 1.0, 1e-3);
        Ok(())
    }

    #[test]
    fn fgn_negative_correlation_below_half() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.3)?;
        for k in 1..10 {
            assert!(acf.r(k) < 0.0, "anti-persistent fGn at lag {k}");
        }
        Ok(())
    }

    #[test]
    fn farima_recursion_matches_closed_form() -> Result<(), Box<dyn std::error::Error>> {
        // r(k) = Γ(1−d)Γ(k+d) / (Γ(d)Γ(k+1−d)); check r(1) = d/(1−d).
        let d = 0.3;
        let acf = FarimaAcf::new(d)?;
        assert_close(acf.r(1), d / (1.0 - d), 1e-12);
        assert_close(acf.r(2), d / (1.0 - d) * (1.0 + d) / (2.0 - d), 1e-12);
        Ok(())
    }

    #[test]
    fn farima_asymptotics() -> Result<(), Box<dyn std::error::Error>> {
        // r(k) ~ Γ(1−d)/Γ(d) · k^{2d−1}
        let d = 0.4;
        let acf = FarimaAcf::new(d)?;
        let ratio1 = acf.r(4000) / 4000f64.powf(2.0 * d - 1.0);
        let ratio2 = acf.r(8000) / 8000f64.powf(2.0 * d - 1.0);
        assert_close(ratio1 / ratio2, 1.0, 1e-3);
        Ok(())
    }

    #[test]
    fn farima_random_access_order_independent() -> Result<(), Box<dyn std::error::Error>> {
        let a = FarimaAcf::new(0.25)?;
        let b = FarimaAcf::new(0.25)?;
        let x = a.r(100);
        let _ = b.r(3);
        let y = b.r(100);
        assert_close(x, y, 0.0);
        Ok(())
    }

    #[test]
    fn farima_rejects_bad_d() {
        assert!(FarimaAcf::new(0.5).is_err());
        assert!(FarimaAcf::new(-0.5).is_err());
        assert!(FarimaAcf::new(f64::NAN).is_err());
    }

    #[test]
    fn exponential_is_ar1_like() -> Result<(), Box<dyn std::error::Error>> {
        let acf = ExponentialAcf::new(0.1)?;
        assert_close(acf.r(0), 1.0, 0.0);
        assert_close(acf.r(10), (-1.0f64).exp(), 1e-15);
        assert!(ExponentialAcf::new(0.0).is_err());
        assert!(ExponentialAcf::new(-1.0).is_err());
        Ok(())
    }

    #[test]
    fn power_law_clamps_at_one() -> Result<(), Box<dyn std::error::Error>> {
        let acf = PowerLawAcf::new(1.59, 0.2)?;
        assert_close(acf.r(0), 1.0, 0.0);
        // 1.59 * 1^-0.2 = 1.59 would exceed 1; must clamp.
        assert!(acf.r(1) <= 1.0);
        assert_close(acf.r(60), 1.59 * 60f64.powf(-0.2), 1e-12);
        assert_close(acf.hurst(), 0.9, 1e-12);
        Ok(())
    }

    #[test]
    fn power_law_rejects_srd_exponent() {
        assert!(PowerLawAcf::new(1.0, 1.5).is_err());
        assert!(PowerLawAcf::new(0.0, 0.2).is_err());
    }

    #[test]
    fn composite_paper_fit_values() {
        let acf = CompositeAcf::paper_fit();
        assert_eq!(acf.knee(), 60);
        assert_close(acf.hurst(), 0.9, 1e-12);
        // Below the knee: exponential.
        assert_close(acf.r(30), (-0.005_650_93_f64 * 30.0).exp(), 1e-12);
        // At/above the knee: power law.
        assert_close(acf.r(60), 1.594_68 * 60f64.powf(-0.2), 1e-12);
        assert_close(acf.r(500), 1.594_68 * 500f64.powf(-0.2), 1e-12);
        // The two pieces roughly agree at the knee (paper's fit).
        assert_close(acf.r(59), acf.r(60), 0.02);
    }

    #[test]
    fn composite_rejects_bad_weights() {
        let terms = vec![
            ExpTerm {
                weight: 0.5,
                rate: 0.01,
            },
            ExpTerm {
                weight: 0.6,
                rate: 0.1,
            },
        ];
        assert!(CompositeAcf::new(terms, 1.59, 0.2, 60).is_err());
    }

    #[test]
    fn composite_rejects_discontinuity() {
        // SRD collapses to ~0 by lag 60 while LRD sits at 0.7: reject.
        assert!(CompositeAcf::single(0.5, 1.59, 0.2, 60).is_err());
    }

    #[test]
    fn composite_mixture_of_two_exponentials() -> Result<(), Box<dyn std::error::Error>> {
        let terms = vec![
            ExpTerm {
                weight: 0.7,
                rate: 0.004,
            },
            ExpTerm {
                weight: 0.3,
                rate: 0.01,
            },
        ];
        let acf = CompositeAcf::new(terms, 1.59, 0.2, 60)?;
        let expect = 0.7 * (-0.004f64 * 10.0).exp() + 0.3 * (-0.01f64 * 10.0).exp();
        assert_close(acf.r(10), expect, 1e-12);
        Ok(())
    }

    #[test]
    fn compensation_lifts_acf_and_stays_continuous() -> Result<(), Box<dyn std::error::Error>> {
        let base = CompositeAcf::paper_fit();
        let comp = base.compensate(0.94)?;
        assert_close(comp.attenuation(), 0.94, 0.0);
        // Above the knee the compensated ACF is exactly r/a.
        assert_close(comp.r(100), base.r(100) / 0.94, 1e-9);
        // At the knee, SRD side must hit the lifted LRD value (eq. 14).
        assert_close(comp.r(60), comp.r(59), 0.02);
        // Compensated SRD rate is *smaller* (slower decay) than original:
        assert!(comp.composite().terms()[0].rate < base.terms()[0].rate);
        // r(k) stays a correlation.
        for k in 0..2000 {
            assert!(comp.r(k) <= 1.0 && comp.r(k) > 0.0);
        }
        Ok(())
    }

    #[test]
    fn compensation_identity_when_a_is_one() -> Result<(), Box<dyn std::error::Error>> {
        let base = CompositeAcf::paper_fit();
        let comp = base.compensate(1.0)?;
        // LRD side is exactly unchanged; the SRD side is re-solved to hit the
        // LRD knee value, so it may shift by the paper fit's own (small)
        // discontinuity at the knee.
        for k in [60usize, 100, 499] {
            assert_close(comp.r(k), base.r(k), 1e-9);
        }
        for k in [1usize, 10, 59] {
            assert_close(comp.r(k), base.r(k), 0.02);
        }
        Ok(())
    }

    #[test]
    fn compensation_rejects_bad_a() {
        let base = CompositeAcf::paper_fit();
        assert!(base.compensate(0.0).is_err());
        assert!(base.compensate(1.5).is_err());
    }

    #[test]
    fn lag_scaling_interpolates() -> Result<(), Box<dyn std::error::Error>> {
        let base = ExponentialAcf::new(0.1)?;
        let scaled = LagScaledAcf::new(base, 12.0)?;
        assert_close(scaled.r(0), 1.0, 0.0);
        assert_close(scaled.r(12), base.r(1), 1e-15);
        assert_close(scaled.r(24), base.r(2), 1e-15);
        // Halfway between lags 0 and 1 of the base:
        assert_close(scaled.r(6), 0.5 * (base.r(0) + base.r(1)), 1e-15);
        Ok(())
    }

    #[test]
    fn scaled_acf_keeps_unit_lag0() -> Result<(), Box<dyn std::error::Error>> {
        let base = FgnAcf::new(0.9)?;
        let s = ScaledAcf::new(base, 0.94)?;
        assert_close(s.r(0), 1.0, 0.0);
        assert_close(s.r(5), 0.94 * base.r(5), 1e-15);
        assert!(ScaledAcf::new(base, 0.0).is_err());
        assert!(ScaledAcf::new(base, 1.1).is_err());
        Ok(())
    }

    #[test]
    fn tabulated_acf_roundtrip_and_bounds() -> Result<(), Box<dyn std::error::Error>> {
        let t = TabulatedAcf::new(vec![1.0, 0.5, 0.25])?;
        assert_close(t.r(0), 1.0, 0.0);
        assert_close(t.r(2), 0.25, 0.0);
        assert_close(t.r(3), 0.0, 0.0);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!(TabulatedAcf::new(vec![]).is_err());
        assert!(TabulatedAcf::new(vec![0.9]).is_err());
        Ok(())
    }

    #[test]
    fn table_materialization_matches_pointwise() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.75)?;
        let t = acf.table(64);
        assert_eq!(t.len(), 64);
        for (k, v) in t.iter().enumerate() {
            assert_close(*v, acf.r(k), 0.0);
        }
        Ok(())
    }
}
