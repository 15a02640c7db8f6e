//! Standard and general normal distribution: `Φ`, `Φ⁻¹`, and a [`Marginal`]
//! implementation.

use crate::special::erfc;
use crate::{Marginal, MarginalError};

/// Standard normal CDF `Φ(x)`, accurate to ~1e−14 relative across the
/// real line (tails computed via the fdlibm [`erfc`] to avoid
/// cancellation; the residual error is the rounding of `x/√2`, amplified
/// by the tail's slope).
pub fn norm_cdf(x: f64) -> f64 {
    let t = x / std::f64::consts::SQRT_2;
    if x >= 0.0 {
        1.0 - 0.5 * erfc(t)
    } else {
        0.5 * erfc(-t)
    }
}

/// Standard normal quantile `Φ⁻¹(p)` for `p ∈ (0, 1)`.
///
/// Acklam's rational approximation (|rel err| < 1.15e−9) refined by one
/// Halley step against the accurate [`norm_cdf`], giving ~1e−14.
pub fn norm_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "norm_quantile requires 0 < p < 1, got {p}"
    );
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// A general `N(mean, sd²)` distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Construct with standard deviation `sd > 0`.
    pub fn new(mean: f64, sd: f64) -> Result<Self, MarginalError> {
        if sd > 0.0 && sd.is_finite() && mean.is_finite() {
            Ok(Self { mean, sd })
        } else {
            Err(MarginalError::InvalidParameter {
                name: "sd",
                constraint: "sd > 0 and finite",
            })
        }
    }

    /// The standard normal.
    pub fn standard() -> Self {
        Self { mean: 0.0, sd: 1.0 }
    }
}

impl Marginal for Normal {
    fn cdf(&self, x: f64) -> f64 {
        norm_cdf((x - self.mean) / self.sd)
    }
    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(1e-300, 1.0 - 1e-16);
        self.mean + self.sd * norm_quantile(p)
    }
    fn mean(&self) -> f64 {
        self.mean
    }
    fn variance(&self) -> f64 {
        self.sd * self.sd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn cdf_known_values() {
        close(norm_cdf(0.0), 0.5, 1e-15);
        close(norm_cdf(1.0), 0.841_344_746_068_543, 1e-12);
        close(norm_cdf(-1.0), 0.158_655_253_931_457, 1e-12);
        close(norm_cdf(1.96), 0.975_002_104_851_780, 1e-10);
        close(norm_cdf(-3.0), 1.349_898_031_630_095e-3, 1e-12);
    }

    #[test]
    fn cdf_extreme_tails() {
        close(norm_cdf(-8.0), 6.220_960_574_271_78e-16, 1e-26);
        close(norm_cdf(8.0), 1.0, 1e-15);
    }

    #[test]
    fn quantile_known_values() {
        close(norm_quantile(0.5), 0.0, 1e-14);
        close(norm_quantile(0.975), 1.959_963_984_540_054, 1e-10);
        close(norm_quantile(0.841_344_746_068_543), 1.0, 1e-10);
        close(norm_quantile(0.001), -3.090_232_306_167_813, 1e-9);
    }

    #[test]
    fn quantile_cdf_roundtrip() {
        for p in [1e-10, 1e-5, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-6] {
            close(norm_cdf(norm_quantile(p)), p, 1e-12 * p.max(1e-3));
        }
        for x in [-6.0, -2.5, -0.1, 0.0, 0.7, 3.3, 6.0] {
            close(norm_quantile(norm_cdf(x)), x, 1e-8);
        }
    }

    #[test]
    #[should_panic(expected = "norm_quantile requires")]
    fn quantile_rejects_zero() {
        norm_quantile(0.0);
    }

    #[test]
    fn general_normal_marginal() -> Result<(), Box<dyn std::error::Error>> {
        let d = Normal::new(10.0, 2.0)?;
        close(d.mean(), 10.0, 0.0);
        close(d.variance(), 4.0, 0.0);
        close(d.cdf(10.0), 0.5, 1e-14);
        close(d.quantile(0.5), 10.0, 1e-12);
        close(d.quantile(0.841_344_746_068_543), 12.0, 1e-9);
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        Ok(())
    }

    #[test]
    fn standard_normal_helper() {
        let d = Normal::standard();
        close(d.mean(), 0.0, 0.0);
        close(d.variance(), 1.0, 0.0);
    }
}
