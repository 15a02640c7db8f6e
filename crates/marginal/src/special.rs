//! Special functions: `ln Γ`, regularized incomplete gamma and its inverse,
//! `erf`/`erfc`, and Gauss–Hermite quadrature.
//!
//! Everything is implemented from scratch (Lanczos, series/continued
//! fraction, Newton refinement, rational approximations) so the
//! reproduction carries no numerics dependencies. `erfc` is a port of
//! fdlibm's `s_erf.c`, documented at under one ulp; it is the `Φ` behind
//! every Gaussian-to-marginal transform, so it is also the cheapest (one
//! or two `exp` calls, no iteration). The incomplete gamma
//! functions are accurate to ~1e−13 relative over the ranges exercised
//! here. `erfc` and `Q(½, x²)` agree within 1.4e−14 relative on
//! [−8, 8]. All of this is orders of magnitude below any statistical
//! error in the paper's experiments.

/// Natural log of the Gamma function (Lanczos approximation, g = 7, n = 9).
///
/// Valid for `x > 0`; relative error below 1e−13.
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0");
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma `P(a, x) = γ(a, x)/Γ(a)`.
///
/// Series expansion for `x < a + 1`, Lentz continued fraction otherwise.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0, "gamma_p requires a > 0");
    if x <= 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 − P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0, "gamma_q requires a > 0");
    if x <= 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    (sum * (-x + a * x.ln() - ln_gamma(a)).exp()).clamp(0.0, 1.0)
}

fn gamma_q_cf(a: f64, x: f64) -> f64 {
    // Modified Lentz's method for the continued fraction representation.
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    ((-x + a * x.ln() - ln_gamma(a)).exp() * h).clamp(0.0, 1.0)
}

/// Inverse of the regularized lower incomplete gamma: the `x` with
/// `P(a, x) = p`, via a Wilson–Hilferty starting guess refined by
/// Halley-damped Newton iterations (the scheme of Numerical Recipes).
pub fn inv_gamma_p(a: f64, p: f64) -> f64 {
    debug_assert!(a > 0.0);
    debug_assert!((0.0..=1.0).contains(&p));
    if p <= 0.0 {
        return 0.0;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }
    let gln = ln_gamma(a);
    let a1 = a - 1.0;
    let lna1 = if a > 1.0 { a1.ln() } else { 0.0 };
    let afac = if a > 1.0 {
        (a1 * (lna1 - 1.0) - gln).exp()
    } else {
        0.0
    };
    let mut x;
    if a > 1.0 {
        // Wilson–Hilferty
        let pp = if p < 0.5 { p } else { 1.0 - p };
        let t = (-2.0 * pp.ln()).sqrt();
        let mut z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t;
        if p < 0.5 {
            z = -z;
        }
        x = (a * (1.0 - 1.0 / (9.0 * a) - z / (3.0 * a.sqrt())).powi(3)).max(1e-300);
    } else {
        let t = 1.0 - a * (0.253 + a * 0.12);
        x = if p < t {
            (p / t).powf(1.0 / a)
        } else {
            1.0 - (1.0 - (p - t) / (1.0 - t)).ln()
        };
    }
    // NR floors the starting guess well away from 0 so the Newton
    // derivative doesn't underflow in the deep lower tail.
    x = x.max(1e-3);
    for _ in 0..20 {
        if x <= 0.0 {
            x = 1e-3;
        }
        let err = gamma_p(a, x) - p;
        let t = if a > 1.0 {
            afac * (-(x - a1) + a1 * (x.ln() - lna1)).exp()
        } else {
            (-x + a1 * x.ln() - gln).exp()
        };
        // svbr-lint: allow(float-eq) exact underflow-to-zero terminates the series
        if t == 0.0 || !t.is_finite() {
            break;
        }
        let u = err / t;
        // Halley damping
        let dx = u / (1.0 - 0.5 * (u * ((a - 1.0) / x - 1.0)).min(1.0));
        if !dx.is_finite() {
            break;
        }
        x -= dx;
        if x <= 0.0 {
            x = 0.5 * (x + dx);
        }
        if dx.abs() < 1e-12 * x.abs().max(1e-12) {
            break;
        }
    }
    // Verify; if Newton wandered (deep tails, extreme shapes), fall back to
    // bisection — P(a,·) is strictly increasing, so this always succeeds.
    if !(x.is_finite() && x >= 0.0) || (gamma_p(a, x) - p).abs() > 1e-8 {
        let mut lo = 0.0f64;
        let mut hi = (a + 10.0).max(1.0);
        while gamma_p(a, hi) < p {
            hi *= 2.0;
            if hi > 1e300 {
                return hi;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if gamma_p(a, mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if (hi - lo) < 1e-14 * hi.max(1e-14) {
                break;
            }
        }
        x = 0.5 * (lo + hi);
    }
    x
}

// Rational approximations of fdlibm's `s_erf.c` (Sun Microsystems, 1993),
// which documents every branch of `erfc` at under one ulp. `ERX` is
// 0.84506291151 rounded to single precision.
const ERX: f64 = 0.845_062_911_510_467_5;
// erfc on |x| < 0.84375: 1 − (x + x·PP(x²)/QQ(x²)).
const PP: [f64; 5] = [
    0.128_379_167_095_512_56,
    -0.325_042_107_247_001_5,
    -0.028_481_749_575_598_51,
    -0.005_770_270_296_489_442,
    -2.376_301_665_665_016_3e-5,
];
const QQ: [f64; 6] = [
    1.0,
    0.397_917_223_959_155_35,
    0.065_022_249_988_767_3,
    0.005_081_306_281_875_766,
    0.000_132_494_738_004_321_64,
    -3.960_228_278_775_368e-6,
];
// erfc on 0.84375 <= |x| < 1.25: 1 − ERX − PA(s)/QA(s), s = |x| − 1.
const PA: [f64; 7] = [
    -0.002_362_118_560_752_659_4,
    0.414_856_118_683_748_33,
    -0.372_207_876_035_701_3,
    0.318_346_619_901_161_75,
    -0.110_894_694_282_396_68,
    0.035_478_304_325_618_236,
    -0.002_166_375_594_868_791,
];
const QA: [f64; 7] = [
    1.0,
    0.106_420_880_400_844_23,
    0.540_397_917_702_171,
    0.071_828_654_414_196_27,
    0.126_171_219_808_761_64,
    0.013_637_083_912_029_05,
    0.011_984_499_846_799_107,
];
// erfc on 1.25 <= |x| < 1/0.35: exp(−x² − 0.5625 + RA(s)/SA(s))/x, s = 1/x².
const RA: [f64; 8] = [
    -0.009_864_944_034_847_148,
    -0.693_858_572_707_181_8,
    -10.558_626_225_323_291,
    -62.375_332_450_326_006,
    -162.396_669_462_573_47,
    -184.605_092_906_711_04,
    -81.287_435_506_306_6,
    -9.814_329_344_169_145,
];
const SA: [f64; 9] = [
    1.0,
    19.651_271_667_439_257,
    137.657_754_143_519_04,
    434.565_877_475_229_23,
    645.387_271_733_267_9,
    429.008_140_027_567_83,
    108.635_005_541_779_44,
    6.570_249_770_319_282,
    -0.060_424_415_214_858_1,
];
// erfc on 1/0.35 <= |x| < 28: as above with RB/SB.
const RB: [f64; 7] = [
    -0.009_864_942_924_700_1,
    -0.799_283_237_680_523,
    -17.757_954_917_754_752,
    -160.636_384_855_821_92,
    -637.566_443_368_389_6,
    -1_025.095_131_611_077_2,
    -483.519_191_608_651_4,
];
const SB: [f64; 8] = [
    1.0,
    30.338_060_743_482_46,
    325.792_512_996_573_9,
    1_536.729_586_084_437,
    3_199.858_219_508_595_5,
    2_553.050_406_433_164_4,
    474.528_541_206_955_37,
    -22.440_952_446_585_82,
];

/// `c[0] + x·(c[1] + x·(… + x·c[n−1]))` — fdlibm's nesting order.
#[inline(always)]
fn horner(x: f64, c: &[f64]) -> f64 {
    c.iter().rev().fold(0.0, |acc, &ci| acc * x + ci)
}

/// High word of an `f64` (fdlibm's `__HI`), sign included.
#[inline(always)]
fn high_word(x: f64) -> i32 {
    (x.to_bits() >> 32) as u32 as i32
}

/// Error function, via the incomplete gamma identity
/// `erf(x) = sign(x)·P(½, x²)`.
pub fn erf(x: f64) -> f64 {
    // svbr-lint: allow(float-eq) erf(±0) = ±0 exactly; avoids 0/0 in the continued fraction
    if x == 0.0 {
        0.0
    } else if x > 0.0 {
        gamma_p(0.5, x * x)
    } else {
        -gamma_p(0.5, x * x)
    }
}

/// Complementary error function `erfc(x) = 1 − erf(x)`, fdlibm's rational
/// approximation (< 1 ulp), without cancellation in the right tail: it
/// underflows to 0 only past x ≈ 27.2.
pub fn erfc(x: f64) -> f64 {
    let hx = high_word(x);
    let ix = hx & 0x7fff_ffff;
    if ix >= 0x7ff0_0000 {
        // NaN propagates; erfc(+∞) = 0, erfc(−∞) = 2.
        return if x.is_nan() {
            x
        } else if hx < 0 {
            2.0
        } else {
            0.0
        };
    }
    if ix < 0x3feb_0000 {
        // |x| < 0.84375
        if ix < 0x3c70_0000 {
            // |x| < 2⁻⁵⁶
            return 1.0 - x;
        }
        let z = x * x;
        let y = horner(z, &PP) / horner(z, &QQ);
        return if hx < 0x3fd0_0000 {
            // x < 1/4 (negative x included)
            1.0 - (x + x * y)
        } else {
            0.5 - (x * y + (x - 0.5))
        };
    }
    if ix < 0x3ff4_0000 {
        // 0.84375 <= |x| < 1.25
        let s = x.abs() - 1.0;
        let pq = horner(s, &PA) / horner(s, &QA);
        return if hx >= 0 {
            (1.0 - ERX) - pq
        } else {
            1.0 + (ERX + pq)
        };
    }
    if ix < 0x403c_0000 {
        // 1.25 <= |x| < 28
        if hx < 0 && ix >= 0x4018_0000 {
            // x <= −6: erfc rounds to 2.
            return 2.0;
        }
        // exp(−z² − 0.5625)·exp((z − x)(z + x) + R/S)/|x|, where z is |x|
        // with its low word cleared, so z² is exact.
        let ax = x.abs();
        let s = 1.0 / (ax * ax);
        let (r, q) = if ix < 0x4006_db6d {
            (horner(s, &RA), horner(s, &SA))
        } else {
            (horner(s, &RB), horner(s, &SB))
        };
        let z = f64::from_bits(ax.to_bits() & 0xffff_ffff_0000_0000);
        let tail = (-z * z - 0.5625).exp() * ((z - ax) * (z + ax) + r / q).exp() / ax;
        return if hx > 0 { tail } else { 2.0 - tail };
    }
    if hx > 0 {
        0.0
    } else {
        2.0
    }
}

/// Gauss–Hermite nodes and weights for ∫ e^{−t²} f(t) dt ≈ Σ wᵢ f(tᵢ)
/// (Newton iteration on the Hermite recurrence; Numerical Recipes `gauher`).
///
/// To average against a standard normal use
/// `E[g(Z)] = (1/√π) Σ wᵢ g(√2·tᵢ)` — see [`normal_expectation`].
pub fn gauss_hermite(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 1, "need at least one node");
    let mut nodes = vec![0.0; n];
    let mut weights = vec![0.0; n];
    let pim4 = 0.751_125_544_464_943_f64; // π^{-1/4}
    let mut z = 0.0f64;
    for i in 0..n.div_ceil(2) {
        // Initial guesses (NR).
        z = match i {
            0 => (2.0 * n as f64 + 1.0).sqrt() - 1.85575 * (2.0 * n as f64 + 1.0).powf(-1.0 / 6.0),
            1 => z - 1.14 * (n as f64).powf(0.426) / z,
            2 => 1.86 * z - 0.86 * nodes[0],
            3 => 1.91 * z - 0.91 * nodes[1],
            _ => 2.0 * z - nodes[i - 2],
        };
        let mut pp = 0.0;
        for _ in 0..100 {
            let mut p1 = pim4;
            let mut p2 = 0.0f64;
            for j in 0..n {
                let p3 = p2;
                p2 = p1;
                p1 = z * (2.0 / (j as f64 + 1.0)).sqrt() * p2
                    - ((j as f64) / (j as f64 + 1.0)).sqrt() * p3;
            }
            pp = (2.0 * n as f64).sqrt() * p2;
            let dz = p1 / pp;
            z -= dz;
            if dz.abs() < 1e-14 {
                break;
            }
        }
        nodes[i] = z;
        nodes[n - 1 - i] = -z;
        weights[i] = 2.0 / (pp * pp);
        weights[n - 1 - i] = weights[i];
    }
    (nodes, weights)
}

/// `E[g(Z)]` for `Z ~ N(0,1)` by `n`-point Gauss–Hermite quadrature.
pub fn normal_expectation<F: Fn(f64) -> f64>(g: F, n: usize) -> f64 {
    let (t, w) = gauss_hermite(n);
    let sqrt2 = std::f64::consts::SQRT_2;
    let inv_sqrt_pi = 1.0 / std::f64::consts::PI.sqrt();
    t.iter()
        .zip(w.iter())
        .map(|(&ti, &wi)| wi * g(sqrt2 * ti))
        .sum::<f64>()
        * inv_sqrt_pi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn ln_gamma_integers() {
        // Γ(n) = (n−1)!
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (i, &f) in facts.iter().enumerate() {
            close(ln_gamma((i + 1) as f64), f64::ln(f), 1e-12);
        }
    }

    #[test]
    fn ln_gamma_half() {
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-12,
        );
    }

    #[test]
    fn ln_gamma_small_via_reflection() {
        // Γ(0.1) = 9.513507698668731…
        close(ln_gamma(0.1), 9.513_507_698_668_73_f64.ln(), 1e-10);
    }

    #[test]
    fn gamma_p_known_values() {
        // P(1, x) = 1 − e^{−x}
        for x in [0.1, 1.0, 3.0, 10.0] {
            close(gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-13);
        }
        // P(a, 0) = 0; large x → 1.
        assert_eq!(gamma_p(2.5, 0.0), 0.0);
        close(gamma_p(2.5, 100.0), 1.0, 1e-12);
    }

    #[test]
    fn gamma_p_q_complementary() {
        for a in [0.3, 1.0, 2.5, 10.0] {
            for x in [0.1, 0.5, 1.0, 2.0, 5.0, 20.0] {
                close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12);
            }
        }
    }

    #[test]
    fn gamma_p_chi_squared_value() {
        // P(1.5, 1.5) is the χ²(3) CDF at x = 3.0 ≈ 0.608375.
        close(gamma_p(1.5, 1.5), 0.608_374_823_7, 2e-6);
    }

    #[test]
    fn inv_gamma_p_roundtrip() {
        for a in [0.4, 1.0, 2.0, 7.5, 50.0] {
            for p in [0.001, 0.05, 0.3, 0.5, 0.9, 0.999] {
                let x = inv_gamma_p(a, p);
                close(gamma_p(a, x), p, 1e-9);
            }
        }
    }

    #[test]
    fn inv_gamma_p_edges() {
        assert_eq!(inv_gamma_p(2.0, 0.0), 0.0);
        assert_eq!(inv_gamma_p(2.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn erf_known_values() {
        close(erf(0.0), 0.0, 0.0);
        close(erf(1.0), 0.842_700_792_949_715, 1e-12);
        close(erf(2.0), 0.995_322_265_018_953, 1e-12);
        close(erf(-1.0), -0.842_700_792_949_715, 1e-12);
    }

    /// Distance in units in the last place between two finite doubles of
    /// the same sign.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn erfc_tabulated_values_within_4_ulp() {
        // Arbitrary-precision erfc, correctly rounded to double.
        let table = [
            (0.5, 0.479_500_122_186_953_5),
            (1.0, 0.157_299_207_050_285_13),
            (2.0, 0.004_677_734_981_047_266),
            (3.0, 2.209_049_699_858_544e-5),
            (5.0, 1.537_459_794_428_035e-12),
            (10.0, 2.088_487_583_762_545e-45),
            (26.0, 5.663_192_408_856_143e-296),
        ];
        for (x, want) in table {
            let got = erfc(x);
            assert!(ulps(got, want) <= 4, "erfc({x}) = {got:e}, want {want:e}");
        }
    }

    #[test]
    fn erfc_reflection_sums_to_two() {
        for i in 0..=400 {
            let x = i as f64 * 0.02;
            close(erfc(x) + erfc(-x), 2.0, 4.0 * f64::EPSILON);
        }
    }

    #[test]
    fn erfc_special_inputs() {
        assert!(erfc(f64::NAN).is_nan());
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
        assert_eq!(erfc(0.0), 1.0);
        assert_eq!(erfc(30.0), 0.0);
        assert_eq!(erfc(-30.0), 2.0);
    }

    #[test]
    fn erfc_tail_no_cancellation() {
        // erfc(5) = 1.5374597944280351e-12 — must not be swallowed by 1−erf.
        close(erfc(5.0), 1.537_459_794_428_035e-12, 1e-24);
        close(erfc(-1.0), 1.0 + erf(1.0), 1e-12);
    }

    #[test]
    fn gauss_hermite_low_orders() {
        // n=1: node 0, weight √π. n=2: ±1/√2, weights √π/2.
        let (t, w) = gauss_hermite(1);
        close(t[0], 0.0, 1e-12);
        close(w[0], std::f64::consts::PI.sqrt(), 1e-12);
        let (t, w) = gauss_hermite(2);
        close(t[0].abs(), std::f64::consts::FRAC_1_SQRT_2, 1e-12);
        close(w[0], std::f64::consts::PI.sqrt() / 2.0, 1e-12);
        close(w[1], std::f64::consts::PI.sqrt() / 2.0, 1e-12);
    }

    #[test]
    fn gauss_hermite_integrates_polynomials() {
        // ∫e^{−t²}t² dt = √π/2 ; ∫e^{−t²}t⁴ dt = 3√π/4
        let (t, w) = gauss_hermite(10);
        let m2: f64 = t.iter().zip(&w).map(|(&ti, &wi)| wi * ti * ti).sum();
        close(m2, std::f64::consts::PI.sqrt() / 2.0, 1e-10);
        let m4: f64 = t.iter().zip(&w).map(|(&ti, &wi)| wi * ti.powi(4)).sum();
        close(m4, 3.0 * std::f64::consts::PI.sqrt() / 4.0, 1e-10);
    }

    #[test]
    fn normal_expectation_moments() {
        close(normal_expectation(|_| 1.0, 20), 1.0, 1e-12);
        close(normal_expectation(|z| z, 20), 0.0, 1e-12);
        close(normal_expectation(|z| z * z, 20), 1.0, 1e-10);
        close(normal_expectation(|z| z.powi(4), 20), 3.0, 1e-9);
        // E[e^Z] = e^{1/2}
        close(normal_expectation(|z| z.exp(), 40), (0.5f64).exp(), 1e-8);
    }

    #[test]
    fn gauss_hermite_nodes_symmetric_and_sorted_by_construction() {
        let (t, w) = gauss_hermite(16);
        for i in 0..8 {
            close(t[i], -t[15 - i], 1e-12);
            close(w[i], w[15 - i], 1e-12);
        }
        let total: f64 = w.iter().sum();
        close(total, std::f64::consts::PI.sqrt(), 1e-10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn gamma_p_is_a_cdf_in_x(a in 0.05f64..50.0, x1 in 0.0f64..100.0, x2 in 0.0f64..100.0) {
            let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
            let p_lo = gamma_p(a, lo);
            let p_hi = gamma_p(a, hi);
            prop_assert!((0.0..=1.0).contains(&p_lo));
            prop_assert!((0.0..=1.0).contains(&p_hi));
            prop_assert!(p_hi + 1e-12 >= p_lo, "monotone in x");
        }

        #[test]
        fn gamma_p_q_sum_to_one(a in 0.05f64..50.0, x in 0.0f64..100.0) {
            prop_assert!((gamma_p(a, x) + gamma_q(a, x) - 1.0).abs() < 1e-10);
        }

        #[test]
        fn inv_gamma_p_roundtrips(a in 0.1f64..30.0, p in 1e-9f64..0.999999) {
            let x = inv_gamma_p(a, p);
            prop_assert!(x.is_finite() && x >= 0.0);
            prop_assert!((gamma_p(a, x) - p).abs() < 1e-6, "a={} p={} x={}", a, p, x);
        }

        #[test]
        fn erf_is_odd_and_bounded(x in -6.0f64..6.0) {
            prop_assert!((erf(x) + erf(-x)).abs() < 1e-12);
            prop_assert!(erf(x).abs() <= 1.0);
            prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-10);
        }

        #[test]
        fn erfc_matches_incomplete_gamma(x in -8.0f64..8.0) {
            // erfc(x) = Q(½, x²) for x ≥ 0, and 2 − Q(½, x²) below 0.
            let q = gamma_q(0.5, x * x);
            let want = if x >= 0.0 { q } else { 2.0 - q };
            let got = erfc(x);
            prop_assert!((got - want).abs() <= 2e-14 * want, "x={} erfc={} Q={}", x, got, want);
        }

        #[test]
        fn ln_gamma_recurrence(x in 0.1f64..50.0) {
            // Γ(x+1) = x·Γ(x)
            prop_assert!((ln_gamma(x + 1.0) - ln_gamma(x) - x.ln()).abs() < 1e-9);
        }

        #[test]
        fn gauss_hermite_weights_positive_and_sum(n in 2usize..40) {
            let (t, w) = gauss_hermite(n);
            prop_assert_eq!(t.len(), n);
            prop_assert!(w.iter().all(|&wi| wi > 0.0));
            let total: f64 = w.iter().sum();
            prop_assert!((total - std::f64::consts::PI.sqrt()).abs() < 1e-8);
        }
    }
}
