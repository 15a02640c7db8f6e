//! Davies–Harte circulant-embedding generator.
//!
//! An *exact* O(n log n) sampler for stationary Gaussian processes whose
//! autocovariance sequence embeds into a nonnegative-definite circulant
//! matrix — which is provably the case for fractional Gaussian noise at any
//! Hurst parameter, and empirically the case for the paper's composite
//! SRD+LRD model.
//!
//! The construction: for `n` samples, build the length-`m` (power of two,
//! `m ≥ 2(n−1)`) circulant first row
//!
//! ```text
//! c = [r(0), r(1), …, r(m/2), r(m/2−1), …, r(1)]
//! ```
//!
//! take its FFT to get eigenvalues `λ_j ≥ 0`, draw independent complex
//! Gaussians `Z_j` with the required Hermitian symmetry, scale by
//! `sqrt(λ_j/m)` and transform; the first `n` outputs are an exact sample
//! path. The path is real, so the length-`m` transform folds into one of
//! length `m/2` (see [`DaviesHarte::generate_into`]).
//!
//! The paper itself uses Hosking's O(n²) method; this generator is the
//! standard fast alternative and is benchmarked against it in
//! `svbr-bench` (ablation: exact-slow vs exact-fast).

use crate::acf::{Acf, TabulatedAcf};
use crate::fft::{fft, ifft, next_power_of_two, Complex, FftPlan};
use crate::gauss::Normal;
use crate::LrdError;
use rand::Rng;
use std::sync::Arc;

/// The nonnegative-definite circulant a [`pd_project`]ed table is cut
/// from, carried by the table (see [`Acf::embedding`]).
///
/// Its first [`Self::exact_lags`] autocorrelations are the table's
/// values, so a Davies–Harte path drawn from it
/// ([`DaviesHarte::from_embedding`]) is an exact sample of the table's
/// process for up to that many samples — no padding or clamping of its
/// own, and no eigenvalue FFT per sampler.
#[derive(Clone)]
pub struct CirculantEmbedding {
    /// `sqrt(λ_j / (m·c₀))` for the floored eigenvalues `λ_j` and the
    /// circulant's lag-0 value `c₀`: the Davies–Harte scales of the
    /// normalized circulant.
    scale: Arc<[f64]>,
    /// Number of leading lags equal to the table's (the table length).
    exact_lags: usize,
}

impl CirculantEmbedding {
    /// Number of leading lags the circulant shares with its table; the
    /// longest exact path it can draw.
    pub fn exact_lags(&self) -> usize {
        self.exact_lags
    }
}

impl std::fmt::Debug for CirculantEmbedding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CirculantEmbedding")
            .field("embedding_len", &self.scale.len())
            .field("exact_lags", &self.exact_lags)
            .finish()
    }
}

/// A prepared Davies–Harte sampler: the eigenvalue square roots are
/// precomputed once and each trace costs one FFT of half the embedding
/// length.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use svbr_lrd::acf::FgnAcf;
/// use svbr_lrd::DaviesHarte;
///
/// let dh = DaviesHarte::new(FgnAcf::new(0.8).unwrap(), 1024).unwrap();
/// let mut rng = StdRng::seed_from_u64(1);
/// let a = dh.generate(&mut rng);
/// let b = dh.generate(&mut rng); // same sampler, fresh path
/// assert_eq!(a.len(), 1024);
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct DaviesHarte {
    /// `sqrt(λ_j / m)` for each circulant eigenvalue. A function of the
    /// ACF and the embedding length `m` alone, so samplers whose lengths
    /// share `m` share this vector (see [`Self::with_len`]).
    scale: Arc<[f64]>,
    /// `w^j = e^{−2πij/m}` for `j < m/2`: folds the length-`m` spectrum
    /// into the half-length one.
    twiddle: Arc<[Complex]>,
    /// Number of usable samples per generated path.
    n: usize,
    /// Shared FFT plan for the length-`m/2` per-path transform.
    plan: Arc<FftPlan>,
}

impl DaviesHarte {
    /// Prepare a sampler for `n` samples of a zero-mean unit-variance
    /// process with the given ACF.
    ///
    /// Returns [`LrdError::NegativeCirculantEigenvalue`] if the embedding is
    /// not nonnegative definite (tolerating tiny negative rounding noise,
    /// which is clamped to zero).
    pub fn new<A: Acf>(acf: A, n: usize) -> Result<Self, LrdError> {
        Self::build(acf, n, 0.0)
    }

    /// Like [`Self::new`], but tolerate an *almost* nonnegative-definite
    /// embedding: eigenvalues are clamped to zero as long as the total
    /// negative mass is at most `rel_tol` times the positive mass.
    ///
    /// The paper's composite SRD+LRD model is fitted piecewise and its
    /// embedding carries a few eigenvalues around −1e−4; clamping them
    /// perturbs the realized ACF by O(rel_tol), which is far below the
    /// sampling error of any experiment in the paper. (This is the standard
    /// "approximate circulant embedding" remedy.)
    pub fn new_approx<A: Acf>(acf: A, n: usize, rel_tol: f64) -> Result<Self, LrdError> {
        Self::build(acf, n, rel_tol)
    }

    /// A sampler for `n`-sample paths of a carried circulant (see
    /// [`Acf::embedding`]): exact for the table the circulant came with,
    /// with no eigenvalue FFT and no clamping.
    ///
    /// Requires `1 <= n <= embedding.exact_lags()`; beyond that the
    /// circulant's lags are not the table's.
    pub fn from_embedding(embedding: &CirculantEmbedding, n: usize) -> Result<Self, LrdError> {
        if n == 0 || n > embedding.exact_lags {
            return Err(LrdError::InvalidParameter {
                name: "n",
                constraint: "1 <= n <= the embedding's exact lags",
            });
        }
        Ok(Self::from_scale(Arc::clone(&embedding.scale), n))
    }

    fn build<A: Acf>(acf: A, n: usize, rel_tol: f64) -> Result<Self, LrdError> {
        // Times the one-off FFT *setup* cost (eigenvalue computation), as
        // opposed to the per-path cost timed by `davies_harte.generate`.
        let mut span = svbr_obsv::span("davies_harte.setup");
        span.field("n", n as f64);
        if n == 0 {
            return Err(LrdError::InvalidParameter {
                name: "n",
                constraint: "n >= 1",
            });
        }
        let m = Self::embedding_len(n);
        if n == 1 {
            return Ok(Self::from_scale(Arc::new([1.0]), n));
        }
        let half = m / 2;
        let mut row = vec![Complex::default(); m];
        for (j, item) in row.iter_mut().enumerate().take(half + 1) {
            *item = Complex::real(acf.r(j));
        }
        for (j, item) in row.iter_mut().enumerate().skip(half + 1) {
            *item = Complex::real(acf.r(m - j));
        }
        fft(&mut row);
        let pos_mass: f64 = row.iter().map(|z| z.re.max(0.0)).sum();
        let neg_mass: f64 = row.iter().map(|z| (-z.re).max(0.0)).sum();
        // Always forgive rounding noise; beyond that, honor rel_tol.
        let budget = pos_mass * rel_tol.max(1e-12);
        if neg_mass > budget {
            let (j, z) = row
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.re.total_cmp(&b.1.re))
                // svbr-lint: allow(no-expect) the eigenvalue row has 2n-2 >= 2 entries by construction
                .expect("row is non-empty");
            return Err(LrdError::NegativeCirculantEigenvalue {
                index: j,
                value: z.re,
            });
        }
        let mut scale: Vec<f64> = row
            .iter()
            .map(|z| (z.re.max(0.0) / m as f64).sqrt())
            .collect();
        mirror_average(&mut scale);
        Ok(Self::from_scale(scale.into(), n))
    }

    /// The sampler for `n`-sample paths of the length-`m` spectrum `scale`:
    /// tabulates the fold's twiddles and fetches the shared `m/2` plan.
    fn from_scale(scale: Arc<[f64]>, n: usize) -> Self {
        let m = scale.len();
        let half = m / 2;
        // w^j for j <= m/4 from sin_cos; the rest by w^{m/2−j} = −conj(w^j).
        let mut twiddle = vec![Complex::default(); half];
        for j in 0..(half / 2 + 1).min(half) {
            let (sin, cos) = (2.0 * std::f64::consts::PI * j as f64 / m as f64).sin_cos();
            twiddle[j] = Complex::new(cos, -sin);
            let mirror = half - j;
            if j > 0 && mirror > j {
                twiddle[mirror] = Complex::new(-cos, -sin);
            }
        }
        Self {
            scale,
            twiddle: twiddle.into(),
            n,
            plan: crate::cache::fft_plan(half.max(1)),
        }
    }

    /// Circulant embedding length `m` used for `n`-sample paths: the
    /// smallest power of two `≥ 2(n−1)` (and 1 for a single sample). The
    /// eigenvalues depend on the ACF and `m` only, never on `n` itself.
    pub fn embedding_len(n: usize) -> usize {
        if n <= 1 {
            1
        } else {
            next_power_of_two(2 * (n - 1)).max(2)
        }
    }

    /// A sampler for `n`-sample paths sharing this one's eigenvalues.
    ///
    /// Valid when `n` has the same [`Self::embedding_len`]; the result is
    /// then identical to building a fresh sampler for `n` from the same
    /// ACF and tolerance (same values, same RNG consumption), without the
    /// ACF evaluation, eigenvalue FFT and square roots.
    pub fn with_len(&self, n: usize) -> Result<Self, LrdError> {
        if n == 0 || Self::embedding_len(n) != self.scale.len() {
            return Err(LrdError::InvalidParameter {
                name: "n",
                constraint: "n >= 1 with the sampler's embedding length",
            });
        }
        Ok(Self {
            scale: Arc::clone(&self.scale),
            twiddle: Arc::clone(&self.twiddle),
            n,
            plan: Arc::clone(&self.plan),
        })
    }

    /// Number of samples each generated path contains.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (n ≥ 1 is enforced at construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Generate one exact sample path of length `n`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        self.generate_into(rng, &mut out, &mut scratch);
        out
    }

    /// Generate one exact sample path of length `n` into `out`, reusing
    /// `scratch` for the half-length spectrum.
    ///
    /// Identical output (same values, same RNG consumption) to
    /// [`Self::generate`]; once both buffers have been warmed to capacity —
    /// `out` to `n`, `scratch` to half the embedding length — repeated
    /// calls allocate nothing, which is what the pipeline arenas thread
    /// through replication fan-outs and the serve chunk generator.
    ///
    /// The path is the forward transform `x_t = Σ_j S_j·w^{jt}`,
    /// `w = e^{−2πi/m}`, of the Hermitian spectrum `S_j = sqrt(λ_j/m)·Z_j`
    /// (`S_0`, `S_{m/2}` real N(0,1)-scaled; `(N + iN)/√2` for
    /// `0 < j < m/2`, mirrored conjugate at `m − j`). Splitting `t` into
    /// even and odd samples folds it into one complex transform of length
    /// `m/2`:
    ///
    /// ```text
    /// T_j = (S_j + S_{j+m/2}) + i·w^j·(S_j − S_{j+m/2}),   j < m/2
    /// x_{2p} = Re FFT(T)_p,   x_{2p+1} = Im FFT(T)_p
    /// ```
    ///
    /// plus an O(m) fold, instead of a length-`m` transform.
    pub fn generate_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut Vec<f64>,
        scratch: &mut Vec<Complex>,
    ) {
        let mut span = svbr_obsv::span("davies_harte.generate");
        span.field("n", self.n as f64);
        svbr_obsv::counter("lrd.davies_harte.samples").add(self.n as u64);
        if svbr_obsv::enabled() {
            svbr_obsv::counter_with("lrd.generator.samples", &[("backend", "davies_harte")])
                .add(self.n as u64);
            svbr_obsv::record_tick(1);
        }
        out.clear();
        if self.n == 1 {
            let mut g = Normal::new();
            out.push(g.sample(rng));
            return;
        }
        let half = self.scale.len() / 2;
        let scale = &self.scale[..];
        let mut g = Normal::new();
        scratch.clear();
        scratch.resize(half, Complex::default());
        let t = &mut scratch[..];
        // Draws in the full spectrum's order: S_0, S_{m/2}, then the pair
        // (a_j, b_j) of each 0 < j < m/2, parked unscaled in t[j].
        let s0 = scale[0] * g.sample(rng);
        let s_half = scale[half] * g.sample(rng);
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        for z in t.iter_mut().skip(1) {
            let a = g.sample(rng) * inv_sqrt2;
            let b = g.sample(rng) * inv_sqrt2;
            *z = Complex::new(a, b);
        }
        t[0] = Complex::new(s0 + s_half, s0 - s_half);
        // Fold j and k = m/2 − j together: S_{j+m/2} is the mirrored
        // conjugate of S_k's draw, S_{k+m/2} that of S_j's.
        let fold = |j: usize, own: Complex, partner: Complex| {
            let lo = Complex::new(scale[j] * own.re, scale[j] * own.im);
            let hi_scale = scale[j + half];
            let hi = Complex::new(hi_scale * partner.re, -hi_scale * partner.im);
            let d = self.twiddle[j] * (lo - hi);
            lo + hi + Complex::new(-d.im, d.re)
        };
        for j in 1..=half / 2 {
            let k = half - j;
            let (u, v) = (t[j], t[k]);
            t[j] = fold(j, u, v);
            if k != j {
                t[k] = fold(k, v, u);
            }
        }
        self.plan.fft(t);
        out.extend(t.iter().flat_map(|z| [z.re, z.im]).take(self.n));
    }

    /// Generate `paths` independent sample paths.
    pub fn generate_many<R: Rng + ?Sized>(&self, paths: usize, rng: &mut R) -> Vec<Vec<f64>> {
        (0..paths).map(|_| self.generate(rng)).collect()
    }
}

/// Make a length-`m` spectrum exactly even, `v[j] = v[m − j]`, by
/// averaging each mirrored pair. The eigenvalues of a symmetric circulant
/// are even; the FFT that computes them is so only to rounding, and an
/// uneven pair would leak an imaginary part into the folded real path.
fn mirror_average(v: &mut [f64]) {
    let Some((_, rest)) = v.split_first_mut() else {
        return;
    };
    // rest = v[1..m]: its front half pairs with its back half reversed.
    let (front, back) = rest.split_at_mut(rest.len() / 2);
    for (a, b) in front.iter_mut().zip(back.iter_mut().rev()) {
        let avg = 0.5 * (*a + *b);
        *a = avg;
        *b = avg;
    }
}

/// Project an ACF onto the positive-definite cone over its first `n` lags.
///
/// The paper's composite SRD+LRD autocorrelation (eq. 13) is fitted
/// *piecewise* and turns out not to be positive definite: the
/// Durbin–Levinson recursion hits a partial correlation ≥ 1 right at the
/// knee lag, after which exact sampling is impossible. This routine applies
/// the standard circulant spectral fix: embed the first `n` lags in a
/// circulant of length ≥ 2(n−1), clamp the (few, tiny) negative eigenvalues
/// to zero, transform back, and renormalize to a correlation sequence.
///
/// The returned [`TabulatedAcf`] is the nearest-in-spectrum valid ACF; for
/// the paper's model the pointwise correction is O(10⁻³), far below every
/// estimation error in the reproduction, and Hosking's method runs on it
/// without clamping. Any principal Toeplitz minor of a PSD circulant is
/// PSD, so the projected table is valid for *any* trace length ≤ `n`.
///
/// The table carries that circulant ([`Acf::embedding`]), so exact paths
/// of up to `n` samples can be drawn from it by FFT
/// ([`DaviesHarte::from_embedding`]). A minimal embedding of the table
/// itself would not do: for the paper's tables it has negative
/// eigenvalues even when padded. [`pd_project_table`] returns the same
/// table without the circulant, for callers that never sample from it.
pub fn pd_project<A: Acf>(acf: A, n: usize) -> Result<TabulatedAcf, LrdError> {
    project(acf, n, true)
}

/// [`pd_project`]'s table without its circulant: bit-identical values,
/// without the `m` carried scales (8·m bytes, `m ≥ 4(n−1)`).
pub fn pd_project_table<A: Acf>(acf: A, n: usize) -> Result<TabulatedAcf, LrdError> {
    project(acf, n, false)
}

fn project<A: Acf>(acf: A, n: usize, keep_embedding: bool) -> Result<TabulatedAcf, LrdError> {
    if n == 0 {
        return Err(LrdError::InvalidParameter {
            name: "n",
            constraint: "n >= 1",
        });
    }
    if n == 1 {
        return TabulatedAcf::new(vec![1.0]);
    }
    // Extra margin keeps boundary effects of the clamping away from the
    // lags the caller will actually use.
    let m = next_power_of_two(4 * (n - 1)).max(2);
    let half = m / 2;
    let mut row = vec![Complex::default(); m];
    for (j, item) in row.iter_mut().enumerate().take(half + 1) {
        *item = Complex::real(acf.r(j));
    }
    for (j, item) in row.iter_mut().enumerate().skip(half + 1) {
        *item = Complex::real(acf.r(m - j));
    }
    fft(&mut row);
    // Flooring at a small *positive* value (rather than zero) keeps the
    // circulant strictly PD, so every Toeplitz minor is strictly PD and the
    // Durbin–Levinson recursion stays away from |κ| = 1 at deep lags.
    let pos_mass: f64 = row.iter().map(|z| z.re.max(0.0)).sum();
    let floor = 1e-6 * pos_mass / m as f64;
    for z in row.iter_mut() {
        *z = Complex::real(z.re.max(floor));
    }
    let eigenvalues: Option<Vec<f64>> = keep_embedding.then(|| row.iter().map(|z| z.re).collect());
    ifft(&mut row);
    let norm = row[0].re;
    if norm <= 0.0 {
        return Err(LrdError::InvalidParameter {
            name: "acf",
            constraint: "projection produced a degenerate (zero) variance",
        });
    }
    let values: Vec<f64> = row[..n]
        .iter()
        .map(|z| (z.re / norm).clamp(-1.0, 1.0))
        .collect();
    let mut values = values;
    values[0] = 1.0;
    let table = TabulatedAcf::new(values)?;
    Ok(match eigenvalues {
        Some(lambda) => {
            let denom = m as f64 * norm;
            let mut scale: Vec<f64> = lambda.iter().map(|l| (l / denom).sqrt()).collect();
            mirror_average(&mut scale);
            table.with_embedding(CirculantEmbedding {
                scale: scale.into(),
                exact_lags: n,
            })
        }
        None => table,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acf::{CompositeAcf, ExponentialAcf, FgnAcf};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn sample_acov(xs: &[f64], k: usize) -> f64 {
        let n = xs.len() as f64;
        xs.iter()
            .zip(xs.iter().skip(k))
            .map(|(a, b)| a * b)
            .sum::<f64>()
            / n
    }

    #[test]
    fn fgn_embedding_is_valid_across_hurst_range() -> Result<(), Box<dyn std::error::Error>> {
        for h in [0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let acf = FgnAcf::new(h)?;
            assert!(DaviesHarte::new(acf, 1024).is_ok(), "H = {h}");
        }
        Ok(())
    }

    #[test]
    fn white_noise_path_statistics() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.5)?;
        let dh = DaviesHarte::new(acf, 4096)?;
        let mut rng = StdRng::seed_from_u64(1);
        let xs = dh.generate(&mut rng);
        assert_eq!(xs.len(), 4096);
        let var = sample_acov(&xs, 0);
        assert!((var - 1.0).abs() < 0.08, "var {var}");
        assert!(sample_acov(&xs, 1).abs() < 0.05);
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn fgn_acf_reproduced() -> Result<(), Box<dyn std::error::Error>> {
        let h = 0.85;
        let acf = FgnAcf::new(h)?;
        let dh = DaviesHarte::new(acf, 8192)?;
        let mut rng = StdRng::seed_from_u64(2);
        // Average the sample ACF over several paths to tame LRD noise.
        let mut acc = [0.0; 21];
        let paths = 20;
        for _ in 0..paths {
            let xs = dh.generate(&mut rng);
            let var = sample_acov(&xs, 0);
            for (k, a) in acc.iter_mut().enumerate() {
                *a += sample_acov(&xs, k) / var / paths as f64;
            }
        }
        for (k, a) in acc.iter().enumerate().take(21).skip(1) {
            assert!(
                (a - acf.r(k)).abs() < 0.05,
                "lag {k}: est {} vs {}",
                acc[k],
                acf.r(k)
            );
        }
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn composite_model_needs_approximate_embedding() -> Result<(), Box<dyn std::error::Error>> {
        // The paper's piecewise-fitted ACF is *not* exactly positive
        // definite: the strict construction must refuse it…
        let acf = CompositeAcf::paper_fit();
        let strict = DaviesHarte::new(&acf, 4096);
        assert!(matches!(
            strict,
            Err(LrdError::NegativeCirculantEigenvalue { .. })
        ));
        // …while the approximate construction (tiny negative mass clamped)
        // succeeds and produces a path whose ACF still matches the target.
        let dh = DaviesHarte::new_approx(&acf, 2048, 1e-2)?;
        let mut rng = StdRng::seed_from_u64(3);
        // LRD sample-ACF noise is large (Bartlett variance is dominated by
        // the non-summable Σr²), so average covariances over many paths.
        let mut acc = vec![0.0; 61];
        let paths = 200;
        for _ in 0..paths {
            let xs = dh.generate(&mut rng);
            for (k, a) in acc.iter_mut().enumerate() {
                *a += sample_acov(&xs, k) / paths as f64;
            }
        }
        for k in [1usize, 10, 30, 60] {
            let est = acc[k] / acc[0];
            assert!(
                (est - acf.r(k)).abs() < 0.1,
                "lag {k}: est {est} vs {}",
                acf.r(k)
            );
        }
        Ok(())
    }

    #[test]
    fn exponential_acf_embeds() -> Result<(), Box<dyn std::error::Error>> {
        let acf = ExponentialAcf::new(0.005_65)?;
        assert!(DaviesHarte::new(acf, 2048).is_ok());
        Ok(())
    }

    #[test]
    fn single_sample_path() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.9)?;
        let dh = DaviesHarte::new(acf, 1)?;
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(dh.generate(&mut rng).len(), 1);
        assert_eq!(dh.len(), 1);
        assert!(!dh.is_empty());
        Ok(())
    }

    #[test]
    fn zero_samples_rejected() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.9)?;
        assert!(DaviesHarte::new(acf, 0).is_err());
        Ok(())
    }

    #[test]
    fn deterministic_given_seed() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.75)?;
        let dh = DaviesHarte::new(acf, 512)?;
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        assert_eq!(dh.generate(&mut r1), dh.generate(&mut r2));
        Ok(())
    }

    #[test]
    fn generate_into_is_bit_identical_to_generate() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.82)?;
        let dh = DaviesHarte::new(acf, 300)?;
        let mut r1 = StdRng::seed_from_u64(21);
        let mut r2 = StdRng::seed_from_u64(21);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        // Two rounds through the same buffers: same bits as the allocating
        // path each time, and the second round reuses warmed capacity.
        for _ in 0..2 {
            dh.generate_into(&mut r1, &mut out, &mut scratch);
            let fresh = dh.generate(&mut r2);
            assert_eq!(out, fresh);
            let (out_cap, scratch_cap) = (out.capacity(), scratch.capacity());
            assert!(out_cap >= 300 && scratch_cap >= 512);
        }
        Ok(())
    }

    #[test]
    fn with_len_matches_a_fresh_sampler_bitwise() -> Result<(), Box<dyn std::error::Error>> {
        let acf = CompositeAcf::paper_fit();
        // 600 through 1025 share the embedding length 2048; 1026 does not.
        let dh = DaviesHarte::new_approx(&acf, 1000, 5e-2)?;
        for n in [600, 1000, 1025] {
            let shared = dh.with_len(n)?;
            let fresh = DaviesHarte::new_approx(&acf, n, 5e-2)?;
            let mut r1 = StdRng::seed_from_u64(n as u64);
            let mut r2 = StdRng::seed_from_u64(n as u64);
            assert_eq!(shared.len(), n);
            assert_eq!(shared.generate(&mut r1), fresh.generate(&mut r2), "n={n}");
        }
        assert!(dh.with_len(1026).is_err());
        assert!(dh.with_len(0).is_err());
        let one = DaviesHarte::new(FgnAcf::new(0.7)?, 1)?;
        assert!(one.with_len(1).is_ok() && one.with_len(2).is_err());
        Ok(())
    }

    /// The full length-`m` Hermitian spectrum the half-length kernel
    /// folds, drawn in the same order, and its transform
    /// `x_t = Σ_j S_j·e^{−2πijt/m}` evaluated directly at `ts` with exact
    /// twiddles: the oracle for [`DaviesHarte::generate_into`].
    fn full_transform_at<R: Rng + ?Sized>(dh: &DaviesHarte, rng: &mut R, ts: &[usize]) -> Vec<f64> {
        let m = dh.scale.len();
        let half = m / 2;
        let mut g = Normal::new();
        let mut spec = vec![Complex::default(); m];
        spec[0] = Complex::real(dh.scale[0] * g.sample(rng));
        spec[half] = Complex::real(dh.scale[half] * g.sample(rng));
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        for j in 1..half {
            let a = g.sample(rng) * inv_sqrt2;
            let b = g.sample(rng) * inv_sqrt2;
            spec[j] = Complex::new(dh.scale[j] * a, dh.scale[j] * b);
            spec[m - j] = Complex::new(dh.scale[m - j] * a, -dh.scale[m - j] * b);
        }
        let w: Vec<Complex> = (0..m)
            .map(|j| {
                let (sin, cos) = (2.0 * std::f64::consts::PI * j as f64 / m as f64).sin_cos();
                Complex::new(cos, -sin)
            })
            .collect();
        ts.iter()
            .map(|&t| {
                spec.iter()
                    .enumerate()
                    .map(|(j, &z)| (z * w[j * t % m]).re)
                    .sum()
            })
            .collect()
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn half_length_kernel_matches_full_hermitian_transform(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let composite = CompositeAcf::paper_fit();
        for n in [2usize, 3, 5, 17, 1000, 4097] {
            let samplers = [
                DaviesHarte::new(FgnAcf::new(0.85)?, n)?,
                DaviesHarte::new_approx(&composite, n, 5e-2)?,
                DaviesHarte::from_embedding(
                    pd_project(&composite, n)?.embedding().ok_or("no")?,
                    n,
                )?,
            ];
            // Every sample of short paths; a spread of even and odd
            // samples, and the last, of long ones.
            let ts: Vec<usize> = (0..n)
                .filter(|&t| t < 17 || t % 61 == 0 || t % 61 == 1 || t == n - 1)
                .collect();
            for (s, dh) in samplers.iter().enumerate() {
                let mut r1 = StdRng::seed_from_u64(n as u64 + 100 * s as u64);
                let mut r2 = r1.clone();
                let got = dh.generate(&mut r1);
                let want = full_transform_at(dh, &mut r2, &ts);
                assert_eq!(got.len(), n);
                for (&t, w) in ts.iter().zip(&want) {
                    let d = (got[t] - w).abs();
                    assert!(d <= 1e-12, "n={n} sampler {s} t={t}: |Δ| {d:e}");
                }
                // Same RNG consumption: both streams continue in step.
                assert_eq!(r1.next_u64(), r2.next_u64(), "n={n} sampler {s}");
            }
        }
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn carried_scales_reproduce_the_table_lags() -> Result<(), Box<dyn std::error::Error>> {
        let composite = CompositeAcf::paper_fit();
        for n in [2usize, 250, 1000, 2500] {
            let fgn = pd_project(FgnAcf::new(0.9)?, n)?;
            let comp = pd_project(&composite, n)?;
            for table in [&fgn, &comp] {
                let e = table.embedding().ok_or("pd_project keeps its circulant")?;
                assert_eq!(e.exact_lags(), n);
                assert_eq!(e.scale.len(), next_power_of_two(4 * (n - 1)).max(2));
                // The circulant's autocovariance is the transform of the
                // squared scales.
                let mut c: Vec<Complex> = e.scale.iter().map(|s| Complex::real(s * s)).collect();
                fft(&mut c);
                for (k, ck) in c.iter().enumerate().take(n) {
                    let d = (ck.re - table.r(k)).abs();
                    assert!(d <= 1e-12, "n={n} lag {k}: |Δ| {d:e}");
                }
            }
            // The values are the plain projection's, bit for bit.
            let plain = pd_project_table(&composite, n)?;
            assert!(plain.embedding().is_none());
            for k in 0..n {
                assert_eq!(plain.r(k).to_bits(), comp.r(k).to_bits(), "lag {k}");
            }
        }
        // One lag needs no circulant; a table of one lag carries none.
        assert!(pd_project(FgnAcf::new(0.7)?, 1)?.embedding().is_none());
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn embedded_paths_reproduce_the_table_covariance() -> Result<(), Box<dyn std::error::Error>> {
        // The paper's composite table: its own minimal embedding is not
        // PSD, the carried circulant is, and its paths have the table's
        // covariance. Per-path lag products, averaged over paths, against
        // four standard errors of that average.
        let n = 256;
        let table = pd_project(CompositeAcf::paper_fit(), n)?;
        let dh = DaviesHarte::from_embedding(table.embedding().ok_or("no circulant")?, n)?;
        let mut rng = StdRng::seed_from_u64(17);
        let paths = 2000;
        let lags = [0usize, 1, 10, 100];
        let mut est = vec![Vec::with_capacity(paths); lags.len()];
        for _ in 0..paths {
            let xs = dh.generate(&mut rng);
            for (e, &h) in est.iter_mut().zip(&lags) {
                let c: f64 = xs.iter().zip(&xs[h..]).map(|(a, b)| a * b).sum();
                e.push(c / (n - h) as f64);
            }
        }
        for (e, &h) in est.iter().zip(&lags) {
            let mean = e.iter().sum::<f64>() / paths as f64;
            let var = e.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (paths - 1) as f64;
            let se = (var / paths as f64).sqrt();
            assert!(
                (mean - table.r(h)).abs() < 4.0 * se,
                "lag {h}: {mean} vs table {} (se {se})",
                table.r(h)
            );
        }
        Ok(())
    }

    #[test]
    fn from_embedding_is_bounded_by_the_exact_lags() -> Result<(), Box<dyn std::error::Error>> {
        let table = pd_project(FgnAcf::new(0.8)?, 100)?;
        let e = table.embedding().ok_or("no circulant")?;
        assert!(DaviesHarte::from_embedding(e, 0).is_err());
        assert!(DaviesHarte::from_embedding(e, 101).is_err());
        for n in [1usize, 2, 100] {
            let dh = DaviesHarte::from_embedding(e, n)?;
            assert_eq!(dh.generate(&mut StdRng::seed_from_u64(3)).len(), n);
        }
        Ok(())
    }

    #[test]
    fn generate_many_counts() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.6)?;
        let dh = DaviesHarte::new(acf, 64)?;
        let mut rng = StdRng::seed_from_u64(6);
        let paths = dh.generate_many(5, &mut rng);
        assert_eq!(paths.len(), 5);
        assert!(paths.iter().all(|p| p.len() == 64));
        Ok(())
    }

    #[test]
    fn pd_projection_repairs_composite_acf() -> Result<(), Box<dyn std::error::Error>> {
        let acf = CompositeAcf::paper_fit();
        let projected = pd_project(&acf, 1024)?;
        // The correction is tiny…
        for k in 0..1024 {
            assert!(
                (projected.r(k) - acf.r(k)).abs() < 5e-3,
                "lag {k}: projected {} vs raw {}",
                projected.r(k),
                acf.r(k)
            );
        }
        // …and the result is strictly usable by the exact recursion.
        let mut s = crate::hosking::HoskingSampler::new(&projected)?;
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1024 {
            let st = s.step(&mut rng)?;
            assert!(st.cond_var > 0.0);
            assert!(st.value.is_finite());
        }
        Ok(())
    }

    #[test]
    fn pd_projection_is_identity_for_valid_acf() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.9)?;
        let projected = pd_project(acf, 256)?;
        for k in 0..256 {
            assert!(
                (projected.r(k) - acf.r(k)).abs() < 1e-10,
                "fGn is already PD; projection must not move it (lag {k})"
            );
        }
        Ok(())
    }

    #[test]
    fn pd_projection_edge_cases() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.7)?;
        assert!(pd_project(acf, 0).is_err());
        let one = pd_project(acf, 1)?;
        assert_eq!(one.r(0), 1.0);
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn agreement_with_hosking_in_distribution() -> Result<(), Box<dyn std::error::Error>> {
        // Compare lag-1 sample autocovariance between the two exact
        // generators over many short paths: both are exact so the estimates
        // must agree within Monte-Carlo error.
        let h = 0.8;
        let acf = FgnAcf::new(h)?;
        let n = 128;
        let paths = 200;
        let dh = DaviesHarte::new(acf, n)?;
        let mut rng = StdRng::seed_from_u64(7);
        let mut dh_r1 = 0.0;
        for _ in 0..paths {
            let xs = dh.generate(&mut rng);
            dh_r1 += sample_acov(&xs, 1) / paths as f64;
        }
        let mut ho_r1 = 0.0;
        for _ in 0..paths {
            let xs = crate::hosking::generate(acf, n, &mut rng)?;
            ho_r1 += sample_acov(&xs, 1) / paths as f64;
        }
        assert!(
            (dh_r1 - ho_r1).abs() < 0.05,
            "Davies–Harte {dh_r1} vs Hosking {ho_r1}"
        );
        assert!((dh_r1 - acf.r(1)).abs() < 0.05);
        Ok(())
    }
}
