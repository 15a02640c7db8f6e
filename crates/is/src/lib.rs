//! # svbr-is — importance sampling for rare overflow events
//!
//! Appendix B + §4 of the paper: estimating `Pr(Q_k > b)` by plain Monte
//! Carlo needs `≫ 1/P` replications, and each replication of a self-similar
//! process costs O(k²) under Hosking's method. Importance sampling (IS)
//! fixes this by simulating a **twisted** background process
//! `X′ = X + m*` (a conditional-mean shift, eq. 35), unbiasing each
//! replication with the exact likelihood ratio of the background Gaussian
//! processes (eqs. 42–48), and terminating a replication the moment the
//! workload crosses `b` (the sup-workload duality, eq. 17).
//!
//! Because the twist acts on the *background* process and the foreground is
//! a deterministic transform `Y′ = h(X′)`, "during the simulation we need
//! only calculate the likelihood ratio of the background processes" — the
//! property that makes IS tractable for the full VBR video model, not just
//! for FGN.
//!
//! * [`estimator`] — one IS replication and the replicated estimator, with
//!   normalized variance and variance-reduction factors.
//! * [`search`] — the heuristic "valley" search over the twist `m*`
//!   (Fig. 14): the IS estimator is unbiased for *any* twist, so one scans
//!   for the twist minimizing the normalized variance.
//!
//! The likelihood-ratio derivation in code form: at step `i` the twisted
//! conditional law is `N(m_i + m*·s_i, v_i)` where `m_i` is the untwisted
//! conditional mean given the (twisted) history and `s_i = 1 − Σ_j φ_{ij}`;
//! writing `ε̃_i = x′_i − (m_i + m*·s_i)` for the realized innovation,
//!
//! ```text
//! ln L_i = [ (x′_i − m_i − m*·s_i)² − (x′_i − m_i)² ] / (2·v_i) · (−1) …
//!        = − m*·s_i·(2·ε̃_i + m*·s_i) / (2·v_i)
//! ```
//!
//! which telescopes over steps into eq. 42's product.
//!
//! ## One untwisted path serves every twist
//!
//! The twisted path never has to be simulated through its own recursion.
//! Let `x0` be the untwisted Durbin–Levinson path driven by the
//! innovations `ε_i`: `x0_i = m_i(x0) + ε_i`. If every earlier value of the
//! twisted path is `x0_j + m*`, its exact conditional mean is
//! `m_i(x0) + m*·Σφ_i`, so
//!
//! ```text
//! x_i(m*) = m_i(x0) + m*·Σφ_i + m*·s_i + ε_i = x0_i + m*
//! ```
//!
//! and by induction the whole twisted path is `x0 + m*`. The
//! likelihood-ratio increment above needs only `(ε_i, v_i, s_i)`. A
//! replication therefore computes `x0` once — one O(i) dot product per
//! slot — and evaluates any number of twists on it
//! ([`IsEstimator::replicate_twists`]); only the transform and the queue
//! step are paid per twist. The twists of one replication see the same
//! innovations: **common random numbers**, so the differences across a
//! valley ([`valley_search`]) come from the twist, not from independent
//! noise. In floating point, `x0_i + m*` and the twisted recursion differ
//! by rounding only; DESIGN §5 measures the effect.
//!
//! ## Where the path comes from
//!
//! An estimator prepares one of two path sources, chosen from the
//! background ACF alone (no knob, no horizon threshold):
//!
//! * **Exact circulant paths.** A table from
//!   [`svbr_lrd::pd_project`] carries the nonnegative circulant it was cut
//!   from ([`svbr_lrd::acf::Acf::embedding`]): its first `k` lags *are*
//!   the table, so one Davies–Harte draw from it
//!   ([`svbr_lrd::DaviesHarte::from_embedding`], one half-length FFT) is
//!   an exact sample of `x0` over the whole horizon. The log-likelihood
//!   ratio of twist `m*` at stopping time `τ` is then the log ratio of two
//!   Gaussian densities of `x0 + m*`,
//!
//!   ```text
//!   ln L_τ = −m*·g_τᵀ·x0[..τ] − ½·m*²·G_τ,   g_τ = Σ_τ⁻¹·1_τ,  G_τ = g_τᵀ·1_τ
//!   ```
//!
//!   — the per-slot increments above summed in closed form
//!   (`g_τᵀx = Σ s_i·ε_i/v_i`). The rows `g_τ` come from one streaming
//!   Durbin–Levinson pass at construction (`g_{τ+1} = [g_τ; 0] +
//!   (s_τ/v_τ)·[−φ_τ reversed; 1]`) and take the memory the `φ` rows
//!   would. A replication costs one FFT plus one length-`τ` dot product
//!   per twist when it stops, instead of `τ²/2` multiply-adds.
//! * **The Durbin–Levinson recursion**, for every other ACF, or a horizon
//!   past the embedding's exact lags: `x0` drawn slot by slot, the
//!   log-likelihood ratio accumulated per slot, as described above.
//!
//! Either way replication `i` is a pure function of its seed, so every
//! thread-count and batching guarantee holds for both sources. The
//! prepared source sits behind an `Arc`: clones of an estimator (e.g.
//! [`IsEstimator::with_twist`]) share it. [`is_transient_curve`] makes the
//! same choice, keeping `g_t` only at its stop times.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagnostics;
pub mod estimator;
mod path;
pub mod search;
pub mod transient;

pub use diagnostics::{weight_diagnostics, WeightDiagnostics};
pub use estimator::{IsEstimate, IsEstimator, IsEvent, IsReplication, IsScratch};
pub use search::{suggest_twist, valley_search, TwistPoint};
pub use transient::{is_transient_curve, TransientConfig, TransientEstimate};

pub use svbr_domain::SvbrError;

/// Errors produced by this crate.
#[derive(Debug)]
pub enum IsError {
    /// Underlying generator failure (e.g. non-positive-definite ACF).
    Lrd(svbr_lrd::LrdError),
    /// Underlying queue failure.
    Queue(svbr_queue::QueueError),
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable constraint description.
        constraint: &'static str,
    },
    /// A validated-newtype constraint failed (see [`svbr_domain`]).
    Domain(SvbrError),
    /// The Kish effective sample size of a checked run fell below the
    /// caller's floor: the weighted sample is dominated by a handful of
    /// huge likelihood ratios and the estimate cannot be trusted. Carries
    /// the untrustworthy estimate so callers can record a degraded-mode
    /// result instead of silently using (or losing) it.
    EssCollapse {
        /// Measured Kish effective sample size.
        ess: f64,
        /// The floor the caller required.
        floor: f64,
        /// The estimate the run produced (for degraded-mode reporting only).
        estimate: IsEstimate,
    },
}

impl std::fmt::Display for IsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsError::Lrd(e) => write!(f, "generator error: {e}"),
            IsError::Queue(e) => write!(f, "queue error: {e}"),
            IsError::InvalidParameter { name, constraint } => {
                write!(f, "invalid parameter `{name}`: must satisfy {constraint}")
            }
            IsError::Domain(e) => write!(f, "{e}"),
            IsError::EssCollapse { ess, floor, .. } => write!(
                f,
                "effective sample size collapsed: ESS {ess:.2} below floor {floor:.2}"
            ),
        }
    }
}

impl std::error::Error for IsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IsError::Lrd(e) => Some(e),
            IsError::Queue(e) => Some(e),
            _ => None,
        }
    }
}

impl From<svbr_lrd::LrdError> for IsError {
    fn from(e: svbr_lrd::LrdError) -> Self {
        IsError::Lrd(e)
    }
}

impl From<svbr_queue::QueueError> for IsError {
    fn from(e: svbr_queue::QueueError) -> Self {
        IsError::Queue(e)
    }
}

impl From<SvbrError> for IsError {
    fn from(e: SvbrError) -> Self {
        IsError::Domain(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = IsError::from(svbr_lrd::LrdError::NotPositiveDefinite { lag: 3 });
        assert!(e.to_string().contains("lag 3"));
        assert!(e.source().is_some());
        let e = IsError::from(svbr_queue::QueueError::PathTooShort { needed: 2, got: 1 });
        assert!(e.to_string().contains("queue"));
        let e = IsError::InvalidParameter {
            name: "twist",
            constraint: "finite",
        };
        assert!(e.to_string().contains("twist"));
        assert!(e.source().is_none());
    }
}
