//! The IS replication loop and replicated estimator (§4 procedure,
//! steps 1–8).

use crate::path::{PathSource, SharedSlot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use svbr_domain::SvbrError;
use svbr_lrd::acf::Acf;
use svbr_lrd::fft::Complex;
use svbr_lrd::gauss::Normal;
use svbr_marginal::transform::GaussianTransform;
use svbr_marginal::Marginal;

/// Replication interval between streaming-telemetry emissions in
/// [`IsEstimator::run`] (a final emission always lands on the last
/// replication, so short runs still report once).
pub const PROGRESS_CHUNK: usize = 256;

/// Kish effective sample size at which the `is.ess` convergence watermark
/// declares the weighted sample healthy. Below this, a handful of huge
/// likelihood ratios carry the estimate (cf. [`IsEstimator::run_checked`]).
pub const ESS_TARGET: f64 = 64.0;

/// Relative 95% CI half-width (`1.96·σ̂/P̂`) at which the
/// `is.rel_ci_half_width` watermark declares the estimate converged —
/// ±25%, roughly the precision of the paper's Fig. 16 points.
pub const REL_CI_TARGET: f64 = 0.25;

/// Which overflow event a replication scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IsEvent {
    /// `sup_{i ≤ k} W_i > b` — the paper's procedure. Equivalent in
    /// distribution to `Q_k > b` for a queue started empty (eq. 17), and
    /// allows early termination on the first crossing (step 5).
    FirstPassage,
    /// `Q_k > b` for the Lindley recursion started at the given level —
    /// needed for the full-buffer curves of Fig. 15. No early termination.
    LevelAtHorizon {
        /// Initial queue level `Q_0`.
        initial: f64,
    },
}

/// Outcome of one IS replication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsReplication {
    /// Whether the overflow event occurred (`I_n`).
    pub hit: bool,
    /// `I_n · L` — the unbiased contribution of this replication.
    pub weight: f64,
    /// Accumulated log-likelihood ratio at termination.
    pub log_lr: f64,
    /// Slots actually simulated (early termination makes this < horizon).
    pub slots_used: usize,
}

/// Replicated IS estimate of `Pr(Q_k > b)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsEstimate {
    /// Point estimate `P̂ = (1/N) Σ I_n L_n`.
    pub p: f64,
    /// Number of replications.
    pub n: usize,
    /// Estimated variance of the estimator (sample variance of the
    /// weights divided by N).
    pub variance: f64,
    /// Number of replications in which the event occurred.
    pub hits: usize,
    /// Mean slots simulated per replication.
    pub mean_slots: f64,
}

impl IsEstimate {
    /// Standard error.
    pub fn std_err(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Normalized variance `Var[P̂]/P̂²` — the y-axis of Fig. 14.
    pub fn normalized_variance(&self) -> f64 {
        if self.p > 0.0 {
            self.variance / (self.p * self.p)
        } else {
            f64::INFINITY
        }
    }

    /// 95% normal-approximation confidence interval.
    pub fn ci95(&self) -> (f64, f64) {
        let half = 1.96 * self.std_err();
        ((self.p - half).max(0.0), self.p + half)
    }

    /// Variance-reduction factor vs. plain Monte Carlo at the same
    /// replication count: `p(1−p)/N` over this estimator's variance.
    /// (The paper reports ≈1000 at the near-optimal twist.)
    pub fn variance_reduction(&self) -> f64 {
        if self.variance > 0.0 {
            (self.p * (1.0 - self.p) / self.n as f64) / self.variance
        } else {
            f64::INFINITY
        }
    }

    /// Kish effective sample size `(Σw)²/Σw²`, recovered exactly from
    /// `(p, variance, n)` (the weight sums are invertible from the stored
    /// moments, the same identity [`Self::merge`] uses). 0 when no weight
    /// was collected.
    ///
    /// This is the estimator-health number: `n` replications whose weights
    /// are dominated by a handful of huge likelihood ratios are worth far
    /// fewer than `n` i.i.d. draws, and an ESS collapse means the twist is
    /// past the Fig. 14 valley and the estimate cannot be trusted.
    pub fn effective_sample_size(&self) -> f64 {
        // sum = n·p, sum_sq = n·(n·variance + p²) ⇒ ESS = n·p²/(n·variance + p²)
        let denom = self.n as f64 * self.variance + self.p * self.p;
        if denom > 0.0 {
            self.n as f64 * self.p * self.p / denom
        } else {
            0.0
        }
    }

    /// Relative error `std_err/p` (∞ when the estimate is 0).
    pub fn relative_error(&self) -> f64 {
        if self.p > 0.0 {
            self.std_err() / self.p
        } else {
            f64::INFINITY
        }
    }

    /// Relative 95% CI half-width `1.96·std_err/p` (∞ when the estimate
    /// is 0) — the streaming convergence quantity watched by the
    /// `is.rel_ci_half_width` watermark in [`IsEstimator::run`].
    pub fn rel_ci_half_width(&self) -> f64 {
        1.96 * self.relative_error()
    }

    /// Merge two independent estimates of the same quantity (pooling their
    /// replications). Exact: the weight sums and sums of squares are
    /// recovered from `(p, variance, n)`.
    pub fn merge(&self, other: &IsEstimate) -> IsEstimate {
        let n = self.n + other.n;
        if n == 0 {
            return *self;
        }
        let sum = self.p * self.n as f64 + other.p * other.n as f64;
        let sum_sq = |e: &IsEstimate| {
            // variance = (sum_sq/n − p²)/n  ⇒  sum_sq = n·(n·variance + p²)
            e.n as f64 * (e.n as f64 * e.variance + e.p * e.p)
        };
        let total_sq = sum_sq(self) + sum_sq(other);
        let p = sum / n as f64;
        let var_w = (total_sq / n as f64 - p * p).max(0.0);
        IsEstimate {
            p,
            n,
            variance: var_w / n as f64,
            hits: self.hits + other.hits,
            mean_slots: (self.mean_slots * self.n as f64 + other.mean_slots * other.n as f64)
                / n as f64,
        }
    }
}

/// Running state of one twist inside [`IsEstimator::replicate_twists`].
#[derive(Debug, Clone, Copy)]
struct TwistLane {
    twist: f64,
    log_lr: f64,
    /// Running workload `W` (first passage) or queue level `Q` (level at
    /// horizon).
    level: f64,
    live: bool,
}

/// Reusable per-replication buffers for [`IsEstimator::replicate_twists`]:
/// the untwisted path, the circulant sampler's spectrum, the per-twist
/// state, and the per-twist outcomes. Create one per worker and pass it to
/// every replication, so the slot loop never allocates.
#[derive(Debug, Default, Clone)]
pub struct IsScratch {
    hist: Vec<f64>,
    spectrum: Vec<Complex>,
    lanes: Vec<TwistLane>,
    out: Vec<IsReplication>,
}

/// The IS estimator for a fixed system configuration.
///
/// Construction prepares the path source once (crate docs, "Where the
/// path comes from"): the background's carried circulant plus the rows
/// `g_τ = Σ_τ⁻¹·1_τ` when its ACF has one exact over the horizon, the
/// Durbin–Levinson rows `φ_τ` otherwise. A replication then costs one
/// half-length FFT, or O(slots²) dot products whose early termination
/// (step 5 of the paper's procedure) usually keeps `slots ≪ horizon` at a
/// good twist. Clones share the source.
#[derive(Debug, Clone)]
pub struct IsEstimator<M> {
    source: Arc<PathSource>,
    transform: GaussianTransform<M>,
    service: f64,
    buffer: f64,
    twist: f64,
    event: IsEvent,
}

impl<M: Marginal> IsEstimator<M> {
    /// Build from the background ACF (twisting happens on this process),
    /// the foreground transform, and the queueing configuration.
    #[allow(clippy::too_many_arguments)]
    pub fn new<A: Acf>(
        acf: A,
        horizon: usize,
        transform: GaussianTransform<M>,
        service: f64,
        buffer: f64,
        twist: f64,
        event: IsEvent,
    ) -> Result<Self, SvbrError> {
        if horizon == 0 {
            return Err(SvbrError::OutOfRange {
                name: "horizon",
                constraint: ">= 1",
            });
        }
        if !service.is_finite() {
            return Err(SvbrError::NotFinite { name: "service" });
        }
        if service <= 0.0 {
            return Err(SvbrError::OutOfRange {
                name: "service",
                constraint: "> 0",
            });
        }
        if !twist.is_finite() {
            return Err(SvbrError::NotFinite { name: "twist" });
        }
        if !buffer.is_finite() {
            return Err(SvbrError::NotFinite { name: "buffer" });
        }
        Ok(Self {
            source: Arc::new(PathSource::new(acf, horizon)?),
            transform,
            service,
            buffer,
            twist,
            event,
        })
    }

    /// The horizon `k`.
    pub fn horizon(&self) -> usize {
        self.source.len()
    }

    /// The twist `m*`.
    pub fn twist(&self) -> f64 {
        self.twist
    }

    /// Clone with a different twist, sharing the prepared path source.
    pub fn with_twist(&self, twist: f64) -> Self
    where
        M: Clone,
    {
        Self {
            source: Arc::clone(&self.source),
            transform: self.transform.clone(),
            service: self.service,
            buffer: self.buffer,
            twist,
            event: self.event,
        }
    }

    /// Run one replication at this estimator's twist (steps 2–7 of the
    /// paper's procedure): the one-twist call of
    /// [`Self::replicate_twists`].
    pub fn replicate<R: Rng + ?Sized>(&self, rng: &mut R) -> IsReplication {
        self.replicate_in(rng, &mut IsScratch::default())
    }

    fn replicate_in<R: Rng + ?Sized>(&self, rng: &mut R, scratch: &mut IsScratch) -> IsReplication {
        self.replicate_twists(std::slice::from_ref(&self.twist), rng, scratch)[0]
    }

    /// Run one replication under every twist in `twists` at once, on one
    /// shared untwisted path, and return one outcome per twist (in
    /// `twists` order; the estimator's own twist is not used).
    ///
    /// The path `x0` comes from the estimator's source: drawn slot by slot
    /// by the Durbin–Levinson recursion (one dot product per slot, the
    /// log-likelihood ratio accumulated per slot), or whole by one FFT of
    /// the carried circulant (the log-likelihood ratio scored in closed
    /// form at the stopping time). Every twist still running takes
    /// `x0_i + m*` as its background value and applies the transform and
    /// its first-passage or Lindley step. The replication stops when every
    /// twist has ended. All twists see the same path: common random
    /// numbers.
    pub fn replicate_twists<'s, R: Rng + ?Sized>(
        &self,
        twists: &[f64],
        rng: &mut R,
        scratch: &'s mut IsScratch,
    ) -> &'s [IsReplication] {
        let horizon = self.horizon();
        let initial = match self.event {
            IsEvent::LevelAtHorizon { initial } => initial,
            IsEvent::FirstPassage => 0.0,
        };
        let IsScratch {
            hist,
            spectrum,
            lanes,
            out,
        } = scratch;
        lanes.clear();
        lanes.extend(twists.iter().map(|&twist| TwistLane {
            twist,
            log_lr: 0.0,
            level: initial,
            live: true,
        }));
        out.clear();
        out.resize(
            twists.len(),
            IsReplication {
                hit: false,
                weight: 0.0,
                log_lr: 0.0,
                slots_used: horizon,
            },
        );
        let mut live = twists.len();
        match &*self.source {
            PathSource::Recursion(prepared) => {
                hist.clear();
                hist.reserve(horizon);
                let mut normal = Normal::new();
                for i in 0..horizon {
                    if live == 0 {
                        break;
                    }
                    let slot = SharedSlot::draw(prepared, hist, &mut normal, rng);
                    self.advance(
                        lanes,
                        out,
                        &mut live,
                        i,
                        |twist| slot.twisted(twist),
                        |lane, _| lane.log_lr,
                    );
                }
                self.settle(lanes, out, |lane| lane.log_lr);
            }
            PathSource::Circulant(paths) => {
                paths.sampler.generate_into(rng, hist, spectrum);
                let x0 = &hist[..];
                for (i, &x) in x0.iter().enumerate() {
                    if live == 0 {
                        break;
                    }
                    self.advance(
                        lanes,
                        out,
                        &mut live,
                        i,
                        |twist| (x + twist, 0.0),
                        |lane, tau| paths.score(&x0[..tau]).log_lr(lane.twist),
                    );
                }
                if live > 0 {
                    let score = paths.score(x0);
                    self.settle(lanes, out, |lane| score.log_lr(lane.twist));
                }
            }
        }
        out
    }

    /// Advance every live lane by slot `i`: `slot(m*)` is the lane's
    /// twisted background value and log-LR increment. A lane that crosses
    /// the buffer stops there with log-LR `stopped(lane, i + 1)`.
    #[inline]
    fn advance(
        &self,
        lanes: &mut [TwistLane],
        out: &mut [IsReplication],
        live: &mut usize,
        i: usize,
        slot: impl Fn(f64) -> (f64, f64),
        stopped: impl Fn(&TwistLane, usize) -> f64,
    ) {
        for (lane, rep) in lanes.iter_mut().zip(out.iter_mut()) {
            if !lane.live {
                continue;
            }
            let (x, d_log_lr) = slot(lane.twist);
            lane.log_lr += d_log_lr;
            debug_assert!(
                lane.log_lr.is_finite(),
                "likelihood-ratio accumulator left the finite range at slot {i}"
            );
            let y = self.transform.apply(x);
            match self.event {
                IsEvent::FirstPassage => {
                    lane.level += y - self.service;
                    if lane.level > self.buffer {
                        lane.live = false;
                        *live -= 1;
                        let log_lr = stopped(lane, i + 1);
                        *rep = IsReplication {
                            hit: true,
                            weight: log_lr.exp(),
                            log_lr,
                            slots_used: i + 1,
                        };
                    }
                }
                IsEvent::LevelAtHorizon { .. } => {
                    lane.level = (lane.level + y - self.service).max(0.0);
                }
            }
        }
    }

    /// Close every lane that ran to the horizon — a first-passage miss, or
    /// the level test — with log-LR `log_lr(lane)`.
    fn settle(
        &self,
        lanes: &[TwistLane],
        out: &mut [IsReplication],
        log_lr: impl Fn(&TwistLane) -> f64,
    ) {
        for (lane, rep) in lanes.iter().zip(out.iter_mut()) {
            if !lane.live {
                continue;
            }
            let hit = match self.event {
                IsEvent::FirstPassage => false,
                IsEvent::LevelAtHorizon { .. } => lane.level > self.buffer,
            };
            rep.hit = hit;
            rep.log_lr = log_lr(lane);
            rep.weight = if hit { rep.log_lr.exp() } else { 0.0 };
        }
    }

    /// Run `n` replications sequentially.
    ///
    /// When tracing is enabled, every [`PROGRESS_CHUNK`] replications (and
    /// once more on the last) this streams the running Kish effective
    /// sample size and relative 95% CI half-width as `is.progress` points
    /// plus `is.ess` / `is.rel_ci_half_width` gauges, and two
    /// [`svbr_obsv::Watermark`]s record *when* each quantity first crossed
    /// its declared target ([`ESS_TARGET`], [`REL_CI_TARGET`]). None of it
    /// consumes randomness, so traced and untraced runs are bit-identical.
    pub fn run<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> IsEstimate {
        let mut acc = Accumulator::default();
        let mut telemetry = svbr_obsv::enabled().then(|| {
            (
                svbr_obsv::Watermark::above("is.ess", ESS_TARGET),
                svbr_obsv::Watermark::below("is.rel_ci_half_width", REL_CI_TARGET),
            )
        });
        let mut scratch = IsScratch::default();
        for i in 0..n {
            acc.add(&self.replicate_in(rng, &mut scratch));
            let Some((ess_wm, ci_wm)) = telemetry.as_mut() else {
                continue;
            };
            let done = i + 1;
            if !done.is_multiple_of(PROGRESS_CHUNK) && done != n {
                continue;
            }
            let running = acc.finish();
            let ess = acc.effective_sample_size();
            let rel_ci = running.rel_ci_half_width();
            svbr_obsv::gauge("is.ess").set(ess);
            svbr_obsv::gauge("is.rel_ci_half_width").set(rel_ci);
            svbr_obsv::point(
                "is.progress",
                &[
                    ("n", done as f64),
                    ("p", running.p),
                    ("effective_sample_size", ess),
                    ("rel_ci_half_width", rel_ci),
                ],
            );
            ess_wm.observe(done as u64, ess);
            ci_wm.observe(done as u64, rel_ci);
        }
        let est = acc.finish();
        self.observe_run(self.twist, &acc, &est, "sequential");
        est
    }

    /// Publish per-run diagnostics to the obsv layer: likelihood-ratio
    /// mean/variance (in log space), Kish effective sample size, and the
    /// twist used — the quantities that tell whether the change of measure
    /// is healthy (cf. `crate::diagnostics`).
    fn observe_run(&self, twist: f64, acc: &Accumulator, est: &IsEstimate, mode: &str) {
        svbr_obsv::counter("is.replications").add(acc.n as u64);
        if svbr_obsv::enabled() {
            // Same total, split by execution mode (sequential vs parallel).
            svbr_obsv::counter_with("is.batch.replications", &[("mode", mode)]).add(acc.n as u64);
            svbr_obsv::record_tick(acc.n as u64);
        }
        svbr_obsv::counter("is.hits").add(acc.hits as u64);
        let ess = acc.effective_sample_size();
        svbr_obsv::gauge("is.effective_sample_size").set(ess);
        if !svbr_obsv::enabled() {
            return;
        }
        let nf = acc.n.max(1) as f64;
        let log_lr_mean = acc.log_lr_sum / nf;
        let log_lr_var = (acc.log_lr_sum_sq / nf - log_lr_mean * log_lr_mean).max(0.0);
        svbr_obsv::point(
            "is.run",
            &[
                ("twist", twist),
                ("buffer", self.buffer),
                ("horizon", self.horizon() as f64),
                ("n", nf),
                ("p", est.p),
                ("hits", acc.hits as f64),
                ("effective_sample_size", ess),
                ("log_lr_mean", log_lr_mean),
                ("log_lr_variance", log_lr_var),
                ("mean_slots", est.mean_slots),
            ],
        );
    }

    /// Like [`Self::run`], but abort-and-report when the Kish effective
    /// sample size of the weighted sample falls below `min_ess`.
    ///
    /// A collapsed ESS means a few enormous likelihood ratios carry the
    /// whole estimate — the classic silent IS failure mode. Rather than
    /// hand back a confidently wrong number, this returns
    /// [`crate::IsError::EssCollapse`] carrying both the measured ESS and
    /// the (untrustworthy) estimate so the caller can record a degraded
    /// result, and bumps the `is.ess_collapse` counter for the manifest.
    pub fn run_checked<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
        min_ess: f64,
    ) -> Result<IsEstimate, crate::IsError> {
        self.check_ess(self.run(n, rng), min_ess)
    }

    /// Like [`Self::run_parallel`], with the same ESS floor as
    /// [`Self::run_checked`].
    pub fn run_parallel_checked(
        &self,
        n: usize,
        master_seed: u64,
        threads: usize,
        min_ess: f64,
    ) -> Result<IsEstimate, crate::IsError>
    where
        M: Sync,
    {
        self.check_ess(self.run_parallel(n, master_seed, threads), min_ess)
    }

    fn check_ess(&self, estimate: IsEstimate, min_ess: f64) -> Result<IsEstimate, crate::IsError> {
        let ess = estimate.effective_sample_size();
        if ess < min_ess {
            svbr_obsv::counter("is.ess_collapse").add(1);
            svbr_obsv::point(
                "is.ess_collapse",
                &[("ess", ess), ("floor", min_ess), ("twist", self.twist)],
            );
            return Err(crate::IsError::EssCollapse {
                ess,
                floor: min_ess,
                estimate,
            });
        }
        Ok(estimate)
    }

    /// Run batches of replications until the estimate's relative error
    /// drops to `target` (e.g. 0.1 for ±10% at one σ) or `max_reps` is
    /// exhausted. Returns the pooled estimate.
    ///
    /// This is how a practitioner actually drives the paper's method:
    /// pick a precision, not a replication count.
    pub fn run_to_relative_error(
        &self,
        target: f64,
        batch: usize,
        max_reps: usize,
        master_seed: u64,
        threads: usize,
    ) -> IsEstimate
    where
        M: Sync,
    {
        let batch = batch.max(16);
        let mut pooled: Option<IsEstimate> = None;
        while pooled.map_or(0, |e| e.n) < max_reps {
            let done = pooled.map_or(0, |e| e.n);
            let remaining = max_reps - done;
            // Each batch is the next contiguous slice of ONE master
            // replication schedule, so the pooled run at any stopping point
            // is a prefix of the run that a bigger budget would produce.
            let e = self.run_parallel_from(batch.min(remaining), master_seed, done as u64, threads);
            pooled = Some(match pooled {
                Some(prev) => prev.merge(&e),
                None => e,
            });
            // svbr-lint: allow(no-expect) `pooled` is assigned on every loop iteration before this read
            if pooled.expect("just set").relative_error() <= target {
                break;
            }
        }
        pooled.unwrap_or(IsEstimate {
            p: 0.0,
            n: 0,
            variance: 0.0,
            hits: 0,
            mean_slots: 0.0,
        })
    }

    /// Run `n` replications across `threads` OS threads via
    /// [`svbr_par::run_replications`].
    ///
    /// Replication `i` gets its own `StdRng` seeded with
    /// `svbr_par::derive_seed(master_seed, i)`, and outcomes are folded into
    /// the accumulator in replication-index order — the estimate is
    /// **bit-identical for any thread count**, and replication `i` is the
    /// same random experiment no matter how the run is sharded or batched
    /// (see [`Self::run_parallel_from`]).
    pub fn run_parallel(&self, n: usize, master_seed: u64, threads: usize) -> IsEstimate
    where
        M: Sync,
    {
        self.run_parallel_from(n, master_seed, 0, threads)
    }

    /// Run replications `first_rep .. first_rep + n` of the master schedule
    /// identified by `master_seed`.
    ///
    /// Because each replication's RNG stream depends only on
    /// `(master_seed, global index)`, a run interrupted after `k`
    /// replications (e.g. by an svbr-resilience checkpoint) can be resumed
    /// with `first_rep = k` and will execute exactly the replications the
    /// uninterrupted run would have.
    pub fn run_parallel_from(
        &self,
        n: usize,
        master_seed: u64,
        first_rep: u64,
        threads: usize,
    ) -> IsEstimate
    where
        M: Sync,
    {
        let twist = std::slice::from_ref(&self.twist);
        self.run_twists_from(twist, n, master_seed, first_rep, threads)[0]
    }

    /// Run replications `first_rep .. first_rep + n` of the master schedule
    /// under every twist in `twists` through [`Self::replicate_twists`]:
    /// replication `r` of every twist shares one untwisted path, drawn from
    /// `svbr_par::derive_seed(master_seed, first_rep + r)`. Returns one
    /// estimate per twist, each folded in replication-index order, so the
    /// result is **bit-identical for any thread count**.
    pub(crate) fn run_twists_from(
        &self,
        twists: &[f64],
        n: usize,
        master_seed: u64,
        first_rep: u64,
        threads: usize,
    ) -> Vec<IsEstimate>
    where
        M: Sync,
    {
        let width = twists.len();
        // Replication-major: entry `r·width + t` is twist `t` of replication `r`.
        let reps = svbr_par::par_map_blocks(n, threads, |range| {
            let mut scratch = IsScratch::default();
            let mut block = Vec::with_capacity(range.len() * width);
            for i in range {
                let seed = svbr_par::derive_seed(master_seed, first_rep + i as u64);
                let mut rng = StdRng::seed_from_u64(seed);
                block.extend_from_slice(self.replicate_twists(twists, &mut rng, &mut scratch));
            }
            block
        });
        twists
            .iter()
            .enumerate()
            .map(|(t, &twist)| {
                let mut total = Accumulator::default();
                for r in reps.iter().skip(t).step_by(width.max(1)) {
                    total.add(r);
                }
                let est = total.finish();
                self.observe_run(twist, &total, &est, "parallel");
                est
            })
            .collect()
    }
}

#[derive(Debug, Default, Clone)]
struct Accumulator {
    n: usize,
    sum: f64,
    sum_sq: f64,
    hits: usize,
    slots: u64,
    // Log-likelihood-ratio moments over *all* replications (hit or not) —
    // pure diagnostics for the obsv layer; never enter the estimate.
    log_lr_sum: f64,
    log_lr_sum_sq: f64,
}

impl Accumulator {
    fn add(&mut self, r: &IsReplication) {
        self.n += 1;
        self.sum += r.weight;
        self.sum_sq += r.weight * r.weight;
        self.hits += usize::from(r.hit);
        self.slots += r.slots_used as u64;
        self.log_lr_sum += r.log_lr;
        self.log_lr_sum_sq += r.log_lr * r.log_lr;
    }

    /// Kish effective sample size of the weighted sample,
    /// `(Σw)² / Σw²` — the number of i.i.d. draws the weighted estimate is
    /// worth. 0 when no weight has been collected.
    fn effective_sample_size(&self) -> f64 {
        if self.sum_sq > 0.0 {
            self.sum * self.sum / self.sum_sq
        } else {
            0.0
        }
    }

    fn finish(&self) -> IsEstimate {
        let n = self.n.max(1) as f64;
        let p = self.sum / n;
        let var_w = (self.sum_sq / n - p * p).max(0.0);
        IsEstimate {
            p,
            n: self.n,
            variance: var_w / n,
            hits: self.hits,
            mean_slots: self.slots as f64 / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svbr_lrd::acf::{ExponentialAcf, FgnAcf};
    use svbr_marginal::Normal as NormalDist;

    fn white_noise_system(
        horizon: usize,
        service: f64,
        buffer: f64,
        twist: f64,
        event: IsEvent,
    ) -> IsEstimator<NormalDist> {
        IsEstimator::new(
            FgnAcf::new(0.5).unwrap(),
            horizon,
            GaussianTransform::new(NormalDist::standard()),
            service,
            buffer,
            twist,
            event,
        )
        .unwrap()
    }

    /// The twisted Durbin–Levinson recursion the library ran before the
    /// shared path: one recursion per twist, each conditioning on its own
    /// twisted history. Kept as the oracle for [`IsEstimator::replicate_twists`].
    fn twisted_recursion_oracle<M: Marginal, R: Rng + ?Sized>(
        est: &IsEstimator<M>,
        twist: f64,
        rng: &mut R,
    ) -> IsReplication {
        let PathSource::Recursion(prepared) = &*est.source else {
            panic!("the oracle drives the Durbin–Levinson source");
        };
        let horizon = prepared.len();
        let mut normal = Normal::new();
        let mut hist: Vec<f64> = Vec::with_capacity(horizon);
        let mut log_lr = 0.0f64;
        let mut level = match est.event {
            IsEvent::LevelAtHorizon { initial } => initial,
            IsEvent::FirstPassage => 0.0,
        };
        for i in 0..horizon {
            let m = prepared.moments(i, &hist);
            let shift = twist * (1.0 - m.phi_sum);
            let eps = normal.sample(rng) * m.var.sqrt();
            let x = m.mean + shift + eps;
            hist.push(x);
            if shift != 0.0 {
                log_lr -= shift * (2.0 * eps + shift) / (2.0 * m.var);
            }
            let y = est.transform.apply(x);
            match est.event {
                IsEvent::FirstPassage => {
                    level += y - est.service;
                    if level > est.buffer {
                        return IsReplication {
                            hit: true,
                            weight: log_lr.exp(),
                            log_lr,
                            slots_used: i + 1,
                        };
                    }
                }
                IsEvent::LevelAtHorizon { .. } => level = (level + y - est.service).max(0.0),
            }
        }
        let hit = match est.event {
            IsEvent::FirstPassage => false,
            IsEvent::LevelAtHorizon { .. } => level > est.buffer,
        };
        IsReplication {
            hit,
            weight: if hit { log_lr.exp() } else { 0.0 },
            log_lr,
            slots_used: horizon,
        }
    }

    /// Compare every twist of `replicate_twists` with the oracle at the same
    /// per-replication seed. Returns (comparisons, flipped, hits): a flip is a
    /// replication whose `hit` or `slots_used` differs, which can only
    /// happen where `x0 + m*` and the recursion round to different sides of
    /// a threshold. Non-flipped replications must agree in weight and
    /// log-LR to 1e-12 relative.
    fn compare_with_oracle<M: Marginal>(
        est: &IsEstimator<M>,
        twists: &[f64],
        reps: u64,
    ) -> (usize, usize, usize) {
        let mut scratch = IsScratch::default();
        let (mut compared, mut flipped, mut hits) = (0, 0, 0);
        for r in 0..reps {
            let seed = svbr_par::derive_seed(2024, r);
            let shared = est
                .replicate_twists(twists, &mut StdRng::seed_from_u64(seed), &mut scratch)
                .to_vec();
            for (&twist, got) in twists.iter().zip(&shared) {
                let want = twisted_recursion_oracle(est, twist, &mut StdRng::seed_from_u64(seed));
                compared += 1;
                hits += usize::from(want.hit);
                if got.hit != want.hit || got.slots_used != want.slots_used {
                    flipped += 1;
                    continue;
                }
                let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-300);
                assert!(
                    got.weight == want.weight || rel(got.weight, want.weight) < 1e-12,
                    "weight {} vs {} at twist {twist}, rep {r}",
                    got.weight,
                    want.weight
                );
                assert!(
                    got.log_lr == want.log_lr || rel(got.log_lr, want.log_lr) < 1e-12,
                    "log-LR {} vs {} at twist {twist}, rep {r}",
                    got.log_lr,
                    want.log_lr
                );
            }
        }
        (compared, flipped, hits)
    }

    #[test]
    fn shared_path_matches_twisted_recursion_oracle() -> Result<(), Box<dyn std::error::Error>> {
        let twists = [0.0, 0.5, 1.0, 2.0, 3.0];
        let gamma = GaussianTransform::new(svbr_marginal::Gamma::new(2.0, 1.5)?);
        let systems = [
            // White noise, Gaussian foreground, first passage.
            compare_with_oracle(
                &white_noise_system(60, 1.0, 8.0, 0.0, IsEvent::FirstPassage),
                &twists,
                400,
            ),
            // LRD background, Gamma foreground (a non-trivial transform).
            compare_with_oracle(
                &IsEstimator::new(
                    FgnAcf::new(0.8)?,
                    120,
                    gamma.clone(),
                    3.6,
                    12.0,
                    0.0,
                    IsEvent::FirstPassage,
                )?,
                &twists,
                300,
            ),
            // SRD background, level at horizon from a full buffer.
            compare_with_oracle(
                &IsEstimator::new(
                    ExponentialAcf::new(0.3)?,
                    80,
                    gamma,
                    3.3,
                    6.0,
                    0.0,
                    IsEvent::LevelAtHorizon { initial: 6.0 },
                )?,
                &twists,
                300,
            ),
        ];
        for &(compared, _, hits) in &systems {
            assert!(
                hits > 0 && hits < compared,
                "need hits and misses: {hits} of {compared}"
            );
        }
        let compared: usize = systems.iter().map(|s| s.0).sum();
        let flipped: usize = systems.iter().map(|s| s.1).sum();
        assert_eq!(compared, 5 * (400 + 300 + 300));
        // A handful at most: a flip needs a workload within a few ulp of
        // the buffer (or of zero, for the Lindley floor).
        assert!(flipped <= 5, "{flipped} of {compared} replications flipped");
        Ok(())
    }

    #[test]
    fn replicate_is_the_one_twist_kernel_call() {
        let est = white_noise_system(40, 0.6, 3.0, 0.8, IsEvent::FirstPassage);
        let mut scratch = IsScratch::default();
        for r in 0..200 {
            let one = est.replicate(&mut StdRng::seed_from_u64(r));
            let many = est.replicate_twists(
                &[0.3, 0.8, 1.6],
                &mut StdRng::seed_from_u64(r),
                &mut scratch,
            );
            assert_eq!(one, many[1], "rep {r}");
        }
        assert!(est
            .replicate_twists(&[], &mut StdRng::seed_from_u64(0), &mut scratch)
            .is_empty());
    }

    /// The paper's composite background as a projected table of `k` lags,
    /// with (`embedded`) or without its carried circulant, under a
    /// standard-normal foreground.
    fn composite_system(
        k: usize,
        embedded: bool,
        twist: f64,
    ) -> Result<IsEstimator<NormalDist>, Box<dyn std::error::Error>> {
        let acf = svbr_lrd::CompositeAcf::paper_fit();
        let table = if embedded {
            svbr_lrd::pd_project(acf, k)?
        } else {
            svbr_lrd::pd_project_table(acf, k)?
        };
        let est = IsEstimator::new(
            table,
            k,
            GaussianTransform::new(NormalDist::standard()),
            0.5,
            12.0,
            twist,
            IsEvent::FirstPassage,
        )?;
        let circulant = matches!(*est.source, PathSource::Circulant(_));
        assert_eq!(circulant, embedded);
        Ok(est)
    }

    #[test]
    fn embedded_estimator_agrees_with_recursion() -> Result<(), Box<dyn std::error::Error>> {
        // Same table values, two path sources: circulant paths scored in
        // closed form, and the Durbin–Levinson recursion. Different random
        // streams, so the estimates agree within their errors.
        for twist in [0.0, 0.4] {
            let fft = composite_system(150, true, twist)?.run_parallel(20_000, 5, 2);
            let dl = composite_system(150, false, twist)?.run_parallel(20_000, 6, 2);
            let tol = 4.0 * (fft.std_err() + dl.std_err());
            assert!(
                fft.hits > 100 && dl.hits > 100,
                "hits {} / {}",
                fft.hits,
                dl.hits
            );
            assert!(
                (fft.p - dl.p).abs() < tol,
                "twist {twist}: circulant {} vs recursion {} (tol {tol})",
                fft.p,
                dl.p
            );
        }
        Ok(())
    }

    #[test]
    fn embedded_batched_runs_reproduce_one_master_schedule(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let est = composite_system(120, true, 0.5)?;
        let full = est.run_parallel(100, 13, 4);
        assert!(full.hits > 0 && full.hits < 100, "hits {}", full.hits);
        let head = est.run_parallel_from(60, 13, 0, 2);
        let tail = est.run_parallel_from(40, 13, 60, 8);
        assert_eq!(head.hits + tail.hits, full.hits);
        let merged = head.merge(&tail);
        assert_eq!(merged.n, full.n);
        assert!((merged.p - full.p).abs() <= 1e-12 * full.p);
        assert!((merged.mean_slots - full.mean_slots).abs() < 1e-9);
        // A clone at another twist shares the prepared source.
        let other = est.with_twist(1.0);
        assert!(Arc::ptr_eq(&est.source, &other.source));
        Ok(())
    }

    #[test]
    fn effective_sample_size_recovers_weight_moments() {
        // Weights {1, 1, 2}: sum = 4, sum_sq = 6 ⇒ ESS = 16/6 = 8/3.
        let n = 3usize;
        let p = 4.0 / 3.0;
        let var_w = 6.0 / 3.0 - p * p;
        let est = IsEstimate {
            p,
            n,
            variance: var_w / n as f64,
            hits: 3,
            mean_slots: 1.0,
        };
        assert!((est.effective_sample_size() - 8.0 / 3.0).abs() < 1e-12);
        // Degenerate estimate: no weight collected.
        let zero = IsEstimate {
            p: 0.0,
            n: 0,
            variance: 0.0,
            hits: 0,
            mean_slots: 0.0,
        };
        assert_eq!(zero.effective_sample_size(), 0.0);
    }

    #[test]
    fn checked_run_reports_ess_collapse() {
        let est = white_noise_system(30, 0.5, 3.0, 1.0, IsEvent::FirstPassage);
        let mut rng = StdRng::seed_from_u64(31);
        // An infinite floor always trips the guard; the error must carry
        // the measured ESS and the degraded estimate.
        match est.run_checked(200, &mut rng, f64::INFINITY) {
            Err(crate::IsError::EssCollapse {
                ess,
                floor,
                estimate,
            }) => {
                assert!(ess.is_finite());
                assert!(floor.is_infinite());
                assert_eq!(estimate.n, 200);
            }
            other => panic!("expected EssCollapse, got {other:?}"),
        }
        // A floor of 0 never trips.
        let mut rng = StdRng::seed_from_u64(31);
        assert!(est.run_checked(200, &mut rng, 0.0).is_ok());
        // The parallel variant applies the same guard.
        assert!(matches!(
            est.run_parallel_checked(100, 7, 2, f64::INFINITY),
            Err(crate::IsError::EssCollapse { .. })
        ));
        assert!(est.run_parallel_checked(100, 7, 2, 0.0).is_ok());
    }

    #[test]
    fn zero_twist_is_plain_mc() {
        let est = white_noise_system(50, 0.5, 3.0, 0.0, IsEvent::FirstPassage);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let r = est.replicate(&mut rng);
            assert_eq!(r.log_lr, 0.0);
            assert!(r.weight == 0.0 || r.weight == 1.0);
            assert_eq!(r.weight == 1.0, r.hit);
        }
    }

    #[test]
    fn likelihood_ratio_mean_is_one() {
        // With an always-true event the estimator targets probability 1, so
        // the mean weight E[L] must be 1 for any twist — the unbiasedness
        // identity E_{p'}[L] = 1. The twist must be kept small here: ln L is
        // N(−σ²/2, σ²) with σ² = m*²·k for white noise, so a large twist
        // makes the sample mean of L collapse below 1 at any feasible
        // replication count (the classic IS-degeneracy effect — exactly why
        // the valley in Fig. 14 rises again on the right).
        let est = white_noise_system(20, 0.5, -1.0, 0.1, IsEvent::LevelAtHorizon { initial: 0.0 });
        let mut rng = StdRng::seed_from_u64(2);
        let e = est.run(40_000, &mut rng);
        assert_eq!(e.hits, 40_000, "Q_k > −1 always");
        assert!(
            (e.p - 1.0).abs() < 4.0 * e.std_err(),
            "p {} ± {}",
            e.p,
            e.std_err()
        );
    }

    #[test]
    fn is_estimate_agrees_with_mc() {
        // Moderate-probability event: IS (twist 1.0) and MC (twist 0) must
        // agree within joint CIs.
        let mc = white_noise_system(30, 0.6, 4.0, 0.0, IsEvent::FirstPassage);
        let is = mc.with_twist(0.7);
        let mut rng = StdRng::seed_from_u64(3);
        let e_mc = mc.run(30_000, &mut rng);
        let e_is = is.run(30_000, &mut rng);
        let tol = 3.0 * (e_mc.std_err() + e_is.std_err());
        assert!(
            (e_mc.p - e_is.p).abs() < tol,
            "MC {} vs IS {} (tol {tol})",
            e_mc.p,
            e_is.p
        );
        assert!(e_mc.p > 0.001, "event should not be too rare for MC");
    }

    #[test]
    fn variance_reduction_on_rare_event() {
        // Rare event: with a sensible twist the normalized variance must
        // drop well below plain MC's.
        let mc = white_noise_system(50, 1.0, 8.0, 0.0, IsEvent::FirstPassage);
        let is = mc.with_twist(1.3);
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20_000;
        let e_is = is.run(n, &mut rng);
        assert!(e_is.p > 0.0, "IS must find the rare event");
        assert!(
            e_is.variance_reduction() > 5.0,
            "VRF {} (p = {})",
            e_is.variance_reduction(),
            e_is.p
        );
        // MC at the same budget almost never sees the event.
        let e_mc = mc.run(n, &mut rng);
        assert!(
            e_mc.hits < e_is.hits,
            "MC hits {} IS hits {}",
            e_mc.hits,
            e_is.hits
        );
    }

    #[test]
    fn early_termination_shortens_replications() {
        let is = white_noise_system(200, 0.8, 5.0, 1.5, IsEvent::FirstPassage);
        let mut rng = StdRng::seed_from_u64(5);
        let e = is.run(2_000, &mut rng);
        assert!(e.hits > 1_000, "strong twist makes hits common");
        assert!(
            e.mean_slots < 100.0,
            "early termination: mean slots {}",
            e.mean_slots
        );
    }

    #[test]
    fn parallel_matches_sequential_statistically() {
        let est = white_noise_system(30, 0.6, 3.0, 0.8, IsEvent::FirstPassage);
        let par = est.run_parallel(20_000, 42, 4);
        let mut rng = StdRng::seed_from_u64(43);
        let seq = est.run(20_000, &mut rng);
        let tol = 3.0 * (par.std_err() + seq.std_err());
        assert!((par.p - seq.p).abs() < tol, "par {} seq {}", par.p, seq.p);
        assert_eq!(par.n, 20_000);
    }

    #[test]
    fn parallel_is_deterministic_given_seed() {
        let est = white_noise_system(20, 0.6, 2.0, 0.5, IsEvent::FirstPassage);
        let a = est.run_parallel(1_000, 7, 3);
        let b = est.run_parallel(1_000, 7, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_is_bit_identical_across_thread_counts() {
        let est = white_noise_system(20, 0.6, 2.0, 0.5, IsEvent::FirstPassage);
        let baseline = est.run_parallel(1_000, 11, 1);
        assert!(baseline.hits > 0 && baseline.hits < 1_000);
        for threads in [2usize, 8] {
            let e = est.run_parallel(1_000, 11, threads);
            assert_eq!(e.p.to_bits(), baseline.p.to_bits(), "threads={threads}");
            assert_eq!(
                e.variance.to_bits(),
                baseline.variance.to_bits(),
                "threads={threads}"
            );
            assert_eq!(e.hits, baseline.hits);
            assert_eq!(e.mean_slots.to_bits(), baseline.mean_slots.to_bits());
        }
    }

    #[test]
    fn batched_runs_reproduce_one_master_schedule() {
        // Replications 60..100 of the schedule must be the same experiments
        // whether run in one call or as a resumed continuation.
        let est = white_noise_system(20, 0.6, 2.0, 0.5, IsEvent::FirstPassage);
        let full = est.run_parallel(100, 13, 4);
        let head = est.run_parallel_from(60, 13, 0, 2);
        let tail = est.run_parallel_from(40, 13, 60, 8);
        assert_eq!(head.hits + tail.hits, full.hits);
        let merged = head.merge(&tail);
        assert_eq!(merged.n, full.n);
        assert!((merged.p - full.p).abs() < 1e-12);
        assert!((merged.mean_slots - full.mean_slots).abs() < 1e-9);
    }

    #[test]
    fn works_with_lrd_background() -> Result<(), Box<dyn std::error::Error>> {
        // The real use case: fGn background, H = 0.8.
        let est = IsEstimator::new(
            FgnAcf::new(0.8)?,
            100,
            GaussianTransform::new(NormalDist::standard()),
            0.8,
            6.0,
            1.0,
            IsEvent::FirstPassage,
        )?;
        let mut rng = StdRng::seed_from_u64(6);
        let e = est.run(5_000, &mut rng);
        assert!(e.p > 0.0 && e.p < 1.0, "p = {}", e.p);
        assert!(e.variance_reduction() > 1.0);
        Ok(())
    }

    #[test]
    fn srd_background_twist_shift_uses_phi_sum() -> Result<(), Box<dyn std::error::Error>> {
        // For an AR(1) exponential ACF the twist shift after step 1 must be
        // m*(1−φ), not m* — regression through the conditional mean.
        let est = IsEstimator::new(
            ExponentialAcf::new(0.5)?,
            10,
            GaussianTransform::new(NormalDist::standard()),
            1.0,
            100.0,
            2.0,
            IsEvent::FirstPassage,
        )?;
        let mut rng = StdRng::seed_from_u64(7);
        // Long-run mean of the twisted process must approach m*, not m*(1+…).
        let mut sum = 0.0;
        let reps = 20_000;
        for _ in 0..reps {
            let r = est.replicate(&mut rng);
            assert!(!r.hit, "buffer is unreachable");
            sum += r.log_lr;
        }
        // E[ln L] = −Σ (m* s_i)²/(2 v_i) < 0 under the twisted measure.
        assert!((sum / reps as f64) < 0.0);
        Ok(())
    }

    #[test]
    fn merge_is_exact_pooling() {
        // Split one run into two halves: merge must equal the full run.
        let est = white_noise_system(30, 0.6, 3.0, 0.8, IsEvent::FirstPassage);
        let mut rng = StdRng::seed_from_u64(50);
        let mut acc_all = Vec::new();
        for _ in 0..2000 {
            acc_all.push(est.replicate(&mut rng));
        }
        let build = |reps: &[IsReplication]| {
            let n = reps.len() as f64;
            let sum: f64 = reps.iter().map(|r| r.weight).sum();
            let sum_sq: f64 = reps.iter().map(|r| r.weight * r.weight).sum();
            let p = sum / n;
            IsEstimate {
                p,
                n: reps.len(),
                variance: (sum_sq / n - p * p).max(0.0) / n,
                hits: reps.iter().filter(|r| r.hit).count(),
                mean_slots: reps.iter().map(|r| r.slots_used as f64).sum::<f64>() / n,
            }
        };
        let full = build(&acc_all);
        let merged = build(&acc_all[..700]).merge(&build(&acc_all[700..]));
        assert!((full.p - merged.p).abs() < 1e-12);
        assert!((full.variance - merged.variance).abs() < 1e-14);
        assert_eq!(full.hits, merged.hits);
        assert_eq!(full.n, merged.n);
        assert!((full.mean_slots - merged.mean_slots).abs() < 1e-9);
    }

    #[test]
    fn run_to_relative_error_stops_when_precise() {
        let est = white_noise_system(30, 0.6, 3.0, 0.8, IsEvent::FirstPassage);
        let e = est.run_to_relative_error(0.1, 500, 50_000, 1, 2);
        assert!(
            e.relative_error() <= 0.1 || e.n == 50_000,
            "re {} at n {}",
            e.relative_error(),
            e.n
        );
        assert!(e.n >= 500);
        // A looser target needs fewer replications.
        let loose = est.run_to_relative_error(0.5, 500, 50_000, 2, 2);
        assert!(loose.n <= e.n);
    }

    #[test]
    fn estimate_helpers() {
        let e = IsEstimate {
            p: 0.01,
            n: 1000,
            variance: 1e-8,
            hits: 500,
            mean_slots: 42.0,
        };
        assert!((e.std_err() - 1e-4).abs() < 1e-12);
        assert!((e.normalized_variance() - 1e-4).abs() < 1e-12);
        let (lo, hi) = e.ci95();
        assert!(lo < 0.01 && hi > 0.01);
        let vr = e.variance_reduction();
        assert!((vr - (0.01 * 0.99 / 1000.0) / 1e-8).abs() < 1e-9);
    }

    #[test]
    fn validation() -> Result<(), Box<dyn std::error::Error>> {
        let t = GaussianTransform::new(NormalDist::standard());
        assert!(IsEstimator::new(
            FgnAcf::new(0.5)?,
            0,
            t.clone(),
            1.0,
            1.0,
            0.0,
            IsEvent::FirstPassage
        )
        .is_err());
        assert!(IsEstimator::new(
            FgnAcf::new(0.5)?,
            5,
            t.clone(),
            0.0,
            1.0,
            0.0,
            IsEvent::FirstPassage
        )
        .is_err());
        assert!(IsEstimator::new(
            FgnAcf::new(0.5)?,
            5,
            t,
            1.0,
            1.0,
            f64::NAN,
            IsEvent::FirstPassage
        )
        .is_err());
        Ok(())
    }
}
