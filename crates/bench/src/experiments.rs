//! One function per paper artifact (Table 1, Figs. 1–17).
//!
//! Each experiment prints the series the paper plots and writes it to
//! `results/<id>.csv`; `EXPERIMENTS.md` records the paper-vs-measured
//! comparison. Heavy experiments respect the `SVBR_REPS` /
//! `SVBR_TRACE_LEN` / `SVBR_THREADS` / `SVBR_FAST` knobs (see crate docs).

use crate::{banner, reps, threads, trace_len, Csv};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use svbr::is::{is_transient_curve, valley_search, IsEstimator, IsEvent, TransientConfig};
use svbr::lrd::acf::{Acf, TabulatedAcf};
use svbr::lrd::davies_harte::DaviesHarte;
use svbr::marginal::transform::GaussianTransform;
use svbr::marginal::{BinnedEmpirical, Marginal};
use svbr::model::{
    BackgroundKind, CompositeVideoFit, CompositeVideoOptions, HurstOptions, UnifiedFit,
    UnifiedOptions,
};
use svbr::queue::{norros_overflow, tail_curve_from_path, FbmTraffic, Mux};
use svbr::stats::{
    qq_points, rs_hurst, rs_pox, sample_acf_fft, variance_time_hurst, variance_time_points,
    Histogram, RsOptions, Summary, VtOptions,
};
use svbr::video::reference::REFERENCE;
use svbr::video::{reference_trace_intra_of_len, reference_trace_of_len};

type AnyResult = Result<(), Box<dyn std::error::Error>>;

/// Estimation options scaled to the trace length in use.
pub fn unified_opts(n: usize) -> UnifiedOptions {
    UnifiedOptions {
        hurst: hurst_opts(n),
        ..UnifiedOptions::default()
    }
}

/// Hurst-estimation options scaled to the trace length.
pub fn hurst_opts(n: usize) -> HurstOptions {
    HurstOptions {
        vt: VtOptions {
            min_m: 100,
            // Keep ≥ 50 blocks at the deepest aggregation level: with LRD
            // block means, variance estimates from a couple dozen blocks are
            // strongly biased low and drag the fitted slope down.
            max_m: (n / 50).clamp(500, 10_000),
            points: 20,
            min_blocks: 50,
        },
        rs: RsOptions {
            min_n: 64,
            max_n: (n / 4).next_power_of_two().min(1 << 16),
            sizes: 20,
            starts: 10,
        },
        gph_frequencies: None,
        extended_estimators: true,
        round_to: 0.05,
    }
}

/// The shared experiment context: the "empirical" intraframe trace and the
/// unified fit on it (Steps 1–3).
pub struct Context {
    /// Bytes per frame of the intraframe-coded reference trace.
    pub series: Vec<f64>,
    /// The fitted unified model.
    pub fit: UnifiedFit,
}

impl Context {
    /// Build the context (generates the trace; runs Steps 1–3).
    pub fn load() -> Result<Self, Box<dyn std::error::Error>> {
        let n = trace_len();
        let series = reference_trace_intra_of_len(n).as_f64();
        let fit = UnifiedFit::fit(&series, &unified_opts(n))?;
        Ok(Self { series, fit })
    }
}

/// Table 1: parameters of the compressed reference video sequence.
pub fn table1(out: &mut dyn Write) -> AnyResult {
    banner(out, "table1", "parameters of the reference video sequence")?;
    let n = trace_len();
    let gop = reference_trace_of_len(n.min(60_000));
    let s = Summary::of(&gop.as_f64())?;
    let dur = n as f64 / REFERENCE.fps as f64;
    let rows: Vec<(String, String)> = vec![
        ("Coder".into(), "virtual MPEG-1 (svbr-video)".into()),
        (
            "Duration".into(),
            format!("{:.0} s ({:.2} h)", dur, dur / 3600.0),
        ),
        ("Number of frames".into(), format!("{n}")),
        ("Frame rate".into(), format!("{} per second", REFERENCE.fps)),
        (
            "Slice rate".into(),
            format!("{} per frame", REFERENCE.slices_per_frame),
        ),
        ("GOP".into(), gop.pattern().to_string()),
        (
            "Mean bytes/frame (GOP trace)".into(),
            format!("{:.0}", s.mean),
        ),
        (
            "Peak bytes/frame (GOP trace)".into(),
            format!("{:.0}", s.max),
        ),
        (
            "Mean bit rate".into(),
            format!(
                "{:.2} Mbit/s",
                gop.mean_bit_rate(REFERENCE.fps as f64) / 1e6
            ),
        ),
    ];
    let mut csv = Csv::create("table1", &["parameter", "value"])?;
    for (k, v) in &rows {
        writeln!(out, "{k:<32} {v}")?;
        csv.row_str(&[k.clone(), v.clone()])?;
    }
    let path = csv.finish()?;
    writeln!(out, "[written {path:?}]")?;
    Ok(())
}

/// Fig. 1: empirical marginal distribution (bytes/frame histogram).
pub fn fig1(ctx: &Context, out: &mut dyn Write) -> AnyResult {
    banner(
        out,
        "fig1",
        "empirical marginal distribution of bytes/frame",
    )?;
    let hist = Histogram::of(&ctx.series, 100)?;
    let mut csv = Csv::create("fig1", &["bytes_per_frame", "frequency"])?;
    for (center, freq) in hist.points() {
        csv.row(&[center, freq])?;
    }
    let s = Summary::of(&ctx.series)?;
    writeln!(
        out,
        "mean {:.0}  sd {:.0}  skew {:.2}  max {:.0}  (paper: long-tailed, x-axis to ~35000)",
        s.mean,
        s.std_dev(),
        s.skewness,
        s.max
    )?;
    let path = csv.finish()?;
    writeln!(out, "[written {path:?}]")?;
    Ok(())
}

/// Fig. 2: the transform `h(x)` converting N(0,1) to the empirical marginal.
pub fn fig2(ctx: &Context, out: &mut dyn Write) -> AnyResult {
    banner(out, "fig2", "transform h(x) = F_Y^-1(Phi(x))")?;
    let t = GaussianTransform::new(ctx.fit.marginal.clone());
    let mut csv = Csv::create("fig2", &["x", "h_x"])?;
    let mut prev = f64::NEG_INFINITY;
    for i in 0..=240 {
        let x = -6.0 + i as f64 * 0.05;
        let y = t.apply(x);
        assert!(y >= prev, "h must be nondecreasing");
        prev = y;
        csv.row(&[x, y])?;
    }
    writeln!(
        out,
        "h(-6) = {:.0}, h(0) = {:.0}, h(6) = {:.0}  (paper: 0 … ~40000, convex tail)",
        t.apply(-6.0),
        t.apply(0.0),
        t.apply(6.0)
    )?;
    let path = csv.finish()?;
    writeln!(out, "[written {path:?}]")?;
    Ok(())
}

/// Fig. 3: variance-time plot and the Ĥ it implies.
pub fn fig3(ctx: &Context, out: &mut dyn Write) -> AnyResult {
    banner(
        out,
        "fig3",
        "variance-time plot (paper: slope -0.223 => H = 0.89)",
    )?;
    let opts = hurst_opts(ctx.series.len()).vt;
    let pts = variance_time_points(&ctx.series, &opts)?;
    let est = variance_time_hurst(&ctx.series, &opts)?;
    let mut csv = Csv::create("fig3", &["log10_m", "log10_var", "fit"])?;
    for &(x, y) in &pts {
        csv.row(&[x, y, est.fit.predict(x)])?;
    }
    writeln!(
        out,
        "slope {:.4}  intercept {:.4}  R^2 {:.3}  =>  H_vt = {:.3}",
        est.fit.slope, est.fit.intercept, est.fit.r_squared, est.hurst
    )?;
    let path = csv.finish()?;
    writeln!(out, "[written {path:?}]")?;
    Ok(())
}

/// Fig. 4: R/S pox diagram and the Ĥ it implies.
pub fn fig4(ctx: &Context, out: &mut dyn Write) -> AnyResult {
    banner(
        out,
        "fig4",
        "R/S pox diagram (paper: slope 0.929 => H = 0.92)",
    )?;
    let opts = hurst_opts(ctx.series.len()).rs;
    let pts = rs_pox(&ctx.series, &opts)?;
    let est = rs_hurst(&ctx.series, &opts)?;
    let mut csv = Csv::create("fig4", &["log10_n", "log10_rs", "fit"])?;
    for &(x, y) in &pts {
        csv.row(&[x, y, est.fit.predict(x)])?;
    }
    writeln!(
        out,
        "slope {:.4}  intercept {:.4}  R^2 {:.3}  =>  H_rs = {:.3}",
        est.fit.slope, est.fit.intercept, est.fit.r_squared, est.hurst
    )?;
    writeln!(out,
        "combined (paper sets 0.9): H = {:.3}  [vt {:.3} / rs {:.3} / gph {:.3} / whittle {:.3} / wavelet {:.3}]",
        ctx.fit.hurst.combined,
        ctx.fit.hurst.vt,
        ctx.fit.hurst.rs,
        ctx.fit.hurst.gph,
        ctx.fit.hurst.whittle,
        ctx.fit.hurst.wavelet
    )?;
    let path = csv.finish()?;
    writeln!(out, "[written {path:?}]")?;
    Ok(())
}

/// Fig. 5: the estimated autocorrelation function, lags 0–500.
pub fn fig5(ctx: &Context, out: &mut dyn Write) -> AnyResult {
    banner(out, "fig5", "empirical ACF (paper: knee near lag 60-80)")?;
    let r = &ctx.fit.empirical_acf;
    let mut csv = Csv::create("fig5", &["lag", "acf"])?;
    for (k, &v) in r.iter().enumerate() {
        csv.row(&[k as f64, v])?;
    }
    writeln!(
        out,
        "r(1) = {:.3}  r(60) = {:.3}  r(250) = {:.3}  r(500) = {:.3}",
        r[1],
        r[60],
        r[250],
        r[500.min(r.len() - 1)]
    )?;
    let path = csv.finish()?;
    writeln!(out, "[written {path:?}]")?;
    Ok(())
}

/// Fig. 6: the composite SRD+LRD fit overlaid on the empirical ACF.
pub fn fig6(ctx: &Context, out: &mut dyn Write) -> AnyResult {
    banner(
        out,
        "fig6",
        "composite ACF fit (paper: exp(-0.00565k), 1.59 k^-0.2, knee 60)",
    )?;
    let f = &ctx.fit.acf_fit;
    let mut csv = Csv::create("fig6", &["lag", "empirical", "exponential", "power_law"])?;
    for (k, &v) in ctx.fit.empirical_acf.iter().enumerate().skip(1) {
        let kf = k as f64;
        csv.row(&[
            kf,
            v,
            (-f.lambda * kf).exp(),
            (f.l * kf.powf(-f.beta)).min(1.0),
        ])?;
    }
    writeln!(
        out,
        "lambda = {:.5}  L = {:.3}  beta = {:.3}  knee = {}  (H = {:.3})",
        f.lambda,
        f.l,
        f.beta,
        f.knee,
        f.hurst()
    )?;
    if let Some(x) = f.intersection_lag(500) {
        writeln!(
            out,
            "fitted curves intersect at lag {x} (paper picks Kt = 60 this way)"
        )?;
    }
    let path = csv.finish()?;
    writeln!(out, "[written {path:?}]")?;
    Ok(())
}

/// Fig. 7: the attenuation effect — ACF of the background X vs the
/// transformed foreground Y (uncompensated), and the measured `a`.
pub fn fig7(ctx: &Context, out: &mut dyn Write) -> AnyResult {
    banner(
        out,
        "fig7",
        "attenuation of the ACF under h (paper: a = 0.94)",
    )?;
    let target = ctx.fit.composite_acf()?;
    let n = 8_192;
    let lags = 500.min(n - 1);
    let dh = DaviesHarte::new_approx(&target, n, 5e-2)?;
    let transform = GaussianTransform::new(ctx.fit.marginal.clone());
    let mut rng = StdRng::seed_from_u64(0x7167);
    let reps = 24;
    let mut rx = vec![0.0; lags + 1];
    let mut ry = vec![0.0; lags + 1];
    for _ in 0..reps {
        let xs = dh.generate(&mut rng);
        let ys = transform.apply_slice(&xs);
        for (acc, r) in [
            (&mut rx, sample_acf_fft(&xs, lags)?),
            (&mut ry, sample_acf_fft(&ys, lags)?),
        ] {
            for (a, v) in acc.iter_mut().zip(r.iter()) {
                *a += v / reps as f64;
            }
        }
    }
    let mut csv = Csv::create(
        "fig7",
        &["lag", "target_acf", "background_acf", "foreground_acf"],
    )?;
    for k in 0..=lags {
        csv.row(&[k as f64, target.r(k), rx[k], ry[k]])?;
    }
    // Measured a: ratio at large lags (paper measures "at a large lag").
    let (mut num, mut den) = (0.0, 0.0);
    for k in 100..=300.min(lags) {
        num += ry[k];
        den += rx[k];
    }
    let measured = num / den;
    writeln!(
        out,
        "measured a = {:.3}   theoretical (Appendix A quadrature) a = {:.3}   (paper: 0.94)",
        measured, ctx.fit.attenuation
    )?;
    let path = csv.finish()?;
    writeln!(out, "[written {path:?}]")?;
    Ok(())
}

/// Fig. 8: the final (compensated) model's foreground ACF vs the empirical.
pub fn fig8(ctx: &Context, out: &mut dyn Write) -> AnyResult {
    banner(
        out,
        "fig8",
        "final model ACF vs empirical (after compensation)",
    )?;
    // Generate paths as long as the empirical trace: the sample ACF of an
    // LRD series is deflated by the mean-removal term (~n^{2H-2}), so the
    // comparison is only fair at matched lengths.
    let n = ctx.series.len();
    let lags = 500.min(n - 1);
    let generator = ctx.fit.generator(BackgroundKind::SrdLrd, n)?;
    let mut rng = StdRng::seed_from_u64(0x7168);
    let reps = 8;
    let mut ry = vec![0.0; lags + 1];
    for _ in 0..reps {
        let ys = generator.generate(n, true, &mut rng)?;
        let r = sample_acf_fft(&ys, lags)?;
        for (a, v) in ry.iter_mut().zip(r.iter()) {
            *a += v / reps as f64;
        }
    }
    let mut csv = Csv::create("fig8", &["lag", "empirical", "model"])?;
    let mut max_dev = (0usize, 0.0f64);
    for (k, (&emp, &ryk)) in ctx
        .fit
        .empirical_acf
        .iter()
        .zip(ry.iter())
        .enumerate()
        .take(lags + 1)
    {
        csv.row(&[k as f64, emp, ryk])?;
        let d = (emp - ryk).abs();
        if k > 0 && d > max_dev.1 {
            max_dev = (k, d);
        }
    }
    writeln!(
        out,
        "max |empirical - model| = {:.3} at lag {}   r_model(60) = {:.3} vs r_emp(60) = {:.3}",
        max_dev.1, max_dev.0, ry[60], ctx.fit.empirical_acf[60]
    )?;
    let path = csv.finish()?;
    writeln!(out, "[written {path:?}]")?;
    Ok(())
}

/// Figs. 9–11: composite I-B-P model ACF vs the interframe trace's, over
/// lag ranges 1–150, 151–300, 301–490.
pub fn fig9_11(out: &mut dyn Write) -> AnyResult {
    banner(
        out,
        "fig9-11",
        "composite I-B-P model vs interframe trace ACF (3 lag ranges)",
    )?;
    let n = trace_len().min(120_000);
    let trace = reference_trace_of_len(n);
    let opts = CompositeVideoOptions {
        unified: composite_unified_opts(n / 12),
        marginal_bins: 150,
    };
    let fit = CompositeVideoFit::fit(&trace, &opts)?;
    let mut rng = StdRng::seed_from_u64(0x7169);
    let lags = 490;
    let reps = 10;
    let gen_len = 49_152;
    let mut r_synth = vec![0.0; lags + 1];
    for _ in 0..reps {
        let synth = fit.generate(gen_len, true, &mut rng)?;
        let r = sample_acf_fft(&synth.as_f64(), lags)?;
        for (a, v) in r_synth.iter_mut().zip(r.iter()) {
            *a += v / reps as f64;
        }
    }
    let r_emp = sample_acf_fft(&trace.as_f64(), lags)?;
    let mut csv = Csv::create("fig9_11", &["lag", "empirical", "model"])?;
    for k in 0..=lags {
        csv.row(&[k as f64, r_emp[k], r_synth[k]])?;
    }
    for (name, lo, hi) in [
        ("fig9", 1usize, 150usize),
        ("fig10", 151, 300),
        ("fig11", 301, 490),
    ] {
        let mut dev: f64 = 0.0;
        for k in lo..=hi {
            dev = dev.max((r_emp[k] - r_synth[k]).abs());
        }
        writeln!(out,
            "{name}: lags {lo}-{hi}: max dev {dev:.3}; r_emp({lo}) = {:.3} vs model {:.3}; GOP peak r(12·m) visible in both",
            r_emp[lo], r_synth[lo]
        )?;
    }
    writeln!(
        out,
        "I-frame subprocess: H = {:.3}, knee (GOP units) = {}, a = {:.3}",
        fit.i_fit.hurst.combined, fit.i_fit.acf_fit.knee, fit.i_fit.attenuation
    )?;
    let path = csv.finish()?;
    writeln!(out, "[written {path:?}]")?;
    Ok(())
}

fn composite_unified_opts(i_frames: usize) -> UnifiedOptions {
    UnifiedOptions {
        hurst: HurstOptions {
            vt: VtOptions {
                min_m: 10,
                max_m: (i_frames / 20).clamp(100, 2000),
                points: 14,
                min_blocks: 10,
            },
            rs: RsOptions {
                min_n: 32,
                max_n: (i_frames / 4).next_power_of_two().min(8192),
                sizes: 12,
                starts: 8,
            },
            gph_frequencies: Some(64),
            extended_estimators: false,
            round_to: 0.05,
        },
        acf_lags: 120,
        fit: svbr::stats::FitOptions {
            knee_min: 3,
            knee_max: 30,
            max_lag: 120,
            min_correlation: 0.05,
        },
        ..UnifiedOptions::default()
    }
}

/// Fig. 12: histogram of the composite model's output vs the trace's.
pub fn fig12(out: &mut dyn Write) -> AnyResult {
    banner(
        out,
        "fig12",
        "marginal histograms: model vs empirical trace",
    )?;
    let n = trace_len().min(120_000);
    let trace = reference_trace_of_len(n);
    let opts = CompositeVideoOptions {
        unified: composite_unified_opts(n / 12),
        marginal_bins: 150,
    };
    let fit = CompositeVideoFit::fit(&trace, &opts)?;
    let mut rng = StdRng::seed_from_u64(0x71612);
    // Pool several replications (single-LRD-path marginals wander).
    let mut synth = Vec::new();
    for _ in 0..10 {
        synth.extend(fit.generate(24_000, true, &mut rng)?.as_f64());
    }
    let emp = trace.as_f64();
    let lo = 0.0;
    let hi = emp.iter().chain(synth.iter()).copied().fold(0.0, f64::max);
    let mut h_e = Histogram::with_range(lo, hi, 120)?;
    h_e.add_all(&emp);
    let mut h_s = Histogram::with_range(lo, hi, 120)?;
    h_s.add_all(&synth);
    let mut csv = Csv::create("fig12", &["bytes_per_frame", "empirical", "model"])?;
    let fe = h_e.frequencies();
    let fs = h_s.frequencies();
    for i in 0..h_e.bins() {
        csv.row(&[h_e.center(i), fe[i], fs[i]])?;
    }
    writeln!(
        out,
        "histogram L1 distance = {:.4} (0 = identical)",
        h_e.l1_distance(&h_s)?
    )?;
    let path = csv.finish()?;
    writeln!(out, "[written {path:?}]")?;
    Ok(())
}

/// Fig. 13: Q-Q plot of the composite model vs the trace.
pub fn fig13(out: &mut dyn Write) -> AnyResult {
    banner(
        out,
        "fig13",
        "Q-Q plot: model quantiles vs empirical quantiles",
    )?;
    let n = trace_len().min(120_000);
    let trace = reference_trace_of_len(n);
    let opts = CompositeVideoOptions {
        unified: composite_unified_opts(n / 12),
        marginal_bins: 150,
    };
    let fit = CompositeVideoFit::fit(&trace, &opts)?;
    let mut rng = StdRng::seed_from_u64(0x71613);
    let mut synth = Vec::new();
    for _ in 0..10 {
        synth.extend(fit.generate(24_000, true, &mut rng)?.as_f64());
    }
    let pts = qq_points(&trace.as_f64(), &synth, 200)?;
    let mut csv = Csv::create("fig13", &["empirical_quantile", "model_quantile"])?;
    for &(a, b) in &pts {
        csv.row(&[a, b])?;
    }
    let dev = svbr::stats::quantiles::qq_max_relative_deviation(&pts);
    writeln!(
        out,
        "max relative Q-Q deviation = {:.3} (diagonal = perfect match)",
        dev
    )?;
    let path = csv.finish()?;
    writeln!(out, "[written {path:?}]")?;
    Ok(())
}

/// The IS system used by Figs. 14–17: arrivals = the unified model's
/// foreground process, service from a utilization, buffers in normalized
/// units.
struct IsSystem {
    table_len: usize,
    transform_marginal: BinnedEmpirical,
    mean_arrival: f64,
    background: TabulatedAcf,
}

impl IsSystem {
    fn build(ctx: &Context, kind: BackgroundKind, horizon: usize) -> AnyResultT<Self> {
        let background = ctx.fit.background_table(kind, horizon.max(2))?;
        Ok(Self {
            table_len: horizon,
            transform_marginal: ctx.fit.marginal.clone(),
            mean_arrival: ctx.fit.marginal.mean(),
            background,
        })
    }

    fn mux(&self, utilization: f64) -> Mux {
        // svbr-lint: allow(no-expect) experiment tables only use utilizations in (0, 1)
        Mux::new(self.mean_arrival, utilization).expect("valid utilization")
    }

    fn estimator(
        &self,
        utilization: f64,
        buffer_norm: f64,
        twist: f64,
    ) -> AnyResultT<IsEstimator<BinnedEmpirical>> {
        let mux = self.mux(utilization);
        Ok(IsEstimator::new(
            &self.background,
            self.table_len,
            GaussianTransform::new(self.transform_marginal.clone()),
            mux.service_rate(),
            mux.buffer(buffer_norm),
            twist,
            IsEvent::FirstPassage,
        )?)
    }
}

type AnyResultT<T> = Result<T, Box<dyn std::error::Error>>;

/// Coarse valley search + final run: the heuristic twist-selection
/// procedure the paper describes in §4.
fn is_point(
    ctx: &Context,
    kind: BackgroundKind,
    utilization: f64,
    buffer_norm: f64,
    horizon: usize,
    n_reps: usize,
    seed: u64,
) -> AnyResultT<(f64, svbr::is::IsEstimate)> {
    let sys = IsSystem::build(ctx, kind, horizon)?;
    let mux = sys.mux(utilization);
    let twists = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0];
    let coarse = (n_reps / 8).clamp(50, 400);
    let (points, best) = valley_search(
        &sys.background,
        horizon,
        GaussianTransform::new(sys.transform_marginal.clone()),
        mux.service_rate(),
        mux.buffer(buffer_norm),
        IsEvent::FirstPassage,
        &twists,
        coarse,
        seed,
        threads(),
    )?;
    // If nothing hit at any twist, fall back to the strongest one.
    let twist = if points.iter().all(|p| p.estimate.hits == 0) {
        // svbr-lint: allow(no-expect) the twist grid is a non-empty compile-time list
        *twists.last().expect("non-empty")
    } else {
        points[best].twist
    };
    let est = sys
        .estimator(utilization, buffer_norm, twist)?
        .run_parallel(n_reps, seed.wrapping_add(1), threads());
    Ok((twist, est))
}

/// Fig. 14: normalized variance of the IS estimator vs the twist `m*`.
pub fn fig14(ctx: &Context, out: &mut dyn Write) -> AnyResult {
    banner(
        out,
        "fig14",
        "normalized variance vs twist (paper: valley, best near m* = 3.2, VRF ~1000)",
    )?;
    let horizon = 500;
    let utilization = 0.2;
    let buffer_norm = 25.0;
    let n_reps = reps();
    let sys = IsSystem::build(ctx, BackgroundKind::SrdLrd, horizon)?;
    let mux = sys.mux(utilization);
    let twists: Vec<f64> = (1..=20).map(|i| i as f64 * 0.25).collect();
    let (points, best) = valley_search(
        &sys.background,
        horizon,
        GaussianTransform::new(sys.transform_marginal.clone()),
        mux.service_rate(),
        mux.buffer(buffer_norm),
        IsEvent::FirstPassage,
        &twists,
        n_reps,
        0x71614,
        threads(),
    )?;
    let mut csv = Csv::create(
        "fig14",
        &[
            "twist",
            "p_estimate",
            "normalized_variance",
            "hits",
            "variance_reduction",
        ],
    )?;
    for p in &points {
        csv.row(&[
            p.twist,
            p.estimate.p,
            p.normalized_variance(),
            p.estimate.hits as f64,
            p.estimate.variance_reduction(),
        ])?;
        writeln!(
            out,
            "m* = {:4.2}  P = {:9.3e}  norm.var = {:9.3e}  hits = {:5}  VRF = {:8.1}",
            p.twist,
            p.estimate.p,
            p.normalized_variance(),
            p.estimate.hits,
            p.estimate.variance_reduction()
        )?;
    }
    writeln!(
        out,
        "valley minimum at m* = {} (paper: 3.2), variance reduction {:.0}x (paper: ~1000x)",
        points[best].twist,
        points[best].estimate.variance_reduction()
    )?;
    let path = csv.finish()?;
    writeln!(out, "[written {path:?}]")?;
    Ok(())
}

/// Fig. 15: transient overflow probability vs stop time, empty vs full
/// initial buffer.
pub fn fig15(ctx: &Context, out: &mut dyn Write) -> AnyResult {
    banner(
        out,
        "fig15",
        "transient overflow probability, empty vs full start (b = 200, util 0.4)",
    )?;
    let utilization = 0.4;
    let buffer_norm = 200.0;
    let n_reps = reps();
    let horizon = 2_000;
    let stop_times: Vec<usize> = (1..=20).map(|i| i * 100).collect();
    let sys = IsSystem::build(ctx, BackgroundKind::SrdLrd, horizon)?;
    let mux = sys.mux(utilization);
    // Choose a twist by a coarse first-passage search at the horizon.
    let (twist, _) = is_point(
        ctx,
        BackgroundKind::SrdLrd,
        utilization,
        buffer_norm,
        horizon,
        (n_reps / 4).max(100),
        0x71615,
    )?;
    let transform = GaussianTransform::new(sys.transform_marginal.clone());
    let mut curves = Vec::new();
    for (label, initial) in [("empty", 0.0), ("full", mux.buffer(buffer_norm))] {
        let est = is_transient_curve(
            &sys.background,
            &transform,
            &TransientConfig {
                service: mux.service_rate(),
                buffer: mux.buffer(buffer_norm),
                initial,
                twist,
                stop_times: stop_times.clone(),
            },
            n_reps,
            0x71615 ^ initial.to_bits(),
            threads(),
        )?;
        curves.push((label, est));
    }
    let mut csv = Csv::create(
        "fig15",
        &[
            "stop_time",
            "log10_p_empty",
            "log10_p_full",
            "p_empty",
            "p_full",
            "std_err_empty",
            "std_err_full",
        ],
    )?;
    writeln!(out, "twist m* = {twist}")?;
    writeln!(
        out,
        "{:>6}  {:>12}  {:>12}",
        "k", "log10 P empty", "log10 P full"
    )?;
    for (i, &k) in stop_times.iter().enumerate() {
        let pe = curves[0].1.p[i];
        let pf = curves[1].1.p[i];
        csv.row(&[
            k as f64,
            pe.max(1e-300).log10(),
            pf.max(1e-300).log10(),
            pe,
            pf,
            curves[0].1.variance[i].sqrt(),
            curves[1].1.variance[i].sqrt(),
        ])?;
        writeln!(
            out,
            "{k:>6}  {:>12.3}  {:>12.3}",
            pe.max(1e-300).log10(),
            pf.max(1e-300).log10()
        )?;
    }
    let path = csv.finish()?;
    writeln!(out, "[written {path:?}]")?;
    Ok(())
}

const FIG16_BUFFERS: [f64; 8] = [10.0, 25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 250.0];

/// Fig. 16: overflow probability vs buffer size for four utilizations,
/// synthetic (IS) vs the "empirical" trace (single long replication).
pub fn fig16(ctx: &Context, out: &mut dyn Write) -> AnyResult {
    banner(
        out,
        "fig16",
        "overflow probability vs buffer size, util 0.2/0.4/0.6/0.8 (k = 10b)",
    )?;
    let n_reps = reps();
    let mut csv = Csv::create(
        "fig16",
        &[
            "utilization",
            "buffer",
            "p_synthetic",
            "std_err",
            "twist",
            "p_trace",
            "p_norros",
        ],
    )?;
    // Analytic companion: Norros's Weibull approximation with the trace's
    // moments and the fitted Hurst parameter.
    let fbm = FbmTraffic::from_path(&ctx.series, ctx.fit.hurst.combined)?;
    for (ui, &util) in [0.2f64, 0.4, 0.6, 0.8].iter().enumerate() {
        // Empirical-trace curve: one long replication (as the paper had to).
        let mux = Mux::from_path(&ctx.series, util)?;
        let abs_buffers: Vec<f64> = FIG16_BUFFERS.iter().map(|&b| mux.buffer(b)).collect();
        let trace_curve =
            tail_curve_from_path(&ctx.series, mux.service_rate(), 1_000, &abs_buffers)?;
        writeln!(out, "-- utilization {util}")?;
        for (bi, &b) in FIG16_BUFFERS.iter().enumerate() {
            let horizon = (10.0 * b) as usize;
            let (twist, est) = is_point(
                ctx,
                BackgroundKind::SrdLrd,
                util,
                b,
                horizon,
                n_reps,
                0x71616 + (ui * 100 + bi) as u64,
            )?;
            let p_trace = trace_curve[bi].1;
            let p_norros = norros_overflow(&fbm, mux.service_rate(), mux.buffer(b))?;
            csv.row(&[util, b, est.p, est.std_err(), twist, p_trace, p_norros])?;
            writeln!(out,
                "b = {b:>5}: P_synth = {:9.3e} (+-{:8.2e}, m* = {twist:3.1})   P_trace = {:9.3e}   P_norros = {:9.3e}",
                est.p,
                est.std_err(),
                p_trace,
                p_norros
            )?;
        }
    }
    let path = csv.finish()?;
    writeln!(out, "[written {path:?}]")?;
    Ok(())
}

/// Fig. 17: model comparison at utilization 0.6 — unified SRD+LRD vs
/// SRD-only vs fGn-only vs the empirical trace.
pub fn fig17(ctx: &Context, out: &mut dyn Write) -> AnyResult {
    banner(
        out,
        "fig17",
        "model comparison (util 0.6): SRD+LRD vs SRD-only vs FGN-only vs trace",
    )?;
    let util = 0.6;
    let n_reps = reps();
    let mux = Mux::from_path(&ctx.series, util)?;
    let abs_buffers: Vec<f64> = FIG16_BUFFERS.iter().map(|&b| mux.buffer(b)).collect();
    let trace_curve = tail_curve_from_path(&ctx.series, mux.service_rate(), 1_000, &abs_buffers)?;
    let kinds = [
        ("srd_lrd", BackgroundKind::SrdLrd),
        ("srd_only", BackgroundKind::SrdOnly),
        ("fgn_only", BackgroundKind::LrdOnly),
    ];
    let mut results: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    let mut std_errs: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    for (ki, (_, kind)) in kinds.iter().enumerate() {
        for (bi, &b) in FIG16_BUFFERS.iter().enumerate() {
            let horizon = (10.0 * b) as usize;
            let (_, est) = is_point(
                ctx,
                *kind,
                util,
                b,
                horizon,
                n_reps,
                0x71617 + (ki * 100 + bi) as u64,
            )?;
            results[ki].push(est.p);
            std_errs[ki].push(est.std_err());
        }
    }
    let mut csv = Csv::create(
        "fig17",
        &[
            "buffer",
            "p_srd_lrd",
            "p_srd_only",
            "p_fgn_only",
            "p_trace",
            "std_err_srd_lrd",
            "std_err_srd_only",
            "std_err_fgn_only",
        ],
    )?;
    writeln!(
        out,
        "{:>6}  {:>11}  {:>11}  {:>11}  {:>11}",
        "b", "SRD+LRD", "SRD only", "FGN only", "trace"
    )?;
    for (bi, &b) in FIG16_BUFFERS.iter().enumerate() {
        csv.row(&[
            b,
            results[0][bi],
            results[1][bi],
            results[2][bi],
            trace_curve[bi].1,
            std_errs[0][bi],
            std_errs[1][bi],
            std_errs[2][bi],
        ])?;
        writeln!(
            out,
            "{b:>6}  {:>11.3e}  {:>11.3e}  {:>11.3e}  {:>11.3e}",
            results[0][bi], results[1][bi], results[2][bi], trace_curve[bi].1
        )?;
    }
    writeln!(out,
        "expected shape: SRD-only decays fastest at large b; FGN-only too low at small b; SRD+LRD tracks the trace"
    )?;
    let path = csv.finish()?;
    writeln!(out, "[written {path:?}]")?;
    Ok(())
}

/// `obsv` — observability smoke run (not a paper artifact).
///
/// A deliberately tiny pass through every instrumented layer so that a
/// `--trace`/`--manifest` run produces each class of signal the obsv layer
/// defines: the fit span and parameter gauges, the attenuation-refinement
/// trajectory (`pipeline.iteration`), Hosking samples/sec
/// (`hosking.generate`), Davies–Harte setup/generate spans, IS
/// effective-sample-size and valley points (`is.run`, `is.valley`), and
/// queue overflow counts (`queue.tail`, `queue.overflow`, `queue.busy`).
/// CI runs exactly this under `--trace` and uploads the artifacts.
pub fn obsv_demo(seed: u64, out: &mut dyn Write) -> AnyResult {
    banner(
        out,
        "obsv",
        "observability smoke across fit/generate/IS/queue",
    )?;
    let n = 20_000;
    let series = reference_trace_intra_of_len(n).as_f64();
    let mut rng = StdRng::seed_from_u64(seed);

    // Steps 1–3 (emits the pipeline.fit span and parameter gauges), then
    // the measure-and-correct attenuation loop (pipeline.iteration points).
    let mut fit = UnifiedFit::fit(&series, &unified_opts(n))?;
    let refinement = fit.refine_attenuation_seeded(
        &svbr::model::RefineOptions {
            max_iterations: 3,
            reps: 6,
            path_len: 2_048,
            lag_window: (5, 80),
            tolerance: 5e-3,
        },
        seed,
        threads().min(4),
    )?;
    writeln!(
        out,
        "attenuation a = {:.4} after {} accepted iteration(s)",
        refinement.attenuation,
        refinement.iterations.len()
    )?;

    // Exact Hosking generation (hosking.generate span, samples/sec gauge).
    let table = fit.background_table(BackgroundKind::SrdLrd, 2_048)?;
    let xs = svbr::lrd::hosking::HoskingSampler::new(&table)?.generate(2_048, &mut rng)?;

    // Queue layer on the transformed foreground: steady-state tail counts
    // plus a replicated first-passage estimate (queue.* counters/points).
    let transform = GaussianTransform::new(fit.marginal.clone());
    let ys = transform.apply_slice(&xs);
    let mean = fit.marginal.mean();
    let service = mean / 0.8; // utilization 0.8
    let buffers: Vec<f64> = [1.0, 2.0, 4.0].iter().map(|b| b * mean).collect();
    let curve = tail_curve_from_path(&ys, service, 256, &buffers)?;
    for (b, p) in &curve {
        writeln!(out, "trace tail: Pr(Q > {b:.0}) = {p:.4}")?;
    }

    // Multi-source superposition: registers the labeled per-source
    // queue.source.* series (source="0".."3") that live exposition and the
    // flight recorder surface mid-run.
    let n_sources = 4;
    let quarter = ys.len() / n_sources;
    let sources: Vec<Vec<f64>> = (0..n_sources)
        .map(|s| ys[s * quarter..(s + 1) * quarter].to_vec())
        .collect();
    let mux_path = svbr::queue::superpose(&sources)?;
    let mux_mean = mux_path.iter().sum::<f64>() / mux_path.len() as f64;
    writeln!(
        out,
        "superposed {} sources: {} slots, mean arrival {:.1}",
        n_sources,
        mux_path.len(),
        mux_mean
    )?;
    let model = fit.background_model(BackgroundKind::SrdLrd)?;
    let dh = DaviesHarte::new_approx(&model, 512, 5e-2)?;
    let mc = svbr::queue::estimate_overflow_seeded(
        |_rep, rep_seed| {
            let mut rep_rng = StdRng::seed_from_u64(rep_seed);
            transform.apply_slice(&dh.generate(&mut rep_rng))
        },
        seed ^ 0x51ed,
        64,
        512,
        service,
        buffers[0],
        threads().min(4),
    )?;
    writeln!(out, "MC first-passage: p = {:.4} (n = {})", mc.p, mc.n)?;

    // IS layer: a 3-point valley search plus a final parallel run (is.valley
    // and is.run points, effective-sample-size gauge).
    let horizon = 200;
    let (valley, best) = valley_search(
        &table,
        horizon,
        transform.clone(),
        service,
        2.0 * mean,
        IsEvent::FirstPassage,
        &[0.5, 1.0, 1.5],
        64,
        seed,
        threads().min(4),
    )?;
    let est = IsEstimator::new(
        &table,
        horizon,
        transform,
        service,
        2.0 * mean,
        valley[best].twist,
        IsEvent::FirstPassage,
    )?;
    let is = est.run_parallel(128, seed ^ 0xabcd, threads().min(4));
    writeln!(
        out,
        "IS at twist {:.2}: p = {:.3e}, hits = {}/{}",
        valley[best].twist, is.p, is.hits, is.n
    )?;
    Ok(())
}
