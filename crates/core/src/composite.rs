//! §3.3: the composite I-B-P model for interframe-compressed video.
//!
//! "Our approach to modeling interframe-encoded MPEG-1 VBR video is to
//! generate a single stationary background process X with both SRD and LRD
//! structures and then generate the foreground process using three
//! different transforms hI(X), hB(X) and hP(X) based on the histograms of
//! I, B and P frames, respectively, according to [the GOP] frame sequence
//! structure."
//!
//! The background ACF comes from the I-frame subprocess: model the I frames
//! per §3.2 (they are sampled once per GOP, so their lag axis is in GOP
//! units), then rescale `r(k) = r_I(k / K_I)` (eq. 15) to get the per-frame
//! background ACF.

use crate::pipeline::{UnifiedFit, UnifiedOptions};
use crate::CoreError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use svbr_lrd::acf::{CompensatedAcf, LagScaledAcf, TabulatedAcf};
use svbr_lrd::cache::{hosking_coefficients, CachedHosking};
use svbr_lrd::davies_harte::{pd_project, pd_project_table, DaviesHarte};
use svbr_lrd::hosking::HoskingSampler;
use svbr_marginal::transform::GaussianTransform;
use svbr_marginal::{BinnedEmpirical, TabulatedEmpirical};
use svbr_video::{FrameTrace, FrameType, GopPattern};

/// Options for fitting the composite I-B-P model.
#[derive(Debug, Clone)]
pub struct CompositeVideoOptions {
    /// Options for the §3.2 modeling of the I-frame subprocess.
    pub unified: UnifiedOptions,
    /// Histogram bins for each per-type marginal.
    pub marginal_bins: usize,
}

impl Default for CompositeVideoOptions {
    fn default() -> Self {
        Self {
            unified: UnifiedOptions::default(),
            marginal_bins: 150,
        }
    }
}

/// A fitted composite I-B-P video model.
#[derive(Debug, Clone)]
pub struct CompositeVideoFit {
    /// The §3.2 fit of the I-frame subprocess (lags in GOP units).
    pub i_fit: UnifiedFit,
    /// GOP pattern shared with the source trace.
    pub pattern: GopPattern,
    /// Per-type marginals: `h_I`, `h_P`, `h_B` (eq. 7 applied thrice).
    pub marginal_i: BinnedEmpirical,
    /// P-frame marginal.
    pub marginal_p: BinnedEmpirical,
    /// B-frame marginal.
    pub marginal_b: BinnedEmpirical,
}

impl CompositeVideoFit {
    /// Fit the composite model to a frame trace (Steps 1–2 of §3.3).
    pub fn fit(trace: &FrameTrace, opts: &CompositeVideoOptions) -> Result<Self, CoreError> {
        if trace.len() < trace.pattern().period() * 100 {
            return Err(CoreError::InvalidParameter {
                name: "trace",
                constraint: "at least 100 GOPs of frames",
            });
        }
        // Step 1 (§3.3): isolate the I frames and model them per §3.2.
        let i_series: Vec<f64> = trace
            .sizes_of_type(FrameType::I)
            .into_iter()
            .map(|s| s as f64)
            .collect();
        let i_fit = UnifiedFit::fit(&i_series, &opts.unified)?;
        let to_f64 = |t: FrameType| -> Vec<f64> {
            trace
                .sizes_of_type(t)
                .into_iter()
                .map(|s| s as f64)
                .collect()
        };
        let marginal_i = BinnedEmpirical::from_samples(&to_f64(FrameType::I), opts.marginal_bins)?;
        let marginal_p = BinnedEmpirical::from_samples(&to_f64(FrameType::P), opts.marginal_bins)?;
        let marginal_b = BinnedEmpirical::from_samples(&to_f64(FrameType::B), opts.marginal_bins)?;
        Ok(Self {
            i_fit,
            pattern: trace.pattern().clone(),
            marginal_i,
            marginal_p,
            marginal_b,
        })
    }

    /// The marginal for a frame type.
    pub fn marginal(&self, t: FrameType) -> &BinnedEmpirical {
        match t {
            FrameType::I => &self.marginal_i,
            FrameType::P => &self.marginal_p,
            FrameType::B => &self.marginal_b,
        }
    }

    /// Step 2 (§3.3): the per-frame background ACF — the I-frame composite
    /// fit, attenuation-compensated, with its lag axis stretched by the GOP
    /// period (eq. 15) — projected onto the PD cone for generation. The
    /// table carries its circulant, so importance sampling draws exact
    /// paths from it by FFT.
    pub fn background_table(&self, max_len: usize) -> Result<TabulatedAcf, CoreError> {
        Ok(pd_project(&self.background_model()?, max_len)?)
    }

    /// The smooth per-frame background model the table projects.
    fn background_model(&self) -> Result<LagScaledAcf<CompensatedAcf>, CoreError> {
        let compensated = self
            .i_fit
            .composite_acf()?
            .compensate(self.i_fit.attenuation)?;
        Ok(LagScaledAcf::new(
            compensated,
            self.pattern.period() as f64,
        )?)
    }

    /// Generate a synthetic composite trace of `n` frames: one background
    /// path, three transforms applied per GOP position.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        n: usize,
        fast: bool,
        rng: &mut R,
    ) -> Result<FrameTrace, CoreError> {
        let xs = self.background_path(n, fast, rng)?;
        let t_i = GaussianTransform::new(&self.marginal_i);
        let t_p = GaussianTransform::new(&self.marginal_p);
        let t_b = GaussianTransform::new(&self.marginal_b);
        let sizes: Vec<u32> = xs
            .iter()
            .enumerate()
            .map(|(k, &x)| {
                let y = match self.pattern.frame_type(k) {
                    FrameType::I => t_i.apply(x),
                    FrameType::P => t_p.apply(x),
                    FrameType::B => t_b.apply(x),
                };
                y.round().clamp(1.0, u32::MAX as f64) as u32
            })
            .collect();
        Ok(FrameTrace::new(sizes, self.pattern.clone()))
    }

    /// Deterministic-parallel form of [`Self::generate`].
    ///
    /// The background path is inherently sequential, so it is drawn from a
    /// single `StdRng` seeded with `svbr_par::derive_seed(master_seed, 0)`;
    /// the per-frame inverse-CDF transform — the per-sample hot path — is
    /// sharded over `threads` workers, with the per-type quantile bracket
    /// tables ([`TabulatedEmpirical`]) replacing the per-sample binary
    /// search. Bracket-table quantiles are bit-identical to the binary
    /// search, so the trace is **bit-identical for any thread count** and
    /// to [`Self::generate`] handed an `StdRng` at the same derived seed.
    pub fn generate_seeded(
        &self,
        n: usize,
        fast: bool,
        master_seed: u64,
        threads: usize,
    ) -> Result<FrameTrace, CoreError> {
        let mut rng = StdRng::seed_from_u64(svbr_par::derive_seed(master_seed, 0));
        let xs = self.background_path(n, fast, &mut rng)?;
        let t_i = GaussianTransform::new(TabulatedEmpirical::new(self.marginal_i.clone()));
        let t_p = GaussianTransform::new(TabulatedEmpirical::new(self.marginal_p.clone()));
        let t_b = GaussianTransform::new(TabulatedEmpirical::new(self.marginal_b.clone()));
        let sizes: Vec<u32> = svbr_par::par_map_blocks(n, threads, |range| {
            range
                .map(|k| {
                    let y = match self.pattern.frame_type(k) {
                        FrameType::I => t_i.apply(xs[k]),
                        FrameType::P => t_p.apply(xs[k]),
                        FrameType::B => t_b.apply(xs[k]),
                    };
                    y.round().clamp(1.0, u32::MAX as f64) as u32
                })
                .collect()
        });
        Ok(FrameTrace::new(sizes, self.pattern.clone()))
    }

    /// The shared background-path stage of both generate variants. The
    /// Hosking branch pulls its Durbin–Levinson schedule from the process
    /// cache ([`hosking_coefficients`]) and produces the same bits as the
    /// streaming sampler at the same RNG state.
    fn background_path<R: Rng + ?Sized>(
        &self,
        n: usize,
        fast: bool,
        rng: &mut R,
    ) -> Result<Vec<f64>, CoreError> {
        let model = self.background_model()?;
        if fast {
            // Embed the smooth rescaled model directly — a truncated table
            // would put a discontinuity into the circulant first row.
            Ok(DaviesHarte::new_approx(&model, n, 5e-2)?.generate(rng))
        } else {
            let table = pd_project_table(&model, n.max(2))?;
            match hosking_coefficients(&table, n)? {
                CachedHosking::Shared(prepared) => Ok(prepared.sample_path(rng)),
                // Horizon past the cache's memory cap: stream the recursion.
                CachedHosking::Streaming => Ok(HoskingSampler::new(&table)?.generate(n, rng)?),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hurst::HurstOptions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use svbr_lrd::acf::Acf;
    use svbr_marginal::Marginal;
    use svbr_stats::{sample_acf_fft, two_sample_ks};
    use svbr_video::reference_trace_of_len;

    fn quick_opts() -> CompositeVideoOptions {
        CompositeVideoOptions {
            unified: UnifiedOptions {
                hurst: HurstOptions {
                    vt: svbr_stats::VtOptions {
                        min_m: 10,
                        max_m: 500,
                        points: 10,
                        min_blocks: 10,
                    },
                    rs: svbr_stats::RsOptions {
                        min_n: 32,
                        max_n: 4096,
                        sizes: 8,
                        starts: 6,
                    },
                    gph_frequencies: Some(64),
                    extended_estimators: false,
                    round_to: 0.05,
                },
                acf_lags: 120,
                fit: svbr_stats::FitOptions {
                    knee_min: 3,
                    knee_max: 30,
                    max_lag: 120,
                    min_correlation: 0.05,
                },
                ..Default::default()
            },
            marginal_bins: 120,
        }
    }

    fn fitted() -> (FrameTrace, CompositeVideoFit) {
        let trace = reference_trace_of_len(120_000);
        let fit = CompositeVideoFit::fit(&trace, &quick_opts()).unwrap();
        (trace, fit)
    }

    #[test]
    fn per_type_marginals_ordered() {
        let (_, fit) = fitted();
        assert!(fit.marginal_i.mean() > fit.marginal_p.mean());
        assert!(fit.marginal_p.mean() > fit.marginal_b.mean());
        assert_eq!(fit.pattern.period(), 12);
        assert_eq!(fit.marginal(FrameType::I).mean(), fit.marginal_i.mean());
    }

    #[test]
    fn generated_trace_reproduces_gop_structure() -> Result<(), Box<dyn std::error::Error>> {
        let (_, fit) = fitted();
        let mut rng = StdRng::seed_from_u64(1);
        let synth = fit.generate(24_000, true, &mut rng)?;
        assert_eq!(synth.len(), 24_000);
        // Per-type means ordered I > P > B, as in the source.
        let mean_of = |t: FrameType| {
            let v = synth.sizes_of_type(t);
            v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64
        };
        assert!(mean_of(FrameType::I) > mean_of(FrameType::P));
        assert!(mean_of(FrameType::P) > mean_of(FrameType::B));
        Ok(())
    }

    #[test]
    fn per_type_marginals_match_source() -> Result<(), Box<dyn std::error::Error>> {
        let (trace, fit) = fitted();
        let mut rng = StdRng::seed_from_u64(2);
        // Pool over replications: the GOP-rescaled background is extremely
        // persistent (its lag axis is stretched 12×), so a single path's
        // marginal wanders far from F_Y — see the pipeline marginal test.
        let synths: Vec<FrameTrace> = (0..12)
            .map(|_| fit.generate(24_000, true, &mut rng))
            .collect::<Result<_, _>>()?;
        for t in [FrameType::I, FrameType::P, FrameType::B] {
            let a: Vec<f64> = trace.sizes_of_type(t).iter().map(|&x| x as f64).collect();
            let b: Vec<f64> = synths
                .iter()
                .flat_map(|s| s.sizes_of_type(t))
                .map(|x| x as f64)
                .collect();
            let ks = two_sample_ks(&a, &b)?;
            assert!(ks < 0.13, "{t:?}: KS {ks}");
        }
        Ok(())
    }

    #[test]
    fn composite_acf_shows_gop_periodicity() -> Result<(), Box<dyn std::error::Error>> {
        // The paper's Figs. 9–11: the composite foreground ACF oscillates
        // with the GOP period because adjacent frames are of different
        // types. Check that r(12) (same phase) exceeds r(6) (opposite
        // phase) in the synthetic trace, mirroring the source trace.
        let (trace, fit) = fitted();
        let mut rng = StdRng::seed_from_u64(3);
        let synth = fit.generate(48_000, true, &mut rng)?;
        let r_synth = sample_acf_fft(&synth.as_f64(), 30)?;
        let r_src = sample_acf_fft(&trace.as_f64(), 30)?;
        assert!(
            r_synth[12] > r_synth[6],
            "synthetic: r(12) {} vs r(6) {}",
            r_synth[12],
            r_synth[6]
        );
        assert!(
            r_src[12] > r_src[6],
            "source: r(12) {} vs r(6) {}",
            r_src[12],
            r_src[6]
        );
        Ok(())
    }

    #[test]
    fn background_table_rescales_lags() -> Result<(), Box<dyn std::error::Error>> {
        let (_, fit) = fitted();
        let table = fit.background_table(600)?;
        // The per-frame background at lag 12 ≈ the I-frame process at lag 1
        // (both attenuation-compensated), modulo PD projection.
        let comp = fit
            .i_fit
            .composite_acf()?
            .compensate(fit.i_fit.attenuation)?;
        assert!(
            (table.r(12) - comp.r(1)).abs() < 0.05,
            "table r(12) {} vs I-process r(1) {}",
            table.r(12),
            comp.r(1)
        );
        // And it decays slowly — LRD carried through the rescaling.
        assert!(table.r(500) > 0.05);
        // The table keeps its circulant for importance sampling.
        assert_eq!(table.embedding().map(|e| e.exact_lags()), Some(600));
        Ok(())
    }

    #[test]
    fn seeded_generate_is_bit_identical_across_thread_counts(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let (_, fit) = fitted();
        // Fast (Davies–Harte) branch: parallel transform vs. the sequential
        // generator at the same derived seed.
        let baseline = fit.generate_seeded(4_096, true, 5, 1)?;
        let mut rng = StdRng::seed_from_u64(svbr_par::derive_seed(5, 0));
        let sequential = fit.generate(4_096, true, &mut rng)?;
        assert_eq!(baseline.as_f64(), sequential.as_f64());
        for threads in [2usize, 8] {
            let t = fit.generate_seeded(4_096, true, 5, threads)?;
            assert_eq!(t.as_f64(), baseline.as_f64(), "threads={threads}");
        }
        // Hosking (cached-schedule) branch.
        let h1 = fit.generate_seeded(300, false, 6, 1)?;
        let h8 = fit.generate_seeded(300, false, 6, 8)?;
        assert_eq!(h1.as_f64(), h8.as_f64());
        Ok(())
    }

    #[test]
    fn fit_rejects_short_traces() {
        let t = reference_trace_of_len(500);
        assert!(CompositeVideoFit::fit(&t, &quick_opts()).is_err());
    }

    #[test]
    fn hosking_path_works_for_short_composite_traces() -> Result<(), Box<dyn std::error::Error>> {
        let (_, fit) = fitted();
        let mut rng = StdRng::seed_from_u64(4);
        let synth = fit.generate(600, false, &mut rng)?;
        assert_eq!(synth.len(), 600);
        Ok(())
    }
}
