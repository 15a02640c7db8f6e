//! The fitted model every batch workload starts from: the reference
//! intraframe trace (`svbr-video`) and the unified fit on it (`svbr-core`,
//! Steps 1–3), with the options `repro` uses for the full-length trace.

use crate::spans;
use svbr_bench::experiments::unified_opts;
use svbr_core::UnifiedFit;
use svbr_video::reference::REFERENCE;
use svbr_video::reference_trace_intra_of_len;

/// The reference series and its fit.
pub struct Model {
    /// Bytes per frame of the intraframe reference trace.
    pub series: Vec<f64>,
    /// Steps 1–3 on `series`.
    pub fit: UnifiedFit,
}

/// Generate the full-length reference trace and fit the unified model.
pub fn load() -> Result<Model, String> {
    let n = REFERENCE.frames;
    let series = spans::timed("video.trace", || reference_trace_intra_of_len(n).as_f64());
    let fit = spans::timed("core.fit", || UnifiedFit::fit(&series, &unified_opts(n)))
        .map_err(|e| format!("unified fit: {e}"))?;
    Ok(Model { series, fit })
}
