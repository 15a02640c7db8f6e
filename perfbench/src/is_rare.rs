//! `is_rare`: the paper's importance-sampling procedure on its grid.
//!
//! Per point, as `repro`'s `is_point` drives it: a valley search over the
//! nine-twist grid (`svbr_is::valley_search`), then
//! `IsEstimator::run_to_relative_error` to ±10 % at one sigma with a rep
//! cap. Time goes to the per-slot marginal transform (short horizons) and
//! to the O(k²) Durbin–Levinson dot products (long horizons).

use crate::checks::{self, Check};
use crate::model::Model;
use crate::spans;
use crate::stats::median;
use crate::Outcome;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;
use svbr_core::BackgroundKind;
use svbr_is::{valley_search, IsEstimate, IsEstimator, IsEvent};
use svbr_lrd::acf::TabulatedAcf;
use svbr_lrd::hosking::PreparedHosking;
use svbr_marginal::transform::GaussianTransform;
use svbr_marginal::Marginal;
use svbr_queue::{estimate_overflow_seeded, Mux};

/// The twist grid of `repro`'s `is_point`.
pub const TWISTS: [f64; 9] = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0];
/// Replications per twist in the valley search (`repro`'s coarse count at
/// its default 1000 reps).
const VALLEY_REPS: usize = 125;
/// Relative-error target of the final run: ±10 % at one sigma.
pub const TARGET_REL_ERR: f64 = 0.1;
/// Replications per `run_to_relative_error` batch.
const BATCH: usize = 256;
/// Replication cap of the final run.
const MAX_REPS: usize = 40_000;
/// The ESS floor `repro`'s resilience run passes to `run_parallel_checked`.
const ESS_FLOOR: f64 = 4.0;
/// Grid points at or above this probability are checked against plain MC;
/// those below it (the rare ones) must have an interior valley minimum.
const MC_CHECK_MIN_P: f64 = 1e-2;
/// Horizons of the grid, where the Durbin–Levinson preparation is replayed.
const DL_HORIZONS: [usize; 3] = [250, 1_000, 2_500];
/// Relative standard error the plain-MC cross-check is sized for.
const MC_REL_ERR: f64 = 0.2;

/// One grid point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Background model.
    pub kind: BackgroundKind,
    /// Utilization.
    pub util: f64,
    /// Normalized buffer.
    pub b: f64,
}

impl Point {
    /// Horizon `k = 10 b`.
    pub fn horizon(&self) -> usize {
        (10.0 * self.b) as usize
    }

    fn label(&self) -> String {
        let kind = match self.kind {
            BackgroundKind::SrdLrd => "srd_lrd",
            BackgroundKind::SrdOnly => "srd_only",
            BackgroundKind::LrdOnly => "fgn_only",
        };
        format!("{kind}/u{}/b{}", self.util, self.b)
    }
}

/// The grid: SRD+LRD at u ∈ {0.2, 0.4, 0.6, 0.8} × b ∈ {25, 100, 250};
/// SRD-only and fGn-only at u = 0.6, b ∈ {25, 250}. The reduced grid is
/// the single point used when another workload's traced run replays this
/// one.
pub fn grid(reduced: bool) -> Vec<Point> {
    let pt = |kind, util, b| Point { kind, util, b };
    if reduced {
        return vec![pt(BackgroundKind::SrdLrd, 0.6, 25.0)];
    }
    let mut g = Vec::new();
    for util in [0.2, 0.4, 0.6, 0.8] {
        for b in [25.0, 100.0, 250.0] {
            g.push(pt(BackgroundKind::SrdLrd, util, b));
        }
    }
    for kind in [BackgroundKind::SrdOnly, BackgroundKind::LrdOnly] {
        for b in [25.0, 250.0] {
            g.push(pt(kind, 0.6, b));
        }
    }
    g
}

type TableKey = (u8, usize);

fn table_key(p: &Point) -> TableKey {
    let k = match p.kind {
        BackgroundKind::SrdLrd => 0,
        BackgroundKind::SrdOnly => 1,
        BackgroundKind::LrdOnly => 2,
    };
    (k, p.horizon())
}

/// Background tables for every (model, horizon) of the grid.
fn build_tables(model: &Model, grid: &[Point]) -> Result<BTreeMap<TableKey, TabulatedAcf>, String> {
    let mut tables = BTreeMap::new();
    for p in grid {
        if tables.contains_key(&table_key(p)) {
            continue;
        }
        let t = spans::timed("core.pd_project", || {
            model.fit.background_table(p.kind, p.horizon().max(2))
        })
        .map_err(|e| format!("background table {}: {e}", p.label()))?;
        tables.insert(table_key(p), t);
    }
    Ok(tables)
}

/// Result at one grid point.
struct PointRun {
    best: usize,
    valley_reps: usize,
    valley_slots: f64,
    valley_hits: usize,
    est: IsEstimate,
    secs: f64,
}

fn run_point(
    model: &Model,
    table: &TabulatedAcf,
    p: &Point,
    seed: u64,
    threads: usize,
) -> Result<PointRun, String> {
    let _g = spans::span("is_rare.point");
    let t0 = Instant::now();
    let marginal = &model.fit.marginal;
    let mux = Mux::new(marginal.mean(), p.util).map_err(|e| e.to_string())?;
    let (service, buffer) = (mux.service_rate(), mux.buffer(p.b));
    let transform = GaussianTransform::new(marginal.clone());
    let (valley, best) = spans::timed("is.valley_search", || {
        valley_search(
            table,
            p.horizon(),
            transform.clone(),
            service,
            buffer,
            IsEvent::FirstPassage,
            &TWISTS,
            VALLEY_REPS,
            seed,
            threads,
        )
    })
    .map_err(|e| format!("{}: valley search: {e}", p.label()))?;
    // As in `is_point`: no hit at any twist falls back to the strongest.
    let twist = if valley.iter().all(|v| v.estimate.hits == 0) {
        TWISTS[TWISTS.len() - 1]
    } else {
        valley[best].twist
    };
    let est = spans::timed("is.estimator_new", || {
        IsEstimator::new(
            table,
            p.horizon(),
            transform,
            service,
            buffer,
            twist,
            IsEvent::FirstPassage,
        )
    })
    .map_err(|e| format!("{}: estimator: {e}", p.label()))?;
    let est = spans::timed("is.run_to_relative_error", || {
        est.run_to_relative_error(
            TARGET_REL_ERR,
            BATCH,
            MAX_REPS,
            seed.wrapping_add(1),
            threads,
        )
    });
    Ok(PointRun {
        best,
        valley_reps: valley.iter().map(|v| v.estimate.n).sum(),
        valley_slots: valley
            .iter()
            .map(|v| v.estimate.n as f64 * v.estimate.mean_slots)
            .sum(),
        valley_hits: valley.iter().map(|v| v.estimate.hits).sum(),
        est,
        secs: t0.elapsed().as_secs_f64(),
    })
}

/// One pass over the grid: every point to accuracy.
fn run_pass(
    model: &Model,
    tables: &BTreeMap<TableKey, TabulatedAcf>,
    grid: &[Point],
    seed: u64,
    threads: usize,
) -> Result<(Vec<PointRun>, f64), String> {
    let _g = spans::span("is_rare.pass");
    let t0 = Instant::now();
    let mut runs = Vec::with_capacity(grid.len());
    for (i, p) in grid.iter().enumerate() {
        let point_seed = svbr_par::derive_seed(seed, i as u64);
        runs.push(run_point(
            model,
            &tables[&table_key(p)],
            p,
            point_seed,
            threads,
        )?);
    }
    Ok((runs, t0.elapsed().as_secs_f64()))
}

/// Plain-MC estimate of the same first-passage probability over exact
/// Hosking paths, for the cross-check.
fn plain_mc(
    model: &Model,
    table: &TabulatedAcf,
    p: &Point,
    p_is: f64,
    seed: u64,
    threads: usize,
) -> Result<(f64, f64), String> {
    let marginal = &model.fit.marginal;
    let mux = Mux::new(marginal.mean(), p.util).map_err(|e| e.to_string())?;
    let prepared = PreparedHosking::new(table, p.horizon()).map_err(|e| e.to_string())?;
    let transform = GaussianTransform::new(marginal.clone());
    // Plain MC needs about (1 − p)/(p·rel²) paths for a relative error
    // `rel`; the IS estimate sizes it.
    let reps = ((1.0 - p_is) / (p_is * MC_REL_ERR * MC_REL_ERR)).ceil() as usize;
    let mc = estimate_overflow_seeded(
        |_, s| transform.apply_slice(&prepared.sample_path(&mut StdRng::seed_from_u64(s))),
        seed,
        reps.clamp(400, 20_000),
        p.horizon(),
        mux.service_rate(),
        mux.buffer(p.b),
        threads,
    )
    .map_err(|e| format!("{}: plain MC: {e}", p.label()))?;
    Ok((mc.p, mc.std_err()))
}

/// Time `PreparedHosking::new` + `clone` on the SRD+LRD table at each
/// horizon of the grid: the Durbin–Levinson preparation `IsEstimator::new`
/// and `valley_search` pay inside their own calls.
fn replay_dl_prepare(model: &Model, out: &mut Outcome) -> Result<(), String> {
    let _g = spans::span("lrd.dl_prepare_replay");
    for k in DL_HORIZONS {
        let table = model
            .fit
            .background_table(BackgroundKind::SrdLrd, k)
            .map_err(|e| e.to_string())?;
        let mut secs = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            let prepared = PreparedHosking::new(&table, k).map_err(|e| e.to_string())?;
            std::hint::black_box(prepared.clone());
            secs.push(t0.elapsed().as_secs_f64());
        }
        out.layer(&format!("lrd.dl_prepare_s.k{k}"), median(&secs), "s");
        let bytes = (k * (k + 1) / 2 * 8) as f64;
        out.layer(&format!("lrd.dl_prepare_bytes.k{k}"), bytes, "bytes");
    }
    Ok(())
}

/// Run the workload.
pub fn run(cfg: &crate::Cfg, out: &mut Outcome) -> Result<(), String> {
    let grid = grid(cfg.reduced);
    // Set-up: trace + fit + background tables, repeated; the last copy is
    // the one measured against.
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..cfg.setup_repeats {
        let t0 = Instant::now();
        let _g = spans::span("is_rare.setup");
        let model = crate::model::load()?;
        let tables = build_tables(&model, &grid)?;
        setup.push(t0.elapsed().as_secs_f64());
        built = Some((model, tables));
    }
    out.setup_s = setup;
    let (model, tables) = built.ok_or("no set-up ran")?;

    let (passes, busy) = crate::timed_passes(cfg, |seed| {
        run_pass(&model, &tables, &grid, seed, cfg.threads)
    })?;

    let first = &passes[0].0;
    let reps: usize = first.iter().map(|r| r.valley_reps + r.est.n).sum();
    let valley_reps: usize = first.iter().map(|r| r.valley_reps).sum();
    let slots: f64 = first
        .iter()
        .map(|r| r.valley_slots + r.est.n as f64 * r.est.mean_slots)
        .sum();
    let hits: usize = first.iter().map(|r| r.valley_hits + r.est.hits).sum();
    out.pass_s = passes.iter().map(|p| p.1).collect();
    // An op is one grid point to accuracy. Each point's time is its median
    // over the passes (which differ in seed), so one slow pass does not move
    // a 16-point distribution.
    out.op_ms = (0..grid.len())
        .map(|i| {
            let ms: Vec<f64> = passes.iter().map(|p| p.0[i].secs * 1e3).collect();
            median(&ms)
        })
        .collect();
    out.attempted += (passes.len() * grid.len()) as u64;
    let all_reps: usize = passes
        .iter()
        .flat_map(|p| p.0.iter().map(|r| r.valley_reps + r.est.n))
        .sum();
    out.throughput = all_reps as f64 / busy;
    out.headline("is_time_to_accuracy_s", median(&out.pass_s), "s");
    out.headline("is_reps_per_s", out.throughput, "1/s");
    out.count("is.reps", reps as f64);
    out.count("is.slots", slots.round());
    out.layer("is.hit_ratio", hits as f64 / reps as f64, "ratio");
    out.count("marginal.transform_samples", slots.round());

    // Output checks, after the timed region.
    let checks_span = spans::span("is_rare.checks");
    let (mut mc_checked, mut edge_valleys) = (0, 0);
    for (i, p) in grid.iter().enumerate() {
        let label = p.label();
        let r0 = &first[i];
        let mut point: Vec<Check> = Vec::new();
        for pass in &passes {
            let r = &pass.0[i];
            point.push(checks::relative_error_within(
                &label,
                r.est.relative_error(),
                TARGET_REL_ERR,
            ));
            point.push(checks::ess_above(
                &label,
                r.est.effective_sample_size(),
                ESS_FLOOR,
            ));
        }
        if r0.est.p >= MC_CHECK_MIN_P {
            // Not rare: plain MC can check the estimate itself. The best
            // twist may then lie below the grid's lowest twist.
            let mc_seed = svbr_par::derive_seed(cfg.seed ^ 0x6d63_5f63_6865_636b, i as u64);
            let mc = plain_mc(
                &model,
                &tables[&table_key(p)],
                p,
                r0.est.p,
                mc_seed,
                cfg.threads,
            )?;
            point.push(checks::estimates_agree(
                &label,
                (r0.est.p, r0.est.std_err()),
                mc,
                4.0,
            ));
            mc_checked += 1;
            edge_valleys +=
                usize::from(checks::valley_interior(&label, r0.best, TWISTS.len()).is_err());
        } else {
            point.push(checks::valley_interior(&label, r0.best, TWISTS.len()));
        }
        let fails = checks::failures(point);
        out.failed += u64::from(!fails.is_empty());
        out.failures.extend(fails);
    }
    out.headline("is_points_checked_by_plain_mc", mc_checked as f64, "count");
    out.headline(
        "is_edge_valleys_at_checked_points",
        edge_valleys as f64,
        "count",
    );
    drop(checks_span);

    if cfg.traced {
        out.layer(
            "is.valley_reps_share",
            valley_reps as f64 / reps as f64,
            "ratio",
        );
        let ess: Vec<f64> = first
            .iter()
            .map(|r| r.est.effective_sample_size() / r.est.n as f64)
            .collect();
        out.layer("is.ess_ratio", median(&ess), "ratio");
        replay_dl_prepare(&model, out)?;
        // The first pass again at one thread: the svbr-par speed-up. Results
        // do not depend on the thread count, so it is the same work. Its
        // layer calls are not traced; one root span covers it.
        spans::set_enabled(false);
        let (t0, lo) = (Instant::now(), spans::now_ns());
        let one = run_pass(&model, &tables, &grid, cfg.pass_seed(0), 1);
        let secs = t0.elapsed().as_secs_f64();
        spans::set_enabled(true);
        spans::record_root("par.single_thread_pass", lo, spans::now_ns());
        one?;
        out.layer("par.speedup", secs / passes[0].1, "ratio");
    }
    Ok(())
}
