//! The svbr benchmark: three workloads, one per way the workspace is used
//! (rare-event importance sampling, plain Monte-Carlo synthesis, served
//! sessions), with end-to-end metrics from an untraced run and per-layer
//! metrics from a traced one. See `README.md` in this directory.

pub mod checks;
pub mod is_rare;
pub mod mc_synth;
pub mod model;
pub mod report;
pub mod serve_sessions;
pub mod spans;
pub mod stats;

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Workload seed: every random input derives from it.
    pub seed: u64,
    /// Time budget of the timed region, in seconds.
    pub seconds: f64,
    /// Worker threads (and, for serve, client threads).
    pub threads: usize,
    /// Whether this run records per-layer metrics.
    pub traced: bool,
    /// Reduced sizes: used when another workload's traced run replays
    /// this one to report every per-layer metric.
    pub reduced: bool,
    /// How many times set-up is repeated (its median is reported).
    pub setup_repeats: usize,
    /// Directory for spans and scratch files.
    pub out_dir: std::path::PathBuf,
}

impl Cfg {
    /// Seed of the `pass`-th repetition of the workload's unit of work:
    /// passes differ from each other, and each is fixed by the run's seed.
    pub fn pass_seed(&self, pass: usize) -> u64 {
        svbr_par::derive_seed(self.seed, pass as u64)
    }
}

/// The timed region: pass `j` runs the workload's unit of work with seed
/// [`Cfg::pass_seed`]`(j)`, until `cfg.seconds` is spent (at least one
/// pass). Returns every pass's result and the region's wall time.
pub fn timed_passes<T>(
    cfg: &Cfg,
    mut pass: impl FnMut(u64) -> Result<T, String>,
) -> Result<(Vec<T>, f64), String> {
    let start = std::time::Instant::now();
    let mut results = Vec::new();
    while results.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        results.push(pass(cfg.pass_seed(results.len()))?);
    }
    Ok((results, start.elapsed().as_secs_f64()))
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (IS point, MC replication, HTTP request).
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// Output-check failures, one line each.
    pub failures: Vec<String>,
    /// Set-up times, one per repeat (seconds).
    pub setup_s: Vec<f64>,
    /// Wall time of each pass over the workload's fixed unit of work.
    pub pass_s: Vec<f64>,
    /// Per-operation latencies (ms).
    pub op_ms: Vec<f64>,
    /// Work completed per second over the timed region.
    pub throughput: f64,
    /// The workload's own end-to-end metrics, by the names its
    /// documentation uses: (name, value, unit).
    pub headlines: Vec<(String, f64, String)>,
    /// Per-layer metrics: (name, value, unit).
    pub layers: Vec<(String, f64, String)>,
}

impl Outcome {
    /// Record a workload-named end-to-end metric.
    pub fn headline(&mut self, name: &str, value: f64, unit: &str) {
        self.headlines.push((name.into(), value, unit.into()));
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.layers.push((name.into(), value, unit.into()));
    }

    /// Count another run's operations and check failures as this run's.
    pub fn absorb_ops(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Record a per-layer count.
    pub fn count(&mut self, name: &str, value: f64) {
        self.layer(name, value, "count");
    }
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["is_rare", "mc_synth", "serve_sessions"];

/// Run one workload.
pub fn run_workload(name: &str, cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match name {
        "is_rare" => is_rare::run(cfg, &mut out)?,
        "mc_synth" => mc_synth::run(cfg, &mut out)?,
        "serve_sessions" => serve_sessions::run(cfg, &mut out)?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    Ok(out)
}

/// `GaussianTransform::apply_slice` on a fixed grid of 2^16 normal values
/// over ±4σ: median time per sample in nanoseconds over five calls.
pub fn transform_ns_per_sample<M: svbr_marginal::Marginal>(
    transform: &svbr_marginal::GaussianTransform<M>,
) -> f64 {
    let _g = spans::span("marginal.transform_replay");
    let n = 1 << 16;
    let xs: Vec<f64> = (0..n)
        .map(|i| -4.0 + 8.0 * (f64::from(i) + 0.5) / f64::from(n))
        .collect();
    let ns: Vec<f64> = (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(transform.apply_slice(std::hint::black_box(&xs)));
            t.elapsed().as_secs_f64() * 1e9 / f64::from(n)
        })
        .collect();
    stats::median(&ns)
}

/// Process high-water resident set size, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
