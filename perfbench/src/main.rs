//! Benchmark entry point.
//!
//! ```text
//! svbr-perfbench --workload <is_rare|mc_synth|serve_sessions>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics and writes the run's spans to
//! `perfbench/out/spans-<workload>-<seed>.jsonl`. The last stdout line is
//! the JSON result; the lines before it are the human-readable report.
//! Exits 1 when any output check fails, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use svbr_perfbench::report::{self, Metrics};
use svbr_perfbench::{peak_rss_mb, run_workload, spans, stats, Cfg, Outcome, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn base_cfg(args: &Args) -> Cfg {
    Cfg {
        seed: args.seed,
        seconds: args.seconds,
        threads: std::thread::available_parallelism().map_or(2, |n| n.get().min(2)),
        traced: false,
        reduced: false,
        setup_repeats: 5,
        out_dir: out_dir(),
    }
}

/// Untraced run: the end-to-end metrics.
fn untraced(args: &Args) -> Result<(Outcome, Metrics), String> {
    let out = run_workload(&args.workload, &base_cfg(args))?;
    let e2e = report::end_to_end(&out, peak_rss_mb());
    Ok((out, e2e))
}

/// Traced run: the workload with spans off, on, and off again, each for a
/// third of the time (the spans-on headline against the mean of the two
/// spans-off ones is the tracing overhead, with warm-up and drift split
/// between both sides), then the other workloads at reduced size so every
/// per-layer metric is reported.
fn traced(args: &Args) -> Result<(Outcome, Metrics), String> {
    let mut cfg = base_cfg(args);
    cfg.seconds = args.seconds / 3.0;
    cfg.setup_repeats = 1;
    let before = run_workload(&args.workload, &cfg)?;

    spans::set_enabled(true);
    let _ = spans::take();
    cfg.traced = true;
    let lo = spans::now_ns();
    let mut out = run_workload(&args.workload, &cfg)?;
    let hi = spans::now_ns();
    let own = spans::take();

    spans::set_enabled(false);
    cfg.traced = false;
    let after = run_workload(&args.workload, &cfg)?;
    spans::set_enabled(true);
    cfg.traced = true;
    spans::write_jsonl(
        &own,
        &cfg.out_dir
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed)),
    )
    .map_err(|e| format!("writing spans: {e}"))?;
    let mut layers = Metrics::new();
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        let mut small = cfg.clone();
        small.reduced = true;
        small.seconds = 0.0;
        let o = run_workload(other, &small)?;
        layers.extend(report::layer_metrics(&o, &spans::take()));
        out.absorb_ops(o);
    }
    layers.extend(report::layer_metrics(&out, &own));
    let coverage = spans::root_coverage(&own, lo, hi);
    let base = 0.5 * (stats::median(&before.pass_s) + stats::median(&after.pass_s));
    let with = stats::median(&out.pass_s);
    layers.insert(
        "obsv.overhead_share".into(),
        ((with - base) / base, "ratio".into()),
    );
    layers.insert(
        "obsv.span_coverage_share".into(),
        (coverage, "ratio".into()),
    );
    out.absorb_ops(before);
    out.absorb_ops(after);
    Ok((out, layers))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svbr-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let (out, metrics) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("svbr-perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for line in report::human_lines(&args.workload, &out, &metrics) {
        println!("{line}");
    }
    let correct = out.failures.is_empty();
    println!(
        "{}",
        report::json_line(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
