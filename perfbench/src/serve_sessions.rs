//! `serve_sessions`: an in-process `svbr-serve` with fsync'd checkpoints
//! after every chunk, driven over loopback HTTP in a closed loop.
//!
//! Each client thread (at most `nproc`) has one connection in flight and
//! keeps [`LIVE_PER_CLIENT`] sessions open, pulling from them round-robin
//! and replacing each finished session until its quota is reached. This is
//! the only workload that exercises transport, admission, per-session
//! workers, exact streaming Hosking and checkpoint persistence; IS and
//! Davies–Harte are not touched.

use crate::checks;
use crate::spans;
use crate::stats::{median, percentile, Summary};
use crate::Outcome;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use svbr_lrd::acf::{FgnAcf, TabulatedAcf};
use svbr_marginal::transform::GaussianTransform;
use svbr_marginal::Lognormal;
use svbr_resilience::degrade::{prepare_table, GeneratorTier};
use svbr_serve::session::encode_chunk;
use svbr_serve::{generate_chunk, GenState, PullOutcome, Server, ServerConfig, SessionSpec};

/// Samples per chunk.
pub const CHUNK_LEN: usize = 256;
/// Chunks per session (4096 samples).
pub const CHUNKS: u64 = 16;
/// Sessions each client keeps open.
const LIVE_PER_CLIENT: usize = 16;
/// Client-side timeout of one request.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Chunk indices whose per-chunk costs are reported.
const REPORTED_CHUNKS: [u64; 3] = [0, 7, 15];

/// How a client reaches the server.
trait Transport: Sync {
    fn open(&self, seed: u64) -> Result<u64, String>;
    fn pull(&self, id: u64) -> Result<Option<String>, String>;
}

/// Loopback HTTP/1.0, one connection per request, as `svbr-serve` speaks it.
struct Http {
    addr: SocketAddr,
}

impl Http {
    /// One GET; returns the body of a 200 response.
    fn get(&self, target: &str) -> Result<String, String> {
        let mut s = TcpStream::connect_timeout(&self.addr, REQUEST_TIMEOUT)
            .map_err(|e| format!("connect: {e}"))?;
        s.set_read_timeout(Some(REQUEST_TIMEOUT))
            .and_then(|()| s.set_write_timeout(Some(REQUEST_TIMEOUT)))
            .map_err(|e| e.to_string())?;
        s.write_all(format!("GET {target} HTTP/1.0\r\n\r\n").as_bytes())
            .map_err(|e| format!("send {target}: {e}"))?;
        let mut raw = Vec::new();
        s.read_to_end(&mut raw)
            .map_err(|e| format!("read {target}: {e}"))?;
        let text = String::from_utf8(raw).map_err(|_| format!("{target}: non-UTF-8 body"))?;
        let (head, body) = text
            .split_once("\r\n\r\n")
            .ok_or_else(|| format!("{target}: truncated response"))?;
        let status = head.split_whitespace().nth(1).unwrap_or("");
        if status != "200" {
            return Err(format!("{target}: HTTP {status}: {}", body.trim()));
        }
        let declared = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse::<usize>().ok());
        if declared != Some(body.len()) {
            return Err(format!(
                "{target}: body length does not match Content-Length"
            ));
        }
        Ok(body.to_string())
    }
}

impl Transport for Http {
    fn open(&self, seed: u64) -> Result<u64, String> {
        let body = self.get(&format!(
            "/open?seed={seed}&chunk_len={CHUNK_LEN}&chunks={CHUNKS}"
        ))?;
        body.trim()
            .strip_prefix("session ")
            .and_then(|id| id.parse().ok())
            .ok_or_else(|| format!("/open: unexpected body {body:?}"))
    }

    fn pull(&self, id: u64) -> Result<Option<String>, String> {
        let body = self.get(&format!("/pull?session={id}"))?;
        Ok((body != "end\n").then_some(body))
    }
}

/// The same calls without the network: `Server::open_session` and
/// `Server::pull_chunk` on the caller's thread.
struct InProcess<'a> {
    server: &'a Server,
}

impl Transport for InProcess<'_> {
    fn open(&self, seed: u64) -> Result<u64, String> {
        self.server
            .open_session(seed, CHUNK_LEN, CHUNKS, None)
            .map_err(|e| e.to_string())
    }

    fn pull(&self, id: u64) -> Result<Option<String>, String> {
        match self.server.pull_chunk(id).map_err(|e| e.to_string())? {
            PullOutcome::Chunk(body) => Ok(Some(body)),
            PullOutcome::End => Ok(None),
        }
    }
}

/// What one closed-loop pass observed.
#[derive(Debug, Default)]
struct Loop {
    open_ms: Vec<f64>,
    first_chunk_ms: Vec<f64>,
    pull_ms: Vec<f64>,
    chunks: u64,
    requests: u64,
    failed: u64,
    errors: Vec<String>,
    /// Chunk bodies of the session with ordinal 0, for the identity check.
    probe: Vec<String>,
}

impl Loop {
    fn merge(&mut self, o: Loop) {
        self.open_ms.extend(o.open_ms);
        self.first_chunk_ms.extend(o.first_chunk_ms);
        self.pull_ms.extend(o.pull_ms);
        self.chunks += o.chunks;
        self.requests += o.requests;
        self.failed += o.failed;
        self.errors.extend(o.errors);
        if self.probe.is_empty() {
            self.probe = o.probe;
        }
    }
}

/// One live session on a client.
struct Live {
    ordinal: u64,
    id: u64,
    indices: Vec<u64>,
}

/// Header `chunk <idx> tier=<name> n=<len>` of a chunk body.
fn chunk_index(body: &str) -> Result<u64, String> {
    let head = body.lines().next().unwrap_or("");
    let mut parts = head.split_whitespace();
    match (parts.next(), parts.next().and_then(|i| i.parse().ok())) {
        (Some("chunk"), Some(idx)) if head.ends_with(&format!("n={CHUNK_LEN}")) => Ok(idx),
        _ => Err(format!("malformed chunk header {head:?}")),
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Pull once from `s`; returns whether the session reached its end.
fn pull_one(
    t: &dyn Transport,
    s: &mut Live,
    lp: &mut Loop,
    first: Option<Instant>,
) -> Result<bool, String> {
    let t0 = Instant::now();
    lp.requests += 1;
    let body = {
        let _g = spans::span("serve.http_pull");
        t.pull(s.id)?
    };
    let Some(body) = body else {
        checks::chunk_stream_complete(&format!("session {}", s.ordinal), &s.indices, CHUNKS)?;
        return Ok(true);
    };
    lp.pull_ms.push(ms_since(t0));
    if let Some(opened) = first {
        lp.first_chunk_ms.push(ms_since(opened));
    }
    let idx = chunk_index(&body)?;
    s.indices.push(idx);
    if idx != s.indices.len() as u64 - 1 {
        checks::chunk_stream_complete(&format!("session {}", s.ordinal), &s.indices, CHUNKS)?;
    }
    lp.chunks += 1;
    if s.ordinal == 0 {
        lp.probe.push(body);
    }
    Ok(false)
}

/// One client: keeps [`LIVE_PER_CLIENT`] sessions open until `ordinals`
/// are all opened and finished. Each new session's first chunk is pulled
/// right after its open (the first-chunk latency); the rest round-robin.
fn client(t: &dyn Transport, ordinals: std::ops::Range<u64>, seed: u64, parent: u64) -> Loop {
    let _g = spans::span_under("serve.client", parent);
    let mut lp = Loop::default();
    let mut next = ordinals.start;
    let mut live: Vec<Live> = Vec::new();
    let mut cursor = 0;
    loop {
        while live.len() < LIVE_PER_CLIENT && next < ordinals.end {
            let ordinal = next;
            next += 1;
            let t0 = Instant::now();
            lp.requests += 1;
            let opened = {
                let _g = spans::span("serve.http_open");
                t.open(svbr_par::derive_seed(seed, ordinal))
            };
            let id = match opened {
                Ok(id) => id,
                Err(e) => {
                    lp.failed += 1;
                    lp.errors.push(e);
                    continue;
                }
            };
            lp.open_ms.push(ms_since(t0));
            let mut s = Live {
                ordinal,
                id,
                indices: Vec::new(),
            };
            match pull_one(t, &mut s, &mut lp, Some(t0)) {
                Ok(false) => live.push(s),
                Ok(true) => {}
                Err(e) => {
                    lp.failed += 1;
                    lp.errors.push(e);
                }
            }
        }
        if live.is_empty() {
            return lp;
        }
        cursor %= live.len();
        match pull_one(t, &mut live[cursor], &mut lp, None) {
            Ok(false) => cursor += 1,
            Ok(true) => {
                live.swap_remove(cursor);
            }
            Err(e) => {
                lp.failed += 1;
                lp.errors.push(e);
                live.swap_remove(cursor);
            }
        }
    }
}

/// One closed-loop pass over `sessions` sessions split across `clients`
/// threads.
fn run_loop(t: &dyn Transport, sessions: u64, clients: usize, seed: u64) -> (Loop, f64) {
    let g = spans::span("serve.pass");
    let parent = g.id();
    let t0 = Instant::now();
    let per = sessions / clients as u64;
    let mut total = Loop::default();
    std::thread::scope(|sc| {
        let handles: Vec<_> = (0..clients as u64)
            .map(|c| sc.spawn(move || client(t, c * per..(c + 1) * per, seed, parent)))
            .collect();
        for h in handles {
            match h.join() {
                Ok(lp) => total.merge(lp),
                Err(_) => total.errors.push("client thread panicked".into()),
            }
        }
    });
    (total, t0.elapsed().as_secs_f64())
}

fn server_config(ckpt_dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        ckpt_dir: Some(ckpt_dir.to_path_buf()),
        ckpt_every: 1,
        ..ServerConfig::default()
    }
}

/// The table and transform `Server::new` prepares for its sessions.
fn session_model(
    cfg: &ServerConfig,
) -> Result<(TabulatedAcf, GaussianTransform<Lognormal>), String> {
    let acf = FgnAcf::new(cfg.hurst).map_err(|e| e.to_string())?;
    let (table, _) = prepare_table(acf, cfg.max_session_samples + 1).map_err(|e| e.to_string())?;
    let marginal = Lognormal::from_moments(1.0, 0.25).map_err(|e| e.to_string())?;
    Ok((table, GaussianTransform::new(marginal)))
}

/// The chunk bodies `generate_chunk` produces in process for `seed`.
fn reference_stream(
    table: &TabulatedAcf,
    transform: &GaussianTransform<Lognormal>,
    seed: u64,
) -> Result<Vec<String>, String> {
    let mut state = GenState::fresh(seed);
    let mut bodies = Vec::new();
    for idx in 0..CHUNKS {
        let (next, ys) = generate_chunk(
            &state,
            GeneratorTier::HoskingExact,
            table,
            transform,
            CHUNK_LEN,
        )
        .map_err(|e| e.to_string())?;
        bodies.push(encode_chunk(idx, GeneratorTier::HoskingExact, &ys));
        state = next;
    }
    Ok(bodies)
}

/// Replay one session's chunks with `generate_chunk` and checkpoint each
/// post-chunk state with `write_atomic`, timing both per chunk index.
fn replay_chunks(
    table: &TabulatedAcf,
    transform: &GaussianTransform<Lognormal>,
    seed: u64,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let _g = spans::span("serve.chunk_replay");
    let spec = SessionSpec {
        id: 1,
        seed,
        chunk_len: CHUNK_LEN,
        chunks: CHUNKS,
        deadline_ms: None,
    };
    let path = dir.join("replay.ck");
    let mut gen_ms = vec![Vec::new(); CHUNKS as usize];
    let mut ckpt_ms = vec![Vec::new(); CHUNKS as usize];
    let mut bytes = vec![0u64; CHUNKS as usize];
    for _ in 0..3 {
        let mut state = GenState::fresh(seed);
        for idx in 0..CHUNKS as usize {
            let t = Instant::now();
            let (next, _) = generate_chunk(
                &state,
                GeneratorTier::HoskingExact,
                table,
                transform,
                CHUNK_LEN,
            )
            .map_err(|e| e.to_string())?;
            gen_ms[idx].push(ms_since(t));
            let t = Instant::now();
            next.to_checkpoint(&spec)
                .write_atomic(&path)
                .map_err(|e| e.to_string())?;
            ckpt_ms[idx].push(ms_since(t));
            bytes[idx] = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            state = next;
        }
    }
    for c in REPORTED_CHUNKS {
        let i = c as usize;
        out.layer(
            &format!("lrd.hosking_chunk_ms.c{c}"),
            median(&gen_ms[i]),
            "ms",
        );
        out.layer(
            &format!("resilience.ckpt_write_ms.c{c}"),
            median(&ckpt_ms[i]),
            "ms",
        );
        out.layer(
            &format!("resilience.ckpt_bytes.c{c}"),
            bytes[i] as f64,
            "bytes",
        );
    }
    Ok(())
}

/// Value of one sample line of the `/metrics` exposition (0 when absent).
fn exposition_value(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series).and_then(|v| v.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Run `f` against `server` with its accept loop on its own thread, then
/// shut the loop down and wait for it.
fn with_server<T>(
    server: &Server,
    listener: std::net::TcpListener,
    f: impl FnOnce(SocketAddr) -> T,
) -> Result<T, String> {
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|sc| {
        let accept = sc.spawn(|| server.serve_on(listener));
        let r = f(addr);
        server.request_shutdown();
        match accept.join() {
            Ok(Ok(())) => Ok(r),
            Ok(Err(e)) => Err(format!("accept loop: {e}")),
            Err(_) => Err("accept loop panicked".into()),
        }
    })
}

/// Run the workload.
pub fn run(cfg: &crate::Cfg, out: &mut Outcome) -> Result<(), String> {
    let ckpt_root: PathBuf = cfg.out_dir.join(format!("ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_root);
    let result = run_in(cfg, &ckpt_root, out);
    let _ = std::fs::remove_dir_all(&ckpt_root);
    result
}

fn run_in(cfg: &crate::Cfg, ckpt_root: &Path, out: &mut Outcome) -> Result<(), String> {
    let sessions: u64 = if cfg.reduced { 4 } else { 64 };
    let clients = cfg.threads.clamp(1, 2);
    let scfg = server_config(&ckpt_root.join("http"));

    // Set-up: Server::new (prepares the session ACF table) + bind.
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..cfg.setup_repeats {
        let _g = spans::span("serve_sessions.setup");
        let t0 = Instant::now();
        let server = spans::timed("serve.server_new", || Server::new(scfg.clone()))
            .map_err(|e| format!("Server::new: {e}"))?;
        let listener = server.bind().map_err(|e| format!("bind: {e}"))?;
        setup.push(t0.elapsed().as_secs_f64());
        built = Some((server, listener));
    }
    out.setup_s = setup;
    let (server, listener) = built.ok_or("no set-up ran")?;

    let (runs, busy, metrics) = with_server(&server, listener, |addr| {
        let http = Http { addr };
        let (runs, busy) =
            crate::timed_passes(cfg, |seed| Ok(run_loop(&http, sessions, clients, seed)))?;
        Ok::<_, String>((runs, busy, http.get("/metrics")?))
    })??;
    let mut lp = Loop::default();
    let mut passes = Vec::new();
    for (l, secs) in runs {
        lp.merge(l);
        passes.push(secs);
    }

    out.attempted += lp.requests;
    out.failed += lp.failed;
    out.pass_s = passes;
    out.op_ms = lp.pull_ms.clone();
    out.throughput = lp.chunks as f64 / busy;
    out.headline("serve_chunks_per_s", out.throughput, "1/s");
    for (name, ms) in [("first_chunk", &lp.first_chunk_ms), ("pull", &lp.pull_ms)] {
        let s = Summary::of(ms);
        out.headline(&format!("serve_{name}_p50_ms"), s.p50, "ms");
        out.headline(&format!("serve_{name}_p95_ms"), percentile(ms, 95.0), "ms");
        out.headline(&format!("serve_{name}_p{}_ms", s.tail_p), s.tail, "ms");
        out.headline(&format!("serve_{name}_samples"), s.n as f64, "count");
    }

    // Output checks, after the timed region.
    let _g = spans::span("serve_sessions.checks");
    let (table, transform) = session_model(&scfg)?;
    let reference = reference_stream(
        &table,
        &transform,
        svbr_par::derive_seed(cfg.pass_seed(0), 0),
    )?;
    let mut results = vec![checks::streams_identical(
        "session 0 over HTTP vs in-process generate_chunk",
        &lp.probe,
        &reference,
    )];
    let expected_chunks = sessions * CHUNKS * out.pass_s.len() as u64;
    if lp.chunks != expected_chunks {
        results.push(Err(format!(
            "{} chunks delivered, {expected_chunks} expected",
            lp.chunks
        )));
    }
    results.extend(lp.errors.iter().map(|e| Err(e.clone())));
    out.failures.extend(checks::failures(results));
    drop(_g);

    if cfg.traced {
        out.layer("serve.open_ms", median(&lp.open_ms), "ms");
        out.count("serve.shed", exposition_value(&metrics, "serve_shed"));
        out.count(
            "serve.degraded_chunks",
            exposition_value(&metrics, "serve_chunks{outcome=\"degraded\"}"),
        );
        // The same closed loop without HTTP: Server::pull_chunk in process.
        let inproc = Server::new(server_config(&ckpt_root.join("inproc")))
            .map_err(|e| format!("Server::new: {e}"))?;
        let (ilp, _) = run_loop(
            &InProcess { server: &inproc },
            sessions,
            clients,
            cfg.pass_seed(0),
        );
        out.attempted += ilp.requests;
        out.failed += ilp.failed;
        out.failures.extend(ilp.errors);
        let inproc_p50 = median(&ilp.pull_ms);
        out.layer("serve.pull_inproc_ms", inproc_p50, "ms");
        out.layer("serve.transport_ms", median(&lp.pull_ms) - inproc_p50, "ms");
        replay_chunks(&table, &transform, cfg.seed, ckpt_root, out)?;
        let ns = crate::transform_ns_per_sample(&transform);
        out.layer("marginal.transform_ns_per_sample.lognormal", ns, "ns");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// One session that serves the scripted chunk indices, then `end`.
    struct Scripted {
        indices: Mutex<Vec<u64>>,
    }

    impl Scripted {
        fn new(indices: Vec<u64>) -> Self {
            Self {
                indices: Mutex::new(indices),
            }
        }
    }

    impl Transport for Scripted {
        fn open(&self, _seed: u64) -> Result<u64, String> {
            Ok(1)
        }

        fn pull(&self, _id: u64) -> Result<Option<String>, String> {
            let mut v = self.indices.lock().unwrap();
            if v.is_empty() {
                return Ok(None);
            }
            let idx = v.remove(0);
            Ok(Some(format!(
                "chunk {idx} tier=hosking-exact n={CHUNK_LEN}\n1\n"
            )))
        }
    }

    #[test]
    fn complete_stream_passes() {
        let lp = client(&Scripted::new((0..CHUNKS).collect()), 0..1, 7, 0);
        assert_eq!((lp.failed, lp.chunks), (0, CHUNKS));
        assert_eq!(lp.probe.len(), CHUNKS as usize);
    }

    #[test]
    fn gap_in_a_served_stream_counts_as_failed() {
        let mut gap: Vec<u64> = (0..CHUNKS).collect();
        gap.remove(5);
        let lp = client(&Scripted::new(gap), 0..1, 7, 0);
        assert_eq!(lp.failed, 1);
        assert!(lp.errors[0].contains("chunk 6 arrived where 5 was due"));
    }

    #[test]
    fn stream_ending_early_counts_as_failed() {
        let lp = client(&Scripted::new((0..3).collect()), 0..1, 7, 0);
        assert_eq!(lp.failed, 1);
    }

    #[test]
    fn exposition_lines_are_read_by_series() {
        let text =
            "# TYPE serve_shed counter\nserve_shed 3\nserve_chunks{outcome=\"degraded\"} 12\n";
        assert_eq!(exposition_value(text, "serve_shed"), 3.0);
        assert_eq!(
            exposition_value(text, "serve_chunks{outcome=\"degraded\"}"),
            12.0
        );
        assert_eq!(exposition_value(text, "serve_opened"), 0.0);
    }
}
