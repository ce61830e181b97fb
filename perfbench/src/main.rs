//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <fleet_tpcc|prod_safetune|gateway_mix> --seed N
//!           --seconds S --trace <0|1> [--out results.json]
//! ```
//!
//! Runs one seeded workload for about `S` wall seconds, checks its outputs,
//! prints every metric by name with its unit and, as the last line, one
//! JSON object `{correct, attempted, failed, metrics}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the run is traced
//! and the metrics are the per-layer ones. `--out` also writes a results
//! file holding both, the host block, checks and (traced) the span dump.

mod gateway;
mod report;
mod sim;
mod trace;

use report::{Json, RefClock};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// End-to-end metrics every workload reports, with their units.
const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
];

/// Per-layer metrics every traced run reports, with their units. A layer a
/// workload never calls reads 0: the traced run measured no work there.
const LAYERS: [(&str, &str); 47] = [
    ("cloudsim.step_traffic_us", "us"),
    ("cloudsim.step_tde_us", "us"),
    ("cloudsim.step_rec_us", "us"),
    ("cloudsim.share.traffic", "frac"),
    ("cloudsim.share.tde", "frac"),
    ("cloudsim.share.rec", "frac"),
    ("simdb.drive_us.pageheap", "us"),
    ("simdb.drive_us.lsm", "us"),
    ("simdb.queries_per_drive", "count"),
    ("simdb.buffer_hit_ratio", "frac"),
    ("simdb.spill_ratio", "frac"),
    ("core.tde_run_us.early", "us"),
    ("core.tde_run_us.late", "us"),
    ("core.throttle_frac", "frac"),
    ("tuner.recommend_ms", "ms"),
    ("tuner.train_n", "count"),
    ("tuner.cache_reuse_frac", "frac"),
    ("ctrlplane.reconcile_all_us", "us"),
    ("ctrlplane.director_requests", "count"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.bytes.service.early", "B"),
    ("snapshot.bytes.service.late", "B"),
    ("snapshot.bytes.tde.early", "B"),
    ("snapshot.bytes.tde.late", "B"),
    ("snapshot.bytes.repo.early", "B"),
    ("snapshot.bytes.repo.late", "B"),
    ("snapshot.bytes.director.early", "B"),
    ("snapshot.bytes.director.late", "B"),
    ("snapshot.bytes.events.early", "B"),
    ("snapshot.bytes.events.late", "B"),
    ("snapshot.growth.service", "ratio"),
    ("snapshot.growth.tde", "ratio"),
    ("snapshot.growth.repo", "ratio"),
    ("snapshot.growth.director", "ratio"),
    ("snapshot.growth.events", "ratio"),
    ("telemetry.events", "count"),
    ("gateway.frame_decode_us", "us"),
    ("gateway.req_decode_us", "us"),
    ("gateway.admit_us", "us"),
    ("gateway.route_us", "us"),
    ("gateway.route_us.fetch", "us"),
    ("gateway.route_us.push_metrics", "us"),
    ("gateway.resp_encode_us", "us"),
    ("gateway.wait_us", "us"),
    ("gateway.client_call_us", "us"),
    ("trace.overhead_frac", "frac"),
];

/// Per-layer values gathered by a traced run, plus scratch accumulators
/// (names outside [`LAYERS`] are never reported).
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Set `name` to `v`.
    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }

    /// Add `v` to `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_default() += v;
    }

    /// Current value of `name` (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Everything one workload run produced.
pub struct Outcome {
    workload: &'static str,
    lines: Vec<String>,
    failures: Vec<String>,
    checks: Vec<(String, String)>,
    /// End-to-end metrics: (wall value, host-normalised value).
    e2e: BTreeMap<&'static str, (f64, f64)>,
    detail: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer values (traced runs only).
    pub layers: Option<Layers>,
    /// Span recorders to dump (traced runs only).
    pub tracer: Option<Tracer>,
    /// Extra span recorders (one per client thread on the gateway).
    pub client_tracers: Vec<Tracer>,
    /// Whether wall-clock figures are host-normalised (see `normalise`);
    /// false for a workload the reference kernel does not track.
    pub normalised: bool,
    /// Peak RSS the workload reports itself (MB); `None` means the whole
    /// run's high-water mark.
    pub rss_mb: Option<f64>,
    /// Benchmark operations attempted.
    pub attempted: u64,
    /// Benchmark operations that failed.
    pub failed: u64,
}

impl Outcome {
    fn new(workload: &'static str) -> Self {
        Self {
            workload,
            lines: Vec::new(),
            failures: Vec::new(),
            checks: Vec::new(),
            e2e: BTreeMap::new(),
            detail: Vec::new(),
            layers: None,
            tracer: None,
            client_tracers: Vec::new(),
            normalised: true,
            rss_mb: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// A progress line for stdout.
    fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    /// Record a failed correctness check.
    fn fail(&mut self, s: String) {
        self.failures.push(s);
    }

    /// Record a check value that must repeat across runs of one seed.
    fn check(&mut self, name: &str, value: String) {
        self.checks.push((name.to_string(), value));
    }

    /// Set an end-to-end metric (unit fixed by [`E2E`]) from its wall
    /// value and its host-normalised value.
    fn e2e(&mut self, name: &'static str, wall: f64, normalised: f64, unit: &str) {
        debug_assert!(E2E.iter().any(|&(n, u)| n == name && u == unit));
        self.e2e.insert(name, (wall, normalised));
    }

    /// A workload-specific figure for the results file and stdout.
    fn detail(&mut self, name: &'static str, v: f64, unit: &'static str) {
        self.detail.push((name, v, unit));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload")
        .ok_or("--workload is required")?
        .to_string();
    let seed = get("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "--seed expects a whole number")?;
    let seconds: f64 = get("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "--seconds expects a number")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out: get("--out").map(PathBuf::from),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut refclock = RefClock::new();
    refclock.sample(25);
    let mut out = match args.workload.as_str() {
        "fleet_tpcc" => sim::run(
            &sim::FLEET_TPCC,
            args.seed,
            args.seconds,
            args.trace,
            &mut refclock,
        ),
        "prod_safetune" => sim::run(
            &sim::PROD_SAFETUNE,
            args.seed,
            args.seconds,
            args.trace,
            &mut refclock,
        ),
        "gateway_mix" => gateway::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("error: unknown workload {other:?} (fleet_tpcc|prod_safetune|gateway_mix)");
            return ExitCode::from(2);
        }
    };
    let rss = out.rss_mb.unwrap_or_else(report::peak_rss_mb);
    if out.e2e.len() + 1 < E2E.len() {
        // The workload stopped before measuring: report why, no result.
        for f in &out.failures {
            eprintln!("FAILED: {f}");
        }
        return ExitCode::FAILURE;
    }
    out.e2e("peak_rss_mb", rss, rss, "MB");
    refclock.sample(25);
    let host = Host {
        nproc: report::nproc(),
        ref_ms: refclock.median_ns() / 1e6,
        ref_samples: refclock.len(),
    };
    let ref_ms = if out.normalised {
        host.ref_ms
    } else {
        report::REF_NOMINAL_NS / 1e6
    };
    let norm = |v: f64, unit: &str| normalise(v, unit, ref_ms);

    for l in &out.lines {
        println!("{l}");
    }
    for (name, v) in &out.checks {
        println!("check {name} = {v}");
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    for (name, unit) in E2E {
        let (wall, normalised) = out.e2e[name];
        println!("e2e {name} = {normalised} {unit} (wall {wall})");
    }
    for (name, v, unit) in &out.detail {
        println!("detail {name} = {} {unit} (wall {v})", norm(*v, unit));
    }
    if let Some(layers) = &out.layers {
        for (name, unit) in LAYERS {
            let v = layers.get(name);
            println!("layer {name} = {} {unit} (wall {v})", norm(v, unit));
        }
    }
    println!(
        "host nproc = {}, reference kernel median = {} ms over {} samples",
        host.nproc, host.ref_ms, host.ref_samples
    );

    let correct = out.failures.is_empty();
    let failed = out.failed.max(out.failures.len() as u64);
    let mut metrics = Json::obj();
    match (&out.layers, args.trace) {
        (Some(layers), true) => {
            for (name, unit) in LAYERS {
                metrics.put(name, metric(norm(layers.get(name), unit), unit));
            }
        }
        _ => {
            for (name, unit) in E2E {
                metrics.put(name, metric(out.e2e[name].1, unit));
            }
        }
    }

    if let Some(path) = &args.out {
        if let Err(e) = write_results(path, &args, &out, &host, ref_ms, correct) {
            eprintln!("error: cannot write results to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    let mut last = Json::obj();
    last.put("correct", Json::Bool(correct));
    last.put("attempted", Json::Int(out.attempted.max(1)));
    last.put("failed", Json::Int(failed));
    last.put("metrics", metrics);
    println!("{}", last.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric(value: f64, unit: &str) -> Json {
    let mut m = Json::obj();
    m.put("value", Json::Num(value));
    m.put("unit", Json::Str(unit.to_string()));
    m
}

/// Host block of the results file.
struct Host {
    nproc: usize,
    /// Median reference-kernel time over the run, ms.
    ref_ms: f64,
    ref_samples: usize,
}

/// A wall-clock figure as on the reference host, using the whole run's
/// reference median: times scale by `REF_NOMINAL / median`, wall rates by
/// the inverse; sizes, counts, ratios and simulated-time rates pass
/// through. (End-to-end metrics are normalised finer, per repetition, by
/// the workloads themselves.)
fn normalise(v: f64, unit: &str, ref_ms: f64) -> f64 {
    let host_speed = report::REF_NOMINAL_NS / 1e6 / ref_ms;
    match unit {
        "s" | "ms" | "us" => v * host_speed,
        "1/s" => v / host_speed,
        _ => v,
    }
}

/// The results file: run identity, host block, checks, then end-to-end,
/// detail and (traced) per-layer metrics, each both host-normalised (the
/// values the benchmark reports) and as measured on the wall clock.
fn write_results(
    path: &std::path::Path,
    args: &Args,
    out: &Outcome,
    host: &Host,
    ref_ms: f64,
    correct: bool,
) -> std::io::Result<()> {
    let mut root = Json::obj();
    root.put("schema", Json::Str("autodbaas-perfbench-v1".into()));
    root.put("workload", Json::Str(out.workload.into()));
    root.put("seed", Json::Int(args.seed));
    root.put("seconds", Json::Num(args.seconds));
    root.put("trace", Json::Bool(args.trace));
    let mut h = Json::obj();
    h.put("nproc", Json::Int(host.nproc as u64));
    h.put("ref_kernel_ms", Json::Num(host.ref_ms));
    h.put("ref_kernel_samples", Json::Int(host.ref_samples as u64));
    h.put("ref_nominal_ms", Json::Num(report::REF_NOMINAL_NS / 1e6));
    root.put("host", h);
    root.put("correct", Json::Bool(correct));
    root.put("attempted", Json::Int(out.attempted));
    root.put(
        "failed",
        Json::Int(out.failed.max(out.failures.len() as u64)),
    );
    let mut checks = Json::obj();
    for (name, v) in &out.checks {
        checks.put(name.clone(), Json::Str(v.clone()));
    }
    root.put("checks", checks);

    // Items are (name, wall value, normalised value, unit).
    let mut section = |key: &str, items: Vec<(&str, f64, f64, &str)>| {
        let mut normalised = Json::obj();
        let mut wall = Json::obj();
        for (name, w, n, unit) in items {
            normalised.put(name, metric(n, unit));
            wall.put(name, metric(w, unit));
        }
        root.put(key, normalised);
        root.put(format!("{key}_wall"), wall);
    };
    let globally = |name, v, unit| (name, v, normalise(v, unit, ref_ms), unit);
    section(
        "end_to_end",
        E2E.iter()
            .map(|&(n, u)| (n, out.e2e[n].0, out.e2e[n].1, u))
            .collect(),
    );
    section(
        "detail",
        out.detail
            .iter()
            .map(|&(n, v, u)| globally(n, v, u))
            .collect(),
    );
    if let Some(layers) = &out.layers {
        section(
            "per_layer",
            LAYERS
                .iter()
                .map(|&(n, u)| globally(n, layers.get(n), u))
                .collect(),
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, root.render() + "\n")?;

    let stem = path.with_extension("");
    if let Some(tr) = &out.tracer {
        tr.write_tsv(&stem.with_extension("spans.tsv"))?;
    }
    for (i, tr) in out.client_tracers.iter().enumerate() {
        tr.write_tsv(&stem.with_extension(format!("client{i}.spans.tsv")))?;
    }
    Ok(())
}
