//! `gateway_mix`: an in-process gateway under a closed loop of tenant
//! clients.
//!
//! The gateway serves on `127.0.0.1:0` with [`WORKERS`] workers and
//! admission set to unlimited. [`CLIENTS`] client threads, one connection
//! each, register a tenant and then replay the loadgen's tenant request
//! mix (metrics windows, throttle signals, fetches, apply acks, health and
//! stats) from a seeded generator, each waiting for its reply before
//! sending the next request. Every reply kind must match its request; no
//! protocol error, dropped reply or `Busy` is allowed.
//!
//! The traced run also records the request stream and replays it through
//! the gateway's codec, admission and router in-process, timing each stage.

use crate::report::{median, percentile_sorted, LatencyHistogram};
use crate::trace::Tracer;
use crate::{Layers, Outcome};
use autodbaas_gateway::frame::{self, Decoded};
use autodbaas_gateway::{
    serve, AdmissionConfig, GatewayClient, GatewayHandle, GatewayState, Request, Response,
    RouterConfig, ServerConfig, WallClock,
};
use autodbaas_telemetry::MILLIS_PER_HOUR;
use autodbaas_workload::{ArrivalProcess, DiurnalProfile};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads, one connection each (closed loop).
pub const CLIENTS: usize = 2;
/// Gateway worker threads; a worker serves one connection until EOF, so
/// there is one per client.
pub const WORKERS: usize = 2;
/// Requests each client sends in one pass.
pub const PASS_REQUESTS: u64 = 20_000;

fn router_config() -> RouterConfig {
    RouterConfig {
        // Unlimited admission: the workload measures serving, not shedding.
        admission: AdmissionConfig {
            burst: 1e15,
            rate_per_sec: 1e15,
        },
        ..RouterConfig::default()
    }
}

fn start_gateway() -> GatewayHandle {
    serve(
        "127.0.0.1:0",
        GatewayState::new(router_config()),
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
        Arc::new(WallClock::new()),
    )
    .expect("bind a loopback gateway")
}

/// One tenant's closed-loop request generator, after the loadgen's paced
/// tenant (without the pacing).
struct Tenant {
    client: GatewayClient,
    rng: StdRng,
    arrival: ArrivalProcess,
    register: Request,
    tenant: u64,
    sim_time: u64,
    window_idx: u64,
}

impl Tenant {
    fn connect(addr: std::net::SocketAddr, seed: u64) -> Result<Self, String> {
        let mut client = GatewayClient::connect(addr).map_err(|e| format!("connect: {e:?}"))?;
        client
            .set_timeout(Duration::from_secs(10))
            .map_err(|e| format!("set timeout: {e:?}"))?;
        let mut rng = StdRng::seed_from_u64(seed);
        let register = Request::RegisterService {
            flavor: (rng.next_u32() % 2) as u8,
            instance: (rng.next_u32() % 6) as u8,
            disk: (rng.next_u32() % 2) as u8,
            n_slaves: (rng.next_u32() % 3) as u8,
            seed,
        };
        let tenant = match client.call(&register) {
            Ok(Response::Registered { tenant }) => tenant,
            other => return Err(format!("registration failed: {other:?}")),
        };
        let arrival = if seed.is_multiple_of(2) {
            ArrivalProcess::Diurnal(DiurnalProfile::default())
        } else {
            ArrivalProcess::Constant(400.0 + (seed % 7) as f64 * 150.0)
        };
        Ok(Self {
            client,
            rng,
            arrival,
            register,
            tenant,
            sim_time: (seed % 24) * MILLIS_PER_HOUR,
            window_idx: 0,
        })
    }

    /// The next request of the mix: 60% metrics windows, 15% fetches,
    /// 10% throttle signals, 10% apply acks, 3% health, 2% stats.
    fn next_request(&mut self) -> Request {
        let tenant = self.tenant;
        let roll = self.rng.gen_range(0u32..100);
        if roll < 60 {
            self.window_idx += 1;
            let window_ms = MILLIS_PER_HOUR as u32;
            let mut class_counts = [0u64; 6];
            for c in class_counts.iter_mut() {
                *c = self
                    .arrival
                    .sample_count(&mut self.rng, self.sim_time, u64::from(window_ms))
                    / 6;
            }
            self.sim_time += u64::from(window_ms);
            Request::PushMetricsWindow {
                tenant,
                window_start: self.sim_time,
                window_ms,
                class_counts,
                throttled: self.window_idx.is_multiple_of(3),
                knob_at_cap: self.window_idx.is_multiple_of(9),
            }
        } else if roll < 75 {
            Request::FetchRecommendation {
                tenant,
                now: self.sim_time,
            }
        } else if roll < 85 {
            Request::ThrottleSignal {
                tenant,
                at: self.sim_time,
                knob_class: (self.rng.next_u32() % 3) as u8,
                service_time_ms: 90_000 + self.rng.next_u32() % 40_000,
            }
        } else if roll < 95 {
            Request::ApplyAck {
                tenant,
                at: self.sim_time,
                ok: self.rng.gen_range(0u32..10) != 0,
            }
        } else if roll < 98 {
            Request::Health
        } else {
            Request::Stats
        }
    }
}

/// Does `resp` answer `req` with the kind of reply it asks for?
fn reply_matches(req: &Request, resp: &Response) -> bool {
    matches!(
        (req, resp),
        (Request::RegisterService { .. }, Response::Registered { .. })
            | (
                Request::PushMetricsWindow { .. },
                Response::Classified { .. }
            )
            | (
                Request::ThrottleSignal { .. },
                Response::ThrottleQueued { .. }
            )
            | (
                Request::FetchRecommendation { .. },
                Response::Recommendation { .. }
            )
            | (Request::ApplyAck { .. }, Response::ApplyRecorded)
            | (Request::Health, Response::Healthy { .. })
            | (Request::Stats, Response::StatsReply { .. })
    )
}

/// What one client thread brings home.
struct ClientReport {
    sent: u64,
    ok: u64,
    busy: u64,
    errors: u64,
    dropped: u64,
    mismatched: u64,
    latencies: LatencyHistogram,
    /// Requests sent, in order (traced passes only).
    recorded: Vec<Request>,
}

fn drive(tenant: &mut Tenant, mut tracer: Option<&mut Tracer>) -> ClientReport {
    let mut r = ClientReport {
        sent: 0,
        ok: 0,
        busy: 0,
        errors: 0,
        dropped: 0,
        mismatched: 0,
        latencies: LatencyHistogram::new(),
        recorded: Vec::new(),
    };
    let record = tracer.is_some();
    while r.sent < PASS_REQUESTS {
        let req = tenant.next_request();
        r.sent += 1;
        let span = tracer.as_mut().map(|t| t.enter("gateway.client_call"));
        let t0 = Instant::now();
        let resp = tenant.client.call(&req);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            t.exit(id);
        }
        match resp {
            Ok(Response::Busy { .. }) => r.busy += 1,
            Ok(Response::Error { .. }) => r.errors += 1,
            Ok(resp) => {
                r.ok += 1;
                r.latencies.record(ns);
                if !reply_matches(&req, &resp) {
                    r.mismatched += 1;
                }
            }
            Err(_) => {
                r.dropped += 1;
                break; // the connection is gone
            }
        }
        if record {
            r.recorded.push(req);
        }
    }
    r
}

/// Start a gateway and connect + register every client: the set-up.
fn setup(seed: u64) -> Result<(GatewayHandle, Vec<Tenant>, f64), String> {
    let t = Instant::now();
    let handle = start_gateway();
    let tenants = (0..CLIENTS)
        .map(|i| Tenant::connect(handle.addr(), seed ^ ((i as u64 + 1) * 0x9e37)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((handle, tenants, t.elapsed().as_secs_f64()))
}

/// Drive every tenant for [`PASS_REQUESTS`] requests, one thread each.
fn pass(tenants: &mut [Tenant], tracers: Option<&mut [Tracer]>) -> (Vec<ClientReport>, f64) {
    let t = Instant::now();
    let reports = std::thread::scope(|s| {
        let handles: Vec<_> = match tracers {
            Some(trs) => tenants
                .iter_mut()
                .zip(trs.iter_mut())
                .map(|(tn, tr)| s.spawn(move || drive(tn, Some(tr))))
                .collect(),
            None => tenants
                .iter_mut()
                .map(|tn| s.spawn(move || drive(tn, None)))
                .collect(),
        };
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (reports, t.elapsed().as_secs_f64())
}

/// Replay `stream` through a fresh gateway state in-process, one span per
/// stage: frame decode, request decode, admit, route, response encode.
/// Tenant ids are remapped to the ones the replay's registrations return.
fn replay(stream: &[(Request, u64)], tr: &mut Tracer) {
    let mut state = GatewayState::new(router_config());
    let mut remap = std::collections::BTreeMap::new();
    for (now_ms, (req, live_tenant)) in (1u64..).zip(stream) {
        let req = with_tenant(req, |t| remap.get(&t).copied().unwrap_or(t));
        let framed = frame::encode(&req.encode()).expect("requests fit a frame");
        let payload = match tr.span("gateway.frame_decode", || frame::decode(&framed)) {
            Ok(Decoded::Frame { payload, .. }) => payload,
            other => panic!("replayed frame did not decode: {other:?}"),
        };
        let req = tr
            .span("gateway.req_decode", || Request::decode(&payload))
            .expect("replayed request decodes");
        tr.span("gateway.admit", || state.admit(&req, now_ms));
        let route = match req {
            Request::FetchRecommendation { .. } => "gateway.route.fetch",
            Request::PushMetricsWindow { .. } => "gateway.route.push_metrics",
            _ => "gateway.route.other",
        };
        let resp = tr.span(route, || state.route(&req, now_ms));
        if let Response::Registered { tenant } = resp {
            remap.insert(*live_tenant, tenant);
        }
        tr.span("gateway.resp_encode", || frame::encode(&resp.encode()))
            .expect("responses fit a frame");
    }
}

/// `req` with its tenant id mapped through `f`.
fn with_tenant(req: &Request, f: impl Fn(u64) -> u64) -> Request {
    let mut req = req.clone();
    match &mut req {
        Request::PushMetricsWindow { tenant, .. }
        | Request::ThrottleSignal { tenant, .. }
        | Request::FetchRecommendation { tenant, .. }
        | Request::ApplyAck { tenant, .. } => *tenant = f(*tenant),
        Request::RegisterService { .. } | Request::Health | Request::Stats => {}
    }
    req
}

fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn median_us(tr: &Tracer, names: &[&str]) -> f64 {
    let ns: Vec<f64> = names
        .iter()
        .flat_map(|n| tr.durations_ns(n))
        .map(|ns| ns as f64)
        .collect();
    if ns.is_empty() {
        0.0
    } else {
        median(&ns) / 1e3
    }
}

/// One pass: set up a fresh gateway and clients, drive [`PASS_REQUESTS`]
/// requests per client, shut the gateway down.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    reports: Vec<ClientReport>,
    server_busy: u64,
    server_errors: u64,
    director_requests: u64,
    access_events: u64,
    registrations: Vec<(Request, u64)>,
}

fn run_pass(seed: u64, tracers: Option<&mut [Tracer]>) -> Result<Pass, String> {
    let (handle, mut tenants, setup_s) = setup(seed)?;
    let (reports, wall_s) = pass(&mut tenants, tracers);
    let registrations = tenants
        .iter()
        .map(|t| (t.register.clone(), t.tenant))
        .collect();
    drop(tenants);
    let state = handle.shutdown();
    let s = state.lock();
    let (_, server_busy, server_errors) = s.counters();
    Ok(Pass {
        setup_s,
        wall_s,
        reports,
        server_busy,
        server_errors,
        director_requests: s.director().total_requests() as u64,
        access_events: s.access_log.len() as u64,
        registrations,
    })
}

/// Run `gateway_mix` for about `seconds` of wall time: passes repeat
/// until the budget is spent (at least one; two when traced).
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::new("gateway_mix");
    // The reference kernel does not track this syscall- and loopback-bound
    // work (normalising by it widened the run-to-run spread), so every
    // figure stays on the wall clock.
    out.normalised = false;
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut client_trs: Vec<Tracer> = Vec::new();
    let mut traced_pass = None;
    let mut first_pass_rss_mb = 0.0;
    loop {
        // Traced runs alternate untraced and traced passes.
        let traced = trace && passes.len() % 2 == 1;
        let mut trs: Vec<Tracer> = (0..if traced { CLIENTS } else { 0 })
            .map(|_| Tracer::new())
            .collect();
        let t = Instant::now();
        match run_pass(seed, traced.then_some(trs.as_mut_slice())) {
            Ok(p) => passes.push(p),
            Err(e) => {
                out.fail(format!("pass {}: {e}", passes.len()));
                return out;
            }
        }
        if passes.len() == 1 {
            // Later passes start on an allocator holding the previous
            // gateways' freed memory, so the footprint is read after the
            // first: a fresh gateway and its clients serving one pass.
            first_pass_rss_mb = crate::report::peak_rss_mb();
        }
        if traced && traced_pass.is_none() {
            traced_pass = Some(passes.len() - 1);
            client_trs = trs;
        }
        let last = t.elapsed();
        let over = started.elapsed() + last > Duration::from_secs_f64(seconds);
        if over && (!trace || passes.len().is_multiple_of(2)) {
            break;
        }
    }

    if let Some(traced_idx) = traced_pass {
        // Each traced pass against the untraced one before it: the median
        // throughput drop is the tracing overhead.
        let rate = |p: &Pass| p.reports.iter().map(|r| r.ok).sum::<u64>() as f64 / p.wall_s;
        let drops: Vec<f64> = passes
            .chunks(2)
            .filter(|pair| pair.len() == 2)
            .map(|pair| (rate(&pair[0]) - rate(&pair[1])) / rate(&pair[0]))
            .collect();
        let mut layers = Layers::default();
        layers.set("trace.overhead_frac", median(&drops));
        let mut calls: Vec<u64> = client_trs
            .iter()
            .flat_map(|t| t.durations_ns("gateway.client_call"))
            .collect();
        calls.sort_unstable();
        let call_p50_us = ns_to_us(percentile_sorted(&calls, 50.0));
        layers.set("gateway.client_call_us", call_p50_us);

        // Recorded stream: each tenant's registration, then its requests.
        let traced = &passes[traced_idx];
        let mut stream: Vec<(Request, u64)> = Vec::new();
        for ((register, tenant), r) in traced.registrations.iter().zip(&traced.reports) {
            stream.push((register.clone(), *tenant));
            stream.extend(r.recorded.iter().map(|q| (q.clone(), *tenant)));
        }
        let mut tr = Tracer::new();
        replay(&stream, &mut tr);
        let stages = [
            ("gateway.frame_decode_us", vec!["gateway.frame_decode"]),
            ("gateway.req_decode_us", vec!["gateway.req_decode"]),
            ("gateway.admit_us", vec!["gateway.admit"]),
            (
                "gateway.route_us",
                vec![
                    "gateway.route.fetch",
                    "gateway.route.push_metrics",
                    "gateway.route.other",
                ],
            ),
            ("gateway.resp_encode_us", vec!["gateway.resp_encode"]),
        ];
        let mut stage_sum = 0.0;
        for (metric, names) in &stages {
            let v = median_us(&tr, names);
            stage_sum += v;
            layers.set(metric, v);
        }
        layers.set(
            "gateway.route_us.fetch",
            median_us(&tr, &["gateway.route.fetch"]),
        );
        layers.set(
            "gateway.route_us.push_metrics",
            median_us(&tr, &["gateway.route.push_metrics"]),
        );
        layers.set("gateway.wait_us", call_p50_us - stage_sum);
        layers.set(
            "ctrlplane.director_requests",
            traced.director_requests as f64,
        );
        layers.set("telemetry.events", traced.access_events as f64);
        out.layers = Some(layers);
        out.tracer = Some(tr);
        out.client_tracers = client_trs;
    }

    let reports: Vec<&ClientReport> = passes.iter().flat_map(|p| &p.reports).collect();
    let server_busy: u64 = passes.iter().map(|p| p.server_busy).sum();
    let server_errors: u64 = passes.iter().map(|p| p.server_errors).sum();
    let sum = |f: fn(&ClientReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    let (sent, ok) = (sum(|r| r.sent), sum(|r| r.ok));
    let (busy, errors, dropped) = (sum(|r| r.busy), sum(|r| r.errors), sum(|r| r.dropped));
    let mismatched = sum(|r| r.mismatched);
    if errors + server_errors > 0 {
        out.fail(format!(
            "{errors} protocol errors seen by clients, {server_errors} by the server"
        ));
    }
    if dropped > 0 {
        out.fail(format!("{dropped} dropped replies"));
    }
    if busy + server_busy > 0 {
        out.fail(format!("{busy} Busy replies under unlimited admission"));
    }
    if mismatched > 0 {
        out.fail(format!("{mismatched} replies of the wrong kind"));
    }

    // Latency percentiles are taken per pass (40000 calls, so 400 beyond
    // the p99) and the median over passes reported: a burst of host
    // interference then moves a few passes, not the run's tail.
    let mut samples = 0;
    let mut per_pass: Vec<(f64, f64)> = Vec::new();
    for p in &passes {
        let mut lat = LatencyHistogram::new();
        for r in &p.reports {
            lat.merge(&r.latencies);
        }
        samples += lat.count();
        if lat.count() > 0 {
            per_pass.push((lat.percentile(50.0) / 1e3, lat.percentile(99.0) / 1e3));
        }
    }
    if per_pass.is_empty() {
        out.fail("no request completed".into());
        return out;
    }
    let rate = |p: &Pass| p.reports.iter().map(|r| r.ok).sum::<u64>() as f64 / p.wall_s;
    let rps = median(&passes.iter().map(rate).collect::<Vec<_>>());
    let setup = median(&passes.iter().map(|p| p.setup_s).collect::<Vec<_>>());
    let p50 = median(&per_pass.iter().map(|q| q.0).collect::<Vec<_>>());
    let p99 = median(&per_pass.iter().map(|q| q.1).collect::<Vec<_>>());
    out.line(format!(
        "gateway: {} passes of {CLIENTS} clients x {PASS_REQUESTS} requests, {WORKERS} workers, sent={sent} ok={ok}",
        passes.len()
    ));
    out.e2e("setup_s", setup, setup, "s");
    out.e2e("work_per_s", rps, rps, "1/s");
    out.e2e("op_p50_us", p50, p50, "us");
    out.e2e("op_p99_us", p99, p99, "us");
    out.detail("gw_rps", rps, "1/s");
    out.detail("gw_p50_us", p50, "us");
    out.detail("gw_p99_us", p99, "us");
    out.detail("latency_samples", samples as f64, "count");
    out.detail(
        "failed_frac",
        (errors + dropped + busy) as f64 / sent.max(1) as f64,
        "frac",
    );
    out.rss_mb = Some(first_pass_rss_mb);
    out.attempted = sent;
    out.failed = errors + dropped + busy + mismatched;
    out
}
