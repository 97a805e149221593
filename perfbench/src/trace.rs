//! The traced run: the workload once untraced and once traced (half of
//! `--seconds` each, for the tracing overhead), a scrape of the
//! server's own telemetry, and the layer ladder, which replays the same
//! seeded inputs through four nested entry points — `Client` round
//! trip, `Server::infer`, `CompiledLane::forward`, and each
//! `LaneKernel` call with `PrescanBitmap::scan` — so that self time is
//! attributed to `net`, `serve` and the engine by subtraction, from
//! outside the program.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cs_compress::gate::{GateStats, PrescanBitmap};
use cs_net::{Client, NetConfig, NetServer, Transport};
use cs_registry::{ModelArtifact, RegistryStore};
use cs_serve::{
    ExecBackend, InferRequest, LaneKernel, ModelRegistry, MonotonicClock, Registry, ServeConfig,
    Server,
};

use crate::engine::{self, LaneKind};
use crate::gen::{Op, Record, Reply};
use crate::report::{Metrics, J};
use crate::serving::{self, Rates, Stack};
use crate::setup::{self, bits_equal, elapsed_ns, Prepared, ScratchDir, Variant};
use crate::stats::Summary;
use crate::{Outcome, Workload};

/// Passes over each model's input pool the ladder makes per entry
/// point.
const LADDER_PASSES: usize = 4;

/// The lane kinds the ladder times, in report order.
const KINDS: [LaneKind; 3] = [LaneKind::Sparse, LaneKind::Gated, LaneKind::Dense];

/// Repetitions of the registry and lifecycle probes.
const PROBE_REPS: usize = 64;

/// One recorded span.
struct Span {
    /// Spans of one request share this id.
    id: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// The spans of a traced run, written out when it ends.
#[derive(Default)]
struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    fn push(&mut self, id: u64, name: impl Into<String>, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            id,
            name: name.into(),
            start_ns,
            end_ns,
        });
    }

    fn records(&mut self, records: &[Record]) {
        for (i, r) in records.iter().enumerate() {
            let name = match r.arrival.op {
                Op::Read { .. } => "client.request",
                Op::Load { .. } => "client.load_model",
            };
            self.push(i as u64, name, r.sent_ns, r.done_ns);
        }
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{}",
                J::obj([
                    ("id", J::Int(s.id)),
                    ("name", J::str(&s.name)),
                    ("start_ns", J::Int(s.start_ns)),
                    ("end_ns", J::Int(s.end_ns)),
                ])
            );
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// One series of a `metrics_jsonl()` scrape: counters and gauges carry
/// `value` (and gauges `max`), histograms `count` and `sum`.
#[derive(Debug, Clone, Default, PartialEq)]
struct Series {
    name: String,
    labels: String,
    value: f64,
    max: f64,
    count: f64,
    sum: f64,
}

fn json_number(line: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    line.find(&pat)
        .map(|i| &line[i + pat.len()..])
        .and_then(|rest| {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse().ok()
        })
        .unwrap_or(0.0)
}

fn json_field<'a>(line: &'a str, key: &str, open: char, close: char) -> &'a str {
    let pat = format!("\"{key}\":{open}");
    line.find(&pat)
        .map(|i| &line[i + pat.len()..])
        .and_then(|rest| rest.find(close).map(|end| &rest[..end]))
        .unwrap_or("")
}

/// Parses the sums and counts out of a JSONL scrape. Quantiles are
/// ignored on purpose: the server's buckets only resolve bucket bounds.
fn parse_scrape(text: &str) -> Vec<Series> {
    text.lines()
        .map(|line| Series {
            name: json_field(line, "name", '"', '"').to_string(),
            labels: json_field(line, "labels", '{', '}').to_string(),
            value: json_number(line, "value"),
            max: json_number(line, "max"),
            count: json_number(line, "count"),
            sum: json_number(line, "sum"),
        })
        .collect()
}

struct Scrape(Vec<Series>);

impl Scrape {
    fn of(server: &Server) -> Scrape {
        Scrape(parse_scrape(&server.metrics_jsonl().unwrap_or_default()))
    }

    fn matching<'a>(&'a self, name: &'a str, label: &'a str) -> impl Iterator<Item = &'a Series> {
        self.0
            .iter()
            .filter(move |s| s.name == name && s.labels.contains(label))
    }

    fn value(&self, name: &str, label: &str) -> f64 {
        self.matching(name, label).map(|s| s.value).sum()
    }

    fn mean(&self, name: &str) -> f64 {
        let (sum, count) = self
            .matching(name, "")
            .fold((0.0, 0.0), |(s, c), x| (s + x.sum, c + x.count));
        if count > 0.0 {
            sum / count
        } else {
            0.0
        }
    }

    fn gauge_max(&self, name: &str) -> f64 {
        self.matching(name, "").map(|s| s.max).fold(0.0, f64::max)
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The serve and net figures read from a scrape.
fn scraped_metrics(m: &mut Metrics, s: &Scrape) {
    m.put(
        "net.decode_errors",
        s.value("net_decode_errors_total", ""),
        "count",
    );
    m.put(
        "net.slow_consumer_disconnects",
        s.value("net_slow_consumer_disconnects_total", ""),
        "count",
    );
    m.put(
        "serve.batch_wait_us.mean",
        s.mean("serve_batch_wait_us"),
        "us",
    );
    m.put(
        "serve.batch_close_deadline_share",
        share(
            s.value("serve_batch_close_total", "\"reason\":\"deadline\""),
            s.value("serve_batch_close_total", ""),
        ),
        "ratio",
    );
    m.put(
        "serve.queue_wait_us.mean",
        s.mean("serve_queue_wait_us"),
        "us",
    );
    m.put("serve.batch_size.mean", s.mean("serve_batch_size"), "count");
    let busy = s.value("serve_worker_busy_us", "");
    m.put(
        "serve.worker_busy_share",
        share(busy, busy + s.value("serve_worker_idle_us", "")),
        "ratio",
    );
    m.put(
        "serve.rejected",
        s.value("serve_requests_rejected_total", ""),
        "count",
    );
    m.put(
        "serve.failed",
        s.value("serve_requests_failed_total", ""),
        "count",
    );
}

/// The in-process stack the ladder drives: every variant loaded on a
/// sparse-backend server behind `NetServer`, one blocking client.
struct Ladder {
    net: NetServer,
    client: Client,
    prepared: Vec<Prepared>,
    reference: Vec<Vec<Vec<f32>>>,
    compress_ns: Vec<(String, u64)>,
    store: RegistryStore,
    _dir: ScratchDir,
}

impl Ladder {
    fn start(seed: u64, out: &Path) -> Result<Ladder, String> {
        let dir = ScratchDir::new(out, "ladder")?;
        let plan = Variant::ALL.iter().map(|&v| (v, 1, seed)).collect();
        let (prepared, timings) = setup::prepare(&plan, dir.path(), seed)?;
        let serve = Server::start_with_recorder(
            ModelRegistry::new(),
            ServeConfig {
                workers: serving::WORKERS,
                queue_depth: serving::QUEUE_DEPTH,
                backend: ExecBackend::Sparse,
                ..ServeConfig::default()
            },
            Arc::new(MonotonicClock::new()),
            Arc::new(Registry::new()),
        )
        .map_err(|e| format!("starting ladder server: {e}"))?;
        for p in &prepared {
            serve
                .load_servable(p.model.clone(), 1, 0)
                .map_err(|e| format!("loading {}: {e}", p.name()))?;
        }
        let net = NetServer::start(
            serve,
            NetConfig {
                transport: Transport::Reactor,
                ..NetConfig::default()
            },
        )
        .map_err(|e| format!("starting ladder frontend: {e}"))?;
        let client = Client::connect(&net.local_addr().to_string())
            .map_err(|e| format!("ladder client: {e}"))?;
        let reference = prepared
            .iter()
            .map(setup::reference_outputs)
            .collect::<Result<_, _>>()?;
        let store = RegistryStore::open(dir.path()).map_err(|e| format!("registry: {e}"))?;
        Ok(Ladder {
            net,
            client,
            prepared,
            reference,
            compress_ns: timings.compress_ns,
            store,
            _dir: dir,
        })
    }
}

/// Ladder results for one model.
#[derive(Default)]
struct Rungs {
    client: Vec<u64>,
    overhead: Vec<u64>,
    server_us: Vec<u64>,
    infer: Vec<u64>,
    lane: [Vec<u64>; 3],
    layers: Vec<(String, Vec<u64>)>,
    prescan: Vec<(String, Vec<u64>)>,
    gate: GateStats,
    wrong: u64,
    calls: u64,
}

/// Replays every pool input of model `m` through the four entry points.
fn climb(l: &mut Ladder, m: usize, trace: &mut Trace, id: &mut u64) -> Result<Rungs, String> {
    let p = &l.prepared[m];
    let name = p.name().to_string();
    let lanes = KINDS.map(|k| k.compile(p));
    let mut r = Rungs {
        layers: lanes[0]
            .layers
            .iter()
            .map(|x| (x.name.clone(), Vec::new()))
            .collect(),
        prescan: lanes[1]
            .layers
            .iter()
            .filter(|x| matches!(x.kernel, LaneKernel::Gated(..)))
            .map(|x| (x.name.clone(), Vec::new()))
            .collect(),
        ..Rungs::default()
    };
    let t0 = Instant::now();
    let now = |t0: Instant| elapsed_ns(t0);
    for _ in 0..LADDER_PASSES {
        for (i, x) in p.inputs.iter().enumerate() {
            *id += 1;
            let want = &l.reference[m][i];
            // 1. Client round trip.
            let s = now(t0);
            let resp = l
                .client
                .request(&name, x)
                .map_err(|e| format!("ladder request: {e}"))?;
            let e = now(t0);
            trace.push(*id, "ladder.client", s, e);
            r.client.push(e - s);
            r.server_us.push(resp.latency_us * 1000);
            r.overhead
                .push((e - s).saturating_sub(resp.latency_us * 1000));
            r.wrong += u64::from(!bits_equal(&resp.outputs, want));
            // 2. Server::infer, in process.
            let s = now(t0);
            let resp = l
                .net
                .server()
                .infer(InferRequest::new(name.clone(), x.clone()))
                .map_err(|e| format!("ladder infer: {e}"))?;
            let e = now(t0);
            trace.push(*id, "ladder.server_infer", s, e);
            r.infer.push(e - s);
            r.wrong += u64::from(!bits_equal(&resp.outputs, want));
            // 3. CompiledLane::forward, each lane kind.
            for (k, lane) in lanes.iter().enumerate() {
                let s = now(t0);
                let y = lane.forward(x).map_err(|e| format!("ladder lane: {e}"))?;
                let e = now(t0);
                trace.push(*id, format!("ladder.lane.{}", KINDS[k].name()), s, e);
                r.lane[k].push(e - s);
                r.wrong += u64::from(!bits_equal(&y, want));
            }
            // 4. Each kernel of the sparse lane, and the gated lane's
            // prescans timed apart from its kernels.
            let mut h = x.clone();
            for (j, layer) in lanes[0].layers.iter().enumerate() {
                let s = now(t0);
                let (out, _) = layer
                    .kernel
                    .forward_counted(&h)
                    .map_err(|e| format!("ladder kernel: {e}"))?;
                let e = now(t0);
                trace.push(*id, format!("ladder.kernel.{}", layer.name), s, e);
                r.layers[j].1.push(e - s);
                h = out.into_iter().map(|v| layer.activation.apply(v)).collect();
            }
            r.wrong += u64::from(!bits_equal(&h, want));
            let mut h = x.clone();
            let mut g = 0;
            for layer in &lanes[1].layers {
                if let LaneKernel::Gated(_, plan) = &layer.kernel {
                    let s = now(t0);
                    std::hint::black_box(PrescanBitmap::scan(&h, plan.block));
                    let e = now(t0);
                    trace.push(*id, format!("ladder.prescan.{}", layer.name), s, e);
                    r.prescan[g].1.push(e - s);
                    g += 1;
                }
                let (out, stats) = layer
                    .kernel
                    .forward_counted(&h)
                    .map_err(|e| format!("ladder kernel: {e}"))?;
                if let Some(stats) = stats {
                    r.gate.merge(stats);
                }
                h = out.into_iter().map(|v| layer.activation.apply(v)).collect();
            }
            // Outputs checked above: client, infer, three lanes and the
            // kernel chain.
            r.calls += 6;
        }
    }
    Ok(r)
}

fn p50(samples: &[u64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50_us())
}

fn p99(samples: &[u64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.tail_us())
}

/// Times `RegistryStore::save` / `load` of the `mlp` artifact and
/// `Server::load_artifact` of fresh versions of it on the ladder server.
fn registry_probes(l: &Ladder, m: &mut Metrics) -> Result<(), String> {
    let mlp = &l.prepared[0].model;
    let mut artifact = ModelArtifact {
        name: "ladder-load".to_string(),
        version: 1,
        layers: mlp.layers.clone(),
    };
    let (mut enc, mut dec, mut load) = (Vec::new(), Vec::new(), Vec::new());
    for v in 0..PROBE_REPS {
        artifact.version = 1 + v as u32;
        let t = Instant::now();
        l.store.save(&artifact).map_err(|e| format!("save: {e}"))?;
        enc.push(elapsed_ns(t));
        let t = Instant::now();
        let back = l
            .store
            .load(&artifact.name, artifact.version)
            .map_err(|e| format!("load: {e}"))?;
        dec.push(elapsed_ns(t));
        let t = Instant::now();
        l.net
            .server()
            .load_artifact(&back, 0)
            .map_err(|e| format!("load_artifact: {e}"))?;
        load.push(elapsed_ns(t));
    }
    m.put("registry.encode_us.p50", p50(&enc), "us");
    m.put("registry.decode_us.p50", p50(&dec), "us");
    m.put("lifecycle.load_us.p50", p50(&load), "us");
    Ok(())
}

/// What the ladder hands back besides its metrics.
struct LadderOut {
    calls: u64,
    wrong: u64,
    /// The ladder server's telemetry.
    scrape: Scrape,
    /// `mlp` client latency minus the reply's `latency_us`, ns.
    overhead: Vec<u64>,
    /// `mlp` replies' `latency_us`, in ns.
    server: Vec<u64>,
}

/// Runs the ladder on every model and appends its per-layer metrics.
fn ladder_metrics(
    seed: u64,
    out: &Path,
    trace: &mut Trace,
    m: &mut Metrics,
) -> Result<LadderOut, String> {
    let mut l = Ladder::start(seed, out)?;
    let mut id = 1u64 << 32;
    let mut wrong = 0;
    let mut calls = 0;
    let (mut overhead, mut server) = (Vec::new(), Vec::new());
    for (name, ns) in &l.compress_ns {
        m.put(
            format!("pipeline.compress_ms.{name}"),
            *ns as f64 / 1e6,
            "ms",
        );
    }
    for i in 0..l.prepared.len() {
        let r = climb(&mut l, i, trace, &mut id)?;
        let name = l.prepared[i].name().to_string();
        wrong += r.wrong;
        calls += r.calls;
        for (k, kind) in KINDS.iter().enumerate() {
            m.put(
                format!("engine.lane_us.p50.{name}.{}", kind.name()),
                p50(&r.lane[k]),
                "us",
            );
        }
        for (layer, ns) in &r.layers {
            m.put(format!("engine.layer_us.p50.{name}.{layer}"), p50(ns), "us");
        }
        for (layer, ns) in &r.prescan {
            m.put(format!("gate.prescan_us.p50.{name}.{layer}"), p50(ns), "us");
        }
        m.put(
            format!("gate.skip_share.{name}"),
            r.gate.skip_fraction(),
            "ratio",
        );
        if i == 0 {
            // Self time by subtraction along the mlp ladder.
            let kernels: f64 = r.layers.iter().map(|(_, ns)| p50(ns)).sum();
            m.put("ladder.client_us.p50", p50(&r.client), "us");
            m.put("ladder.self_us.net", p50(&r.client) - p50(&r.infer), "us");
            m.put(
                "ladder.self_us.serve",
                p50(&r.infer) - p50(&r.lane[0]),
                "us",
            );
            m.put("ladder.self_us.lane", p50(&r.lane[0]) - kernels, "us");
            m.put("ladder.kernels_us", kernels, "us");
            m.put("serve.infer_us.p50", p50(&r.infer), "us");
            overhead = r.overhead;
            server = r.server_us;
        }
    }
    registry_probes(&l, m)?;
    let scrape = Scrape::of(l.net.server());
    drop(l.client);
    l.net.shutdown();
    Ok(LadderOut {
        calls,
        wrong,
        scrape,
        overhead,
        server,
    })
}

/// Client overhead and server latency percentiles of a serving path.
fn latency_split(m: &mut Metrics, overhead: &[u64], server: &[u64]) {
    m.put("net.overhead_us.p50", p50(overhead), "us");
    m.put("net.overhead_us.p99", p99(overhead), "us");
    m.put("serve.server_latency_us.p50", p50(server), "us");
    m.put("serve.server_latency_us.p99", p99(server), "us");
}

/// The traced run of `workload`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    rates: &Rates,
    out: &Path,
) -> Result<Outcome, String> {
    let half = seconds / 2.0;
    let mut trace = Trace::default();
    let mut m = Metrics::default();
    let mut ladder = Metrics::default();
    let lo = ladder_metrics(seed, out, &mut trace, &mut ladder)?;
    let mut attempted = lo.calls;
    let mut failed = lo.wrong;
    let mut correct = lo.wrong == 0;
    let mut valid = true;
    let (untraced, traced);
    match workload {
        Workload::EngineMix => {
            let a = engine::run(seed, half, out)?;
            let b = engine::run(seed, half, out)?;
            for (name, ns) in &b.engine.timings.compress_ns {
                trace.push(0, format!("setup.compress.{name}"), 0, *ns);
            }
            for o in [&a.outcome, &b.outcome] {
                attempted += o.attempted;
                failed += o.failed;
                correct &= o.correct;
            }
            // No server and no generator in this workload: the net and
            // serve figures come from the ladder's own server.
            latency_split(&mut m, &lo.overhead, &lo.server);
            m.put("gen.lag_us.p99", 0.0, "us");
            m.put("gen.backlog_max", 0.0, "count");
            m.put("lifecycle.evictions_per_load", 0.0, "ratio");
            m.put("lifecycle.resident_bytes.max", 0.0, "bytes");
            scraped_metrics(&mut m, &lo.scrape);
            untraced = a.outcome.metrics;
            traced = b.outcome.metrics;
        }
        Workload::ServeMix | Workload::LifecycleChurn => {
            let kind = workload.serving_kind();
            let mut stack: Stack = serving::start(kind, seed, out)?;
            crate::gen::pin_current_thread(0);
            let a = serving::run(&mut stack, kind, seed, half, rates, serving::Mode::Untraced)?;
            let b = serving::run(
                &mut stack,
                kind,
                seed ^ 1,
                half,
                rates,
                serving::Mode::Traced,
            )?;
            for (name, ns) in &stack.timings.compress_ns {
                trace.push(0, format!("setup.compress.{name}"), 0, *ns);
            }
            for (i, ns) in stack.timings.encode_ns.iter().enumerate() {
                trace.push(i as u64, "setup.registry_save", 0, *ns);
            }
            for (i, ns) in stack.timings.decode_ns.iter().enumerate() {
                trace.push(i as u64, "setup.registry_load", 0, *ns);
            }
            trace.records(&b.records);
            for r in [&a, &b] {
                attempted += r.attempted;
                failed += r.failed;
                correct &= r.correct;
                valid &= r.valid;
            }
            let low = b
                .phases
                .iter()
                .find(|p| p.name == "low")
                .ok_or("no low phase")?;
            let (mut overhead, mut server) = (Vec::new(), Vec::new());
            for r in &b.records {
                if let Reply::Output { server_us, .. } = r.reply {
                    overhead.push(r.latency_ns().saturating_sub(server_us * 1000));
                    server.push(server_us * 1000);
                }
            }
            latency_split(&mut m, &overhead, &server);
            m.put("gen.lag_us.p99", low.lag.map_or(0.0, |l| l.tail_us()), "us");
            let backlog = b.phases.iter().map(|p| p.backlog.max).max().unwrap_or(0);
            m.put("gen.backlog_max", backlog as f64, "count");
            let scrape = Scrape::of(stack.net.server());
            let loads: u64 = a
                .phases
                .iter()
                .chain(&b.phases)
                .map(|p| p.loads - p.loads_failed)
                .sum();
            m.put(
                "lifecycle.evictions_per_load",
                share(
                    scrape.value("serve_model_evictions_total", ""),
                    loads as f64,
                ),
                "ratio",
            );
            m.put(
                "lifecycle.resident_bytes.max",
                scrape.gauge_max("serve_resident_bytes"),
                "bytes",
            );
            scraped_metrics(&mut m, &scrape);
            stack.net.shutdown();
            untraced = a.e2e;
            traced = b.e2e;
        }
    }
    m.0.extend(ladder.0);
    for name in ["p50_us", "tail_us"] {
        let (a, b) = (
            untraced.get(name).unwrap_or(0.0),
            traced.get(name).unwrap_or(0.0),
        );
        m.put(
            format!("trace.overhead_pct.{name}"),
            share(b - a, a) * 100.0,
            "%",
        );
    }
    let spans = out.join(format!("{}-seed{seed}-spans.jsonl", workload.name()));
    trace.write(&spans)?;
    eprintln!("spans written to {}", spans.display());
    Ok(Outcome {
        correct,
        valid,
        attempted,
        failed,
        metrics: m,
        detail: vec![
            ("untraced_metrics".to_string(), untraced.to_json()),
            ("traced_metrics".to_string(), traced.to_json()),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_reads_sums_and_counts() {
        let text = concat!(
            "{\"name\":\"serve_batch_close_total\",\"kind\":\"counter\",\"labels\":{\"reason\":\"deadline\"},\"value\":3}\n",
            "{\"name\":\"serve_batch_close_total\",\"kind\":\"counter\",\"labels\":{\"reason\":\"size\"},\"value\":1}\n",
            "{\"name\":\"serve_batch_wait_us\",\"kind\":\"histogram\",\"labels\":{},\"count\":4,\"sum\":200,\"min\":1,\"max\":90,\"p50\":50,\"buckets\":[]}\n",
            "{\"name\":\"serve_resident_bytes\",\"kind\":\"gauge\",\"labels\":{},\"value\":5,\"max\":9}\n",
        );
        let s = Scrape(parse_scrape(text));
        assert_eq!(s.value("serve_batch_close_total", ""), 4.0);
        assert_eq!(
            s.value("serve_batch_close_total", "\"reason\":\"deadline\""),
            3.0
        );
        assert_eq!(s.mean("serve_batch_wait_us"), 50.0);
        assert_eq!(s.gauge_max("serve_resident_bytes"), 9.0);
        assert_eq!(s.value("missing", ""), 0.0);
    }
}
