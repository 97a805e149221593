//! The two workloads that go through the network stack:
//!
//! * `serve-mix` — open-loop reads of three models from two tenants at
//!   the fixed `low` and `mid` rates, then a goodput search;
//! * `lifecycle-churn` — open-loop reads of `mlp` at the `low` rate on
//!   one connection while the other hot-loads a new version every
//!   period, so every load decodes a container, compiles lanes and
//!   evicts a version; then the same goodput search with churn on.
//!
//! The server runs in-process behind `NetServer` on loopback; load
//! comes from this thread alone through [`Generator`].

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cs_net::{ErrorCode, NetConfig, NetServer, Transport};
use cs_serve::{ExecBackend, ModelRegistry, MonotonicClock, Registry, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::gen::{self, Arrival, Backlog, Catalog, Generator, Op, Record, Reply};
use crate::goodput::{self, Probe};
use crate::report::{Metrics, J};
use crate::setup::{self, bits_equal, Plan, PrepTimings, Prepared, ScratchDir, Variant};
use crate::stats::{self, median, Summary, Windowed};

/// Worker threads of the server under test.
pub const WORKERS: usize = 2;
/// Connections the generator opens (the host's core count it is tuned for).
pub const CONNS: usize = 2;
/// Serve-mix tenants and their weighted-fair dequeue weights.
pub const TENANTS: [(&str, u32); 2] = [("tenant-a", 3), ("tenant-b", 1)];
/// Admission queue depth: twice what the connections can have
/// outstanding (`CONNS` × `NetConfig::max_pending_replies`), so the
/// queue never refuses what the frontend has already accepted.
/// Overload then shows as latency and backlog, which the goodput
/// search judges, instead of as refusals after a host stall.
pub const QUEUE_DEPTH: usize = 256;
/// Versions of `mlp` the churn cycles through.
pub const VERSIONS: u32 = 4;
/// Times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 15;
/// Load sent before any measurement starts, excluded.
const WARMUP: Duration = Duration::from_millis(500);
/// Head of every measured phase or rung excluded while queues settle.
const SETTLE_NS: u64 = 100_000_000;
/// Length of one goodput rung.
const RUNG_NS: u64 = 600_000_000;
/// Probes after which the goodput search gives up climbing.
const MAX_PROBES: usize = 48;
/// Share of a rung's due reads that must be answered within the rung:
/// below it the backlog is growing. In-flight requests at the rung's
/// two edges move the share by well under a percent.
const KEPT_UP: f64 = 0.97;
/// Pause before repeating a probe the generator spoiled.
const INVALID_PAUSE: Duration = Duration::from_millis(500);
/// How long a phase waits for stragglers after its last send.
const DRAIN: Duration = Duration::from_secs(2);
/// A phase whose p99 send lag exceeds this is invalid: the generator,
/// not the server, set its pace.
pub const LAG_BOUND_US: f64 = 10_000.0;

/// How a phase of `kind` offered at `rate_per_s` is cut into windows:
/// their length, ns, and the share of them, the fastest, its reported
/// latency comes from (see [`stats::Windowed`]).
fn windows(kind: Kind, rate_per_s: f64) -> (u64, f64) {
    match kind {
        Kind::Mix => (stats::window_ns(rate_per_s), 0.1),
        // A second holds 20 loads at the 50 ms period, so every window
        // sees the same churn rather than five loads falling one way or
        // another. A run has only about 25 such windows, and the edge
        // of their fastest tenth is set by two or three of them.
        Kind::Churn => (1_000_000_000, 0.25),
    }
}

/// The constants a serving run is parameterised by.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// The `low` fixed rate, req/s.
    pub low_rps: f64,
    /// The `mid` fixed rate, req/s.
    pub mid_rps: f64,
    /// The goodput search's p99 latency limit, µs.
    pub p99_limit_us: f64,
    /// Period between `LoadModel` frames in `lifecycle-churn`, ms.
    pub load_period_ms: f64,
}

/// Request and outcome counts for one phase or rung.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Phase name (`warmup`, `low`, `mid`, `rung-<k>`).
    pub name: String,
    /// The nominal offered rate, req/s.
    pub nominal_rps: f64,
    /// Read arrivals per second actually scheduled.
    pub offered_rps: f64,
    /// Reads sent.
    pub sent: u64,
    /// Reads answered with the right output.
    pub ok: u64,
    /// Reads refused with `Overloaded`.
    pub refused: u64,
    /// Reads answered with another error or not at all.
    pub failed: u64,
    /// Reads answered with a wrong output.
    pub wrong: u64,
    /// Reads inside the settling head, excluded from latency.
    pub warmup: u64,
    /// Read latency from the due time.
    pub latency: Option<Summary>,
    /// The same, per window, with medians across windows.
    pub windowed: Option<Windowed>,
    /// Windows in which every read succeeded, and all windows.
    pub clean_windows: (usize, usize),
    /// Median across windows of each window's p99 send lag, µs.
    pub lag_window_us: f64,
    /// The replies' own `latency_us`, in ns.
    pub server: Option<Summary>,
    /// Client latency minus the reply's `latency_us`.
    pub overhead: Option<Summary>,
    /// Send lag behind the schedule.
    pub lag: Option<Summary>,
    /// Outstanding requests during the phase.
    pub backlog: Backlog,
    /// Replies received inside the measured span over reads due in it:
    /// below 1 by more than boundary noise when the server falls behind.
    pub kept_up: f64,
    /// Correct completions per tenant.
    pub tenant_ok: Vec<u64>,
    /// `LoadModel` frames sent.
    pub loads: u64,
    /// Loads that failed.
    pub loads_failed: u64,
    /// Load round trips.
    pub load_latency: Option<Summary>,
    /// Load round trips, windowed as the reads.
    pub load_windowed: Option<Windowed>,
}

impl Phase {
    /// (refused + failed + wrong) / sent, over reads and loads.
    pub fn error_rate(&self) -> f64 {
        let attempted = self.sent + self.loads;
        if attempted == 0 {
            return 0.0;
        }
        (self.refused + self.failed + self.wrong + self.loads_failed) as f64 / attempted as f64
    }

    /// Whether the generator kept to the schedule in the median window.
    pub fn lag_ok(&self) -> bool {
        self.lag_window_us <= LAG_BOUND_US
    }

    /// The phase as a JSON object for the result file.
    pub fn to_json(&self) -> J {
        let summary = |s: &Option<Summary>| match s {
            Some(s) => J::obj([
                ("n", J::Int(s.n as u64)),
                ("p50_us", J::Num(s.p50_us())),
                ("tail", J::str(s.tail_label())),
                ("tail_us", J::Num(s.tail_us())),
            ]),
            None => J::obj::<&str>([]),
        };
        let ok_total = self.tenant_ok.iter().sum::<u64>().max(1) as f64;
        J::obj([
            ("name", J::str(&self.name)),
            ("nominal_rps", J::Num(self.nominal_rps)),
            ("offered_rps", J::Num(self.offered_rps)),
            ("sent", J::Int(self.sent)),
            ("succeeded", J::Int(self.ok)),
            ("refused_overloaded", J::Int(self.refused)),
            ("failed", J::Int(self.failed)),
            ("wrong_output", J::Int(self.wrong)),
            ("warmup_excluded", J::Int(self.warmup)),
            ("error_rate", J::Num(self.error_rate())),
            ("latency", summary(&self.latency)),
            (
                "latency_windowed",
                match &self.windowed {
                    Some(w) => J::obj([
                        ("windows", J::Int(w.windows as u64)),
                        ("median_p50_us", J::Num(w.p50_us)),
                        ("median_tail", J::str(&w.tail_label)),
                        ("median_tail_us", J::Num(w.tail_us)),
                        ("fast_p50_us", J::Num(w.fast_p50_us)),
                        ("fast_tail_us", J::Num(w.fast_tail_us)),
                        (
                            "p50_us",
                            J::Arr(w.p50s.iter().map(|&v| J::Num(v)).collect()),
                        ),
                        (
                            "tail_us",
                            J::Arr(w.tails.iter().map(|&v| J::Num(v)).collect()),
                        ),
                    ]),
                    None => J::obj::<&str>([]),
                },
            ),
            ("clean_windows", J::Int(self.clean_windows.0 as u64)),
            ("windows", J::Int(self.clean_windows.1 as u64)),
            ("gen_lag_window_p99_us", J::Num(self.lag_window_us)),
            ("server_latency", summary(&self.server)),
            ("net_overhead", summary(&self.overhead)),
            ("gen_lag", summary(&self.lag)),
            ("lag_ok", J::Bool(self.lag_ok())),
            (
                "backlog",
                J::obj([
                    ("at_end", J::Int(self.backlog.at_end as u64)),
                    ("max", J::Int(self.backlog.max as u64)),
                ]),
            ),
            (
                "tenant_share",
                J::Arr(
                    self.tenant_ok
                        .iter()
                        .map(|&n| J::Num(n as f64 / ok_total))
                        .collect(),
                ),
            ),
            ("kept_up", J::Num(self.kept_up)),
            ("loads", J::Int(self.loads)),
            ("loads_failed", J::Int(self.loads_failed)),
            ("load_latency", summary(&self.load_latency)),
            (
                "load_latency_windowed",
                match &self.load_windowed {
                    Some(w) => J::obj([
                        ("windows", J::Int(w.windows as u64)),
                        ("median_p50_us", J::Num(w.p50_us)),
                        ("fast_p50_us", J::Num(w.fast_p50_us)),
                        (
                            "p50_us",
                            J::Arr(w.p50s.iter().map(|&v| J::Num(v)).collect()),
                        ),
                    ]),
                    None => J::obj::<&str>([]),
                },
            ),
        ])
    }
}

/// The serving stack under test with the generator attached.
pub struct Stack {
    /// The network frontend (owns the server).
    pub net: NetServer,
    /// The generator.
    pub generator: Generator,
    /// Every stored model.
    pub prepared: Vec<Prepared>,
    /// Reference outputs, parallel to `prepared`.
    pub reference: Vec<Vec<Vec<f32>>>,
    /// Set-up step timings of the kept stack.
    pub timings: PrepTimings,
    /// Wall time of each set-up repetition, s.
    pub setup_s: Vec<f64>,
    /// Every `LoadModel` sent so far, for judging churned reads.
    history: LoadHistory,
    /// The version the next `LoadModel` asks for.
    next_version: u32,
    _registry_dir: ScratchDir,
}

/// Which serving workload a stack is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `serve-mix`.
    Mix,
    /// `lifecycle-churn`.
    Churn,
}

impl Kind {
    fn plan(self, seed: u64) -> Plan {
        match self {
            Kind::Mix => [Variant::Mlp, Variant::TwoFour, Variant::BankBalanced]
                .into_iter()
                .map(|v| (v, 1, seed))
                .collect(),
            Kind::Churn => (1..=VERSIONS)
                .map(|v| (Variant::Mlp, v, seed.wrapping_add(u64::from(v) * 7919)))
                .collect(),
        }
    }
}

/// One set-up: compress, write and read back the registry, start the
/// server (models loaded from the decoded artifacts) and connect.
fn set_up(kind: Kind, seed: u64, out: &Path) -> Result<(Stack, f64), String> {
    let t = Instant::now();
    let dir = ScratchDir::new(out, "registry")?;
    let (prepared, timings) = setup::prepare(&kind.plan(seed), dir.path(), seed)?;
    let telemetry = Arc::new(Registry::new());
    let mut cfg = ServeConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        backend: ExecBackend::Sparse,
        ..ServeConfig::default()
    };
    let initial: Vec<&Prepared> = match kind {
        Kind::Mix => {
            cfg.tenant_weights = TENANTS.iter().map(|(t, w)| (t.to_string(), *w)).collect();
            prepared.iter().collect()
        }
        Kind::Churn => {
            // Room for two versions: every load past the second evicts.
            let one = cs_registry::ModelArtifact {
                name: prepared[0].model.name.clone(),
                version: 1,
                layers: prepared[0].model.layers.clone(),
            }
            .resident_bytes();
            cfg.memory_budget_bytes = one * 5 / 2;
            vec![&prepared[0]]
        }
    };
    let serve = Server::start_with_recorder(
        ModelRegistry::new(),
        cfg,
        Arc::new(MonotonicClock::new()),
        telemetry.clone(),
    )
    .map_err(|e| format!("starting server: {e}"))?;
    for p in initial {
        serve
            .load_servable(p.model.clone(), p.version, 0)
            .map_err(|e| format!("loading {}: {e}", p.name()))?;
    }
    let net_cfg = NetConfig {
        transport: Transport::Reactor,
        registry_dir: Some(dir.path().display().to_string()),
        ..NetConfig::default()
    };
    let net = NetServer::start_with_recorder(serve, net_cfg, telemetry)
        .map_err(|e| format!("starting frontend: {e}"))?;
    let catalog = match kind {
        Kind::Mix => Catalog {
            models: prepared.iter().map(|p| p.name().to_string()).collect(),
            inputs: prepared.iter().map(|p| p.inputs.clone()).collect(),
            tenants: TENANTS.iter().map(|(t, _)| t.to_string()).collect(),
            churned: String::new(),
        },
        Kind::Churn => Catalog {
            models: vec![prepared[0].name().to_string()],
            inputs: vec![prepared[0].inputs.clone()],
            tenants: vec![String::new()],
            churned: prepared[0].name().to_string(),
        },
    };
    let generator = Generator::connect(net.local_addr(), CONNS, catalog)?;
    let secs = t.elapsed().as_secs_f64();
    Ok((
        Stack {
            net,
            generator,
            prepared,
            reference: Vec::new(),
            timings,
            setup_s: Vec::new(),
            history: LoadHistory::default(),
            next_version: 1,
            _registry_dir: dir,
        },
        secs,
    ))
}

/// Sets up [`SETUP_REPS`] times, keeps the last stack, and computes the
/// reference outputs (outside the timed set-up).
pub fn start(kind: Kind, seed: u64, out: &Path) -> Result<Stack, String> {
    let mut times = Vec::new();
    let mut kept: Option<Stack> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            old.net.shutdown();
        }
        let (stack, secs) = set_up(kind, seed, out)?;
        times.push(secs);
        kept = Some(stack);
    }
    let mut stack = kept.ok_or("no set-up ran")?;
    stack.setup_s = times;
    stack.reference = stack
        .prepared
        .iter()
        .map(setup::reference_outputs)
        .collect::<Result<_, _>>()?;
    Ok(stack)
}

/// When each version was primary: loads in send order with their ack
/// times, for judging churned reads.
#[derive(Debug, Clone, Default)]
pub struct LoadHistory {
    /// `(version, sent_ns, acked_ns)`.
    loads: Vec<(u32, u64, u64)>,
}

impl LoadHistory {
    fn extend(&mut self, records: &[Record]) {
        for r in records {
            if let Op::Load { version } = r.arrival.op {
                self.loads.push((version, r.sent_ns, r.done_ns));
            }
        }
        self.loads.sort_by_key(|l| l.1);
    }

    /// Versions that may have answered a read in flight over
    /// `[sent, done]`: version 1 until the first load is acked, and
    /// each loaded version from its send until the next load's ack.
    fn allowed(&self, sent: u64, done: u64) -> Vec<u32> {
        let mut out = Vec::new();
        let first_ack = self.loads.first().map_or(u64::MAX, |l| l.2);
        if sent <= first_ack {
            out.push(1);
        }
        for (i, &(version, from, _)) in self.loads.iter().enumerate() {
            let until = self.loads.get(i + 1).map_or(u64::MAX, |l| l.2);
            if from <= done && sent <= until {
                out.push(version);
            }
        }
        out
    }
}

/// Runs one schedule and tallies it. `measure_from` is the due time
/// before which reads count as warm-up.
fn run_phase(
    stack: &mut Stack,
    kind: Kind,
    name: String,
    nominal_rps: f64,
    schedule: &[Arrival],
    (measure_from, end): (u64, u64),
) -> Result<(Phase, Vec<Record>), String> {
    let (records, backlog) = stack.generator.run(schedule, DRAIN)?;
    stack.history.extend(&records);
    let history = &stack.history;
    let mut p = Phase {
        name,
        nominal_rps,
        backlog,
        tenant_ok: vec![0; TENANTS.len()],
        ..Phase::default()
    };
    let mut latency = Vec::new();
    let mut server = Vec::new();
    let mut overhead = Vec::new();
    let mut lag = Vec::new();
    let mut load_latency = Vec::new();
    let mut load_timed = Vec::new();
    let mut reads_measured = 0u64;
    let mut replies_measured = 0u64;
    let mut timed = Vec::new();
    let mut lag_timed = Vec::new();
    let mut bad_at = Vec::new();
    for r in &records {
        if r.arrival.due_ns >= measure_from {
            lag.push(r.lag_ns());
            lag_timed.push((r.arrival.due_ns, r.lag_ns()));
        }
        match (r.arrival.op, &r.reply) {
            (Op::Load { .. }, Reply::Loaded) => {
                p.loads += 1;
                if r.arrival.due_ns >= measure_from {
                    load_latency.push(r.latency_ns());
                    load_timed.push((r.arrival.due_ns, r.latency_ns()));
                }
            }
            (Op::Load { .. }, _) => {
                p.loads += 1;
                p.loads_failed += 1;
            }
            (
                Op::Read {
                    model,
                    tenant,
                    input,
                },
                reply,
            ) => {
                p.sent += 1;
                if reply != &Reply::Lost && (measure_from..end).contains(&r.done_ns) {
                    replies_measured += 1;
                }
                let measured = r.arrival.due_ns >= measure_from;
                if measured {
                    reads_measured += 1;
                } else {
                    p.warmup += 1;
                }
                match reply {
                    Reply::Output { outputs, server_us } => {
                        let right = match kind {
                            Kind::Mix => bits_equal(outputs, &stack.reference[model][input]),
                            Kind::Churn => history.allowed(r.sent_ns, r.done_ns).iter().any(|&v| {
                                bits_equal(outputs, &stack.reference[v as usize - 1][input])
                            }),
                        };
                        if !right {
                            p.wrong += 1;
                            bad_at.push(r.arrival.due_ns);
                            continue;
                        }
                        p.ok += 1;
                        if kind == Kind::Mix {
                            p.tenant_ok[tenant] += 1;
                        }
                        if measured {
                            timed.push((r.arrival.due_ns, r.latency_ns()));
                            latency.push(r.latency_ns());
                            server.push(server_us * 1000);
                            overhead.push(r.latency_ns().saturating_sub(server_us * 1000));
                        }
                    }
                    Reply::Error(ErrorCode::Overloaded) => {
                        p.refused += 1;
                        bad_at.push(r.arrival.due_ns);
                    }
                    _ => {
                        p.failed += 1;
                        bad_at.push(r.arrival.due_ns);
                    }
                }
            }
        }
    }
    if end > measure_from {
        p.offered_rps = reads_measured as f64 / ((end - measure_from) as f64 / 1e9);
        p.kept_up = replies_measured as f64 / reads_measured.max(1) as f64;
        let (window, fast) = windows(kind, nominal_rps);
        p.windowed = stats::windowed(&timed, (measure_from, end), window, fast);
        p.load_windowed = stats::windowed(&load_timed, (measure_from, end), window, fast);
        p.lag_window_us = stats::windowed(&lag_timed, (measure_from, end), window, fast)
            .map_or(0.0, |w| w.tail_us);
        let count = ((end - measure_from) / window).max(1) as usize;
        let mut clean = vec![true; count];
        for t in bad_at.into_iter().filter(|&t| t >= measure_from && t < end) {
            clean[(((t - measure_from) / window) as usize).min(count - 1)] = false;
        }
        p.clean_windows = (clean.iter().filter(|&&c| c).count(), count);
    }
    p.latency = Summary::of(&latency);
    p.server = Summary::of(&server);
    p.overhead = Summary::of(&overhead);
    p.lag = Summary::of(&lag);
    p.load_latency = Summary::of(&load_latency);
    Ok((p, records))
}

/// The schedule of one phase: Poisson reads at `rps` over `dur_ns`
/// starting 1 ms from now, plus periodic loads on the second
/// connection for churn. Returns the schedule and its time span.
fn schedule(
    stack: &mut Stack,
    kind: Kind,
    rng: &mut StdRng,
    rps: f64,
    dur_ns: u64,
    rates: &Rates,
) -> (Vec<Arrival>, (u64, u64)) {
    let start = stack.generator.now_ns() + 1_000_000;
    let span = (start, start + dur_ns);
    match kind {
        Kind::Mix => {
            let reads = gen::poisson(rng, rps, span, &[0, 1], |r| Op::Read {
                model: (r.next_u64() % 3) as usize,
                tenant: (r.next_u64() % TENANTS.len() as u64) as usize,
                input: (r.next_u64() % setup::POOL as u64) as usize,
            });
            (reads, span)
        }
        Kind::Churn => {
            let reads = gen::poisson(rng, rps, span, &[0], |r| Op::Read {
                model: 0,
                tenant: 0,
                input: (r.next_u64() % setup::POOL as u64) as usize,
            });
            let period = (rates.load_period_ms * 1e6) as u64;
            let mut loads = Vec::new();
            let mut t = start + period / 2;
            while t < span.1 {
                stack.next_version = stack.next_version % VERSIONS + 1;
                loads.push(Arrival {
                    due_ns: t,
                    conn: 1,
                    op: Op::Load {
                        version: stack.next_version,
                    },
                });
                t += period;
            }
            (gen::merge(reads, loads), span)
        }
    }
}

/// The goodput search, starting at the first rung at or above `mid`.
/// It is not part of `--seconds`: it climbs until the server stops
/// meeting the conditions, so a faster server is never capped by the
/// run length. Returns the offered rate of the highest passing rung.
fn goodput_search(
    stack: &mut Stack,
    kind: Kind,
    rng: &mut StdRng,
    rates: &Rates,
    phases: &mut Vec<Phase>,
) -> Result<f64, String> {
    let mut probes = 0;
    let mut last = Probe::Pass;
    let mut rung_offered = std::collections::BTreeMap::new();
    let base = rates.low_rps;
    let start_rung = goodput::rung_at_or_above(base, rates.mid_rps);
    let found = goodput::search(start_rung, 200, |k| -> Result<Probe, String> {
        if probes == MAX_PROBES {
            return Ok(Probe::Stop);
        }
        probes += 1;
        if last == Probe::Invalid {
            // Let a host disturbance pass before probing again.
            std::thread::sleep(INVALID_PAUSE);
        }
        let rps = goodput::rung(base, k);
        let (sched, span) = schedule(stack, kind, rng, rps, RUNG_NS, rates);
        let (p, _) = run_phase(
            stack,
            kind,
            format!("rung-{k}"),
            rps,
            &sched,
            (span.0 + SETTLE_NS, span.1),
        )?;
        // A generator late by a quarter of the limit could alone push
        // the tail over it: such a probe judges the client, not the
        // server, and is repeated.
        let verdict = if p.lag_window_us > rates.p99_limit_us / 4.0 {
            Probe::Invalid
        } else if p
            .windowed
            .as_ref()
            .is_some_and(|w| w.tail_us <= rates.p99_limit_us)
            && p.wrong + p.loads_failed == 0
            && p.clean_windows.0 * 2 > p.clean_windows.1
            && p.kept_up >= KEPT_UP
        {
            rung_offered.insert(k, p.offered_rps);
            Probe::Pass
        } else {
            Probe::Fail
        };
        phases.push(p);
        last = verdict;
        Ok(verdict)
    })?;
    Ok(found
        .and_then(|k| rung_offered.get(&k).copied())
        .unwrap_or(0.0))
}

/// Loads sent back to back in one burst.
const BURST_LOADS: usize = 16;
/// Bursts in the load-throughput phase, one every [`BURST_GAP_NS`].
const BURSTS: u64 = 80;
/// Spacing of the bursts.
const BURST_GAP_NS: u64 = 50_000_000;

/// Hot-load throughput under reads: while connection 1 keeps reading at
/// `low`, connection 2 pipelines [`BURST_LOADS`] `LoadModel` frames at
/// once, [`BURSTS`] times. The server runs a connection's frames in
/// order, so a burst measures loads back to back. Returns the fast
/// decile over bursts (see [`stats::fast_share`]: a load is CPU-bound
/// work that host interference only slows) of loads per
/// second from the burst's send to its last ack.
fn load_bursts(
    stack: &mut Stack,
    rng: &mut StdRng,
    rates: &Rates,
    phases: &mut Vec<Phase>,
) -> Result<f64, String> {
    let start = stack.generator.now_ns() + 1_000_000;
    let span = (start, start + BURSTS * BURST_GAP_NS);
    let reads = gen::poisson(rng, rates.low_rps, span, &[0], |r| Op::Read {
        model: 0,
        tenant: 0,
        input: (r.next_u64() % setup::POOL as u64) as usize,
    });
    let mut loads = Vec::new();
    for b in 0..BURSTS {
        for _ in 0..BURST_LOADS {
            stack.next_version = stack.next_version % VERSIONS + 1;
            loads.push(Arrival {
                due_ns: start + b * BURST_GAP_NS + BURST_GAP_NS / 4,
                conn: 1,
                op: Op::Load {
                    version: stack.next_version,
                },
            });
        }
    }
    let sched = gen::merge(reads, loads);
    let (p, records) = run_phase(
        stack,
        Kind::Churn,
        "burst".into(),
        rates.low_rps,
        &sched,
        (span.0 + SETTLE_NS, span.1),
    )?;
    let mut per_burst: std::collections::BTreeMap<u64, (usize, u64)> = Default::default();
    for r in &records {
        if let (Op::Load { .. }, Reply::Loaded) = (r.arrival.op, &r.reply) {
            let e = per_burst.entry(r.arrival.due_ns).or_insert((0, 0));
            e.0 += 1;
            e.1 = e.1.max(r.done_ns);
        }
    }
    let rates_per_burst: Vec<f64> = per_burst
        .iter()
        .filter(|(_, (n, _))| *n == BURST_LOADS)
        .map(|(due, (n, last))| *n as f64 / ((last - due) as f64 / 1e9))
        .collect();
    phases.push(p);
    if rates_per_burst.is_empty() {
        return Err("no load burst completed".to_string());
    }
    Ok(stats::fast_share(&rates_per_burst, 0.1, true))
}

/// How much of a serving run to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Fixed rates and the goodput search.
    Full,
    /// Fixed rates only (the traced run's untraced half).
    Untraced,
    /// Everything, keeping each fixed-rate record as a span.
    Traced,
}

/// Everything a serving run produced.
pub struct ServingRun {
    /// End-to-end metrics, as the verdict line names them.
    pub e2e: Metrics,
    /// Metrics under the names of the workload's definition.
    pub named: Metrics,
    /// Every phase and rung.
    pub phases: Vec<Phase>,
    /// Every record of the measured phases (the traced run's spans).
    pub records: Vec<Record>,
    /// Whether every reply was right.
    pub correct: bool,
    /// Whether the generator kept to the schedule in every fixed-rate phase.
    pub valid: bool,
    /// Operations attempted and failed over the whole run.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
}

/// Runs `serve-mix` or `lifecycle-churn` for about `seconds`.
pub fn run(
    stack: &mut Stack,
    kind: Kind,
    seed: u64,
    seconds: f64,
    rates: &Rates,
    mode: Mode,
) -> Result<ServingRun, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0005_EED0_FA77);
    let mut phases = Vec::new();
    let mut kept = Vec::new();
    let secs_ns = |s: f64| (s * 1e9) as u64;

    // Warm-up at the low rate, excluded entirely.
    let (sched, span) = schedule(
        stack,
        kind,
        &mut rng,
        rates.low_rps,
        WARMUP.as_nanos() as u64,
        rates,
    );
    let (warm, _) = run_phase(
        stack,
        kind,
        "warmup".into(),
        rates.low_rps,
        &sched,
        (span.1, span.1),
    )?;
    phases.push(warm);

    // Fixed rates fill `seconds`: serve-mix splits it between low and
    // mid, churn spends it all at low.
    let fixed: Vec<(&str, f64, f64)> = match kind {
        Kind::Mix => vec![("low", rates.low_rps, 0.5), ("mid", rates.mid_rps, 0.5)],
        Kind::Churn => vec![("low", rates.low_rps, 1.0)],
    };
    for (name, rps, share) in fixed {
        let (sched, span) = schedule(stack, kind, &mut rng, rps, secs_ns(seconds * share), rates);
        let (p, recs) = run_phase(
            stack,
            kind,
            name.into(),
            rps,
            &sched,
            (span.0 + SETTLE_NS, span.1),
        )?;
        phases.push(p);
        if mode == Mode::Traced {
            kept.extend(recs);
        }
    }

    let throughput = match (mode, kind) {
        (Mode::Untraced, _) => 0.0,
        (_, Kind::Mix) => goodput_search(stack, kind, &mut rng, rates, &mut phases)?,
        (_, Kind::Churn) => load_bursts(stack, &mut rng, rates, &mut phases)?,
    };

    // Rungs above capacity fail by design; the verdict counts the
    // fixed-rate phases, and wrong outputs anywhere.
    let mut attempted = 0;
    let mut failed = 0;
    let mut wrong = 0;
    for p in &phases {
        wrong += p.wrong;
        if !p.name.starts_with("rung") {
            attempted += p.sent + p.loads;
            failed += p.refused + p.failed + p.loads_failed + p.wrong;
        }
    }
    let fixed_phases: Vec<&Phase> = phases
        .iter()
        .filter(|p| p.name == "low" || p.name == "mid")
        .collect();
    let valid = fixed_phases.iter().all(|p| p.lag_ok());
    let low = fixed_phases[0];
    let heavy_phase = fixed_phases.get(1).copied();
    let lat = |p: &Phase| {
        p.windowed
            .clone()
            .ok_or_else(|| format!("no latency samples in phase {}", p.name))
    };

    let mut e2e = Metrics::default();
    let mut named = Metrics::default();
    let setup_s = median(&stack.setup_s).unwrap_or(0.0);
    let error_rate = if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    };
    let rss = crate::host::peak_rss_mib();
    let low_lat = lat(low)?;
    e2e.put("setup_s", setup_s, "s");
    e2e.put("ok_rate", 1.0 - error_rate, "ratio");
    e2e.put("peak_rss_mb", rss, "MiB");
    e2e.put("p50_us", low_lat.fast_p50_us, "us");
    e2e.put("tail_us", low_lat.fast_tail_us, "us");
    named.put("setup_s", setup_s, "s");
    named.put("error_rate", error_rate, "ratio");
    named.put("peak_rss_mb", rss, "MiB");
    named.put("p50_us.low", low_lat.fast_p50_us, "us");
    named.put(
        format!("{}_us.low", low_lat.tail_label),
        low_lat.fast_tail_us,
        "us",
    );
    match kind {
        Kind::Mix => {
            let mid = lat(heavy_phase.ok_or("no mid phase")?)?;
            e2e.put("p50_us.heavy", mid.fast_p50_us, "us");
            named.put("p50_us.mid", mid.fast_p50_us, "us");
            named.put(format!("{}_us.mid", mid.tail_label), mid.fast_tail_us, "us");
            named.put("goodput_rps", throughput, "req/s");
        }
        Kind::Churn => {
            let loads = low
                .load_latency
                .ok_or("no LoadModel completed in the low phase")?;
            let fast_p50_us = low
                .load_windowed
                .as_ref()
                .ok_or("no LoadModel completed in the low phase")?
                .fast_p50_us;
            e2e.put("p50_us.heavy", fast_p50_us, "us");
            named.put("load_p50_ms", fast_p50_us / 1e3, "ms");
            named.put(
                format!("load_{}_ms", loads.tail_label()),
                loads.tail_us() / 1e3,
                "ms",
            );
            named.put("loads_per_s", throughput, "loads/s");
        }
    }
    Ok(ServingRun {
        e2e,
        named,
        phases,
        records: kept,
        correct: wrong == 0,
        valid,
        attempted,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(version: u32, sent_ns: u64, done_ns: u64) -> Record {
        Record {
            arrival: Arrival {
                due_ns: sent_ns,
                conn: 1,
                op: Op::Load { version },
            },
            sent_ns,
            done_ns,
            reply: Reply::Loaded,
        }
    }

    #[test]
    fn churned_reads_may_match_only_versions_primary_while_in_flight() {
        let mut h = LoadHistory::default();
        // v2 loaded over [100, 150], v3 over [300, 320].
        h.extend(&[load(2, 100, 150), load(3, 300, 320)]);
        assert_eq!(h.allowed(10, 50), vec![1]);
        // In flight while v2 was loading: either version.
        assert_eq!(h.allowed(90, 120), vec![1, 2]);
        // Sent after v2's ack and done before v3's send: only v2.
        assert_eq!(h.allowed(160, 200), vec![2]);
        // Overlapping v3's load: v2 or v3, never v1.
        assert_eq!(h.allowed(250, 310), vec![2, 3]);
        assert_eq!(h.allowed(400, 450), vec![3]);
    }
}
