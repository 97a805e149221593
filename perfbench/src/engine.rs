//! `engine-mix`: the compiled engine alone, in process, with no server.
//! One thread calls `CompiledLane::forward` on a sparse and a gated
//! lane of each of the four MLP variants, interleaved round-robin
//! inside every timing window, so slow drift of the host touches every
//! lane alike. The engine is CPU-bound and other tenants of the host
//! only ever slow it, so medians and rates are taken over the fastest
//! [`FAST_SHARE`] of windows, tails over the fastest [`FAST_BLOCKS`] of
//! blocks, and the thread alternates between the cores window by window
//! so a core slowed for a whole run is not all it sees.

use std::path::Path;
use std::time::Instant;

use cs_serve::CompiledLane;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::report::{Metrics, J};
use crate::serving::SETUP_REPS;
use crate::setup::{self, bits_equal, elapsed_ns, PrepTimings, Prepared, ScratchDir, Variant};
use crate::stats::{self, median, Summary};
use crate::Outcome;

/// Rounds over every lane in one timing window (about 30 ms): short
/// enough that every run holds windows between the host's bursts of
/// interference.
const ROUNDS_PER_WINDOW: usize = 256;

/// Share of windows, the fastest, that the medians come from.
const FAST_SHARE: f64 = 0.02;

/// Windows in one tail block: 1024 forwards per lane, enough for a p99.
const WINDOWS_PER_BLOCK: usize = 4;

/// Share of blocks, the fastest, that the tails come from: a block's
/// p99 rests on ten samples, so a wider share than the medians'.
const FAST_BLOCKS: f64 = 0.25;

/// Lane kinds, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    /// `ServableModel::sparse_lane`.
    Sparse,
    /// `ServableModel::gated_lane`.
    Gated,
    /// `ServableModel::dense_lane`, the reference.
    Dense,
}

impl LaneKind {
    /// Report label.
    pub fn name(self) -> &'static str {
        match self {
            LaneKind::Sparse => "sparse",
            LaneKind::Gated => "gated",
            LaneKind::Dense => "dense",
        }
    }

    /// Builds this kind of lane for `p`.
    pub fn compile(self, p: &Prepared) -> CompiledLane {
        match self {
            LaneKind::Sparse => p.model.sparse_lane(),
            LaneKind::Gated => p.model.gated_lane(),
            LaneKind::Dense => p.model.dense_lane(),
        }
    }
}

/// One lane under test.
pub struct Lane {
    /// Index of its model in the prepared set.
    pub model: usize,
    /// Its kind.
    pub kind: LaneKind,
    /// The compiled lane.
    pub lane: CompiledLane,
}

/// The engine's models with their reference outputs.
pub struct Engine {
    /// One per variant.
    pub prepared: Vec<Prepared>,
    /// Dense-lane outputs, parallel to `prepared`.
    pub reference: Vec<Vec<Vec<f32>>>,
    /// Step timings of the kept set-up.
    pub timings: PrepTimings,
    /// Wall time of each set-up repetition, s.
    pub setup_s: Vec<f64>,
}

/// Sets up [`SETUP_REPS`] times: compress, write and read back the
/// registry, and compile the sparse and gated lanes. Keeps the last.
pub fn start(seed: u64, out: &Path) -> Result<(Engine, Vec<Lane>), String> {
    let plan = Variant::ALL.iter().map(|&v| (v, 1, seed)).collect();
    let mut kept = None;
    let mut times = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let dir = ScratchDir::new(out, "registry")?;
        let (prepared, timings) = setup::prepare(&plan, dir.path(), seed)?;
        let lanes = compile(&prepared, &[LaneKind::Sparse, LaneKind::Gated]);
        times.push(t.elapsed().as_secs_f64());
        kept = Some((prepared, timings, lanes));
    }
    let (prepared, timings, lanes) = kept.ok_or("no set-up ran")?;
    let reference = prepared
        .iter()
        .map(setup::reference_outputs)
        .collect::<Result<_, _>>()?;
    Ok((
        Engine {
            prepared,
            reference,
            timings,
            setup_s: times,
        },
        lanes,
    ))
}

/// Every `kinds` lane of every prepared model, model-major.
pub fn compile(prepared: &[Prepared], kinds: &[LaneKind]) -> Vec<Lane> {
    let mut lanes = Vec::new();
    for (model, p) in prepared.iter().enumerate() {
        for &kind in kinds {
            lanes.push(Lane {
                model,
                kind,
                lane: kind.compile(p),
            });
        }
    }
    lanes
}

/// One timing window: every lane's forwards summarised, and forwards
/// per second of busy time for the sparse and the gated lanes.
pub struct Window {
    /// Per lane, parallel to the lanes timed.
    pub lanes: Vec<Summary>,
    /// Sparse-lane forwards per second of forward time.
    pub sparse_rate: f64,
    /// Gated-lane forwards per second of forward time.
    pub gated_rate: f64,
}

/// Forward timings of an interleaved run.
pub struct Timings {
    /// Every window in time order.
    pub windows: Vec<Window>,
    /// Forwards run.
    pub forwards: u64,
    /// Forwards whose output differed from the reference.
    pub wrong: u64,
    /// Per block of [`WINDOWS_PER_BLOCK`] windows, each lane's forwards
    /// summarised, parallel to the lanes timed.
    pub blocks: Vec<Vec<Summary>>,
}

/// Calls every lane round-robin for `seconds`, inputs drawn from the
/// seeded pool, checking every output against the reference.
pub fn run_interleaved(
    engine: &Engine,
    lanes: &[Lane],
    seed: u64,
    seconds: f64,
) -> Result<Timings, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE1E1_E1E1);
    let mut t = Timings {
        windows: Vec::new(),
        forwards: 0,
        wrong: 0,
        blocks: Vec::new(),
    };
    let mut samples: Vec<Vec<u64>> = vec![Vec::with_capacity(ROUNDS_PER_WINDOW); lanes.len()];
    let mut block: Vec<Vec<u64>> =
        vec![Vec::with_capacity(ROUNDS_PER_WINDOW * WINDOWS_PER_BLOCK); lanes.len()];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let window = t.windows.len();
        // Alternate cores window by window: on a shared host one core
        // can be slowed for seconds while the other runs free.
        crate::gen::pin_current_thread(window % cores);
        for round in 0..ROUNDS_PER_WINDOW {
            // Rotate the starting lane so no lane always follows the
            // same neighbour.
            for j in 0..lanes.len() {
                let i = (j + round + window) % lanes.len();
                let lane = &lanes[i];
                let input = (rng.next_u64() % setup::POOL as u64) as usize;
                let x = &engine.prepared[lane.model].inputs[input];
                let t0 = Instant::now();
                let y = std::hint::black_box(lane.lane.forward(std::hint::black_box(x)))
                    .map_err(|e| format!("forward: {e}"))?;
                let ns = elapsed_ns(t0);
                if !bits_equal(&y, &engine.reference[lane.model][input]) {
                    t.wrong += 1;
                }
                t.forwards += 1;
                samples[i].push(ns);
            }
        }
        let rate = |kind: LaneKind| {
            let (n, ns) = lanes
                .iter()
                .zip(&samples)
                .filter(|(l, _)| l.kind == kind)
                .fold((0usize, 0u64), |(n, ns), (_, s)| {
                    (n + s.len(), ns + s.iter().sum::<u64>())
                });
            n as f64 / (ns.max(1) as f64 / 1e9)
        };
        t.windows.push(Window {
            lanes: samples
                .iter()
                .map(|s| Summary::of(s).ok_or("a lane did not run"))
                .collect::<Result<_, _>>()?,
            sparse_rate: rate(LaneKind::Sparse),
            gated_rate: rate(LaneKind::Gated),
        });
        for (b, s) in block.iter_mut().zip(&mut samples) {
            b.append(s);
        }
        if t.windows.len().is_multiple_of(WINDOWS_PER_BLOCK) {
            t.blocks.push(
                block
                    .iter()
                    .map(|s| Summary::of(s).ok_or("a lane did not run"))
                    .collect::<Result<_, _>>()?,
            );
            block.iter_mut().for_each(Vec::clear);
        }
    }
    Ok(t)
}

/// The time of one forward through every model, µs, summed over the
/// `kind` lanes: per window the sum of lane medians, and per block the
/// sum of lane tails, in time order; and the tail's name.
fn lane_sums(t: &Timings, lanes: &[Lane], kind: LaneKind) -> (Vec<f64>, Vec<f64>, String) {
    let of_kind: Vec<usize> = (0..lanes.len())
        .filter(|&i| lanes[i].kind == kind)
        .collect();
    let p50s = t
        .windows
        .iter()
        .map(|w| of_kind.iter().map(|&i| w.lanes[i].p50_us()).sum())
        .collect();
    let tails = t
        .blocks
        .iter()
        .map(|b| of_kind.iter().map(|&i| b[i].tail_us()).sum())
        .collect();
    let label = t
        .blocks
        .first()
        .zip(of_kind.first())
        .map_or_else(String::new, |(b, &i)| b[i].tail_label());
    (p50s, tails, label)
}

/// Everything an engine-mix run produced.
pub struct EngineRun {
    /// Verdict and metrics.
    pub outcome: Outcome,
    /// The engine that ran.
    pub engine: Engine,
}

/// Runs engine-mix for `seconds`.
pub fn run(seed: u64, seconds: f64, out: &Path) -> Result<EngineRun, String> {
    let (engine, lanes) = start(seed, out)?;
    let t = run_interleaved(&engine, &lanes, seed, seconds)?;
    let setup_s = median(&engine.setup_s).unwrap_or(0.0);
    let error_rate = t.wrong as f64 / t.forwards.max(1) as f64;
    let rss = crate::host::peak_rss_mib();
    if t.blocks.is_empty() {
        return Err("engine-mix ran no tail block".to_string());
    }
    let (sp50s, stails, label) = lane_sums(&t, &lanes, LaneKind::Sparse);
    let (gp50s, gtails, glabel) = lane_sums(&t, &lanes, LaneKind::Gated);
    let sp50 = stats::fast_share(&sp50s, FAST_SHARE, false);
    let gp50 = stats::fast_share(&gp50s, FAST_SHARE, false);
    let stail = stats::fast_share(&stails, FAST_BLOCKS, false);
    let gtail = stats::fast_share(&gtails, FAST_BLOCKS, false);
    let rates = |f: fn(&Window) -> f64| t.windows.iter().map(f).collect::<Vec<_>>();
    let sparse_rate = stats::fast_share(&rates(|w| w.sparse_rate), FAST_SHARE, true);
    let gated_rate = stats::fast_share(&rates(|w| w.gated_rate), FAST_SHARE, true);
    let mut e2e = Metrics::default();
    e2e.put("setup_s", setup_s, "s");
    e2e.put("ok_rate", 1.0 - error_rate, "ratio");
    e2e.put("peak_rss_mb", rss, "MiB");
    e2e.put("p50_us", sp50, "us");
    e2e.put("tail_us", stail, "us");
    e2e.put("p50_us.heavy", gp50, "us");
    let mut named = Metrics::default();
    named.put("setup_s", setup_s, "s");
    named.put("error_rate", error_rate, "ratio");
    named.put("peak_rss_mb", rss, "MiB");
    named.put("infer_per_s", sparse_rate, "inf/s");
    named.put("infer_per_s.gated", gated_rate, "inf/s");
    named.put("sum_p50_us.sparse", sp50, "us");
    named.put(format!("sum_{label}_us.sparse"), stail, "us");
    named.put("sum_p50_us.gated", gp50, "us");
    named.put(format!("sum_{glabel}_us.gated"), gtail, "us");
    let mut per_lane = Vec::new();
    for (i, lane) in lanes.iter().enumerate() {
        let p50s: Vec<f64> = t.windows.iter().map(|w| w.lanes[i].p50_us()).collect();
        per_lane.push(J::obj([
            ("model", J::str(engine.prepared[lane.model].name())),
            ("lane", J::str(lane.kind.name())),
            ("windows", J::Int(p50s.len() as u64)),
            ("median_p50_us", J::Num(median(&p50s).unwrap_or(0.0))),
            (
                "fast_share_p50_us",
                J::Num(stats::fast_share(&p50s, FAST_SHARE, false)),
            ),
        ]));
    }
    eprint!("{}", named.table());
    let outcome = Outcome {
        correct: t.wrong == 0,
        valid: true,
        attempted: t.forwards,
        failed: t.wrong,
        metrics: e2e,
        detail: vec![
            ("named_metrics".to_string(), named.to_json()),
            ("lanes".to_string(), J::Arr(per_lane)),
            ("windows".to_string(), J::Int(t.windows.len() as u64)),
            (
                "window_infer_per_s".to_string(),
                J::Arr(rates(|w| w.sparse_rate).into_iter().map(J::Num).collect()),
            ),
            (
                "median_infer_per_s".to_string(),
                J::Num(median(&rates(|w| w.sparse_rate)).unwrap_or(0.0)),
            ),
            (
                "window_sum_p50_us.sparse".to_string(),
                J::Arr(sp50s.into_iter().map(J::Num).collect()),
            ),
            (
                format!("block_sum_{label}_us.sparse"),
                J::Arr(stails.into_iter().map(J::Num).collect()),
            ),
            (
                format!("block_sum_{glabel}_us.gated"),
                J::Arr(gtails.into_iter().map(J::Num).collect()),
            ),
        ],
    };
    Ok(EngineRun { outcome, engine })
}
