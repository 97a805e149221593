//! `perfbench` — one benchmark from the client socket down to each
//! layer kernel. See `README.md` in this directory for the workloads,
//! the metrics and what each one should move.
//!
//! ```text
//! perfbench --workload <serve-mix|engine-mix|lifecycle-churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//!           --low-rps <r> --mid-rps <r> --p99-limit-us <us> --load-period-ms <ms>
//! ```
//!
//! The last line of standard output is the verdict:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exit codes: 0 done, 1 usage or set-up error, 3 a wrong output,
//! 4 the generator fell behind its schedule (the run is invalid).

mod engine;
mod gen;
mod goodput;
mod host;
mod report;
mod serving;
mod setup;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Metrics, J};
use serving::Rates;

/// Where result files and scratch registries go.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeMix,
    EngineMix,
    LifecycleChurn,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve-mix" => Some(Workload::ServeMix),
            "engine-mix" => Some(Workload::EngineMix),
            "lifecycle-churn" => Some(Workload::LifecycleChurn),
            _ => None,
        }
    }

    /// The serving stack this workload drives (asked only of
    /// `serve-mix` and `lifecycle-churn`).
    fn serving_kind(self) -> serving::Kind {
        if self == Workload::ServeMix {
            serving::Kind::Mix
        } else {
            serving::Kind::Churn
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeMix => "serve-mix",
            Workload::EngineMix => "engine-mix",
            Workload::LifecycleChurn => "lifecycle-churn",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rates: Rates,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<f64, String> {
        let v: f64 = get(k)?.parse().map_err(|e| format!("--{k}: {e}"))?;
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(format!("--{k} must be positive"))
        }
    };
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", kv["workload"]))?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: num("seconds")?,
        trace,
        rates: Rates {
            low_rps: num("low-rps")?,
            mid_rps: num("mid-rps")?,
            p99_limit_us: num("p99-limit-us")?,
            load_period_ms: num("load-period-ms")?,
        },
    })
}

/// What one workload run hands back to `main`.
pub struct Outcome {
    /// Every output matched its reference.
    pub correct: bool,
    /// The generator kept to its schedule.
    pub valid: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or were wrong.
    pub failed: u64,
    /// The metrics the verdict line carries.
    pub metrics: Metrics,
    /// Everything else, for the result file.
    pub detail: Vec<(String, J)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: creating {}: {e}", out.display());
        return ExitCode::from(1);
    }
    let host = host::HostRecord::probe();
    eprintln!(
        "perfbench {} seed {} for {} s, trace {}; host: nproc {}, {}, {}, commit {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        host.cpu_model,
        host.rustc,
        host.git_commit
    );
    let run = || {
        if args.trace {
            trace::run(args.workload, args.seed, args.seconds, &args.rates, &out)
        } else {
            run_workload(args.workload, args.seed, args.seconds, &args.rates, &out)
        }
    };
    let result = gen::with_cores_awake(run);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    eprint!("{}", outcome.metrics.table());
    let record = J::obj(
        [
            ("workload", J::str(args.workload.name())),
            ("seed", J::Int(args.seed)),
            ("seconds", J::Num(args.seconds)),
            ("trace", J::Bool(args.trace)),
            (
                "host",
                J::obj([
                    ("nproc", J::Int(host.nproc as u64)),
                    ("cpu_model", J::str(&host.cpu_model)),
                    ("rustc", J::str(&host.rustc)),
                    ("git_commit", J::str(&host.git_commit)),
                ]),
            ),
            ("correct", J::Bool(outcome.correct)),
            ("valid", J::Bool(outcome.valid)),
            ("metrics", outcome.metrics.to_json()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .chain(outcome.detail.iter().cloned())
        .collect::<Vec<_>>(),
    );
    let file = out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&file, format!("{record}\n")) {
        eprintln!("perfbench: writing {}: {e}", file.display());
        return ExitCode::from(1);
    }
    eprintln!("result file: {}", file.display());
    if !outcome.correct {
        eprintln!("perfbench: WRONG OUTPUT — a reply differed from the dense-lane reference");
    }
    if !outcome.valid {
        eprintln!(
            "perfbench: INVALID RUN — the generator's p99 send lag exceeded {} us",
            serving::LAG_BOUND_US
        );
    }
    println!(
        "{}",
        J::obj([
            ("correct", J::Bool(outcome.correct)),
            ("attempted", J::Int(outcome.attempted)),
            ("failed", J::Int(outcome.failed)),
            ("metrics", outcome.metrics.to_json()),
        ])
    );
    if !outcome.correct {
        ExitCode::from(3)
    } else if !outcome.valid {
        ExitCode::from(4)
    } else {
        ExitCode::SUCCESS
    }
}

/// An untraced run of `workload`.
fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    rates: &Rates,
    out: &std::path::Path,
) -> Result<Outcome, String> {
    match workload {
        Workload::EngineMix => engine::run(seed, seconds, out).map(|r| r.outcome),
        Workload::ServeMix | Workload::LifecycleChurn => {
            let kind = workload.serving_kind();
            let mut stack = serving::start(kind, seed, out)?;
            gen::pin_current_thread(0);
            let run = serving::run(&mut stack, kind, seed, seconds, rates, serving::Mode::Full)?;
            stack.net.shutdown();
            Ok(serving_outcome(run))
        }
    }
}

/// Converts a serving run into the verdict and result-file detail.
fn serving_outcome(run: serving::ServingRun) -> Outcome {
    eprintln!(
        "{:<9} {:>9} {:>7} {:>7} {:>5} {:>5} {:>5} {:>9} {:>9} {:>7}",
        "phase", "rps", "sent", "ok", "ref", "fail", "wrong", "med_p50", "med_tail", "lag_us"
    );
    for p in &run.phases {
        let (p50, tail) = p
            .windowed
            .as_ref()
            .map_or((0.0, 0.0), |w| (w.p50_us, w.tail_us));
        eprintln!(
            "{:<9} {:>9.0} {:>7} {:>7} {:>5} {:>5} {:>5} {:>9.1} {:>9.1} {:>7.1}",
            p.name,
            p.offered_rps,
            p.sent,
            p.ok,
            p.refused,
            p.failed,
            p.wrong,
            p50,
            tail,
            p.lag_window_us
        );
    }
    eprint!("{}", run.named.table());
    Outcome {
        correct: run.correct,
        valid: run.valid,
        attempted: run.attempted,
        failed: run.failed,
        metrics: run.e2e,
        detail: vec![
            ("named_metrics".to_string(), run.named.to_json()),
            (
                "phases".to_string(),
                J::Arr(run.phases.iter().map(serving::Phase::to_json).collect()),
            ),
        ],
    }
}
