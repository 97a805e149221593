//! What a result depends on besides the code: the host it ran on and
//! the process's own memory high-water mark.

use std::path::Path;
use std::process::Command;

/// The host a result was measured on. Results from hosts whose records
/// differ must not be compared.
#[derive(Debug, Clone)]
pub struct HostRecord {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V` of the toolchain on `PATH`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
}

impl HostRecord {
    /// Probes the running host.
    pub fn probe() -> HostRecord {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        HostRecord {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["-V"]),
            git_commit: git_commit(),
        }
    }
}

/// The commit of the checkout this benchmark was built in. The search
/// for a repository stops at the checkout's parent, so a checkout that
/// is not a repository reads `unknown` instead of an enclosing
/// repository's commit.
fn git_commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut cmd = Command::new("git");
    cmd.args(["rev-parse", "HEAD"]).current_dir(&root);
    if let Some(parent) = root
        .canonicalize()
        .ok()
        .and_then(|r| r.parent().map(Path::to_path_buf))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    first_line(cmd)
}

/// First line of a command's standard output, or `unknown` when it
/// cannot run or fails.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    first_line(cmd)
}

/// `output` waits for the child to exit.
fn first_line(mut cmd: Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
