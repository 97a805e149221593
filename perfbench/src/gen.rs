//! The open-loop load generator: one thread drives every connection,
//! event-driven over the public `cs_net::poll` epoll binding, encoding
//! with `Frame::encode` and decoding replies with `FrameAssembler`.
//!
//! Arrivals follow a seeded schedule fixed before the phase starts;
//! each request is timed from the moment it was due, not from when it
//! went out, so a stall in the generator or the server is charged to
//! every request it delays.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cs_net::poll::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use cs_net::{ErrorCode, Frame, FrameAssembler, WriteBuffer, DEFAULT_MAX_PAYLOAD};
use rand::rngs::StdRng;
use rand::RngCore;

use crate::setup::elapsed_ns;

/// One operation the generator sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// An inference request for input `input` of model `model`, billed
    /// to tenant `tenant` (indices into the [`Catalog`]).
    Read {
        /// Model index.
        model: usize,
        /// Tenant index.
        tenant: usize,
        /// Input index in the model's pool.
        input: usize,
    },
    /// A `LoadModel` control frame for the catalog's churned model.
    Load {
        /// Version to load as primary.
        version: u32,
    },
}

/// One scheduled send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the send is due, ns since the generator started.
    pub due_ns: u64,
    /// Connection index it goes out on.
    pub conn: usize,
    /// What to send.
    pub op: Op,
}

/// A uniform draw in `[0, 1)` from 53 random bits.
pub fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Poisson arrivals at `rate_per_s` in `[start_ns, end_ns)`: seeded
/// exponential gaps, spread round-robin over `conns` connections, with
/// `pick` choosing each operation.
pub fn poisson(
    rng: &mut StdRng,
    rate_per_s: f64,
    (start_ns, end_ns): (u64, u64),
    conns: &[usize],
    mut pick: impl FnMut(&mut StdRng) -> Op,
) -> Vec<Arrival> {
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut out = Vec::new();
    let mut t = start_ns as f64;
    loop {
        t += -(1.0 - unit(rng)).ln() * mean_gap_ns;
        if t >= end_ns as f64 {
            return out;
        }
        let conn = conns[out.len() % conns.len()];
        let op = pick(rng);
        out.push(Arrival {
            due_ns: t as u64,
            conn,
            op,
        });
    }
}

/// Merges two schedules into one ordered by due time.
pub fn merge(mut a: Vec<Arrival>, b: Vec<Arrival>) -> Vec<Arrival> {
    a.extend(b);
    a.sort_by_key(|x| x.due_ns);
    a
}

/// How one operation ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// An inference result with the server's own latency figure.
    Output {
        /// Output activations.
        outputs: Vec<f32>,
        /// The reply's `latency_us`.
        server_us: u64,
    },
    /// A `LoadModel` ack.
    Loaded,
    /// A typed error frame.
    Error(ErrorCode),
    /// No answer before the drain deadline.
    Lost,
}

/// One completed (or abandoned) operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The schedule entry.
    pub arrival: Arrival,
    /// When it was written to the connection, ns.
    pub sent_ns: u64,
    /// When its reply was decoded, ns (the drain deadline when lost).
    pub done_ns: u64,
    /// The reply.
    pub reply: Reply,
}

impl Record {
    /// Latency timed from the due time, ns.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.arrival.due_ns)
    }

    /// How late the generator sent it, ns.
    pub fn lag_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.arrival.due_ns)
    }
}

/// Requests sent but not yet answered, sampled during a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Backlog {
    /// Outstanding when the last request was sent.
    pub at_end: usize,
    /// Most outstanding at any time.
    pub max: usize,
}

/// What requests address: model names with their input pools, tenant
/// names, and the model `LoadModel` frames churn.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Registry names, indexed by [`Op::Read::model`].
    pub models: Vec<String>,
    /// Input pool per model.
    pub inputs: Vec<Vec<Vec<f32>>>,
    /// Tenant names, indexed by [`Op::Read::tenant`].
    pub tenants: Vec<String>,
    /// Target of [`Op::Load`].
    pub churned: String,
}

struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    out: WriteBuffer,
    /// `(request id, record index)` in send order; replies come back
    /// in this order.
    waiting: VecDeque<(u64, usize)>,
    want_write: bool,
}

/// The generator's connections and clock.
pub struct Generator {
    epoll: Epoll,
    conns: Vec<Conn>,
    t0: Instant,
    next_id: u64,
    catalog: Catalog,
    read_buf: Vec<u8>,
}

impl Generator {
    /// Opens `conns` nonblocking connections to `addr`.
    pub fn connect(addr: SocketAddr, conns: usize, catalog: Catalog) -> Result<Generator, String> {
        let epoll = Epoll::new().map_err(|e| format!("epoll: {e}"))?;
        let mut out = Vec::new();
        for token in 0..conns {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            stream
                .set_nodelay(true)
                .and_then(|()| stream.set_nonblocking(true))
                .map_err(|e| format!("socket options: {e}"))?;
            epoll
                .add(stream.as_raw_fd(), EPOLLIN, token as u64)
                .map_err(|e| format!("epoll add: {e}"))?;
            out.push(Conn {
                stream,
                asm: FrameAssembler::new(DEFAULT_MAX_PAYLOAD),
                out: WriteBuffer::new(),
                waiting: VecDeque::new(),
                want_write: false,
            });
        }
        Ok(Generator {
            epoll,
            conns: out,
            t0: Instant::now(),
            next_id: 1,
            catalog,
            read_buf: vec![0; 1 << 16],
        })
    }

    /// Nanoseconds since the generator started.
    pub fn now_ns(&self) -> u64 {
        elapsed_ns(self.t0)
    }

    /// Sends `schedule` on time, collects every reply, and waits at
    /// most `drain` after the last send for stragglers (which are
    /// recorded as [`Reply::Lost`]). Records come back in schedule
    /// order.
    pub fn run(
        &mut self,
        schedule: &[Arrival],
        drain: Duration,
    ) -> Result<(Vec<Record>, Backlog), String> {
        let mut records: Vec<Record> = Vec::with_capacity(schedule.len());
        let mut events = vec![EpollEvent::zeroed(); 8];
        let mut backlog = Backlog::default();
        let mut outstanding = 0usize;
        let mut next = 0usize;
        let mut deadline = None;
        loop {
            let now = self.now_ns();
            while next < schedule.len() && schedule[next].due_ns <= now {
                self.send(&schedule[next], records.len())?;
                records.push(Record {
                    arrival: schedule[next],
                    sent_ns: self.now_ns(),
                    done_ns: 0,
                    reply: Reply::Lost,
                });
                next += 1;
                outstanding += 1;
                backlog.max = backlog.max.max(outstanding);
                if next == schedule.len() {
                    backlog.at_end = outstanding;
                    deadline = Some(self.now_ns() + drain.as_nanos() as u64);
                }
            }
            if outstanding == 0 && next == schedule.len() {
                break;
            }
            if deadline.is_some_and(|d| now > d) {
                break;
            }
            // Poll without blocking and yield when idle: a thread that
            // blocks lets its virtual CPU halt, and waking one takes
            // up to milliseconds on a busy host.
            let n = self
                .epoll
                .wait(&mut events, 0)
                .map_err(|e| format!("epoll wait: {e}"))?;
            for ev in &events[..n] {
                let token = ev.token() as usize;
                if ev.events() & EPOLLOUT != 0 {
                    self.flush(token)?;
                }
                if ev.events() & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0 {
                    outstanding -= self.receive(token, &mut records)?;
                }
            }
            if n == 0 {
                std::thread::yield_now();
            }
        }
        // Whatever is still waiting is lost; forget it so a late reply
        // cannot be matched against the next phase.
        let lost_at = self.now_ns();
        for conn in &mut self.conns {
            for (_, idx) in conn.waiting.drain(..) {
                records[idx].done_ns = lost_at;
            }
        }
        Ok((records, backlog))
    }

    fn send(&mut self, a: &Arrival, record: usize) -> Result<(), String> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = match a.op {
            Op::Read {
                model,
                tenant,
                input,
            } => Frame::Request {
                id,
                model: self.catalog.models[model].clone(),
                tenant: self.catalog.tenants[tenant].clone(),
                input: self.catalog.inputs[model][input].clone(),
            },
            Op::Load { version } => Frame::LoadModel {
                id,
                model: self.catalog.churned.clone(),
                version,
                canary_pct: 0,
            },
        };
        let conn = &mut self.conns[a.conn];
        conn.out.push(&frame.encode());
        conn.waiting.push_back((id, record));
        self.flush(a.conn)
    }

    /// Writes what the socket accepts and arms write interest for the
    /// rest.
    fn flush(&mut self, token: usize) -> Result<(), String> {
        let conn = &mut self.conns[token];
        conn.out
            .flush_to(&mut conn.stream)
            .map_err(|e| format!("write: {e}"))?;
        let want_write = !conn.out.is_empty();
        if want_write != conn.want_write {
            let interest = if want_write {
                EPOLLIN | EPOLLOUT
            } else {
                EPOLLIN
            };
            self.epoll
                .modify(conn.stream.as_raw_fd(), interest, token as u64)
                .map_err(|e| format!("epoll modify: {e}"))?;
            conn.want_write = want_write;
        }
        Ok(())
    }

    /// Reads everything available and resolves the matching records.
    /// Returns how many were resolved.
    fn receive(&mut self, token: usize, records: &mut [Record]) -> Result<usize, String> {
        let conn = &mut self.conns[token];
        loop {
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => return Err(format!("connection {token} closed by the server")),
                Ok(n) => conn.asm.push(&self.read_buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        let now = elapsed_ns(self.t0);
        let mut resolved = 0;
        while let Some(frame) = conn.asm.next_frame().map_err(|e| format!("decode: {e}"))? {
            let Some((id, idx)) = conn.waiting.pop_front() else {
                return Err(format!("unsolicited {:?} frame", frame.frame_type()));
            };
            if frame.id() != id {
                return Err(format!(
                    "reply id {} out of order, expected {id}",
                    frame.id()
                ));
            }
            let reply = match frame {
                Frame::Response {
                    outputs,
                    latency_us,
                    ..
                } => Reply::Output {
                    outputs,
                    server_us: latency_us,
                },
                Frame::ModelList { .. } => Reply::Loaded,
                Frame::Error { code, .. } => Reply::Error(code),
                other => return Err(format!("unexpected {:?} frame", other.frame_type())),
            };
            records[idx].done_ns = now;
            records[idx].reply = reply;
            resolved += 1;
        }
        Ok(resolved)
    }
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Linux `SCHED_IDLE`: runs only when nothing else wants the core.
const SCHED_IDLE: i32 = 5;

/// Restricts the calling thread to `cpu` (below 64). Threads it spawns
/// afterwards inherit the restriction, so call it only once every
/// other thread is running. Returns whether the kernel accepted it.
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= 64 {
        return false;
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: `sched_setaffinity` reads `cpusetsize` (8) bytes from
    // `mask`, a live local `u64`; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Moves the calling thread to the `SCHED_IDLE` class. Returns whether
/// the kernel accepted it.
fn make_current_thread_idle_class() -> bool {
    let priority: i32 = 0;
    // SAFETY: `struct sched_param` is a single `int`; the pointer is to
    // a live local `i32`. pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
}

/// Runs `f` while one extra thread, pinned to the last core in the
/// `SCHED_IDLE` class, spins on `sched_yield`. Together with the
/// generator, which also yields instead of blocking and pins itself to
/// core 0 once the server is up, this keeps both cores of a two-core
/// host awake: a virtual CPU that halts can take milliseconds to wake,
/// which otherwise dominates every latency tail. Any normal thread
/// preempts the spinner at once, and the scheduler treats a core
/// running only it as idle when placing woken threads. On a single
/// core it is not started.
pub fn with_cores_awake<T>(f: impl FnOnce() -> T) -> T {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        return f();
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            if pin_current_thread(cores - 1) && make_current_thread_idle_class() {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            }
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn schedule(seed: u64) -> Vec<Arrival> {
        let mut rng = StdRng::seed_from_u64(seed);
        poisson(&mut rng, 5000.0, (0, 200_000_000), &[0, 1], |r| Op::Read {
            model: (r.next_u64() % 3) as usize,
            tenant: (r.next_u64() % 2) as usize,
            input: (r.next_u64() % 64) as usize,
        })
    }

    #[test]
    fn same_seed_gives_same_schedule() {
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
    }

    #[test]
    fn poisson_rate_is_close_to_nominal() {
        // 0.2 s at 5000/s: 1000 expected, sd about 32.
        let n = schedule(3).len();
        assert!((850..1150).contains(&n), "{n} arrivals");
        let s = schedule(3);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.iter().enumerate().all(|(i, a)| a.conn == i % 2));
    }
}
