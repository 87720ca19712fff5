//! Open-loop load: seeded Poisson arrivals, one generator thread that
//! submits each request when it is due, and one collector thread that
//! stamps each answer when it is delivered.
//!
//! Latency runs from when a request was *due*, so a stalled generator
//! or server charges the wait to every request behind it. The collector
//! blocks on the oldest outstanding ticket (stamped the moment it wakes)
//! and then polls the others. An answer found already delivered may
//! have waited since the collector last saw it pending; that interval
//! is kept as the answer's stamp bias, an upper bound on its error.

use crate::util::{process_cpu, quantile, thread_id, HostTicks, Rng, Tracer};
use dm_core::guard::{Budget, CancelToken};
use dm_serve::{Request, ServeError, ServeResult, Server, Ticket};
use std::collections::VecDeque;
use std::ffi::OsString;
use std::os::raw::{c_int, c_ulong};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::time::{Duration, Instant};

/// Per-request deadline: a request queued longer than this is answered
/// from a degraded tier, which counts as a miss.
const DEADLINE: Duration = Duration::from_millis(100);
/// How long the collector waits for one answer before giving up on it.
const WAIT_TIMEOUT: Duration = Duration::from_secs(2);

/// One answered (or refused) request.
pub struct Answer {
    /// Send order within the phase.
    pub seq: usize,
    /// Index into the request pool.
    pub pool_idx: usize,
    /// How late the generator sent it.
    pub late: Duration,
    /// From due to the answer's stamp.
    pub latency: Duration,
    /// Upper bound on how long the answer waited before it was stamped.
    pub bias: Duration,
    pub sent: Instant,
    pub stamped: Instant,
    pub result: ServeResult,
}

pub struct Phase {
    pub rate: f64,
    /// Answers in send order.
    pub answers: Vec<Answer>,
    /// CPU time of the process over the phase, the collector left out.
    pub cpu: Duration,
    /// Machine-wide CPU time over the phase, and the part of it the host
    /// of this virtual machine took away (`/proc/stat` steal).
    pub host: HostTicks,
    /// When the phase started sending and when its last answer came.
    pub window: (Instant, Instant),
}

/// When and what one request was sent.
#[derive(Clone, Copy)]
struct Meta {
    seq: usize,
    pool_idx: usize,
    due: Instant,
    sent: Instant,
}

struct Sent {
    meta: Meta,
    ticket: Result<Ticket, ServeError>,
}

struct Pending {
    meta: Meta,
    ticket: Ticket,
    /// The last moment the collector saw this ticket unanswered.
    seen_pending: Instant,
}

/// Sends `rate × duration` Poisson arrivals (in expectation) drawn in
/// order from `pool`, starting at `pool[start]`, and collects every
/// answer.
pub fn run_phase(
    server: &Server,
    pool: &[Request],
    start: usize,
    rate: f64,
    duration: Duration,
    seed: u64,
    tracer: &Tracer,
) -> Phase {
    let mut rng = Rng::new(seed);
    let mut offsets = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exp(1.0 / rate);
        if t >= duration.as_secs_f64() {
            break;
        }
        offsets.push(Duration::from_secs_f64(t));
    }
    let obs = tracer.obs();
    tighten_timer_slack();
    let cpu0 = process_cpu(None);
    let host0 = HostTicks::now();
    let began = Instant::now();
    let (tx, rx) = mpsc::channel();
    let (mut answers, collector) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(rx));
        let t0 = Instant::now() + Duration::from_millis(1);
        for (seq, offset) in offsets.iter().enumerate() {
            let pool_idx = (start + seq) % pool.len();
            let request = pool[pool_idx].clone();
            let due = t0 + *offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let ticket = {
                let _span = obs.span("serve.submit");
                server.submit_with(
                    request,
                    Budget::unlimited().with_deadline(DEADLINE),
                    CancelToken::new(),
                )
            };
            let msg = Sent {
                meta: Meta {
                    seq,
                    pool_idx,
                    due,
                    sent,
                },
                ticket,
            };
            if tx.send(msg).is_err() {
                break;
            }
        }
        drop(tx);
        collector.join().unwrap_or_else(|_| (Vec::new(), None))
    });
    // The collector is the benchmark's own polling, not the program's
    // work: it is left out even if its exit has not yet removed it.
    let cpu = process_cpu(collector.as_deref()).saturating_sub(cpu0);
    let host = HostTicks::now().since(host0);
    answers.sort_by_key(|a| a.seq);
    Phase {
        rate,
        answers,
        cpu,
        host,
        window: (began, Instant::now()),
    }
}

/// Asks the kernel to end this thread's sleeps on time. The default
/// timer slack (50 µs) would otherwise be added to most sends.
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: c_int = 29;
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    // SAFETY: `prctl(PR_SET_TIMERSLACK, ns)` takes one integer argument,
    // passes no memory, and changes only the calling thread's timer
    // slack. A failure leaves the default slack, which is still correct.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

/// Stamps every answer; returns them with the collector's thread id.
fn collect(rx: Receiver<Sent>) -> (Vec<Answer>, Option<OsString>) {
    let mut out = Vec::new();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut open = true;
    // A refused submission is answered at once, at its send time.
    let admit = |msg: Sent, pending: &mut VecDeque<Pending>, out: &mut Vec<Answer>| match msg.ticket
    {
        Ok(ticket) => pending.push_back(Pending {
            meta: msg.meta,
            ticket,
            seen_pending: msg.meta.sent,
        }),
        Err(e) => out.push(answer(&msg.meta, msg.meta.sent, Duration::ZERO, Err(e))),
    };
    loop {
        while open {
            match rx.try_recv() {
                Ok(msg) => admit(msg, &mut pending, &mut out),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => open = false,
            }
        }
        let Some(first) = pending.pop_front() else {
            if !open {
                break;
            }
            match rx.recv() {
                Ok(msg) => admit(msg, &mut pending, &mut out),
                Err(_) => open = false,
            }
            continue;
        };
        // Already answered: it waited since the collector last looked.
        // Otherwise the wake-up itself is the stamp.
        let (result, since) = match first.ticket.try_take() {
            Some(result) => (result, Some(first.seen_pending)),
            None => (first.ticket.wait(WAIT_TIMEOUT), None),
        };
        let now = Instant::now();
        let bias = since.map_or(Duration::ZERO, |t| now - t);
        out.push(answer(&first.meta, now, bias, result));
        // Each stamp is read after its answer was taken, and each pending
        // time before the ticket was seen pending: a stamp taken before
        // the loop could precede an answer delivered during it.
        pending.retain_mut(|p| {
            let looked = Instant::now();
            match p.ticket.try_take() {
                Some(result) => {
                    let at = Instant::now();
                    out.push(answer(&p.meta, at, at - p.seen_pending, result));
                    false
                }
                None => {
                    p.seen_pending = looked;
                    true
                }
            }
        });
    }
    (out, thread_id())
}

fn answer(meta: &Meta, now: Instant, bias: Duration, result: ServeResult) -> Answer {
    Answer {
        seq: meta.seq,
        pool_idx: meta.pool_idx,
        late: meta.sent - meta.due,
        latency: now - meta.due,
        bias,
        sent: meta.sent,
        stamped: now,
        result,
    }
}

impl Phase {
    /// Several phases at one rate as one, answers renumbered in order.
    pub fn merge(phases: Vec<Phase>) -> Phase {
        let rate = phases.first().map_or(0.0, |p| p.rate);
        let mut answers = Vec::new();
        let mut cpu = Duration::ZERO;
        let mut host = HostTicks::default();
        let now = Instant::now();
        let window = (
            phases.first().map_or(now, |p| p.window.0),
            phases.last().map_or(now, |p| p.window.1),
        );
        for phase in phases {
            cpu += phase.cpu;
            host.total += phase.host.total;
            host.steal += phase.host.steal;
            for mut a in phase.answers {
                a.seq = answers.len();
                answers.push(a);
            }
        }
        Phase {
            rate,
            answers,
            cpu,
            host,
            window,
        }
    }

    /// Latency quantile in ms; `ok` decides which answers count, and
    /// the others count as infinitely late.
    pub fn latency_ms(&self, q: f64, ok: impl Fn(&Answer) -> bool) -> f64 {
        let v: Vec<f64> = self
            .answers
            .iter()
            .map(|a| {
                if ok(a) {
                    a.latency.as_secs_f64() * 1e3
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        quantile(&v, q)
    }

    /// Mean stamp bias in ms.
    pub fn bias_ms(&self) -> f64 {
        let total: f64 = self.answers.iter().map(|a| a.bias.as_secs_f64()).sum();
        total * 1e3 / self.answers.len().max(1) as f64
    }
}
