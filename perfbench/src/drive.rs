//! Drives the screening service from outside: set-up from artifact bytes,
//! a closed loop of submitting threads, and an open loop with one
//! generator and one collector thread.

use crate::inputs::{Inputs, STREAM_RATE};
use soteria::{Soteria, StateImage, Verdict};
use soteria_serve::{ScreeningService, ServeConfig, ServiceStats, Submit, Ticket};
use soteria_telemetry::{Trace, TraceBuilder};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Closed-loop submitting threads: one per core of the 2-core reference
/// host, so the load generator never outnumbers the cores.
pub const SUBMITTERS: usize = 2;
/// Set-ups per run; `setup_s` is their median. One takes a few ms, and
/// with five the median still moved by a third between runs.
pub const SETUPS: usize = 25;

/// The service configuration every workload runs with: the defaults
/// (cache on, two workers), seeded with the run's seed so request seeds
/// match the sequential oracle's.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        ..ServeConfig::default()
    }
}

/// Loads a model from artifact bytes the way a serving process does.
pub fn load(artifact: &[u8]) -> Soteria {
    let image = StateImage::parse(artifact).expect("artifact written by this run parses");
    Soteria::load_image(&image).expect("artifact written by this run loads")
}

/// One set-up: artifact bytes → `StateImage::parse` → `load_image` →
/// `ScreeningService::start` → the first verdict. Returns the running
/// service, the set-up time in seconds and, when `trace` holds the
/// set-up's id, its trace.
fn set_up(
    artifact: &[u8],
    warmup: &[u8],
    config: &ServeConfig,
    trace: Option<u64>,
) -> (ScreeningService, f64, Option<Trace>) {
    let builder = trace.map(TraceBuilder::new);
    let t0 = Instant::now();
    let model = load(artifact);
    let t1 = Instant::now();
    let service = ScreeningService::start(model, config);
    let t2 = Instant::now();
    let first = service
        .submit(warmup.to_vec())
        .into_ticket()
        .expect("an idle service admits its first request")
        .wait();
    let t3 = Instant::now();
    assert!(!first.is_degraded(), "warm-up verdict degraded: {first:?}");
    let trace = builder.map(|mut b| {
        let root = b.stage("setup", None, t0, t3);
        b.stage("core.artifact_load", Some(root), t0, t1);
        b.stage("serve.start", Some(root), t1, t2);
        b.stage("serve.first_verdict", Some(root), t2, t3);
        b.finish()
    });
    (service, (t3 - t0).as_secs_f64(), trace)
}

/// [`SETUPS`] set-ups in a row, each from the artifact bytes; all but the
/// last service are shut down. Returns the running service, each set-up's
/// time in seconds and, when `traced`, one trace per set-up.
pub fn set_up_repeatedly(
    artifact: &[u8],
    warmup: &[u8],
    config: &ServeConfig,
    traced: bool,
) -> (ScreeningService, Vec<f64>, Vec<Trace>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut traces = Vec::new();
    let mut service: Option<ScreeningService> = None;
    for i in 0..SETUPS {
        if let Some(old) = service.take() {
            drop(old.shutdown());
        }
        let (s, secs, trace) = set_up(artifact, warmup, config, traced.then_some(i as u64));
        times.push(secs);
        traces.extend(trace);
        service = Some(s);
    }
    (service.expect("SETUPS is positive"), times, traces)
}

/// One request's fate.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Position in the schedule.
    pub position: usize,
    /// Submit → verdict (closed loop) or due time → verdict (open loop).
    pub latency_ms: f64,
    /// Submit → verdict in both loops: the open loop's latency without
    /// the generator's lateness.
    pub sent_latency_ms: f64,
    /// `None` when the service rejected the request.
    pub verdict: Option<Verdict>,
    /// Answered from the verdict cache at submit time.
    pub cached: bool,
}

/// Everything one drive of the service measured.
#[derive(Debug)]
pub struct DriveResult {
    pub outcomes: Vec<Outcome>,
    pub elapsed_s: f64,
    pub stats: ServiceStats,
    /// Open loop only: how late each send was, in ms.
    pub lag_ms: Vec<f64>,
    /// Traced drives only: one trace per request, id = schedule position,
    /// with a `serve.submit` and a `serve.wait` stage.
    pub traces: Vec<Trace>,
}

/// Closed loop: [`SUBMITTERS`] threads take the next request in schedule
/// order, submit it and wait for its verdict, until `limit` requests were
/// sent or `seconds` (if any) have passed.
pub fn closed_loop(
    service: &ScreeningService,
    inputs: &Inputs,
    limit: usize,
    seconds: Option<f64>,
    traced: bool,
) -> DriveResult {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let stop = seconds.map(|s| started + Duration::from_secs_f64(s));
    let per_thread: Vec<(Vec<Outcome>, Vec<Trace>)> = std::thread::scope(|s| {
        let jobs: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut outcomes = Vec::new();
                    let mut traces = Vec::new();
                    loop {
                        if stop.is_some_and(|t| Instant::now() >= t) {
                            break;
                        }
                        let position = next.fetch_add(1, Ordering::Relaxed);
                        if position >= limit {
                            break;
                        }
                        let bytes = inputs.pool[inputs.schedule[position]].bytes.clone();
                        let trace = traced.then(|| TraceBuilder::new(position as u64));
                        let t0 = Instant::now();
                        let submitted = service.submit(bytes);
                        let t1 = Instant::now();
                        let (verdict, cached) = match submitted {
                            Submit::Accepted(ticket) => {
                                let cached = ticket.is_cached();
                                (Some(ticket.wait()), cached)
                            }
                            Submit::Rejected { .. } => (None, false),
                        };
                        let t2 = Instant::now();
                        if let Some(mut trace) = trace {
                            trace.stage("serve.submit", None, t0, t1);
                            trace.stage("serve.wait", None, t1, t2);
                            traces.push(trace.finish());
                        }
                        let latency_ms = (t2 - t0).as_secs_f64() * 1e3;
                        outcomes.push(Outcome {
                            position,
                            latency_ms,
                            sent_latency_ms: latency_ms,
                            verdict,
                            cached,
                        });
                    }
                    (outcomes, traces)
                })
            })
            .collect();
        jobs.into_iter()
            .map(|j| j.join().expect("submitter thread panicked"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut outcomes = Vec::new();
    let mut traces = Vec::new();
    for (o, t) in per_thread {
        outcomes.extend(o);
        traces.extend(t);
    }
    outcomes.sort_by_key(|o| o.position);
    traces.sort_by_key(|t| t.id);
    DriveResult {
        outcomes,
        elapsed_s,
        stats: service.stats(),
        lag_ms: Vec::new(),
        traces,
    }
}

/// An open-loop request handed from the generator to the collector with
/// its ticket.
struct InFlight {
    position: usize,
    due: Instant,
    sent: Instant,
    trace: Option<TraceBuilder>,
}

/// Open loop: the calling thread sends request `i` (of the first `limit`
/// in the schedule) at `start + i / rate` whatever the service's progress;
/// a collector thread records each verdict when it resolves. Cache hits
/// resolve inside `submit` and are recorded by the sender at once, so a
/// slow miss never delays the completion time of the hits behind it.
pub fn open_loop(
    service: &ScreeningService,
    inputs: &Inputs,
    limit: usize,
    traced: bool,
) -> DriveResult {
    let period = Duration::from_secs_f64(1.0 / STREAM_RATE as f64);
    let (tx, rx) = mpsc::channel::<(InFlight, Ticket)>();
    let start = Instant::now() + Duration::from_millis(1);
    let (mut outcomes, lag_ms, mut traces, collected, collector_traces) = std::thread::scope(|s| {
        let collector = s.spawn(move || collect(rx));
        let mut outcomes = Vec::with_capacity(limit);
        let mut lag_ms = Vec::with_capacity(limit);
        let mut traces = Vec::new();
        for (position, &entry) in inputs.schedule.iter().take(limit).enumerate() {
            let bytes = inputs.pool[entry].bytes.clone();
            let due = start + period * position as u32;
            wait_until(due);
            let mut trace = traced.then(|| TraceBuilder::new(position as u64));
            let t0 = Instant::now();
            lag_ms.push((t0 - due).as_secs_f64() * 1e3);
            let submitted = service.submit(bytes);
            let t1 = Instant::now();
            if let Some(trace) = trace.as_mut() {
                trace.stage("serve.submit", None, t0, t1);
            }
            let answered_now = |verdict: Option<Verdict>, cached: bool| Outcome {
                position,
                latency_ms: (t1 - due).as_secs_f64() * 1e3,
                sent_latency_ms: (t1 - t0).as_secs_f64() * 1e3,
                verdict,
                cached,
            };
            match submitted {
                Submit::Accepted(ticket) if ticket.is_cached() => {
                    if let Some(mut trace) = trace {
                        trace.stage("serve.wait", None, t1, t1);
                        traces.push(trace.finish());
                    }
                    outcomes.push(answered_now(Some(ticket.wait()), true));
                }
                Submit::Accepted(ticket) => {
                    let request = InFlight {
                        position,
                        due,
                        sent: t0,
                        trace,
                    };
                    tx.send((request, ticket))
                        .expect("collector outlives the generator")
                }
                Submit::Rejected { .. } => {
                    traces.extend(trace.map(TraceBuilder::finish));
                    outcomes.push(answered_now(None, false));
                }
            }
        }
        drop(tx);
        let (collected, collector_traces) = collector.join().expect("collector thread panicked");
        (outcomes, lag_ms, traces, collected, collector_traces)
    });
    let elapsed_s = (Instant::now() - start).as_secs_f64();
    outcomes.extend(collected);
    outcomes.sort_by_key(|o| o.position);
    traces.extend(collector_traces);
    traces.sort_by_key(|t| t.id);
    DriveResult {
        outcomes,
        elapsed_s,
        stats: service.stats(),
        lag_ms,
        traces,
    }
}

/// Sleeps until `due`. The generator never spins: on two cores a spinning
/// sender takes enough CPU from the service to move its tail latency, so
/// sends are late by the kernel's timer slack, which `gen.lag_ms` reports.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// The collector: blocks for at most 1 ms on the oldest pending ticket and
/// then sweeps the others without blocking, so the oldest verdict's
/// completion is taken when it arrives and any other within 1 ms of its
/// arrival, in whatever order the service resolves them. A shorter poll
/// woke the collector often enough to move the service's tail latency on
/// two cores.
fn collect(rx: mpsc::Receiver<(InFlight, Ticket)>) -> (Vec<Outcome>, Vec<Trace>) {
    const POLL: Duration = Duration::from_millis(1);
    // Each request with its ticket and the instant the collector took it.
    let mut pending: VecDeque<(InFlight, Ticket, Instant)> = VecDeque::new();
    let mut outcomes = Vec::new();
    let mut traces = Vec::new();
    let mut open = true;
    let mut finish = |r: InFlight, handed: Instant, verdict: Verdict| {
        let now = Instant::now();
        if let Some(mut trace) = r.trace {
            trace.stage("serve.wait", None, handed, now);
            traces.push(trace.finish());
        }
        outcomes.push(Outcome {
            position: r.position,
            latency_ms: (now - r.due).as_secs_f64() * 1e3,
            sent_latency_ms: (now - r.sent).as_secs_f64() * 1e3,
            verdict: Some(verdict),
            cached: false,
        });
    };
    // Waits on the request's ticket for at most `limit`; gives the
    // request back if its verdict has not resolved.
    let mut poll = |(r, ticket, handed): (InFlight, Ticket, Instant), limit: Duration| {
        let resolved = ticket.wait_for(limit);
        match resolved {
            Ok(v) => {
                finish(r, handed, v);
                None
            }
            Err(t) => Some((r, t, handed)),
        }
    };
    while open || !pending.is_empty() {
        if pending.is_empty() {
            match rx.recv() {
                Ok((r, t)) => pending.push_back((r, t, Instant::now())),
                Err(_) => open = false,
            }
            continue;
        }
        loop {
            match rx.try_recv() {
                Ok((r, t)) => pending.push_back((r, t, Instant::now())),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let oldest = pending.pop_front().expect("pending is non-empty");
        if let Some(back) = poll(oldest, POLL) {
            pending.push_front(back);
        }
        for _ in 0..pending.len() {
            let next = pending.pop_front().expect("counted above");
            if let Some(back) = poll(next, Duration::ZERO) {
                pending.push_back(back);
            }
        }
    }
    (outcomes, traces)
}
