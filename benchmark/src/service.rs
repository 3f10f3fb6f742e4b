//! The `service-*` workloads: closed-loop traffic from two client threads
//! against a `hyperpredd` with two compute workers, one single-cell
//! `POST /v1/cell` per connection (the daemon closes each one).
//!
//! * `service-cold` sends cells of the seeded stream to an empty store:
//!   every request compiles and simulates.
//! * `service-warm` prefills 300 cells, restarts the daemon on that store,
//!   then cycles those keys: every request is a store hit.
//!
//! The measured phase follows untimed warm-up requests of the same kind,
//! so it starts with the daemon's code paths and the store already warm.

use crate::checks::{same_answer, sampled, Consistency};
use crate::layers;
use crate::procs::Daemon;
use crate::report::{Metric, Outcome};
use crate::stats::{median, tail};
use crate::wire::{self, Cell, Reply, Stats};
use crate::Ctx;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The two traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Warm,
}

/// Closed-loop client threads, one per core of the two-core machine.
pub const CLIENTS: usize = 2;

/// Keys the warm workload prefills and then hits.
pub const WARM_KEYS: usize = 300;

/// Times each workload starts (or restarts) the daemon to measure set-up;
/// a start takes a few milliseconds, so many are cheap and steady the
/// median.
const SETUP_STARTS: usize = 15;

/// Untimed requests before the measured phase (a tenth in a quick run).
const WARMUP: usize = 100;

/// The shape of one run: `keys` prefilled cells (the first of the
/// stream), `warmup` untimed requests, then the measured phase of at most
/// `max_ops` requests within `budget`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub kind: Kind,
    pub keys: usize,
    pub warmup: usize,
    pub max_ops: usize,
    pub budget: Option<Duration>,
}

impl Plan {
    pub fn new(kind: Kind, quick: bool, seconds: f64) -> Plan {
        // A cold request cap far above the measured rate (under 150 cells/s
        // on two cores), so full runs stop on time.
        let cap = (seconds * 400.0) as usize;
        let timed = Some(Duration::from_secs_f64(seconds));
        let (keys, max_ops, budget) = match (kind, quick) {
            (Kind::Cold, true) => (0, 60, None),
            (Kind::Cold, false) => (0, cap, timed),
            (Kind::Warm, true) => (30, usize::MAX, Some(Duration::from_secs(2))),
            (Kind::Warm, false) => (WARM_KEYS, usize::MAX, timed),
        };
        Plan {
            kind,
            keys,
            warmup: if quick { WARMUP / 10 } else { WARMUP },
            max_ops,
            budget,
        }
    }

    /// Stream cells the run can touch; the generator runs up front so no
    /// client waits on it.
    pub fn stream_len(&self) -> usize {
        match self.kind {
            Kind::Cold => self.warmup + self.max_ops,
            Kind::Warm => self.keys,
        }
    }

    /// The stream cell request `i` carries, counting warm-up requests.
    pub fn cell(&self, i: usize) -> usize {
        match self.kind {
            Kind::Cold => i,
            Kind::Warm => i % self.keys,
        }
    }

    /// Whether the store must already hold cell `c` when it is asked for.
    pub fn must_hit(&self, c: usize) -> bool {
        c < self.keys
    }
}

/// One request of a run: which stream cell it carried and what came back.
pub struct Op {
    pub cell: usize,
    pub latency_s: f64,
    pub reply: Result<Reply, String>,
}

/// Sends requests from [`CLIENTS`] threads, each waiting for its answer
/// before sending the next, until `max_ops` requests have been sent or
/// `budget` has passed. Request `i` carries the stream cell `cell(i)`.
/// Returns the requests in completion order and the wall time until the
/// last answer.
pub fn closed_loop(
    addr: &str,
    stream: &[Cell],
    max_ops: usize,
    budget: Option<Duration>,
    cell: &(dyn Fn(usize) -> usize + Sync),
) -> (Vec<Op>, f64) {
    let next = AtomicUsize::new(0);
    let ops = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                if budget.is_some_and(|b| started.elapsed() >= b) {
                    return;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= max_ops {
                    return;
                }
                let c = cell(i);
                let body = wire::encode_cell(&stream[c]);
                let t = Instant::now();
                let answer = wire::call(addr, "POST", "/v1/cell", &body);
                let latency_s = t.elapsed().as_secs_f64();
                let reply = match answer {
                    Ok((200, body)) => wire::decode_reply(&body),
                    Ok((code, body)) => Err(format!("HTTP {code}: {body}")),
                    Err(e) => Err(format!("transport: {e}")),
                };
                let op = Op {
                    cell: c,
                    latency_s,
                    reply,
                };
                ops.lock()
                    .expect("no client panics holding the lock")
                    .push(op);
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    (ops.into_inner().expect("client threads joined"), wall)
}

/// Tallies one phase's answers into `out`: counts attempts and failures,
/// checks statuses and cross-request consistency, and remembers the first
/// stats served for each stream cell. Returns the cells answered well: a
/// `hit`, or a `computed` where a miss is allowed, with consistent stats.
pub fn tally(
    out: &mut Outcome,
    ops: &[Op],
    must_hit: &dyn Fn(usize) -> bool,
    seen: &mut Consistency,
    served: &mut HashMap<usize, Stats>,
) -> usize {
    let mut good = 0;
    for op in ops {
        out.attempted += 1;
        let reply = match &op.reply {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.error(format!("request for cell {} failed: {e}", op.cell));
                continue;
            }
        };
        let ok_status = match reply.status.as_str() {
            "hit" => true,
            "computed" => !must_hit(op.cell),
            _ => false,
        };
        let Some(stats) = reply.stats.filter(|_| ok_status) else {
            out.failed += 1;
            out.error(format!("cell {}: answered `{}`", op.cell, reply.status));
            continue;
        };
        if let Err(e) = seen.observe(&reply.fingerprint, &stats) {
            out.failed += 1;
            out.error(e);
            continue;
        }
        good += 1;
        served.entry(op.cell).or_insert(stats);
    }
    good
}

/// Recomputes the seeded 1-in-50 sample of served cells in process and
/// compares.
pub fn check_sample(out: &mut Outcome, seed: u64, stream: &[Cell], served: &HashMap<usize, Stats>) {
    let mut cells: Vec<usize> = served
        .keys()
        .copied()
        .filter(|&c| sampled(seed, c))
        .collect();
    cells.sort_unstable();
    for c in cells {
        match layers::run_request(&stream[c]) {
            Ok((stats, _)) => {
                if let Err(e) = same_answer(&format!("cell {c}"), &served[&c], &stats) {
                    out.failed += 1;
                    out.error(e);
                }
            }
            Err(e) => out.error(format!("cell {c}: in-process run_request failed: {e}")),
        }
    }
}

/// Fills a fresh store at `store` with the plan's keys through the daemon
/// and returns the requests and their wall time.
pub fn prefill(
    ctx: &Ctx,
    plan: &Plan,
    store: &Path,
    stream: &[Cell],
) -> Result<(Vec<Op>, f64), String> {
    let (daemon, _) = Daemon::start(&ctx.bin, store)?;
    let done = closed_loop(&daemon.addr, stream, plan.keys, None, &|i| i);
    daemon.stop()?;
    Ok(done)
}

/// Runs one service workload end to end.
pub fn run(ctx: &Ctx, kind: Kind, seen: &mut Consistency) -> Result<Outcome, String> {
    let plan = Plan::new(kind, ctx.quick, ctx.seconds);
    let stream = layers::service_stream(ctx.seed, plan.stream_len());
    let mut out = Outcome::default();
    let mut served = HashMap::new();
    let store = ctx.out.join("store");
    let must_hit = |c| plan.must_hit(c);

    // Set-up: cold starts on a fresh empty store each time; warm restarts
    // on the prefilled one. The last daemon serves the run.
    if plan.keys > 0 {
        let (ops, _) = prefill(ctx, &plan, &store, &stream)?;
        tally(&mut out, &ops, &|_| false, seen, &mut served);
    }
    let starts = if ctx.quick { 2 } else { SETUP_STARTS };
    let mut setup = Vec::new();
    let mut daemon = None;
    for n in 0..starts {
        if kind == Kind::Cold {
            let _ = std::fs::remove_dir_all(&store);
        }
        let (d, secs) = Daemon::start(&ctx.bin, &store)?;
        setup.push(secs);
        if n + 1 < starts {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one start");

    let (warm_up, _) = closed_loop(&daemon.addr, &stream, plan.warmup, None, &|i| plan.cell(i));
    tally(&mut out, &warm_up, &must_hit, seen, &mut served);
    let (ops, wall) = closed_loop(&daemon.addr, &stream, plan.max_ops, plan.budget, &|i| {
        plan.cell(plan.warmup + i)
    });
    let (peak_rss_mb, _) = daemon.stop()?;
    if plan.budget.is_some() && ops.len() >= plan.max_ops {
        out.error(format!(
            "{kind:?}: the request cap was reached before the time ran out"
        ));
    }
    // Throughput counts only cells answered well: a refusal or a failure
    // is quick to send back and must not read as speed.
    let cells = tally(&mut out, &ops, &must_hit, seen, &mut served);
    check_sample(&mut out, ctx.seed, &stream, &served);

    let lat_ms: Vec<f64> = ops.iter().map(|o| o.latency_s * 1e3).collect();
    let (p99, q) = tail(&lat_ms).ok_or("no request completed")?;
    out.push(Metric::new(
        "cells_per_s",
        "cells/s",
        cells as f64 / wall,
        cells,
    ));
    out.push(Metric::new(
        "p50_ms",
        "ms",
        median(&lat_ms).unwrap_or(0.0),
        lat_ms.len(),
    ));
    out.push(
        Metric::new("p99_ms", "ms", p99, lat_ms.len()).with_note(format!("p{:.2}", q * 100.0)),
    );
    out.push(Metric::new(
        "setup_s",
        "s",
        median(&setup).unwrap_or(0.0),
        setup.len(),
    ));
    out.push(Metric::new("peak_rss_mb", "MB", peak_rss_mb, 1));
    Ok(out)
}
