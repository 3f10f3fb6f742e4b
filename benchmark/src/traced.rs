//! The traced run: each workload replayed through each layer's public
//! functions (see `layers.rs`), serially, with a span around every call.
//! It produces the per-layer numbers; the end-to-end numbers come from the
//! untraced run, and comparing the two gives the tracing overhead.
//!
//! Every traced run reports every per-layer metric. Where a workload's
//! own traffic skips a layer, its cells are sent through that layer anyway
//! so the metric describes this workload's inputs: the paper matrix goes
//! through the wire codec, the store and the daemon; service cells also
//! run under the Figure 11 cache model. A traced service run covers its
//! set-up too, since a pure-hit phase would leave compile and simulation
//! at zero.

use crate::checks::{same_answer, sampled, Consistency, Golden};
use crate::layers::{self, Compiled, Compiler, Front, IrCounts, ScratchStore};
use crate::paper;
use crate::procs::{run_figures, Daemon};
use crate::report::{Metric, Outcome};
use crate::service::{closed_loop, prefill, tally, Kind, Plan};
use crate::stats::median;
use crate::trace::Tracer;
use crate::wire::{self, Cell, Stats};
use crate::Ctx;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::time::Instant;

/// Compile stages as span names, in pipeline order. Each is reported as
/// `<name>.s` (summed self time) and `<name>.n` (calls).
pub const STAGES: [&str; 11] = [
    "lang.compile",
    "opt.inline",
    "opt.pre",
    "emu.profile",
    "hyperblock.ifconvert",
    "hyperblock.promote",
    "hyperblock.superblock",
    "hyperblock.unroll",
    "partial.convert",
    "opt.post",
    "sched.schedule",
];

/// Spans that only group others: their self time is glue, not a layer.
const GROUPS: [&str; 3] = ["cell", "request", "compute"];

/// The least share of the traced wall the named layers must cover; a
/// traced run under it fails, since its per-layer numbers miss time.
const MIN_ATTRIBUTED: f64 = 0.9;

/// `/healthz` probes behind `daemon.healthz_p50_ms` (a tenth of them in
/// a quick run).
const HEALTH_PROBES: usize = 200;

/// Counters kept beside the spans.
#[derive(Default)]
struct Acc {
    tr: Tracer,
    ir: IrCounts,
    emu_insts: u64,
    sim_cycles: u64,
    /// Perfect-memory sim seconds on modules that also ran the cache
    /// model, the base of `sim.cache_model.s`.
    paired_perfect_s: f64,
    gets: u64,
    hits: u64,
    degraded: u64,
    run_request_s: f64,
}

impl Acc {
    /// Emulates and simulates one compiled cell; `caches` selects the
    /// Figure 11 memory, `paired` marks a perfect sim whose module also
    /// runs under the caches.
    fn execute(
        &mut self,
        m: &Compiled,
        cell: &Cell,
        caches: bool,
        paired: bool,
    ) -> Result<Stats, String> {
        let stats = if caches {
            self.tr.time("sim.caches", || m.simulate(cell, true))?
        } else {
            self.emu_insts += self.tr.time("emu.run", || m.emulate(cell))?;
            let id = self.tr.begin("sim.perfect");
            let s = m.simulate(cell, false);
            self.tr.end(id);
            if paired {
                self.paired_perfect_s += self.tr.duration_s(id);
            }
            s?
        };
        self.sim_cycles += stats.cycles;
        Ok(stats)
    }

    /// Compiles one cell through the replica and decodes the module.
    fn compile(&mut self, c: &Compiler, front: &Front, cell: &Cell) -> Result<Compiled, String> {
        let mut m = c.finish(&mut self.tr, front, cell, &mut self.ir)?;
        self.tr.time("emu.decode", || m.decode());
        self.degraded += u64::from(m.degraded);
        Ok(m)
    }

    /// Serves one cell the way the daemon does: key, store probe, and on
    /// a miss compile, simulate (plus the cache-model probe) and record.
    /// Returns the stats and, for a miss, the compute span's seconds.
    fn serve(
        &mut self,
        c: &Compiler,
        store: &ScratchStore,
        cell: &Cell,
        req: &layers::Request,
    ) -> Result<(Stats, Option<f64>), String> {
        let fp = self
            .tr
            .time("service.fingerprint", || layers::fingerprint(req));
        self.gets += 1;
        let found = self.tr.time("store.get", || store.get(&fp));
        let (stats, compute_s) = match found {
            Some(s) => {
                self.hits += 1;
                (s, None)
            }
            None => {
                let id = self.tr.begin("compute");
                let stats = self.compute(c, cell);
                self.tr.end(id);
                let stats = stats?;
                self.tr.time("store.put", || store.put(&fp, cell, &stats))?;
                (stats, Some(self.tr.duration_s(id)))
            }
        };
        self.tr.time("service.serialize", || {
            layers::serialize_served(&fp, &stats, compute_s.is_none())
        });
        Ok((stats, compute_s))
    }

    fn compute(&mut self, c: &Compiler, cell: &Cell) -> Result<Stats, String> {
        let front = c.front(&mut self.tr, &cell.source, &cell.args)?;
        let m = self.compile(c, &front, cell)?;
        let stats = self.execute(&m, cell, false, true)?;
        self.execute(&m, cell, true, false)?;
        Ok(stats)
    }

    /// Times `layers::run_request` on `cell` and returns its stats.
    fn run_request(&mut self, cell: &Cell) -> Result<(Stats, f64), String> {
        let id = self.tr.begin("matrix.run_request");
        let r = layers::run_request(cell);
        self.tr.end(id);
        let secs = self.tr.duration_s(id);
        self.run_request_s += secs;
        r.map(|(s, _)| (s, secs))
    }
}

/// Engine-level numbers of a run, taken the way the system reports them.
struct Engine {
    cell_work_s: f64,
    packing: f64,
    max_cell_s: f64,
    /// Untraced seconds of the work the traced replay repeated, the base
    /// of `trace.overhead_ratio`, and the traced seconds it took.
    untraced_s: f64,
    traced_s: f64,
}

/// Daemon-side numbers of a run.
struct DaemonProbe {
    healthz_p50_ms: f64,
    healthz_n: usize,
    residual_p50_ms: f64,
    residuals: usize,
}

/// `(wall, cell work)` from the engine line `figures` prints on stderr:
/// `engine: 195 cells in 5.98s on 2 thread(s) (11.91s of cell work; ...)`.
fn engine_line(stderr: &str) -> Option<(f64, f64)> {
    let line = stderr.lines().find(|l| l.starts_with("engine: "))?;
    let wall = line.split(" in ").nth(1)?.split(" on ").next()?;
    let work = line.split(" (").nth(1)?.split(" of cell work").next()?;
    Some((paper::parse_duration(wall)?, paper::parse_duration(work)?))
}

fn probes(quick: bool) -> usize {
    if quick {
        HEALTH_PROBES / 10
    } else {
        HEALTH_PROBES
    }
}

/// `GET /healthz` latencies: the cost of a connection with no work.
fn healthz_p50_ms(addr: &str, probes: usize) -> Result<f64, String> {
    let mut lat = Vec::with_capacity(probes);
    for _ in 0..probes {
        let t = Instant::now();
        match wire::call(addr, "GET", "/healthz", "") {
            Ok((200, _)) => lat.push(t.elapsed().as_secs_f64() * 1e3),
            other => return Err(format!("/healthz answered {other:?}")),
        }
    }
    median(&lat).ok_or_else(|| "no /healthz probe".into())
}

/// The paper matrix through every layer.
fn paper_matrix(
    ctx: &Ctx,
    out: &mut Outcome,
    acc: &mut Acc,
) -> Result<(Engine, DaemonProbe), String> {
    let scale = paper::scale(ctx.quick);
    let want = paper::expected(ctx, scale)?;
    let golden_path = ctx
        .root
        .join(format!("tests/golden/simstats_{scale}_scale.txt"));
    let golden = std::fs::read_to_string(&golden_path)
        .map_err(|e| format!("reading {}: {e}", golden_path.display()))
        .and_then(|t| Golden::parse(&t))?;

    // The engine's own accounting, from one untraced run.
    let run = run_figures(&ctx.bin, &["--scale", scale, "--threads", "2"])?;
    paper::judge(out, &run, &want);
    let (wall, cell_work) = engine_line(&run.stderr).ok_or("no engine line on figures stderr")?;

    // The replica, in the engine's queue order: baselines, then each
    // figure's cells. A quick run replays the first three workloads.
    let mut workloads = layers::paper_workloads(!ctx.quick);
    if ctx.quick {
        workloads.truncate(3);
    }
    let figs = layers::figures();
    let mut cells: Vec<(Option<usize>, usize, usize)> =
        (0..workloads.len()).map(|w| (None, w, 0)).collect();
    for e in 0..figs.len() {
        for w in 0..workloads.len() {
            cells.extend((0..3).map(|m| (Some(e), w, m)));
        }
    }
    let compiler = Compiler::default();
    let mut fronts: HashMap<usize, Front> = HashMap::new();
    let mut modules: HashMap<(usize, &str, u32, u32), (Compiled, Cell)> = HashMap::new();
    let mut results: Vec<(Cell, Stats)> = Vec::new();
    let (mut traced_s, mut max_cell_s) = (0.0f64, 0.0f64);
    for (i, &(e, w, m)) in cells.iter().enumerate() {
        let wl = &workloads[w];
        let (model, issue, branches, caches, max_cycles) = match e {
            None => ("superblock", 1, 1, false, figs[0].max_cycles),
            Some(e) => {
                let f = &figs[e];
                (
                    layers::MODELS[m],
                    f.issue,
                    f.branches,
                    f.caches,
                    f.max_cycles,
                )
            }
        };
        let cell = Cell {
            name: wl.name.to_string(),
            source: wl.source.clone(),
            args: wl.args.clone(),
            model,
            issue,
            branches,
            memory: if caches { "caches" } else { "perfect" },
            max_cycles,
        };
        acc.tr.set_request(i as u64);
        let root = acc.tr.begin("cell");
        let stats = (|| {
            if let Entry::Vacant(slot) = fronts.entry(w) {
                slot.insert(compiler.front(&mut acc.tr, &wl.source, &wl.args)?);
            }
            let key = (w, model, issue, branches);
            if let Entry::Vacant(slot) = modules.entry(key) {
                slot.insert((acc.compile(&compiler, &fronts[&w], &cell)?, cell.clone()));
            }
            // Figure 8 shares its modules with Figure 11's cache runs.
            acc.execute(&modules[&key].0, &cell, caches, e == Some(0))
        })();
        acc.tr.end(root);
        let secs = acc.tr.duration_s(root);
        traced_s += secs;
        max_cell_s = max_cell_s.max(secs);
        out.attempted += 1;
        let stats = match stats {
            Ok(s) => s,
            Err(err) => {
                out.failed += 1;
                out.error(format!("{} cell {i}: {err}", wl.name));
                continue;
            }
        };
        let checked = match e {
            None => figs
                .iter()
                .try_for_each(|f| golden.check(f.title, wl.name, "baseline", &stats)),
            Some(e) => golden.check(figs[e].title, wl.name, model, &stats),
        };
        if let Err(err) = checked {
            out.failed += 1;
            out.error(err);
        }
        results.push((cell, stats));
    }

    // Untraced: every replica module must print as Pipeline::finish's.
    for (&(w, ..), (compiled, cell)) in &modules {
        match compiler.matches_library(&fronts[&w], cell, compiled) {
            Ok(true) => {}
            Ok(false) => out.error(format!(
                "{} {} {}x{}: replica module differs from Pipeline::finish",
                cell.name, cell.model, cell.issue, cell.branches
            )),
            Err(err) => out.error(format!("{}: Pipeline::finish failed: {err}", cell.name)),
        }
    }

    // The matrix's cells through the wire codec and the store: recorded
    // as a resumable run would, then read back after a reopen.
    let dir = ctx.out.join("probe-store");
    let store = acc.tr.time("store.open", || ScratchStore::open(&dir))?;
    let base = cells.len() as u64;
    let mut fps = Vec::new();
    for (i, (cell, stats)) in results.iter().enumerate() {
        acc.tr.set_request(base + i as u64);
        let root = acc.tr.begin("request");
        let body = wire::encode_cell(cell);
        let parsed = acc
            .tr
            .time("service.parse", || layers::parse_request(&body));
        let r = parsed.and_then(|req| {
            let fp = acc
                .tr
                .time("service.fingerprint", || layers::fingerprint(&req));
            acc.gets += 1;
            if acc.tr.time("store.get", || store.get(&fp)).is_some() {
                acc.hits += 1;
            }
            acc.tr.time("store.put", || store.put(&fp, cell, stats))?;
            acc.tr.time("service.serialize", || {
                layers::serialize_served(&fp, stats, false)
            });
            Ok(fp)
        });
        acc.tr.end(root);
        match r {
            Ok(fp) => fps.push(fp),
            Err(err) => out.error(format!("codec or store probe: {err}")),
        }
    }
    acc.tr.time("store.sync", || store.sync())?;
    drop(store);
    let store = acc.tr.time("store.open", || ScratchStore::open(&dir))?;
    for (fp, (_, stats)) in fps.iter().zip(&results) {
        acc.gets += 1;
        match acc.tr.time("store.get", || store.get(fp)) {
            Some(s) if s == *stats => acc.hits += 1,
            other => out.error(format!("store read back {other:?} for {fp}")),
        }
    }

    // The seeded sample through the request path, in process and over
    // the wire. Each sampled cell goes to the daemon twice: computed, then
    // a store hit, whose latency is connection and serving cost; the
    // residual subtracts the in-process cost of serving that hit.
    let sample: Vec<usize> = (0..results.len())
        .filter(|&i| sampled(ctx.seed, i))
        .collect();
    for &i in &sample {
        let (cell, stats) = &results[i];
        match acc.run_request(cell) {
            Ok((s, _)) => {
                if let Err(err) = same_answer(&format!("matrix cell {i}"), stats, &s) {
                    out.error(err);
                }
            }
            Err(err) => out.error(format!("matrix cell {i}: run_request failed: {err}")),
        }
    }
    let (daemon, _) = Daemon::start(&ctx.bin, &ctx.out.join("probe-daemon"))?;
    let healthz = healthz_p50_ms(&daemon.addr, probes(ctx.quick));
    let mut residual = Vec::new();
    for (pass, &i) in sample
        .iter()
        .map(|i| (0, i))
        .chain(sample.iter().map(|i| (1, i)))
    {
        let (cell, stats) = &results[i];
        let body = wire::encode_cell(cell);
        let t = Instant::now();
        let answer = wire::call(&daemon.addr, "POST", "/v1/cell", &body);
        let latency = t.elapsed().as_secs_f64();
        let reply = answer
            .map_err(|e| e.to_string())
            .and_then(|(_, body)| wire::decode_reply(&body));
        match reply {
            Ok(r) if r.stats == Some(*stats) => acc.degraded += u64::from(r.degraded),
            other => out.error(format!("matrix cell {i} over the wire: {other:?}")),
        }
        if pass == 1 {
            let t = Instant::now();
            if let Ok(req) = layers::parse_request(&body) {
                let fp = layers::fingerprint(&req);
                std::hint::black_box(store.get(&fp));
                std::hint::black_box(layers::serialize_served(&fp, stats, true));
            }
            residual.push((latency - t.elapsed().as_secs_f64()) * 1e3);
        }
    }
    daemon.stop()?;
    let engine = Engine {
        cell_work_s: cell_work,
        packing: cell_work / (wall * 2.0),
        max_cell_s,
        untraced_s: cell_work,
        traced_s,
    };
    let probe = DaemonProbe {
        healthz_p50_ms: healthz?,
        healthz_n: probes(ctx.quick),
        residual_p50_ms: median(&residual).unwrap_or(0.0),
        residuals: residual.len(),
    };
    Ok((engine, probe))
}

/// A traced slice of a service workload: the same traffic against the
/// daemon, then the same requests replayed in process.
fn service(
    ctx: &Ctx,
    kind: Kind,
    out: &mut Outcome,
    acc: &mut Acc,
) -> Result<(Engine, DaemonProbe), String> {
    // A fixed slice of the workload's traffic: enough requests for steady
    // per-layer sums, few enough that the serial replay, which recompiles
    // what the daemon computed, stays near a run's length.
    let base = Plan::new(kind, ctx.quick, ctx.seconds);
    let ops = match (kind, ctx.quick) {
        (Kind::Cold, false) => 120,
        (Kind::Warm, false) => 1000,
        (Kind::Cold, true) => 20,
        (Kind::Warm, true) => 100,
    };
    let plan = Plan {
        warmup: 0,
        max_ops: ops,
        budget: None,
        ..base
    };
    let stream = layers::service_stream(ctx.seed, plan.stream_len());
    let mut seen = Consistency::default();
    let mut served = HashMap::new();

    // The daemon side: prefill, then a fresh start on that store.
    let store = ctx.out.join("store");
    let (pre_ops, pre_wall) = if plan.keys > 0 {
        prefill(ctx, &plan, &store, &stream)?
    } else {
        (Vec::new(), 0.0)
    };
    tally(out, &pre_ops, &|_| false, &mut seen, &mut served);
    let (daemon, _) = Daemon::start(&ctx.bin, &store)?;
    let healthz = healthz_p50_ms(&daemon.addr, probes(ctx.quick));
    let (ops, wall) = closed_loop(&daemon.addr, &stream, plan.max_ops, None, &|i| plan.cell(i));
    daemon.stop()?;
    tally(out, &ops, &|c| plan.must_hit(c), &mut seen, &mut served);
    acc.degraded += pre_ops
        .iter()
        .chain(&ops)
        .filter_map(|o| o.reply.as_ref().ok())
        .filter(|r| r.degraded)
        .count() as u64;

    // The same requests in process, serially, on a scratch store.
    let compiler = Compiler::default();
    let dir = ctx.out.join("replay-store");
    let mut scratch = acc.tr.time("store.open", || ScratchStore::open(&dir))?;
    let mut compute_s: HashMap<usize, f64> = HashMap::new();
    let mut replay =
        |acc: &mut Acc, scratch: &ScratchStore, request: u64, c: usize, out: &mut Outcome| -> f64 {
            acc.tr.set_request(request);
            let root = acc.tr.begin("request");
            let body = wire::encode_cell(&stream[c]);
            out.attempted += 1;
            let served_now = acc
                .tr
                .time("service.parse", || layers::parse_request(&body))
                .and_then(|req| acc.serve(&compiler, scratch, &stream[c], &req));
            match served_now {
                Ok((stats, secs)) => {
                    if let Some(secs) = secs {
                        compute_s.insert(c, secs);
                    }
                    let check = served
                        .get(&c)
                        .map(|s| same_answer(&format!("cell {c} replayed"), s, &stats));
                    if let Some(Err(err)) = check {
                        out.failed += 1;
                        out.error(err);
                    }
                }
                Err(err) => {
                    out.failed += 1;
                    out.error(format!("cell {c} replayed: {err}"));
                }
            }
            acc.tr.end(root);
            acc.tr.duration_s(root)
        };
    for k in 0..plan.keys {
        replay(acc, &scratch, k as u64, k, out);
    }
    if plan.keys > 0 {
        acc.tr.time("store.sync", || scratch.sync())?;
        drop(scratch);
        scratch = acc.tr.time("store.open", || ScratchStore::open(&dir))?;
    }
    let mut serve_s: HashMap<usize, VecDeque<f64>> = HashMap::new();
    for i in 0..plan.max_ops {
        let c = plan.cell(i);
        let secs = replay(acc, &scratch, (plan.keys + i) as u64, c, out);
        serve_s.entry(c).or_default().push_back(secs);
    }
    acc.tr.time("store.sync", || scratch.sync())?;

    // The request path without HTTP, JSON or the store: every miss of the
    // measured phase, and the sample of the prefill.
    let mut misses: Vec<usize> = ops
        .iter()
        .map(|o| o.cell)
        .filter(|&c| !plan.must_hit(c))
        .collect();
    misses.sort_unstable();
    misses.dedup();
    let prefill_sample = (0..plan.keys).filter(|&c| sampled(ctx.seed, c));
    let mut request_s: HashMap<usize, f64> = HashMap::new();
    for c in prefill_sample.chain(misses) {
        match acc.run_request(&stream[c]) {
            Ok((s, secs)) => {
                request_s.insert(c, secs);
                if let Some(Err(err)) = served
                    .get(&c)
                    .map(|v| same_answer(&format!("cell {c}"), v, &s))
                {
                    out.failed += 1;
                    out.error(err);
                }
            }
            Err(err) => out.error(format!("cell {c}: run_request failed: {err}")),
        }
    }

    // Residual: client latency minus the in-process cost of the same
    // request, with each miss's compute at run_request's cost (the
    // replay's compute span also holds the cache-model probe).
    let mut residual = Vec::new();
    for op in &ops {
        let Some(mut serve) = serve_s.get_mut(&op.cell).and_then(VecDeque::pop_front) else {
            continue;
        };
        if let (Some(traced), Some(real)) = (compute_s.get(&op.cell), request_s.get(&op.cell)) {
            serve += real - traced;
        }
        residual.push((op.latency_s - serve) * 1e3);
    }

    // Cells timed both ways, for the tracing overhead.
    let both: Vec<usize> = compute_s
        .keys()
        .copied()
        .filter(|c| request_s.contains_key(c))
        .collect();
    let cell_work_s: f64 = compute_s.values().sum();
    let engine = Engine {
        cell_work_s,
        packing: cell_work_s / ((pre_wall + wall) * 2.0),
        max_cell_s: compute_s.values().copied().fold(0.0, f64::max),
        untraced_s: both.iter().map(|c| request_s[c]).sum(),
        traced_s: both.iter().map(|c| compute_s[c]).sum(),
    };
    let probe = DaemonProbe {
        healthz_p50_ms: healthz?,
        healthz_n: probes(ctx.quick),
        residual_p50_ms: median(&residual).unwrap_or(0.0),
        residuals: residual.len(),
    };
    Ok((engine, probe))
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
fn metrics(acc: &Acc, engine: &Engine, probe: &DaemonProbe) -> Vec<Metric> {
    let totals = acc.tr.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let s = |name: &str| total(name).self_s;
    let n = |name: &str| total(name).count as usize;
    let per_s = |count: u64, secs: f64| if secs > 0.0 { count as f64 / secs } else { 0.0 };
    let mut v = Vec::new();
    for stage in STAGES {
        v.push(Metric::new(format!("{stage}.s"), "s", s(stage), n(stage)));
        v.push(Metric::new(
            format!("{stage}.n"),
            "count",
            n(stage) as f64,
            n(stage),
        ));
    }
    let compiles = n("sched.schedule");
    v.push(Metric::new(
        "ir.insts.ifconvert",
        "count",
        acc.ir.after_ifconvert as f64,
        n("hyperblock.ifconvert"),
    ));
    v.push(Metric::new(
        "ir.insts.final",
        "count",
        acc.ir.after_schedule as f64,
        compiles,
    ));
    v.push(Metric::new(
        "emu.decode.s",
        "s",
        s("emu.decode"),
        n("emu.decode"),
    ));
    v.push(Metric::new("emu.run.s", "s", s("emu.run"), n("emu.run")));
    v.push(Metric::new(
        "emu.insts_per_s",
        "insts/s",
        per_s(acc.emu_insts, s("emu.run")),
        n("emu.run"),
    ));
    v.push(Metric::new(
        "sim.perfect.s",
        "s",
        s("sim.perfect"),
        n("sim.perfect"),
    ));
    v.push(Metric::new(
        "sim.timing.s",
        "s",
        s("sim.perfect") - s("emu.run"),
        n("sim.perfect"),
    ));
    v.push(Metric::new(
        "sim.caches.s",
        "s",
        s("sim.caches"),
        n("sim.caches"),
    ));
    v.push(Metric::new(
        "sim.cache_model.s",
        "s",
        s("sim.caches") - acc.paired_perfect_s,
        n("sim.caches"),
    ));
    let sims = n("sim.perfect") + n("sim.caches");
    v.push(Metric::new(
        "sim.cycles_per_s",
        "cycles/s",
        per_s(acc.sim_cycles, s("sim.perfect") + s("sim.caches")),
        sims,
    ));
    v.push(Metric::new(
        "matrix.cell_work.s",
        "s",
        engine.cell_work_s,
        1,
    ));
    v.push(Metric::new("matrix.packing", "ratio", engine.packing, 1));
    v.push(Metric::new("matrix.max_cell.s", "s", engine.max_cell_s, 1));
    v.push(Metric::new(
        "store.open.s",
        "s",
        s("store.open"),
        n("store.open"),
    ));
    v.push(Metric::new(
        "store.get.s",
        "s",
        s("store.get"),
        n("store.get"),
    ));
    v.push(Metric::new(
        "store.get.n",
        "count",
        n("store.get") as f64,
        n("store.get"),
    ));
    let hit_ratio = if acc.gets > 0 {
        acc.hits as f64 / acc.gets as f64
    } else {
        0.0
    };
    v.push(Metric::new(
        "store.hit_ratio",
        "ratio",
        hit_ratio,
        acc.gets as usize,
    ));
    v.push(Metric::new(
        "store.put.s",
        "s",
        s("store.put"),
        n("store.put"),
    ));
    v.push(Metric::new(
        "store.put.n",
        "count",
        n("store.put") as f64,
        n("store.put"),
    ));
    v.push(Metric::new(
        "store.sync.s",
        "s",
        s("store.sync"),
        n("store.sync"),
    ));
    v.push(Metric::new(
        "service.parse.s",
        "s",
        s("service.parse"),
        n("service.parse"),
    ));
    v.push(Metric::new(
        "service.fingerprint.s",
        "s",
        s("service.fingerprint"),
        n("service.fingerprint"),
    ));
    v.push(Metric::new(
        "service.serialize.s",
        "s",
        s("service.serialize"),
        n("service.serialize"),
    ));
    v.push(Metric::new(
        "matrix.run_request.s",
        "s",
        acc.run_request_s,
        n("matrix.run_request"),
    ));
    v.push(Metric::new(
        "daemon.healthz_p50_ms",
        "ms",
        probe.healthz_p50_ms,
        probe.healthz_n,
    ));
    v.push(Metric::new(
        "daemon.residual_p50_ms",
        "ms",
        probe.residual_p50_ms,
        probe.residuals,
    ));
    v.push(Metric::new(
        "daemon.degraded.n",
        "count",
        acc.degraded as f64,
        1,
    ));
    let spans = acc.tr.spans();
    let roots: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| acc.tr.duration_s(s.id))
        .sum();
    let named: f64 = totals
        .iter()
        .filter(|(k, _)| !GROUPS.contains(k))
        .map(|(_, t)| t.self_s)
        .sum();
    v.push(Metric::new(
        "trace.attributed_ratio",
        "ratio",
        named / roots.max(1e-9),
        spans.len(),
    ));
    v.push(Metric::new(
        "trace.overhead_ratio",
        "ratio",
        engine.traced_s / engine.untraced_s.max(1e-9),
        1,
    ));
    v
}

/// Runs the traced replay of one workload. Returns its outcome (per-layer
/// metrics) and the tracer holding every span.
pub fn run(ctx: &Ctx, workload: &str) -> Result<(Outcome, Tracer), String> {
    let mut out = Outcome::default();
    let mut acc = Acc::default();
    let (engine, probe) = match workload {
        "paper-matrix" => paper_matrix(ctx, &mut out, &mut acc)?,
        "service-cold" => service(ctx, Kind::Cold, &mut out, &mut acc)?,
        "service-warm" => service(ctx, Kind::Warm, &mut out, &mut acc)?,
        other => return Err(format!("unknown workload {other}")),
    };
    out.metrics = metrics(&acc, &engine, &probe);
    let attributed = out
        .metrics
        .iter()
        .find(|m| m.name == "trace.attributed_ratio")
        .map_or(0.0, |m| m.value);
    if attributed < MIN_ATTRIBUTED {
        out.error(format!(
            "named layers cover {attributed:.3} of the traced wall, under {MIN_ATTRIBUTED}"
        ));
    }
    Ok((out, acc.tr))
}

/// Where the spans of a traced run are written.
pub fn trace_path(root: &Path, workload: &str, seed: u64) -> std::path::PathBuf {
    root.join(format!("benchmark/out/trace-{workload}-seed{seed}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_metrics_are_the_ones_benchmark_json_lists() {
        let engine = Engine {
            cell_work_s: 1.0,
            packing: 1.0,
            max_cell_s: 1.0,
            untraced_s: 1.0,
            traced_s: 1.0,
        };
        let probe = DaemonProbe {
            healthz_p50_ms: 1.0,
            healthz_n: 1,
            residual_p50_ms: 1.0,
            residuals: 1,
        };
        let got: Vec<(String, String)> = metrics(&Acc::default(), &engine, &probe)
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect();
        assert_eq!(got, crate::tests::listed("per_layer"));
    }

    #[test]
    fn engine_line_parses_the_figures_summary() {
        let err = "engine: 195 cells in 5.98s on 2 thread(s) (11.91s of cell work; 2.0x packing)\n";
        assert_eq!(engine_line(err), Some((5.98, 11.91)));
        assert_eq!(engine_line("no summary"), None);
    }
}
