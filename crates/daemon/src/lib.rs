//! `hyperpredd` — the long-running compile-and-simulate service.
//!
//! The daemon accepts MiniC sources plus machine/model parameters over a
//! local HTTP API (see [`hyperpred::service`] for the wire protocol),
//! runs each cell through the engine's contained request path
//! ([`hyperpred::run_request`] — panic capture, bounded retries,
//! cooperative deadlines, budget degradation), and serves results from a
//! persistent content-addressed [`Store`] keyed by the journal
//! fingerprint. A repeated request never recomputes: it is answered
//! bit-identically from the store.
//!
//! # Connections
//!
//! The acceptor blocks in `accept()`, so a connection is picked up the
//! moment it arrives; nothing on a request's path sleeps or polls. Each
//! connection gets its own short-lived thread, at most
//! [`DaemonConfig::max_connections`] at once; an excess connection gets
//! an immediate `503` and closes. Memory per connection is bounded by
//! the wire-level head and body caps. The connection thread parses,
//! keys and probes the store, so a hit is answered without leaving it.
//!
//! # Compute
//!
//! A cell that misses the store becomes a job for the compute pool: at
//! most [`DaemonConfig::max_active`] long-lived threads, spawned on
//! first use (a daemon that serves only hits starts none), with at most
//! [`DaemonConfig::max_waiting`] jobs queued behind them. A cell past
//! both bounds is answered with the typed `rejected` status (retry
//! later), never queued unboundedly. The connection thread waits for its
//! job's answer. Compiling on a few long-lived threads, rather than on
//! each connection's own, keeps the allocator's per-thread arenas — and
//! with them the daemon's peak memory — as few as the compute slots.
//!
//! # Shutdown
//!
//! [`Daemon::request_shutdown`] and the binary's SIGTERM/SIGINT handler
//! only set a flag. [`Daemon::wait`] checks that flag every 10 ms and,
//! once it is set, connects to the daemon's own port (retrying, and
//! logging each failure, until a connection lands) so the blocked
//! `accept()` returns. From then on the daemon is *draining*:
//! connections already accepted — and every cell in them — run to
//! completion, while new connections (and `GET /healthz`) are answered
//! with a typed `503 draining` so load balancers and retrying clients
//! move on instead of hanging. Once the last connection drains, the
//! compute threads exit, the store is fsynced and [`Daemon::wait`]
//! returns. Nothing in flight is dropped; a hard kill loses at most
//! records since the last fsync (see [`hyperpred::SyncPolicy`]),
//! recoverable with `hyperpredc fsck`.

use hyperpred::journal::JournalEntry;
use hyperpred::json::Object;
use hyperpred::service::{
    batch_response_to_json, parse_batch, parse_request, read_http_request, response_to_json,
    write_http_response, CellResponse, CellStatus,
};
use hyperpred::{
    request_fingerprint, run_request, service_namespace, triage, CellRequest, Pipeline,
    RequestConfig, Store, StoreConfig, SyncPolicy,
};
use std::collections::VecDeque;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything the daemon needs to start.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Directory of the content-addressed result store.
    pub store_dir: PathBuf,
    /// Concurrent compute slots (0 = one per available core).
    pub max_active: usize,
    /// Cells allowed to queue behind the active ones before the typed
    /// `rejected` answer.
    pub max_waiting: usize,
    /// Concurrent connection threads before an immediate `503`.
    pub max_connections: usize,
    /// Retry/deadline/degradation policy for every computed cell.
    pub request: RequestConfig,
    /// Store fsync policy — how many acked appends a power loss may cost.
    pub sync: SyncPolicy,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:7199".to_string(),
            store_dir: PathBuf::from("hyperpredd-store"),
            max_active: 0,
            max_waiting: 64,
            max_connections: 32,
            request: RequestConfig::default(),
            sync: SyncPolicy::default(),
        }
    }
}

/// Monotonic service counters (served by `GET /v1/stats`).
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    computed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    conflicts: AtomicU64,
    busy: AtomicU64,
}

/// A cell computation for the compute pool.
type Job = Box<dyn FnOnce() -> CellResponse + Send>;

/// The bounded compute pool: at most `max_active` long-lived threads,
/// spawned when a job finds every one busy, run jobs from a queue of at
/// most `max_waiting`; typed rejection past both.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a job is queued or the pool closes.
    wake: Condvar,
    max_active: usize,
    max_waiting: usize,
}

#[derive(Default)]
struct PoolState {
    /// Queued jobs, each with the channel its connection waits on.
    queue: VecDeque<(Job, mpsc::SyncSender<CellResponse>)>,
    /// Jobs a compute thread is running.
    running: usize,
    threads: Vec<JoinHandle<()>>,
    closed: bool,
}

impl Pool {
    fn new(max_active: usize, max_waiting: usize) -> Pool {
        Pool {
            state: Mutex::new(PoolState::default()),
            wake: Condvar::new(),
            max_active: max_active.max(1),
            max_waiting,
        }
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `job` for a free compute thread, starting one if every
    /// thread is running a job or has one queued for it and fewer than
    /// `max_active` exist. The receiver yields the job's answer, or
    /// disconnects if the job panicked.
    ///
    /// # Errors
    /// The typed backpressure message when the queue is full.
    fn submit(self: &Arc<Pool>, job: Job) -> Result<mpsc::Receiver<CellResponse>, String> {
        let mut st = self.lock();
        let (active, waiting) = self.depth_of(&st);
        if active + waiting >= self.max_active + self.max_waiting {
            return Err(format!(
                "queue full ({active} active, {waiting} waiting); retry later"
            ));
        }
        if st.running + st.queue.len() >= st.threads.len() && st.threads.len() < self.max_active {
            let pool = Arc::clone(self);
            match std::thread::Builder::new()
                .name("hyperpredd-compute".to_string())
                .spawn(move || pool.work())
            {
                Ok(handle) => st.threads.push(handle),
                // With no thread to run it, the job would wait forever.
                Err(e) if st.threads.is_empty() => {
                    return Err(format!("cannot start a compute thread ({e}); retry later"));
                }
                Err(_) => {}
            }
        }
        let (tx, rx) = mpsc::sync_channel(1);
        st.queue.push_back((job, tx));
        drop(st);
        self.wake.notify_one();
        Ok(rx)
    }

    /// A compute thread's life: run jobs until the pool closes. A job's
    /// slot is freed before its answer goes out, so the connection's next
    /// miss finds it free (and, on a thread that is not running a job,
    /// needs no new thread). A job that panics drops its answer channel,
    /// which its connection reads as a failure; the thread carries on.
    fn work(&self) {
        loop {
            let (job, answer) = {
                let mut st = self.lock();
                loop {
                    if let Some(next) = st.queue.pop_front() {
                        st.running += 1;
                        break next;
                    }
                    if st.closed {
                        return;
                    }
                    st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let result = catch_unwind(AssertUnwindSafe(job));
            self.lock().running -= 1;
            if let Ok(response) = result {
                let _ = answer.send(response);
            }
        }
    }

    /// `(active, waiting)` as `/v1/stats` reports them: admitted cells
    /// holding a compute slot, and those queued behind the slots.
    fn depth(&self) -> (usize, usize) {
        self.depth_of(&self.lock())
    }

    fn depth_of(&self, st: &PoolState) -> (usize, usize) {
        let admitted = st.running + st.queue.len();
        let active = admitted.min(self.max_active);
        (active, admitted - active)
    }

    /// Lets the compute threads finish the queue, then joins them.
    fn close(&self) {
        let threads = {
            let mut st = self.lock();
            st.closed = true;
            std::mem::take(&mut st.threads)
        };
        self.wake.notify_all();
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Shared daemon state.
struct Inner {
    cfg: DaemonConfig,
    store: Store,
    pipe: Pipeline,
    pool: Arc<Pool>,
    shutdown: Arc<AtomicBool>,
    conns: Mutex<usize>,
    conns_cv: Condvar,
    stats: Counters,
}

/// A running daemon. Dropping it without [`Daemon::wait`] detaches the
/// threads; the binary always waits.
pub struct Daemon {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds, opens the store, and starts the acceptor.
    ///
    /// # Errors
    /// Bind or store-open failures.
    pub fn start(cfg: DaemonConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let store = Store::open_with(
            &cfg.store_dir,
            StoreConfig {
                sync: cfg.sync,
                ..StoreConfig::default()
            },
        )?;
        let max_active = if cfg.max_active == 0 {
            std::thread::available_parallelism().map_or(4, usize::from)
        } else {
            cfg.max_active
        };
        let inner = Arc::new(Inner {
            pool: Arc::new(Pool::new(max_active, cfg.max_waiting)),
            cfg,
            store,
            pipe: Pipeline::default(),
            shutdown: Arc::new(AtomicBool::new(false)),
            conns: Mutex::new(0),
            conns_cv: Condvar::new(),
            stats: Counters::default(),
        });
        eprintln!(
            "hyperpredd: listening on {addr}, store {} ({} cells, {} conflicts, {} corrupt)",
            inner.store.dir().display(),
            inner.store.len(),
            inner.store.conflicts(),
            inner.store.corrupt(),
        );
        let acc_inner = Arc::clone(&inner);
        let acceptor = std::thread::spawn(move || accept_loop(&listener, &acc_inner));
        Ok(Daemon {
            inner,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (matters when the config asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The flag a signal handler flips to stop the daemon.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.inner.shutdown)
    }

    /// Asks the daemon to stop accepting; in-flight work drains once
    /// [`Daemon::wait`] sees the request.
    pub fn request_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
    }

    /// Blocks until shutdown is requested, then until the acceptor has
    /// stopped and every accepted connection — and every cell inside
    /// it — has drained.
    pub fn wait(mut self) {
        // The acceptor blocks in `accept()` and a signal handler may only
        // store to the flag, so this is the one place that notices the
        // flag and wakes the acceptor with a connection of its own.
        while !self.inner.shutdown.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Some(h) = self.acceptor.take() {
            wake_acceptor(loopback(self.addr), &h);
            let _ = h.join();
        }
        let mut conns = self
            .inner
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *conns > 0 {
            conns = self
                .inner
                .conns_cv
                .wait(conns)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(conns);
        self.inner.pool.close();
        // Everything acked is flushed; make it durable before reporting
        // a clean exit.
        if let Err(e) = self.inner.store.sync() {
            eprintln!("hyperpredd: final store fsync failed: {e}");
        }
        eprintln!(
            "hyperpredd: drained; {} hit, {} computed, {} failed, {} rejected, {} conflicted; \
             store holds {} cells",
            self.inner.stats.hits.load(Ordering::Relaxed),
            self.inner.stats.computed.load(Ordering::Relaxed),
            self.inner.stats.failed.load(Ordering::Relaxed),
            self.inner.stats.rejected.load(Ordering::Relaxed),
            self.inner.stats.conflicts.load(Ordering::Relaxed),
            self.inner.store.len(),
        );
    }
}

/// Where to connect to reach a listener bound to `addr`: loopback in
/// place of an unspecified address.
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    addr
}

/// Connects to `addr` until a connection lands — one in the listener's
/// backlog is sure to return the acceptor's blocked `accept()` — or the
/// acceptor has stopped on its own. Each failed attempt is logged.
fn wake_acceptor(addr: SocketAddr, acceptor: &JoinHandle<()>) {
    while !acceptor.is_finished() {
        match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
            Ok(_) => return,
            Err(e) => {
                eprintln!("hyperpredd: cannot wake the acceptor at {addr}: {e}; retrying");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// The `503` body served for `/healthz` (and the accept path) while the
/// daemon drains.
const DRAINING_BODY: &str = "{\"status\":\"draining\"}";

/// Accepts until the shutdown flag flips; each connection gets a thread
/// (bounded by `max_connections` — excess answered `503` inline). The
/// first connection accepted after the flip — [`Daemon::wait`]'s wake-up,
/// or a client's — is answered `503 draining` and starts the drain.
fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        let accepted = listener.accept();
        if inner.shutdown.load(Ordering::Acquire) {
            if let Ok((stream, _)) = accepted {
                answer_draining(stream);
            }
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                let admitted = {
                    let mut conns = inner.conns.lock().unwrap_or_else(PoisonError::into_inner);
                    if *conns >= inner.cfg.max_connections {
                        false
                    } else {
                        *conns += 1;
                        true
                    }
                };
                if !admitted {
                    inner.stats.busy.fetch_add(1, Ordering::Relaxed);
                    let mut stream = stream;
                    let _ = write_http_response(
                        &mut stream,
                        503,
                        "{\"error\":\"connection limit reached; retry later\"}",
                    );
                    continue;
                }
                let conn_inner = Arc::clone(inner);
                std::thread::spawn(move || {
                    handle_connection(stream, &conn_inner);
                    let mut conns = conn_inner
                        .conns
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    *conns -= 1;
                    drop(conns);
                    conn_inner.conns_cv.notify_all();
                });
            }
            Err(e) => {
                eprintln!("hyperpredd: accept error: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    // The drain ends when the last connection does, not when one arrives,
    // so it polls; it runs only during shutdown.
    match listener.set_nonblocking(true) {
        Ok(()) => drain_loop(listener, inner),
        Err(e) => eprintln!("hyperpredd: cannot drain the listener: {e}"),
    }
}

/// While in-flight connections finish, keep the listener alive and
/// answer every late arrival inline with a typed `503 draining` (a
/// closed listener would surface as connection-refused/reset, which
/// clients cannot distinguish from a crash). Returns once the last
/// accepted connection has drained.
fn drain_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        let active = *inner.conns.lock().unwrap_or_else(PoisonError::into_inner);
        if active == 0 {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => answer_draining(stream),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Answers a connection that arrived during the drain with a `503`.
fn answer_draining(mut stream: TcpStream) {
    // Some platforms hand out accepted sockets in the listener's
    // nonblocking mode; the read below needs its timeout instead.
    stream.set_nonblocking(false).ok();
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .ok();
    let body = match read_http_request(&mut stream) {
        Ok(Some(req)) if req.path == "/healthz" => DRAINING_BODY,
        _ => "{\"error\":\"draining; retry later\"}",
    };
    let _ = write_http_response(&mut stream, 503, body);
}

/// Serves one connection: one request, one response, close.
fn handle_connection(mut stream: TcpStream, inner: &Arc<Inner>) {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let req = match read_http_request(&mut stream) {
        Ok(Some(req)) => req,
        Ok(None) => return,
        Err(e) => {
            let status = if e.to_string().contains("exceeds cap") {
                413
            } else {
                400
            };
            let body = Object::default().str("error", &e.to_string()).finish();
            let _ = write_http_response(&mut stream, status, &body);
            return;
        }
    };
    let (status, body) = dispatch(inner, &req.method, &req.path, &req.body);
    let _ = write_http_response(&mut stream, status, &body);
}

/// Routes one parsed request.
fn dispatch(inner: &Arc<Inner>, method: &str, path: &str, body: &str) -> (u16, String) {
    match (method, path) {
        ("GET", "/healthz") => {
            if inner.shutdown.load(Ordering::Acquire) {
                (503, DRAINING_BODY.to_string())
            } else {
                (200, "{\"status\":\"ok\"}".to_string())
            }
        }
        ("GET", "/v1/stats") => (200, stats_json(inner)),
        ("POST", "/v1/cell") => match parse_request(body) {
            Ok(req) => (200, response_to_json(&serve_cell(inner, req))),
            Err(e) => (400, Object::default().str("error", &e).finish()),
        },
        ("POST", "/v1/cells") => match parse_batch(body) {
            Ok(reqs) => {
                let results: Vec<CellResponse> =
                    reqs.into_iter().map(|r| serve_cell(inner, r)).collect();
                (200, batch_response_to_json(&results))
            }
            Err(e) => (400, Object::default().str("error", &e).finish()),
        },
        _ => (404, "{\"error\":\"no such endpoint\"}".to_string()),
    }
}

/// Answers one cell: conflicted → refused, stored → hit, else a job for
/// the compute pool, whose answer this connection waits for.
fn serve_cell(inner: &Arc<Inner>, req: CellRequest) -> CellResponse {
    let fp = request_fingerprint(&req, &inner.pipe, inner.cfg.request.degrade);
    if inner.store.is_conflicted(&fp) {
        inner.stats.conflicts.fetch_add(1, Ordering::Relaxed);
        return CellResponse::conflict(fp);
    }
    if let Some(stats) = inner.store.get(&fp) {
        inner.stats.hits.fetch_add(1, Ordering::Relaxed);
        return CellResponse::served(CellStatus::Hit, fp, stats, false);
    }
    let job_inner = Arc::clone(inner);
    let job_fp = fp.clone();
    let answer = match inner
        .pool
        .submit(Box::new(move || compute_cell(&job_inner, &req, job_fp)))
    {
        Ok(answer) => answer,
        Err(msg) => {
            inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return CellResponse::rejected(msg);
        }
    };
    answer.recv().unwrap_or_else(|_| {
        inner.stats.failed.fetch_add(1, Ordering::Relaxed);
        CellResponse::failed(
            fp,
            "daemon".to_string(),
            "panic: compute job".to_string(),
            "the compute job panicked outside the request's containment".to_string(),
        )
    })
}

/// A compute job's body: store check, compute, record, answer.
fn compute_cell(inner: &Inner, req: &CellRequest, fp: String) -> CellResponse {
    // Check again on the compute thread: a concurrent identical request
    // may have computed and recorded while this one queued.
    if let Some(stats) = inner.store.get(&fp) {
        inner.stats.hits.fetch_add(1, Ordering::Relaxed);
        return CellResponse::served(CellStatus::Hit, fp, stats, false);
    }
    match run_request(req, &inner.pipe, &inner.cfg.request) {
        Ok((stats, degradation)) => {
            let recorded = inner.store.put(&JournalEntry {
                fingerprint: &fp,
                workload: &req.name,
                experiment: service_namespace(inner.cfg.request.degrade),
                model: Some(req.model),
                stats: &stats,
            });
            match recorded {
                Ok(hyperpred::RecordOutcome::Conflict) => {
                    // Someone recorded *different* stats for this key
                    // while we computed: determinism is broken somewhere;
                    // refuse the key rather than pick a side.
                    inner.stats.conflicts.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "hyperpredd: fingerprint conflict on {fp} ({}); key quarantined",
                        req.name
                    );
                    CellResponse::conflict(fp)
                }
                Ok(_) => {
                    inner.stats.computed.fetch_add(1, Ordering::Relaxed);
                    CellResponse::served(CellStatus::Computed, fp, stats, degradation.is_degraded())
                }
                Err(e) => {
                    // Durability degraded (e.g. disk full): still answer
                    // the computed stats, but say so in the log.
                    eprintln!("hyperpredd: store append failed: {e}");
                    inner.stats.computed.fetch_add(1, Ordering::Relaxed);
                    CellResponse::served(CellStatus::Computed, fp, stats, degradation.is_degraded())
                }
            }
        }
        Err(failure) => {
            inner.stats.failed.fetch_add(1, Ordering::Relaxed);
            CellResponse::failed(
                fp,
                failure.stage.to_string(),
                triage::signature(&failure.payload),
                failure.to_string(),
            )
        }
    }
}

/// Renders `GET /v1/stats`.
fn stats_json(inner: &Inner) -> String {
    let (active, waiting) = inner.pool.depth();
    let count = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    Object::default()
        .u64("cells", inner.store.len() as u64)
        .u64("store_conflicts", inner.store.conflicts() as u64)
        .u64("corrupt", inner.store.corrupt() as u64)
        .u64("hits", count(&inner.stats.hits))
        .u64("computed", count(&inner.stats.computed))
        .u64("failed", count(&inner.stats.failed))
        .u64("rejected", count(&inner.stats.rejected))
        .u64("conflicts", count(&inner.stats.conflicts))
        .u64("busy", count(&inner.stats.busy))
        .u64("active", active as u64)
        .u64("waiting", waiting as u64)
        .bool("draining", inner.shutdown.load(Ordering::Acquire))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in answer; the pool never looks inside one.
    fn answer(text: &str) -> CellResponse {
        CellResponse::rejected(text.to_string())
    }

    /// A job that reports when it starts, then holds its compute slot
    /// until `release` is dropped.
    fn holding_job(started: &mpsc::Sender<()>, release: mpsc::Receiver<()>) -> Job {
        let started = started.clone();
        Box::new(move || {
            let _ = started.send(());
            let _ = release.recv();
            answer("released")
        })
    }

    #[test]
    fn pool_bounds_active_and_waiting() {
        let pool = Arc::new(Pool::new(1, 1));
        assert!(pool.lock().threads.is_empty(), "no thread before a job");
        let (started_tx, started) = mpsc::channel();
        let (release_a, hold_a) = mpsc::channel();
        let (release_b, hold_b) = mpsc::channel();
        let first = pool
            .submit(holding_job(&started_tx, hold_a))
            .expect("first slot");
        started.recv().expect("first job runs");
        let second = pool
            .submit(holding_job(&started_tx, hold_b))
            .expect("queue position");
        assert_eq!(pool.depth(), (1, 1));
        let err = pool
            .submit(Box::new(|| answer("never runs")))
            .expect_err("past both bounds");
        assert!(err.contains("queue full (1 active, 1 waiting)"), "{err}");
        drop(release_a);
        assert_eq!(first.recv(), Ok(answer("released")));
        started.recv().expect("queued job runs once the slot frees");
        assert_eq!(pool.depth(), (1, 0));
        drop(release_b);
        assert_eq!(second.recv(), Ok(answer("released")));
        assert_eq!(pool.depth(), (0, 0), "slot freed before the answer");
        assert_eq!(pool.lock().threads.len(), 1, "one slot, one thread");

        // Zero waiting slots: immediate typed rejection while the slot
        // is held, and the released slot is reusable.
        let pool = Arc::new(Pool::new(1, 0));
        let (release, hold) = mpsc::channel();
        let held = pool.submit(holding_job(&started_tx, hold)).expect("slot");
        started.recv().expect("job runs");
        assert!(pool.submit(Box::new(|| answer("never runs"))).is_err());
        drop(release);
        held.recv().expect("answered");
        pool.submit(Box::new(|| answer("again")))
            .expect("released slot is reusable");
        pool.close();
        assert_eq!(pool.depth(), (0, 0));
    }

    #[test]
    fn back_to_back_jobs_are_never_rejected_and_share_one_thread() {
        for max_active in [1, 2] {
            let pool = Arc::new(Pool::new(max_active, 0));
            for i in 0..500 {
                let rx = pool
                    .submit(Box::new(move || answer(&i.to_string())))
                    .unwrap_or_else(|e| {
                        panic!("job {i} rejected after its predecessor answered: {e}")
                    });
                assert_eq!(rx.recv(), Ok(answer(&i.to_string())));
            }
            assert_eq!(
                pool.lock().threads.len(),
                1,
                "one caller at a time needs one compute thread"
            );
            pool.close();
        }
    }

    #[test]
    fn concurrent_jobs_start_threads_up_to_max_active() {
        let pool = Arc::new(Pool::new(2, 4));
        let (started_tx, started) = mpsc::channel();
        let (release, hold) = (0..3)
            .map(|_| mpsc::channel())
            .unzip::<_, _, Vec<_>, Vec<_>>();
        let answers: Vec<_> = hold
            .into_iter()
            .map(|h| pool.submit(holding_job(&started_tx, h)).expect("admitted"))
            .collect();
        started.recv().expect("first job runs");
        started.recv().expect("second job runs beside it");
        assert_eq!(pool.depth(), (2, 1));
        assert_eq!(pool.lock().threads.len(), 2, "never past max_active");
        drop(release);
        for a in answers {
            assert_eq!(a.recv(), Ok(answer("released")));
        }
        pool.close();
    }

    #[test]
    fn panicking_job_disconnects_its_answer_and_the_thread_survives() {
        let pool = Arc::new(Pool::new(1, 4));
        let rx = pool
            .submit(Box::new(|| panic!("outside run_request's containment")))
            .expect("admitted");
        assert!(rx.recv().is_err(), "the answer channel disconnects");
        let rx = pool.submit(Box::new(|| answer("next"))).expect("admitted");
        assert_eq!(
            rx.recv(),
            Ok(answer("next")),
            "the pool's one thread runs the next job"
        );
        assert_eq!(pool.lock().threads.len(), 1);
        pool.close();
    }

    /// A loopback address nobody listens on (until a test binds it).
    fn unused_addr() -> SocketAddr {
        TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("free port")
    }

    /// Runs `wake_acceptor` and then joins the acceptor, on a thread of
    /// their own; `None` if that has not finished within 10 s.
    fn wake_and_join(addr: SocketAddr, acceptor: JoinHandle<()>) -> Option<bool> {
        let (done_tx, done) = mpsc::channel();
        std::thread::spawn(move || {
            wake_acceptor(addr, &acceptor);
            let _ = done_tx.send(acceptor.join().is_ok());
        });
        done.recv_timeout(Duration::from_secs(10)).ok()
    }

    #[test]
    fn wake_acceptor_retries_until_a_connection_lands() {
        // The first attempts find nothing listening and fail.
        let addr = unused_addr();
        let acceptor = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            let listener = TcpListener::bind(addr).expect("bind the freed port");
            let _ = listener.accept();
        });
        assert_eq!(wake_and_join(addr, acceptor), Some(true));
    }

    #[test]
    fn wake_acceptor_stops_retrying_once_the_acceptor_has_stopped() {
        let acceptor = std::thread::spawn(|| std::thread::sleep(Duration::from_millis(300)));
        assert_eq!(wake_and_join(unused_addr(), acceptor), Some(true));
    }
}
