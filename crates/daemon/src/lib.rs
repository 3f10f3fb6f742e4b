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
//! # Bounded queues and backpressure
//!
//! Two bounds keep a flood typed instead of fatal:
//!
//! * **Connections** — at most [`DaemonConfig::max_connections`]
//!   connection threads; excess connections get an immediate `503` and
//!   close. Memory per connection is bounded by the wire-level body cap.
//! * **Compute** — at most [`DaemonConfig::max_active`] cells compile or
//!   simulate concurrently, with at most [`DaemonConfig::max_waiting`]
//!   queued behind them; a cell past both bounds is answered with the
//!   typed `rejected` status (retry later), never queued unboundedly.
//!   Cache hits bypass the gate entirely — a warm store serves them at
//!   index-lookup speed.
//!
//! # Shutdown
//!
//! [`Daemon::request_shutdown`] (the binary wires SIGTERM/SIGINT to it)
//! flips the daemon into a *draining* state: connections already
//! accepted — and every cell in them — run to completion, while new
//! connections (and `GET /healthz`) are answered with a typed `503
//! draining` so load balancers and retrying clients move on instead of
//! hanging. Once the last connection drains, the store is fsynced and
//! [`Daemon::wait`] returns. Nothing in flight is dropped; a hard kill
//! loses at most records since the last fsync (see
//! [`hyperpred::SyncPolicy`]), recoverable with `hyperpredc fsck`.

use hyperpred::journal::JournalEntry;
use hyperpred::service::{
    batch_response_to_json, parse_batch, parse_request, read_http_request, response_to_json,
    write_http_response, CellResponse, CellStatus,
};
use hyperpred::{
    request_fingerprint, run_request, service_namespace, triage, CellRequest, Pipeline,
    RequestConfig, Store, StoreConfig, SyncPolicy,
};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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

/// The bounded compute gate: `max_active` concurrent computes,
/// `max_waiting` queued behind them, typed rejection past both.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    max_active: usize,
    max_waiting: usize,
}

#[derive(Default)]
struct GateState {
    active: usize,
    waiting: usize,
}

/// RAII compute slot; releasing wakes one waiter.
struct GateGuard<'a> {
    gate: &'a Gate,
}

impl Gate {
    fn new(max_active: usize, max_waiting: usize) -> Gate {
        Gate {
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
            max_active: max_active.max(1),
            max_waiting,
        }
    }

    /// Claims a compute slot, waiting in the bounded queue if necessary.
    ///
    /// # Errors
    /// The typed backpressure message when the queue is full.
    fn acquire(&self) -> Result<GateGuard<'_>, String> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.active < self.max_active {
            st.active += 1;
            return Ok(GateGuard { gate: self });
        }
        if st.waiting >= self.max_waiting {
            return Err(format!(
                "queue full ({} active, {} waiting); retry later",
                st.active, st.waiting
            ));
        }
        st.waiting += 1;
        loop {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            if st.active < self.max_active {
                st.waiting -= 1;
                st.active += 1;
                return Ok(GateGuard { gate: self });
            }
        }
    }

    fn depth(&self) -> (usize, usize) {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        (st.active, st.waiting)
    }
}

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        let mut st = self
            .gate
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        st.active -= 1;
        drop(st);
        self.gate.cv.notify_one();
    }
}

/// Shared daemon state.
struct Inner {
    cfg: DaemonConfig,
    store: Store,
    pipe: Pipeline,
    gate: Gate,
    shutdown: Arc<AtomicBool>,
    conns: Mutex<usize>,
    conns_cv: Condvar,
    stats: Counters,
}

/// A running daemon. Dropping it without [`Daemon::wait`] detaches the
/// threads; the binary always waits.
pub struct Daemon {
    inner: Arc<Inner>,
    addr: std::net::SocketAddr,
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
        // Nonblocking accept + a short sleep lets the loop observe the
        // shutdown flag without any wake-up connection machinery (a
        // signal handler can only touch atomics).
        listener.set_nonblocking(true)?;
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
            gate: Gate::new(max_active, cfg.max_waiting),
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
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The flag a signal handler flips to stop the daemon.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.inner.shutdown)
    }

    /// Asks the daemon to stop accepting; in-flight work drains.
    pub fn request_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
    }

    /// Blocks until the acceptor has stopped and every accepted
    /// connection — and every cell inside it — has drained.
    pub fn wait(mut self) {
        if let Some(h) = self.acceptor.take() {
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

/// The `503` body served for `/healthz` (and the accept path) while the
/// daemon drains.
const DRAINING_BODY: &str = "{\"status\":\"draining\"}";

/// Accepts until the shutdown flag flips; each connection gets a thread
/// (bounded by `max_connections` — excess answered `503` inline).
fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            drain_loop(listener, inner);
            return;
        }
        match listener.accept() {
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
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                eprintln!("hyperpredd: accept error: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
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
            Ok((mut stream, _)) => {
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
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
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
            let body = format!("{{\"error\":\"{}\"}}", e.to_string().replace('"', "'"));
            let _ = write_http_response(&mut stream, status, &body);
            return;
        }
    };
    let (status, body) = dispatch(inner, &req.method, &req.path, &req.body);
    let _ = write_http_response(&mut stream, status, &body);
}

/// Routes one parsed request.
fn dispatch(inner: &Inner, method: &str, path: &str, body: &str) -> (u16, String) {
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
            Ok(req) => (200, response_to_json(&serve_cell(inner, &req))),
            Err(e) => (400, format!("{{\"error\":\"{}\"}}", e.replace('"', "'"))),
        },
        ("POST", "/v1/cells") => match parse_batch(body) {
            Ok(reqs) => {
                let results: Vec<CellResponse> =
                    reqs.iter().map(|r| serve_cell(inner, r)).collect();
                (200, batch_response_to_json(&results))
            }
            Err(e) => (400, format!("{{\"error\":\"{}\"}}", e.replace('"', "'"))),
        },
        _ => (404, "{\"error\":\"no such endpoint\"}".to_string()),
    }
}

/// Answers one cell: conflicted → refused, stored → hit, else compute
/// under the bounded gate, record, answer.
fn serve_cell(inner: &Inner, req: &CellRequest) -> CellResponse {
    let fp = request_fingerprint(req, &inner.pipe, inner.cfg.request.degrade);
    if inner.store.is_conflicted(&fp) {
        inner.stats.conflicts.fetch_add(1, Ordering::Relaxed);
        return CellResponse::conflict(fp);
    }
    if let Some(stats) = inner.store.get(&fp) {
        inner.stats.hits.fetch_add(1, Ordering::Relaxed);
        return CellResponse::served(CellStatus::Hit, fp, stats, false);
    }
    let _slot = match inner.gate.acquire() {
        Ok(slot) => slot,
        Err(msg) => {
            inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return CellResponse::rejected(msg);
        }
    };
    // Double-check under the slot: a concurrent identical request may
    // have computed and recorded while this one queued.
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
    let (active, waiting) = inner.gate.depth();
    format!(
        "{{\"cells\":{},\"store_conflicts\":{},\"corrupt\":{},\"hits\":{},\"computed\":{},\
         \"failed\":{},\"rejected\":{},\"conflicts\":{},\"busy\":{},\"active\":{},\"waiting\":{},\
         \"draining\":{}}}",
        inner.store.len(),
        inner.store.conflicts(),
        inner.store.corrupt(),
        inner.stats.hits.load(Ordering::Relaxed),
        inner.stats.computed.load(Ordering::Relaxed),
        inner.stats.failed.load(Ordering::Relaxed),
        inner.stats.rejected.load(Ordering::Relaxed),
        inner.stats.conflicts.load(Ordering::Relaxed),
        inner.stats.busy.load(Ordering::Relaxed),
        active,
        waiting,
        inner.shutdown.load(Ordering::Acquire),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_bounds_active_and_waiting() {
        let gate = Gate::new(1, 1);
        let a = gate.acquire().expect("first slot");
        // Queue position taken by a thread that will hold it.
        let gate2: &'static Gate = Box::leak(Box::new(Gate::new(1, 0)));
        let b = gate2.acquire().expect("slot");
        assert!(
            gate2.acquire().is_err(),
            "zero waiting slots → immediate typed rejection"
        );
        drop(b);
        assert!(gate2.acquire().is_ok(), "released slot is reusable");
        drop(a);
        let (active, waiting) = gate.depth();
        assert_eq!((active, waiting), (0, 0));
    }
}
