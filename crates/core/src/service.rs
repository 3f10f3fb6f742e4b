//! Wire protocol and client for the `hyperpredd` compile-and-simulate
//! service: the request, response and batch codecs (on [`crate::json`],
//! the crate's one JSON reader and writer), a minimal HTTP/1.1
//! reader/writer shared by the daemon and its clients, and the
//! `bench-load` request generator.
//!
//! # Protocol
//!
//! Everything rides HTTP/1.1 over a local TCP socket, one request per
//! connection (`Connection: close`). Endpoints:
//!
//! * `POST /v1/cell` — body is one cell-request object; response is one
//!   cell-response object.
//! * `POST /v1/cells` — body is `{"cells":[...]}`; response is
//!   `{"results":[...]}` in request order.
//! * `GET /v1/stats` — daemon counters (cells stored, hits, computed,
//!   failed, rejected, conflicts, queue depth).
//! * `GET /healthz` — liveness probe, body `ok`.
//!
//! A cell request (standard JSON escapes decode; a field present with
//! the wrong type is a `400` naming it; `source` is still written last,
//! which keeps the bytes earlier clients sent but guards against nothing):
//!
//! ```text
//! {"name":"gen-branchy-1","model":"fullpred","issue":8,"branches":1,
//!  "memory":"perfect","max_cycles":10000000000,"args":[1,-2],
//!  "source":"int main() { ... }"}
//! ```
//!
//! A cell response is one of five statuses. `hit` and `computed` carry
//! the full flattened [`SimStats`] plus the degradation flag; `failed`
//! carries the stage, stable triage signature, and rendered error;
//! `rejected` is the typed backpressure answer (queue full — retry
//! later); `conflict` means the store refuses the key (two different
//! results were recorded under the same fingerprint — see
//! [`JournalConflict`](crate::journal::JournalConflict)).
//!
//! ```text
//! {"status":"hit","fingerprint":"92ab...","degraded":false,"cycles":123,...,"ret":42}
//! {"status":"failed","fingerprint":"92ab...","stage":"compile","signature":"compile: ...","error":"..."}
//! {"status":"rejected","fingerprint":"","error":"queue full (depth 256); retry later"}
//! ```

use crate::journal::{model_from_slug, model_slug, push_stats, read_stats};
use crate::json::{self, Object, Value};
use crate::matrix::CellRequest;
use crate::pipeline::Model;
use hyperpred_sim::{CacheConfig, MemoryModel, SimStats, DEFAULT_CYCLE_LIMIT};
use hyperpred_workloads::gen::{self, Profile};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Largest request/response body either side will read. Bounded so a
/// damaged or hostile peer degrades into a typed `413`, never unbounded
/// memory.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Largest message head — request or status line plus headers — either
/// side will read; past it, the same typed `413` as the body cap.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

// ---------------------------------------------------------------------------
// Cell request serialization.
// ---------------------------------------------------------------------------

/// The wire slug of a memory model (`CacheConfig` geometry is always the
/// default one; the experiment layer never uses another).
pub(crate) fn memory_slug(m: &MemoryModel) -> &'static str {
    match m {
        MemoryModel::Perfect => "perfect",
        MemoryModel::Caches(_) => "caches",
    }
}

pub(crate) fn parse_memory(slug: &str) -> Option<MemoryModel> {
    match slug {
        "perfect" => Some(MemoryModel::Perfect),
        "caches" => Some(MemoryModel::Caches(CacheConfig::default())),
        _ => None,
    }
}

/// Serializes one request. `source` goes last (see module docs).
pub fn request_to_json(req: &CellRequest) -> String {
    Object::default()
        .str("name", &req.name)
        .str("model", model_slug(Some(req.model)))
        .u64("issue", req.issue.into())
        .u64("branches", req.branches.into())
        .str("memory", memory_slug(&req.memory))
        .u64("max_cycles", req.max_cycles)
        .raw("args", &json::array(req.args.iter().map(i64::to_string)))
        .str("source", &req.source)
        .finish()
}

/// A required width field; a value past `u32` is an error naming the
/// field, never a silently truncated width.
pub(crate) fn width(v: &Value<'_>, key: &str) -> Result<u32, String> {
    let n = v
        .field(key, Value::num::<u64>)?
        .ok_or_else(|| format!("missing field `{key}`"))?;
    u32::try_from(n).map_err(|_| format!("field `{key}` out of range: {n}"))
}

/// Reads one parsed request object.
fn request_from(v: &Value<'_>) -> Result<CellRequest, String> {
    let text = |key: &str| v.field(key, Value::as_str);
    let model_slug = text("model")?.ok_or("missing field `model`")?;
    let model =
        model_from_slug(model_slug).ok_or_else(|| format!("unknown model `{model_slug}`"))?;
    let memory_slug = text("memory")?.unwrap_or("perfect");
    let memory =
        parse_memory(memory_slug).ok_or_else(|| format!("unknown memory `{memory_slug}`"))?;
    Ok(CellRequest {
        name: text("name")?.unwrap_or_default().to_string(),
        source: text("source")?.ok_or("missing field `source`")?.to_string(),
        args: v
            .field("args", |a| a.as_array()?.iter().map(Value::num).collect())?
            .unwrap_or_default(),
        model,
        issue: width(v, "issue")?,
        branches: width(v, "branches")?,
        memory,
        max_cycles: v
            .field("max_cycles", Value::num)?
            .unwrap_or(DEFAULT_CYCLE_LIMIT),
    })
}

/// Parses one request object; the error names the first missing or
/// malformed field (it becomes the daemon's `400` body).
pub fn parse_request(json: &str) -> Result<CellRequest, String> {
    request_from(&json::parse(json).map_err(|e| e.to_string())?)
}

/// Serializes a batch body: `{"cells":[...]}`.
pub fn batch_to_json(reqs: &[CellRequest]) -> String {
    Object::default()
        .raw("cells", &json::array(reqs.iter().map(request_to_json)))
        .finish()
}

/// The array under `key` of a parsed batch object, each element read by
/// `item` (errors prefixed with `label` and the element's index).
fn batch_from<T>(
    body: &str,
    key: &str,
    label: &str,
    item: impl Fn(&Value<'_>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let v = json::parse(body).map_err(|e| e.to_string())?;
    let items = v
        .field(key, Value::as_array)?
        .ok_or_else(|| format!("missing array `{key}`"))?;
    items
        .iter()
        .enumerate()
        .map(|(i, v)| item(v).map_err(|e| format!("{label} {i}: {e}")))
        .collect()
}

/// Parses a batch body into its requests, in order.
pub fn parse_batch(json: &str) -> Result<Vec<CellRequest>, String> {
    batch_from(json, "cells", "cell", request_from)
}

// ---------------------------------------------------------------------------
// Cell response serialization.
// ---------------------------------------------------------------------------

/// Per-request outcome class (the `status` wire field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Served from the store — no compile, no simulation.
    Hit,
    /// Computed by this request and recorded in the store.
    Computed,
    /// Permanently failed; the payload describes why.
    Failed,
    /// Bounded queue was full — typed backpressure, retry later.
    Rejected,
    /// The store refuses this fingerprint: two different results were
    /// recorded under it, so neither can be trusted.
    Conflict,
}

impl CellStatus {
    /// The wire slug.
    pub fn as_str(self) -> &'static str {
        match self {
            CellStatus::Hit => "hit",
            CellStatus::Computed => "computed",
            CellStatus::Failed => "failed",
            CellStatus::Rejected => "rejected",
            CellStatus::Conflict => "conflict",
        }
    }

    /// Parses the wire slug.
    pub fn parse(s: &str) -> Option<CellStatus> {
        match s {
            "hit" => Some(CellStatus::Hit),
            "computed" => Some(CellStatus::Computed),
            "failed" => Some(CellStatus::Failed),
            "rejected" => Some(CellStatus::Rejected),
            "conflict" => Some(CellStatus::Conflict),
            _ => None,
        }
    }
}

/// One per-request structured answer.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResponse {
    /// Outcome class.
    pub status: CellStatus,
    /// The request's content address (empty for `rejected`, whose work
    /// was never admitted).
    pub fingerprint: String,
    /// The stats, for `hit`/`computed`.
    pub stats: Option<SimStats>,
    /// True when the degradation ladder had to disable passes.
    pub degraded: bool,
    /// Failure stage slug, for `failed`.
    pub stage: Option<String>,
    /// Stable triage signature, for `failed`.
    pub signature: Option<String>,
    /// Rendered error, for `failed`/`rejected`.
    pub error: Option<String>,
}

impl CellResponse {
    /// A successful answer (`hit` or `computed`).
    pub fn served(
        status: CellStatus,
        fingerprint: String,
        stats: SimStats,
        degraded: bool,
    ) -> Self {
        CellResponse {
            status,
            fingerprint,
            stats: Some(stats),
            degraded,
            stage: None,
            signature: None,
            error: None,
        }
    }

    /// A failure answer.
    pub fn failed(fingerprint: String, stage: String, signature: String, error: String) -> Self {
        CellResponse {
            status: CellStatus::Failed,
            fingerprint,
            stats: None,
            degraded: false,
            stage: Some(stage),
            signature: Some(signature),
            error: Some(error),
        }
    }

    /// The typed backpressure answer.
    pub fn rejected(error: String) -> Self {
        CellResponse {
            status: CellStatus::Rejected,
            fingerprint: String::new(),
            stats: None,
            degraded: false,
            stage: None,
            signature: None,
            error: Some(error),
        }
    }

    /// The conflicted-key refusal.
    pub fn conflict(fingerprint: String) -> Self {
        CellResponse {
            status: CellStatus::Conflict,
            fingerprint,
            stats: None,
            degraded: false,
            stage: None,
            signature: None,
            error: Some("fingerprint conflict: key quarantined".to_string()),
        }
    }
}

/// Serializes one response object.
pub fn response_to_json(resp: &CellResponse) -> String {
    let mut o = Object::default();
    o.str("status", resp.status.as_str())
        .str("fingerprint", &resp.fingerprint);
    if let Some(s) = &resp.stats {
        o.bool("degraded", resp.degraded);
        push_stats(&mut o, s);
    }
    for (key, text) in [
        ("stage", &resp.stage),
        ("signature", &resp.signature),
        ("error", &resp.error),
    ] {
        if let Some(text) = text {
            o.str(key, text);
        }
    }
    o.finish()
}

/// Reads one parsed response object.
fn response_from(v: &Value<'_>) -> Result<CellResponse, String> {
    let text = |key: &str| v.field(key, Value::as_str);
    let owned = |key: &str| text(key).map(|t| t.map(str::to_string));
    let status_slug = text("status")?.ok_or("missing field `status`")?;
    let status =
        CellStatus::parse(status_slug).ok_or_else(|| format!("unknown status `{status_slug}`"))?;
    Ok(CellResponse {
        status,
        fingerprint: text("fingerprint")?.unwrap_or_default().to_string(),
        stats: match v.get("cycles") {
            Some(_) => Some(read_stats(v)?),
            None => None,
        },
        degraded: v.field("degraded", Value::as_bool)?.unwrap_or(false),
        stage: owned("stage")?,
        signature: owned("signature")?,
        error: owned("error")?,
    })
}

/// Parses one response object.
pub fn parse_response(json: &str) -> Result<CellResponse, String> {
    response_from(&json::parse(json).map_err(|e| e.to_string())?)
}

/// Serializes a batch response: `{"results":[...]}`.
pub fn batch_response_to_json(resps: &[CellResponse]) -> String {
    Object::default()
        .raw("results", &json::array(resps.iter().map(response_to_json)))
        .finish()
}

/// Parses a batch response into its per-cell answers, in order.
pub fn parse_batch_response(json: &str) -> Result<Vec<CellResponse>, String> {
    batch_from(json, "results", "result", response_from)
}

// ---------------------------------------------------------------------------
// Minimal HTTP/1.1, shared by the daemon and its clients.
// ---------------------------------------------------------------------------

/// One parsed HTTP request (the slice of HTTP the service speaks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// `GET` / `POST`.
    pub method: String,
    /// Path only (no query parsing — the protocol does not use queries).
    pub path: String,
    /// Raw body (empty for bodyless requests).
    pub body: String,
}

/// Reads one line of a message head, charging it to `budget` (the head
/// bytes still allowed). Returns an empty string at EOF.
fn read_head_line(reader: &mut impl BufRead, budget: &mut usize) -> io::Result<String> {
    let mut line = String::new();
    let n = reader.take(*budget as u64).read_line(&mut line)?;
    if n == *budget && !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("message head exceeds cap {MAX_HEAD_BYTES}"),
        ));
    }
    *budget -= n;
    Ok(line)
}

/// Reads a message head — the request or status line, then headers up
/// to the blank line — of at most [`MAX_HEAD_BYTES`]. Returns the first
/// line and the raw `Content-Length` value, or `None` on EOF before any
/// byte.
fn read_head(reader: &mut impl BufRead) -> io::Result<Option<(String, Option<String>)>> {
    let mut budget = MAX_HEAD_BYTES;
    let first = read_head_line(reader, &mut budget)?;
    if first.is_empty() {
        return Ok(None);
    }
    let mut content_length = None;
    loop {
        let header = read_head_line(reader, &mut budget)?;
        if header.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        }
        let header = header.trim_end();
        if header.is_empty() {
            return Ok(Some((first, content_length)));
        }
        if let Some((k, v)) = header.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = Some(v.trim().to_string());
            }
        }
    }
}

/// Reads one HTTP request off `stream`. Returns `Ok(None)` on a cleanly
/// closed idle connection (EOF before any bytes).
///
/// # Errors
/// Malformed request lines, heads over [`MAX_HEAD_BYTES`], bodies over
/// [`MAX_BODY_BYTES`], and transport errors.
pub fn read_http_request(stream: &mut impl Read) -> io::Result<Option<HttpRequest>> {
    let mut reader = BufReader::new(stream);
    let Some((line, content_length)) = read_head(&mut reader)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed request line",
        ));
    }
    let content_length: usize = match content_length {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("body of {content_length} bytes exceeds cap {MAX_BODY_BYTES}"),
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
    Ok(Some(HttpRequest { method, path, body }))
}

/// Writes one HTTP response (status + body) in a single `write`, so it
/// leaves as one segment under `TCP_NODELAY`, and flushes.
///
/// # Errors
/// Transport errors only.
pub fn write_http_response(stream: &mut impl Write, status: u16, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let msg = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(msg.as_bytes())?;
    stream.flush()
}

/// Writes one HTTP request in a single `write`, like
/// [`write_http_response`].
fn write_http_request(
    stream: &mut impl Write,
    host: &str,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<()> {
    let msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(msg.as_bytes())?;
    stream.flush()
}

/// Issues one `method path` request with `body` against `addr`
/// (`host:port`) and returns `(status, body)`.
///
/// # Errors
/// Transport errors, malformed responses, bodies over [`MAX_BODY_BYTES`].
pub fn http_call(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let stream = TcpStream::connect(addr)?;
    http_call_on(stream, addr, method, path, body)
}

/// Like [`http_call`], but with bounded connect and read/write timeouts
/// — the variant [`crate::client::Client`] builds on, so a dead or hung
/// daemon degrades into a typed `TimedOut`/`WouldBlock` error instead
/// of blocking forever.
///
/// # Errors
/// See [`http_call`]; additionally `TimedOut` on a slow connect and the
/// platform's read-timeout kind (`WouldBlock` on Unix) on a stalled
/// response.
pub fn http_call_timeout(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    connect_timeout: Duration,
    read_timeout: Duration,
) -> io::Result<(u16, String)> {
    let mut last = io::Error::new(
        io::ErrorKind::AddrNotAvailable,
        format!("no addresses resolved for {addr}"),
    );
    let mut stream = None;
    for sock_addr in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sock_addr, connect_timeout) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) => last = e,
        }
    }
    let Some(stream) = stream else {
        return Err(last);
    };
    stream.set_read_timeout(Some(read_timeout)).ok();
    stream.set_write_timeout(Some(read_timeout)).ok();
    http_call_on(stream, addr, method, path, body)
}

/// The shared request/response exchange over an already-connected stream.
fn http_call_on(
    mut stream: TcpStream,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    stream.set_nodelay(true).ok();
    write_http_request(&mut stream, addr, method, path, body)?;
    let mut reader = BufReader::new(stream);
    let Some((status_line, content_length)) = read_head(&mut reader)? else {
        // The server died before sending a byte (kill mid-request):
        // retryable transport loss, not a protocol violation.
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    };
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed status line: {status_line:?}"),
            )
        })?;
    let body = match content_length.and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n > MAX_BODY_BYTES => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response body of {n} bytes exceeds cap {MAX_BODY_BYTES}"),
            ))
        }
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            String::from_utf8_lossy(&buf).into_owned()
        }
        None => {
            let mut buf = String::new();
            reader
                .take(MAX_BODY_BYTES as u64)
                .read_to_string(&mut buf)?;
            buf
        }
    };
    Ok((status, body))
}

/// `POST path` with a JSON body.
///
/// # Errors
/// See [`http_call`].
pub fn http_post(addr: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    http_call(addr, "POST", path, body)
}

// ---------------------------------------------------------------------------
// Load generation (`hyperpredc bench-load`).
// ---------------------------------------------------------------------------

/// What `bench-load` sends: seeded generated programs fanned across the
/// three models, batched into `/v1/cells` posts.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Total cell requests to send.
    pub cells: usize,
    /// Cells per `/v1/cells` post.
    pub batch: usize,
    /// Base seed for the program generator.
    pub seed: u64,
    /// Issue width every request asks for.
    pub issue: u32,
    /// Branch slots every request asks for.
    pub branches: u32,
    /// Attempts per batch (transport retries and rejected-cell
    /// re-posts), with exponential backoff between them.
    pub attempts: u32,
    /// Base backoff between attempts (doubles per attempt, jittered).
    pub backoff: Duration,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: "127.0.0.1:7199".to_string(),
            cells: 120,
            batch: 40,
            seed: 1,
            issue: 8,
            branches: 1,
            attempts: 4,
            backoff: Duration::from_millis(100),
        }
    }
}

/// The deterministic request list for a [`LoadConfig`]: generated MiniC
/// programs (cycling profiles and seeds) crossed with the three models,
/// so repeated invocations with the same seed address the same cells —
/// the second run is the cache-hit measurement.
pub fn load_requests(cfg: &LoadConfig) -> Vec<CellRequest> {
    let mut reqs = Vec::with_capacity(cfg.cells);
    let mut round = 0u64;
    'outer: loop {
        for profile in Profile::ALL {
            let program = gen::generate(profile, cfg.seed.wrapping_add(round));
            for model in Model::ALL {
                if reqs.len() >= cfg.cells {
                    break 'outer;
                }
                reqs.push(CellRequest {
                    name: program.name.clone(),
                    source: program.source.clone(),
                    args: program.args.clone(),
                    model,
                    issue: cfg.issue,
                    branches: cfg.branches,
                    memory: MemoryModel::Perfect,
                    max_cycles: DEFAULT_CYCLE_LIMIT,
                });
            }
        }
        round += 1;
    }
    reqs
}

/// One measured `bench-load` pass.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: usize,
    /// Answers served from the store.
    pub hits: usize,
    /// Answers computed fresh.
    pub computed: usize,
    /// Permanent failures.
    pub failed: usize,
    /// Typed backpressure rejections.
    pub rejected: usize,
    /// Conflicted-key refusals.
    pub conflicts: usize,
    /// Wall time for the whole pass.
    pub wall: Duration,
    /// Requests per second (wall clamped to a minimum measurable
    /// duration, so a tiny pass reports a finite rate).
    pub requests_per_sec: f64,
    /// `hits / sent` (0 when nothing was sent).
    pub hit_rate: f64,
    /// Cells whose batch could not be delivered at all (connection
    /// refused/reset/timeout after every retry). Counted under
    /// [`LoadReport::failed`] too — these are the typed `transport`
    /// failures in the response list.
    pub transport_failures: usize,
    /// Retry rounds the client spent (transport and rejected-cell).
    pub retries: u64,
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cells in {:.2?}: {:.0} req/s, {} hit ({:.1}%), {} computed, \
             {} failed, {} rejected, {} conflicted",
            self.sent,
            self.wall,
            self.requests_per_sec,
            self.hits,
            self.hit_rate * 100.0,
            self.computed,
            self.failed,
            self.rejected,
            self.conflicts,
        )?;
        if self.transport_failures > 0 || self.retries > 0 {
            write!(
                f,
                " ({} transport-failed, {} retries)",
                self.transport_failures, self.retries
            )?;
        }
        Ok(())
    }
}

/// Sends `reqs` to the daemon in batches and tallies the answers.
/// Delivery goes through [`crate::client::Client`], so a refused or
/// reset connection is retried with backoff; a batch that stays
/// undeliverable after every attempt degrades into typed per-cell
/// `transport` failures (counted in
/// [`LoadReport::transport_failures`]) and the pass *continues* — it
/// never aborts mid-stream.
///
/// # Errors
/// Protocol errors only: a non-200/503 answer, an unparseable response,
/// or a result count that does not match the batch. An unreachable
/// daemon is a typed failure in the report, not an `Err`.
pub fn run_load(
    cfg: &LoadConfig,
    reqs: &[CellRequest],
) -> io::Result<(LoadReport, Vec<CellResponse>)> {
    use crate::client::{Client, ClientConfig, ClientError};
    let client = Client::new(ClientConfig {
        addr: cfg.addr.clone(),
        max_attempts: cfg.attempts.max(1),
        backoff: cfg.backoff,
        ..ClientConfig::default()
    });
    let started = Instant::now();
    let mut responses: Vec<CellResponse> = Vec::with_capacity(reqs.len());
    let mut transport_failures = 0usize;
    for chunk in reqs.chunks(cfg.batch.max(1)) {
        match client.post_cells(chunk) {
            Ok(batch) => responses.extend(batch),
            Err(ClientError::Exhausted { attempts, last }) => {
                transport_failures += chunk.len();
                for req in chunk {
                    responses.push(CellResponse::failed(
                        String::new(),
                        "transport".to_string(),
                        "transport: undeliverable".to_string(),
                        format!(
                            "cell {}: transport failure after {attempts} attempt(s): {last}",
                            req.name
                        ),
                    ));
                }
            }
            Err(ClientError::Fatal(e)) => return Err(e),
        }
    }
    let wall = started.elapsed();
    let mut report = LoadReport {
        sent: responses.len(),
        hits: 0,
        computed: 0,
        failed: 0,
        rejected: 0,
        conflicts: 0,
        wall,
        requests_per_sec: 0.0,
        hit_rate: 0.0,
        transport_failures,
        retries: client.retries(),
    };
    for r in &responses {
        match r.status {
            CellStatus::Hit => report.hits += 1,
            CellStatus::Computed => report.computed += 1,
            CellStatus::Failed => report.failed += 1,
            CellStatus::Rejected => report.rejected += 1,
            CellStatus::Conflict => report.conflicts += 1,
        }
    }
    // A sub-nanosecond wall must still report a finite rate the JSON
    // layer can round-trip.
    let secs = wall.as_secs_f64().max(1e-9);
    report.requests_per_sec = report.sent as f64 / secs;
    if report.sent > 0 {
        report.hit_rate = report.hits as f64 / report.sent as f64;
    }
    Ok((report, responses))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(seed: u64) -> SimStats {
        SimStats {
            cycles: seed,
            insts: seed + 1,
            nullified: seed + 2,
            branches: seed + 3,
            mispredicts: seed + 4,
            loads: seed + 5,
            stores: seed + 6,
            icache_misses: seed + 7,
            dcache_misses: seed + 8,
            ret: -(seed as i64),
        }
    }

    fn request() -> CellRequest {
        CellRequest {
            name: "gen-branchy-1".to_string(),
            source: "int main() { return 1 + 2; }".to_string(),
            args: vec![1, -2],
            model: Model::FullPred,
            issue: 8,
            branches: 1,
            memory: MemoryModel::Perfect,
            max_cycles: 1_000_000,
        }
    }

    #[test]
    fn request_round_trips() {
        let req = request();
        let json = request_to_json(&req);
        let parsed = parse_request(&json).expect("parses");
        assert_eq!(parsed, req);
    }

    #[test]
    fn request_with_hostile_source_round_trips() {
        // Source text that contains every key pattern the parser looks
        // for, with quotes and control characters.
        let mut req = request();
        req.source =
            "int main() {\t/* \"issue\":0,\"model\":\"zzz\",\"args\":[9] */\r\n return 3; }"
                .to_string();
        req.memory = MemoryModel::Caches(CacheConfig::default());
        let json = request_to_json(&req);
        let parsed = parse_request(&json).expect("parses");
        assert_eq!(parsed, req);
    }

    #[test]
    fn batch_round_trips() {
        let mut b = request();
        b.name = "second { } [ ] \" cell".to_string();
        b.model = Model::Superblock;
        let reqs = vec![request(), b];
        let json = batch_to_json(&reqs);
        let parsed = parse_batch(&json).expect("parses");
        assert_eq!(parsed, reqs);
    }

    #[test]
    fn responses_round_trip_bit_identically() {
        let cases = vec![
            CellResponse::served(CellStatus::Hit, "aa".to_string(), stats(7), false),
            CellResponse::served(CellStatus::Computed, "bb".to_string(), stats(9), true),
            CellResponse::failed(
                "cc".to_string(),
                "compile".to_string(),
                "compile: 1:2 boom".to_string(),
                "1:2: boom \"quoted\"".to_string(),
            ),
            CellResponse::rejected("queue full (depth 4); retry later".to_string()),
            CellResponse::conflict("dd".to_string()),
        ];
        let json = batch_response_to_json(&cases);
        let parsed = parse_batch_response(&json).expect("parses");
        assert_eq!(parsed, cases, "every status round-trips exactly");
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(parse_request("{}").unwrap_err().contains("model"));
        assert!(parse_request("{\"model\":\"nope\",\"source\":\"x\"}")
            .unwrap_err()
            .contains("unknown model"));
        let no_issue = "{\"model\":\"fullpred\",\"source\":\"int main(){return 0;}\"}";
        assert!(parse_request(no_issue).unwrap_err().contains("issue"));
        assert!(parse_batch("{\"cells\":\"nope\"}").is_err());
        // Widths past u32 are refused by name, not truncated to 8 and 1.
        let wide = request_to_json(&request()).replace("\"issue\":8", "\"issue\":4294967304");
        assert_eq!(
            parse_request(&wide).unwrap_err(),
            "field `issue` out of range: 4294967304"
        );
        let wide = request_to_json(&request()).replace("\"branches\":1", "\"branches\":4294967297");
        assert!(parse_request(&wide).unwrap_err().contains("`branches`"));
        // A field present with the wrong type is named, never defaulted.
        let good = request_to_json(&request());
        for (bad, field) in [
            (good.replace("[1,-2]", "[1,\"x\"]"), "`args`"),
            (good.replace("1000000", "\"5\""), "`max_cycles`"),
            (good.replace("\"issue\":8", "\"issue\":-8"), "`issue`"),
            (good.replace("\"gen-branchy-1\"", "7"), "`name`"),
        ] {
            let err = parse_request(&bad).unwrap_err();
            assert!(err.contains(field), "{bad}: {err}");
        }
        // Duplicated keys and trailing bytes are malformed, not ignored.
        assert!(parse_request(&good.replace("{\"name\"", "{\"issue\":1,\"name\"")).is_err());
        assert!(parse_request(&format!("{good} x")).is_err());
    }

    /// A request, its key, a batch, and two answers exactly as the
    /// hand-rolled codec before `json` wrote them.
    const PINNED_REQUEST: &str = "{\"name\":\"gen-branchy-1\",\"model\":\"condmove\",\
        \"issue\":8,\"branches\":1,\"memory\":\"caches\",\"max_cycles\":1000000,\
        \"args\":[1,-2],\"source\":\"int main() {\\n  return \\\"q\\\" \\\\ 1;\\n}\"}";
    const PINNED_FINGERPRINT: &str = "77b58751dabfcd98";
    const PINNED_HIT: &str = "{\"status\":\"hit\",\"fingerprint\":\"92ab00ff\",\
        \"degraded\":false,\"cycles\":3222036,\"insts\":4741516,\"nullified\":12,\
        \"branches\":400001,\"mispredicts\":9876,\"loads\":77,\"stores\":66,\
        \"icache_misses\":5,\"dcache_misses\":4,\"ret\":-42}";
    const PINNED_FAILED: &str = "{\"status\":\"failed\",\"fingerprint\":\"cc\",\
        \"stage\":\"compile\",\"signature\":\"compile: 1:2 boom\",\
        \"error\":\"1:2: boom \\\"quoted\\\"\\nnext\"}";

    fn pinned_request() -> CellRequest {
        CellRequest {
            name: "gen-branchy-1".to_string(),
            source: "int main() {\n  return \"q\" \\ 1;\n}".to_string(),
            args: vec![1, -2],
            model: Model::CondMove,
            issue: 8,
            branches: 1,
            memory: MemoryModel::Caches(CacheConfig::default()),
            max_cycles: 1_000_000,
        }
    }

    #[test]
    fn messages_keep_the_bytes_written_before_the_json_module() {
        let req = pinned_request();
        assert_eq!(request_to_json(&req), PINNED_REQUEST);
        assert_eq!(parse_request(PINNED_REQUEST), Ok(req.clone()));
        // The key of a release build's default pipeline (debug builds
        // default to `checks: true`, which is part of the key).
        let release_pipe = crate::pipeline::Pipeline {
            checks: false,
            ..crate::pipeline::Pipeline::default()
        };
        assert_eq!(
            crate::matrix::request_fingerprint(&req, &release_pipe, true),
            PINNED_FINGERPRINT
        );
        let second = CellRequest {
            args: vec![],
            memory: MemoryModel::Perfect,
            model: Model::Superblock,
            ..req.clone()
        };
        let batch = format!(
            "{{\"cells\":[{PINNED_REQUEST},{}]}}",
            PINNED_REQUEST
                .replace("\"condmove\"", "\"superblock\"")
                .replace("\"caches\"", "\"perfect\"")
                .replace("[1,-2]", "[]")
        );
        assert_eq!(batch_to_json(&[req.clone(), second.clone()]), batch);
        assert_eq!(parse_batch(&batch), Ok(vec![req, second]));
        let stats = SimStats {
            cycles: 3_222_036,
            insts: 4_741_516,
            nullified: 12,
            branches: 400_001,
            mispredicts: 9_876,
            loads: 77,
            stores: 66,
            icache_misses: 5,
            dcache_misses: 4,
            ret: -42,
        };
        let hit = CellResponse::served(CellStatus::Hit, "92ab00ff".to_string(), stats, false);
        assert_eq!(response_to_json(&hit), PINNED_HIT);
        assert_eq!(parse_response(PINNED_HIT), Ok(hit));
        let failed = CellResponse::failed(
            "cc".to_string(),
            "compile".to_string(),
            "compile: 1:2 boom".to_string(),
            "1:2: boom \"quoted\"\nnext".to_string(),
        );
        assert_eq!(response_to_json(&failed), PINNED_FAILED);
        assert_eq!(parse_response(PINNED_FAILED), Ok(failed));
    }

    #[test]
    fn hostile_nesting_is_a_typed_error() {
        for body in [
            "[".repeat(1 << 20),
            "{\"a\":".repeat(1 << 16),
            format!("{{\"cells\":{}", "[".repeat(1 << 20)),
        ] {
            let err = parse_request(&body).unwrap_err();
            assert!(err.contains("nesting too deep"), "{err}");
            let err = parse_batch(&body).unwrap_err();
            assert!(err.contains("nesting too deep"), "{err}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 512, ..proptest::ProptestConfig::default() })]

        #[test]
        fn arbitrary_bodies_are_typed_errors(seed in proptest::prelude::any::<u64>()) {
            let bytes = crate::json::tests::jsonish_bytes(seed, 400);
            let text = String::from_utf8_lossy(&bytes);
            let _ = parse_request(&text);
            let _ = parse_batch(&text);
            let _ = parse_response(&text);
            // One arbitrary byte spliced into a real request.
            let mut real = request_to_json(&pinned_request()).into_bytes();
            let at = (seed as usize / 5) % real.len();
            real[at] = bytes.first().copied().unwrap_or(b'"');
            let real = String::from_utf8_lossy(&real);
            let _ = parse_request(&real);
            let _ = parse_batch(&format!("{{\"cells\":[{real}]}}"));
        }

        #[test]
        fn arbitrary_http_requests_are_typed_errors(seed in proptest::prelude::any::<u64>()) {
            let mut bytes = b"POST /v1/cell HTTP/1.1\r\nContent-Length: 7\r\n\r\n{}".to_vec();
            let noise = crate::json::tests::jsonish_bytes(seed, 96);
            let at = (seed as usize) % (bytes.len() + 1);
            bytes.splice(at..at, noise.iter().copied());
            let _ = read_http_request(&mut &bytes[..]);
            let _ = read_http_request(&mut &noise[..]);
        }
    }

    #[test]
    fn load_requests_are_deterministic_and_sized() {
        let cfg = LoadConfig {
            cells: 47,
            ..LoadConfig::default()
        };
        let a = load_requests(&cfg);
        let b = load_requests(&cfg);
        assert_eq!(a.len(), 47);
        assert_eq!(a, b, "same seed, same request list");
        assert!(
            a.iter().any(|r| r.model == Model::CondMove),
            "models are crossed in"
        );
    }

    #[test]
    fn http_request_parsing_handles_bodies_and_eof() {
        let raw = b"POST /v1/cells HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_http_request(&mut &raw[..]).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/cells");
        assert_eq!(req.body, "abcd");
        assert!(read_http_request(&mut &b""[..]).unwrap().is_none());
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(read_http_request(&mut huge.as_bytes()).is_err());
    }

    #[test]
    fn http_heads_are_bounded() {
        // A request line with no newline stops at the cap.
        let endless = vec![b'a'; 4 * MAX_HEAD_BYTES];
        let err = read_http_request(&mut &endless[..]).unwrap_err();
        assert!(err.to_string().contains("exceeds cap"), "{err}");
        // So do headers that never end, however short each line is.
        let mut many = b"GET /healthz HTTP/1.1\r\n".to_vec();
        while many.len() <= MAX_HEAD_BYTES {
            many.extend_from_slice(b"X-Pad: 1\r\n");
        }
        many.extend_from_slice(b"\r\n");
        let err = read_http_request(&mut &many[..]).unwrap_err();
        assert!(err.to_string().contains("exceeds cap"), "{err}");
        // A head of exactly the cap still parses, body and all.
        let mut fits = b"POST /v1/cell HTTP/1.1\r\nContent-Length: 2\r\n".to_vec();
        let pad = MAX_HEAD_BYTES - fits.len() - b"X: \r\n\r\n".len();
        fits.extend_from_slice(format!("X: {}\r\n\r\nok", "p".repeat(pad)).as_bytes());
        let req = read_http_request(&mut &fits[..]).unwrap().unwrap();
        assert_eq!(req.body, "ok");
    }

    /// Counts the `write` calls a message takes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_http_message_is_one_write() {
        let mut w = CountingWriter::default();
        write_http_response(&mut w, 200, "{\"status\":\"ok\"}").unwrap();
        assert_eq!(w.writes, 1);
        let text = String::from_utf8(w.bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"status\":\"ok\"}"), "{text}");

        let mut w = CountingWriter::default();
        write_http_request(&mut w, "127.0.0.1:1", "POST", "/v1/cell", "abcd").unwrap();
        assert_eq!(w.writes, 1);
        let req = read_http_request(&mut &w.bytes[..]).unwrap().unwrap();
        assert_eq!((req.method.as_str(), req.body.as_str()), ("POST", "abcd"));
    }
}
