//! End-to-end daemon suite: a real `hyperpredd` instance on an
//! OS-assigned port, driven over TCP with the same client the
//! `bench-load` generator uses. Pins the service contract the CI smoke
//! job relies on: a repeated batch is answered entirely from the store
//! with bit-identical stats, malformed requests get typed errors (never
//! a worker abort), the bounded queue rejects with a typed answer, and
//! shutdown drains cleanly.

use hyperpred::json::{self, Value};
use hyperpred::service::{
    self, http_call, http_post, parse_batch_response, CellStatus, LoadConfig,
};
use hyperpred::{CellRequest, Client, ClientConfig, Model};
use hyperpred_daemon::{Daemon, DaemonConfig};
use hyperpred_sim::{MemoryModel, DEFAULT_CYCLE_LIMIT};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// The unsigned counter `key` of a `/v1/stats` body.
fn counter(stats: &str, key: &str) -> Option<u64> {
    json::parse(stats).ok()?.get(key)?.num()
}

/// The message of a `400` body, which must be valid JSON.
fn error_of(body: &str) -> String {
    let v = json::parse(body).unwrap_or_else(|e| panic!("400 body is not JSON ({e}): {body:?}"));
    v.get("error")
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("400 body has no error: {body:?}"))
        .to_string()
}

fn start_daemon(store: &str, max_active: usize, max_waiting: usize) -> Daemon {
    start_on(&tmpdir(store), max_active, max_waiting)
}

fn start_on(store_dir: &Path, max_active: usize, max_waiting: usize) -> Daemon {
    Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: store_dir.to_path_buf(),
        max_active,
        max_waiting,
        ..DaemonConfig::default()
    })
    .expect("start daemon")
}

#[test]
fn repeat_batch_is_served_from_cache_bit_identically() {
    let daemon = start_daemon("daemon-repeat", 0, 64);
    let cfg = LoadConfig {
        addr: daemon.addr().to_string(),
        cells: 30,
        batch: 10,
        seed: 7,
        issue: 4,
        branches: 1,
        ..LoadConfig::default()
    };
    let reqs = service::load_requests(&cfg);
    assert_eq!(reqs.len(), 30);

    // Cold pass: nothing in the store, every cell computes (or fails
    // deterministically — generated programs all pass the pipeline).
    let (cold, cold_resps) = service::run_load(&cfg, &reqs).expect("cold pass");
    assert_eq!(cold.sent, 30);
    assert_eq!(cold.failed, 0, "{cold_resps:?}");
    assert_eq!(cold.rejected, 0);
    assert_eq!(cold.conflicts, 0);
    assert_eq!(cold.computed + cold.hits, 30);

    // Warm pass: the identical request stream must be answered 100%
    // from the store, stats bit-identical to the cold pass.
    let (warm, warm_resps) = service::run_load(&cfg, &reqs).expect("warm pass");
    assert_eq!(warm.hits, 30, "warm pass must be all cache hits");
    assert_eq!(warm.computed, 0);
    assert!((warm.hit_rate - 1.0).abs() < 1e-9);
    for (c, w) in cold_resps.iter().zip(&warm_resps) {
        assert_eq!(w.status, CellStatus::Hit);
        assert_eq!(c.fingerprint, w.fingerprint);
        assert_eq!(c.stats, w.stats, "stats must be bit-identical");
        assert!(c.stats.is_some());
    }

    // The stats endpoint agrees with the client-side tallies.
    let (status, body) = http_call(&cfg.addr, "GET", "/v1/stats", "").expect("stats");
    assert_eq!(status, 200);
    assert_eq!(counter(&body, "hits"), Some(30));
    assert_eq!(counter(&body, "computed"), Some(cold.computed as u64));
    assert_eq!(counter(&body, "store_conflicts"), Some(0));

    // Graceful shutdown drains and joins cleanly.
    daemon.request_shutdown();
    daemon.wait();
}

#[test]
fn malformed_requests_get_typed_errors_not_aborts() {
    let daemon = start_daemon("daemon-malformed", 0, 8);
    let addr = daemon.addr().to_string();

    // Unparseable body: typed 400, not a dropped connection.
    let (status, body) = http_post(&addr, "/v1/cell", "this is not json").expect("post garbage");
    assert_eq!(status, 400, "{body}");
    assert!(error_of(&body).contains("byte 0"), "{body}");

    // Parseable but invalid: a zero issue width must come back as a
    // structured per-cell failure, never a worker abort.
    let req = CellRequest {
        name: "bad-width".to_string(),
        source: "int main() { return 0; }".to_string(),
        args: vec![],
        model: Model::FullPred,
        issue: 0,
        branches: 1,
        memory: MemoryModel::Perfect,
        max_cycles: DEFAULT_CYCLE_LIMIT,
    };
    let (status, body) =
        http_post(&addr, "/v1/cell", &service::request_to_json(&req)).expect("post invalid");
    assert_eq!(status, 200, "{body}");
    let resp = service::parse_response(&body).expect("typed response");
    assert_eq!(resp.status, CellStatus::Failed);
    assert_eq!(resp.stage.as_deref(), Some("compile"));
    assert!(resp.error.is_some());

    // A source that fails to compile is also a typed failure.
    let req = CellRequest {
        name: "syntax-error".to_string(),
        source: "int main( { return; }".to_string(),
        issue: 4,
        ..req
    };
    let (status, body) =
        http_post(&addr, "/v1/cell", &service::request_to_json(&req)).expect("post broken source");
    assert_eq!(status, 200, "{body}");
    let resp = service::parse_response(&body).expect("typed response");
    assert_eq!(resp.status, CellStatus::Failed);
    assert_eq!(resp.stage.as_deref(), Some("compile"));

    // Widths past u32 are a typed 400 naming the field, never a cell
    // keyed (and served) at the truncated width.
    let wide = service::request_to_json(&req)
        .replace("\"issue\":4,", "\"issue\":4294967304,")
        .replace("\"branches\":1,", "\"branches\":4294967297,");
    let (status, body) = http_post(&addr, "/v1/cell", &wide).expect("post wide widths");
    assert_eq!(status, 400, "{body}");
    assert!(error_of(&body).contains("`issue` out of range"), "{body}");

    // A field present with the wrong type is a 400 naming it, never a
    // silent default; an unknown slug comes back intact in valid JSON.
    let good = service::request_to_json(&req);
    for (bad, names) in [
        (good.replace("\"args\":[]", "\"args\":[1,\"x\"]"), "`args`"),
        (
            good.replace("\"max_cycles\":10000000000", "\"max_cycles\":\"5\""),
            "`max_cycles`",
        ),
        (
            good.replace("\"fullpred\"", "\"x\\\\y\\nz\""),
            "unknown model `x\\y\nz`",
        ),
    ] {
        assert_ne!(bad, good, "the case must change the request");
        let (status, body) = http_post(&addr, "/v1/cell", &bad).expect("post bad field");
        assert_eq!(status, 400, "{bad}: {body}");
        let error = error_of(&body);
        assert!(error.contains(names), "{bad}: {error}");
    }

    // Unknown endpoints 404; the daemon still answers afterwards.
    let (status, _) = http_post(&addr, "/v1/nope", "{}").expect("post unknown path");
    assert_eq!(status, 404);
    let (status, _) = http_call(&addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);

    daemon.request_shutdown();
    daemon.wait();
}

#[test]
fn standard_json_escapes_key_the_decoded_source() {
    let daemon = start_daemon("daemon-escapes", 0, 8);
    let addr = daemon.addr().to_string();
    // What a Python or JS client sends for a tab, a CRLF and a `7`.
    let escaped = "{\"model\":\"fullpred\",\"issue\":8,\"branches\":1,\
                   \"source\":\"int main() {\\n\\treturn \\u0037;\\r\\n} \"}";
    let decoded = CellRequest {
        name: String::new(),
        source: "int main() {\n\treturn 7;\r\n} ".to_string(),
        args: vec![],
        model: Model::FullPred,
        issue: 8,
        branches: 1,
        memory: MemoryModel::Perfect,
        max_cycles: DEFAULT_CYCLE_LIMIT,
    };
    assert_eq!(service::parse_request(escaped), Ok(decoded.clone()));
    let (status, body) = http_post(&addr, "/v1/cell", escaped).expect("post escaped");
    assert_eq!(status, 200, "{body}");
    let first = service::parse_response(&body).expect("typed response");
    let (status, body) =
        http_post(&addr, "/v1/cell", &service::request_to_json(&decoded)).expect("post decoded");
    assert_eq!(status, 200, "{body}");
    let second = service::parse_response(&body).expect("typed response");
    assert_eq!(
        first.fingerprint, second.fingerprint,
        "one program, one key"
    );
    assert_eq!(first.stats.as_ref().map(|s| s.ret), Some(7), "{first:?}");
    assert_eq!(second.status, CellStatus::Hit);
    assert_eq!(first.stats, second.stats);
    daemon.request_shutdown();
    daemon.wait();
}

#[test]
fn full_queue_returns_typed_rejection() {
    // One compute slot, zero queue depth: concurrent distinct cells
    // must be rejected with the typed backpressure answer while the
    // first one holds the slot.
    let daemon = start_daemon("daemon-queue", 1, 0);
    let addr = daemon.addr().to_string();

    let slow_source = |salt: u64| {
        format!(
            "int main() {{
                int i; int s; s = {salt};
                for (i = 0; i < 400000; i += 1) {{
                    if (i % 3 == 0) s += i; else s -= 1;
                }}
                return s;
            }}"
        )
    };
    let reqs: Vec<CellRequest> = (0..4)
        .map(|salt| CellRequest {
            name: format!("slow-{salt}"),
            source: slow_source(salt),
            args: vec![],
            model: Model::Superblock,
            issue: 4,
            branches: 1,
            memory: MemoryModel::Perfect,
            max_cycles: DEFAULT_CYCLE_LIMIT,
        })
        .collect();

    let handles: Vec<_> = reqs
        .iter()
        .map(|req| {
            let addr = addr.clone();
            let body = service::request_to_json(req);
            std::thread::spawn(move || {
                let (status, body) = http_post(&addr, "/v1/cell", &body).expect("post cell");
                assert_eq!(status, 200, "{body}");
                service::parse_response(&body).expect("typed response")
            })
        })
        .collect();
    let resps: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client"))
        .collect();

    let served = resps
        .iter()
        .filter(|r| r.status == CellStatus::Hit || r.status == CellStatus::Computed)
        .count();
    let rejected: Vec<_> = resps
        .iter()
        .filter(|r| r.status == CellStatus::Rejected)
        .collect();
    assert!(served >= 1, "{resps:?}");
    assert!(
        !rejected.is_empty(),
        "four concurrent cells against a one-slot, zero-queue gate \
         must overflow: {resps:?}"
    );
    for r in &rejected {
        let msg = r
            .error
            .as_deref()
            .expect("typed rejection carries a reason");
        assert!(msg.contains("queue full"), "{msg}");
    }

    // Rejection is backpressure, not failure: a retry once the slot is
    // free succeeds, and cached answers bypass the gate entirely.
    let (status, body) =
        http_post(&addr, "/v1/cell", &service::request_to_json(&reqs[0])).expect("retry");
    assert_eq!(status, 200);
    let resp = service::parse_response(&body).expect("typed response");
    assert!(
        resp.status == CellStatus::Hit || resp.status == CellStatus::Computed,
        "{resp:?}"
    );

    daemon.request_shutdown();
    daemon.wait();
}

#[test]
fn batch_endpoint_answers_every_cell_in_order() {
    let daemon = start_daemon("daemon-batch", 0, 16);
    let addr = daemon.addr().to_string();
    let reqs: Vec<CellRequest> = (0..3)
        .map(|i| CellRequest {
            name: format!("ret-{i}"),
            source: format!("int main() {{ return {i}; }}"),
            args: vec![],
            model: Model::FullPred,
            issue: 2,
            branches: 1,
            memory: MemoryModel::Perfect,
            max_cycles: DEFAULT_CYCLE_LIMIT,
        })
        .collect();
    let (status, body) =
        http_post(&addr, "/v1/cells", &service::batch_to_json(&reqs)).expect("post batch");
    assert_eq!(status, 200, "{body}");
    let resps = parse_batch_response(&body).expect("batch response");
    assert_eq!(resps.len(), 3);
    for (i, r) in resps.iter().enumerate() {
        assert_eq!(r.status, CellStatus::Computed, "{r:?}");
        let stats = r.stats.as_ref().expect("computed stats");
        assert_eq!(stats.ret, i as i64, "cells answered in request order");
    }

    daemon.request_shutdown();
    daemon.wait();
}

#[test]
fn draining_daemon_answers_healthz_with_503() {
    let daemon = start_daemon("daemon-drain", 0, 8);
    let addr = daemon.addr().to_string();
    let (status, body) = http_call(&addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "{body}");

    // Hold an accepted connection open so the daemon stays in the
    // draining state (instead of exiting instantly) after shutdown.
    let held = std::net::TcpStream::connect(&addr).expect("connect");
    std::thread::sleep(Duration::from_millis(100));
    daemon.request_shutdown();

    // Late arrivals must get the typed 503 draining answer — never a
    // connection refused/reset, which a client cannot tell from a crash.
    let mut saw_draining = false;
    for _ in 0..100 {
        match http_call(&addr, "GET", "/healthz", "") {
            Ok((503, body)) if body.contains("draining") => {
                saw_draining = true;
                break;
            }
            Ok((200, _)) => std::thread::sleep(Duration::from_millis(5)),
            other => panic!("draining healthz must stay typed, got {other:?}"),
        }
    }
    assert!(saw_draining, "healthz must report draining during shutdown");
    drop(held);
    daemon.wait();
}

#[test]
fn client_retries_queue_full_rejections_until_served() {
    // One compute slot, zero queue: two clients racing distinct slow
    // cells must see typed rejections, and the retrying client must
    // absorb them — every cell ends Hit/Computed, never Rejected.
    let daemon = start_daemon("daemon-client-retry", 1, 0);
    let addr = daemon.addr().to_string();

    let slow_cell = |salt: u64| CellRequest {
        name: format!("retry-{salt}"),
        source: format!(
            "int main() {{
                int i; int s; s = {salt};
                for (i = 0; i < 400000; i += 1) {{
                    if (i % 3 == 0) s += i; else s -= 1;
                }}
                return s;
            }}"
        ),
        args: vec![],
        model: Model::Superblock,
        issue: 4,
        branches: 1,
        memory: MemoryModel::Perfect,
        max_cycles: DEFAULT_CYCLE_LIMIT,
    };

    let handles: Vec<_> = [0u64, 2]
        .into_iter()
        .map(|base| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let client = Client::new(ClientConfig {
                    addr,
                    max_attempts: 20,
                    backoff: Duration::from_millis(100),
                    backoff_max: Duration::from_millis(500),
                    jitter_seed: base,
                    ..ClientConfig::default()
                });
                let reqs = vec![slow_cell(base), slow_cell(base + 1)];
                let resps = client.post_cells(&reqs).expect("post_cells");
                (resps, client.retries())
            })
        })
        .collect();

    let mut total_retries = 0;
    for h in handles {
        let (resps, retries) = h.join().expect("client thread");
        total_retries += retries;
        for r in &resps {
            assert!(
                r.status == CellStatus::Hit || r.status == CellStatus::Computed,
                "retrying client must outlast backpressure: {r:?}"
            );
        }
    }
    assert!(
        total_retries > 0,
        "a one-slot zero-queue gate under two concurrent clients must \
         reject at least once"
    );

    daemon.request_shutdown();
    daemon.wait();
}

#[test]
fn healthz_round_trips_wait_on_no_timer() {
    let daemon = start_daemon("daemon-healthz-latency", 0, 8);
    let addr = daemon.addr().to_string();
    // Best of three rounds, so a busy test machine does not decide it: a
    // 2 ms accept poll puts every round at 400 ms or more.
    let fastest = (0..3)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..200 {
                let (status, _) = http_call(&addr, "GET", "/healthz", "").expect("healthz");
                assert_eq!(status, 200);
            }
            started.elapsed()
        })
        .min()
        .expect("three rounds");
    assert!(
        fastest < Duration::from_millis(200),
        "200 sequential /healthz round trips took {fastest:?}; an accept \
         poll would add milliseconds to each"
    );
    daemon.request_shutdown();
    daemon.wait();
}

#[test]
fn shutdown_flag_alone_stops_an_idle_daemon() {
    let daemon = start_daemon("daemon-flag-only", 0, 8);
    let (status, _) = http_call(&daemon.addr().to_string(), "GET", "/healthz", "").expect("up");
    assert_eq!(status, 200);
    // What the signal handler does: one store to the flag, no connection.
    daemon.shutdown_flag().store(true, Ordering::Release);
    let (done_tx, done) = mpsc::channel();
    std::thread::spawn(move || {
        daemon.wait();
        let _ = done_tx.send(());
    });
    done.recv_timeout(Duration::from_secs(5))
        .expect("wait() must return within 5 s of the flag flipping");
}

#[test]
fn cell_computing_at_shutdown_still_answers_and_is_stored() {
    let store = tmpdir("daemon-drain-compute");
    let daemon = start_on(&store, 1, 0);
    let addr = daemon.addr().to_string();
    let cell = CellRequest {
        name: "drain-slow".to_string(),
        source: "int main() {
            int i; int s; s = 11;
            for (i = 0; i < 400000; i += 1) {
                if (i % 3 == 0) s += i; else s -= 1;
            }
            return s;
        }"
        .to_string(),
        args: vec![],
        model: Model::Superblock,
        issue: 4,
        branches: 1,
        memory: MemoryModel::Perfect,
        max_cycles: DEFAULT_CYCLE_LIMIT,
    };
    let client = {
        let (addr, body) = (addr.clone(), service::request_to_json(&cell));
        std::thread::spawn(move || http_post(&addr, "/v1/cell", &body).expect("post cell"))
    };
    // Shut down only once the cell holds the compute slot.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, stats) = http_call(&addr, "GET", "/v1/stats", "").expect("stats");
        if counter(&stats, "active") == Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "the cell never started: {stats}");
        std::thread::sleep(Duration::from_millis(1));
    }
    daemon.request_shutdown();
    daemon.wait();
    let (status, body) = client.join().expect("client");
    assert_eq!(status, 200, "{body}");
    let computed = service::parse_response(&body).expect("typed response");
    assert_eq!(computed.status, CellStatus::Computed, "{computed:?}");

    // The drained result is durable: a restart serves it as a hit.
    let daemon = start_on(&store, 1, 0);
    let (status, body) = http_post(
        &daemon.addr().to_string(),
        "/v1/cell",
        &service::request_to_json(&cell),
    )
    .expect("post again");
    assert_eq!(status, 200, "{body}");
    let hit = service::parse_response(&body).expect("typed response");
    assert_eq!(hit.status, CellStatus::Hit, "{hit:?}");
    assert_eq!(hit.stats, computed.stats);
    daemon.request_shutdown();
    daemon.wait();
}

#[test]
fn endless_request_line_gets_413() {
    let daemon = start_daemon("daemon-endless-head", 0, 8);
    let mut stream = std::net::TcpStream::connect(daemon.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    // 1 MiB with no newline; the daemon answers long before it is all
    // sent, so writing runs beside reading and may end in a reset.
    let mut writer = stream.try_clone().expect("clone");
    let sender = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'a'; 1 << 20]);
    });
    let mut answer = Vec::new();
    let _ = stream.read_to_end(&mut answer);
    let answer = String::from_utf8_lossy(&answer);
    assert!(answer.starts_with("HTTP/1.1 413 "), "{answer}");
    assert!(answer.contains("exceeds cap"), "{answer}");
    sender.join().expect("sender");
    // The daemon still serves afterwards.
    let (status, _) = http_call(&daemon.addr().to_string(), "GET", "/healthz", "").expect("up");
    assert_eq!(status, 200);
    daemon.request_shutdown();
    daemon.wait();
}
