//! The benchmark's own client for `hyperpredd`'s wire protocol: request
//! encoding, answer decoding, and one-request-per-connection HTTP/1.1 over
//! std sockets. It shares no code with the library, so a refactor of the
//! library cannot change what the end-to-end runs send; the round-trip
//! test against the library's parser catches protocol drift instead.

use crate::json::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One compile-and-simulate request, as the protocol describes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub name: String,
    pub source: String,
    pub args: Vec<i64>,
    /// `superblock`, `condmove` or `fullpred`.
    pub model: &'static str,
    pub issue: u32,
    pub branches: u32,
    /// `perfect` or `caches`.
    pub memory: &'static str,
    pub max_cycles: u64,
}

/// The simulation statistics every `hit` or `computed` answer carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    pub cycles: u64,
    pub insts: u64,
    pub nullified: u64,
    pub branches: u64,
    pub mispredicts: u64,
    pub loads: u64,
    pub stores: u64,
    pub icache_misses: u64,
    pub dcache_misses: u64,
    pub ret: i64,
}

impl Stats {
    /// The `key=value` tail of a line of `tests/golden/simstats_*.txt`.
    pub fn golden_fields(&self) -> String {
        format!(
            "cycles={} insts={} nullified={} branches={} mispredicts={} loads={} stores={} \
             icache={} dcache={} ret={}",
            self.cycles,
            self.insts,
            self.nullified,
            self.branches,
            self.mispredicts,
            self.loads,
            self.stores,
            self.icache_misses,
            self.dcache_misses,
            self.ret
        )
    }
}

/// One decoded per-cell answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// `hit`, `computed`, `failed`, `rejected` or `conflict`.
    pub status: String,
    pub fingerprint: String,
    pub degraded: bool,
    pub stats: Option<Stats>,
}

/// The protocol's string escaping: backslash, quote and newline are
/// escaped, every other character travels raw.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Encodes one request body; `source` goes last, as the protocol asks.
pub fn encode_cell(c: &Cell) -> String {
    let args: Vec<String> = c.args.iter().map(i64::to_string).collect();
    format!(
        "{{\"name\":\"{}\",\"model\":\"{}\",\"issue\":{},\"branches\":{},\"memory\":\"{}\",\
         \"max_cycles\":{},\"args\":[{}],\"source\":\"{}\"}}",
        escape(&c.name),
        c.model,
        c.issue,
        c.branches,
        c.memory,
        c.max_cycles,
        args.join(","),
        escape(&c.source)
    )
}

fn field_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_i64)
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| format!("answer lacks `{key}`"))
}

/// Decodes a `/v1/cell` answer body.
pub fn decode_reply(body: &str) -> Result<Reply, String> {
    let obj = &Json::parse(body)?;
    let status = obj
        .get("status")
        .and_then(Json::as_str)
        .ok_or("answer lacks `status`")?
        .to_string();
    let stats = if obj.get("cycles").is_some() {
        Some(Stats {
            cycles: field_u64(obj, "cycles")?,
            insts: field_u64(obj, "insts")?,
            nullified: field_u64(obj, "nullified")?,
            branches: field_u64(obj, "branches")?,
            mispredicts: field_u64(obj, "mispredicts")?,
            loads: field_u64(obj, "loads")?,
            stores: field_u64(obj, "stores")?,
            icache_misses: field_u64(obj, "icache_misses")?,
            dcache_misses: field_u64(obj, "dcache_misses")?,
            ret: obj
                .get("ret")
                .and_then(Json::as_i64)
                .ok_or("answer lacks `ret`")?,
        })
    } else {
        None
    };
    Ok(Reply {
        status,
        fingerprint: obj
            .get("fingerprint")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        degraded: obj.get("degraded").and_then(Json::as_bool).unwrap_or(false),
        stats,
    })
}

/// How long a connect or a read may stall before the request counts as a
/// transport failure.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Largest answer body read; anything longer is a protocol error.
const MAX_BODY: usize = 8 << 20;

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Sends one request on a fresh connection and reads the whole answer.
/// Returns the status code and body.
pub fn call(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let sock = addr
        .parse()
        .map_err(|e| bad(format!("bad address {addr}: {e}")))?;
    let mut stream = TcpStream::connect_timeout(&sock, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("malformed status line {line:?}")))?;
    let mut length = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the headers".into()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((k, v)) = header.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                length = v.trim().parse::<usize>().ok();
            }
        }
    }
    let mut buf = Vec::new();
    match length {
        Some(n) if n > MAX_BODY => return Err(bad(format!("answer of {n} bytes"))),
        Some(n) => {
            buf.resize(n, 0);
            reader.read_exact(&mut buf)?;
        }
        None => {
            reader.take(MAX_BODY as u64).read_to_end(&mut buf)?;
        }
    }
    String::from_utf8(buf)
        .map(|b| (status, b))
        .map_err(|_| bad("answer is not UTF-8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> Cell {
        Cell {
            name: "gen-branchy-1 \"q\"".into(),
            source: "int main() {\n\treturn 1; /* \"issue\":0 \\ é */\n}".into(),
            args: vec![3, -4],
            model: "condmove",
            issue: 8,
            branches: 1,
            memory: "perfect",
            max_cycles: 1_000_000,
        }
    }

    #[test]
    fn wire_encoding_round_trips_through_the_library_parser() {
        for c in [
            cell(),
            Cell {
                memory: "caches",
                model: "fullpred",
                args: vec![],
                ..cell()
            },
        ] {
            let parsed = crate::layers::parse_request(&encode_cell(&c)).expect("daemon parses it");
            assert_eq!(crate::layers::request_to_cell(&parsed), c);
        }
    }

    #[test]
    fn answers_decode_with_and_without_stats() {
        let hit = "{\"status\":\"hit\",\"fingerprint\":\"ab\",\"degraded\":false,\"cycles\":5,\
                   \"insts\":6,\"nullified\":0,\"branches\":1,\"mispredicts\":0,\"loads\":2,\
                   \"stores\":3,\"icache_misses\":0,\"dcache_misses\":0,\"ret\":-7}";
        let r = decode_reply(hit).unwrap();
        assert_eq!((r.status.as_str(), r.fingerprint.as_str()), ("hit", "ab"));
        assert_eq!(r.stats.unwrap().ret, -7);
        let refused =
            decode_reply("{\"status\":\"rejected\",\"fingerprint\":\"\",\"error\":\"full\"}");
        assert_eq!(refused.unwrap().stats, None);
        assert!(decode_reply("{\"status\":\"hit\",\"cycles\":1}").is_err());
    }
}
