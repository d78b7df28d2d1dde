//! The HTTP load side: a one-request-per-connection client, the seeded
//! cheap-read mix, and the open-loop generator that times every request
//! from the moment it was due.

use crate::check::{check_read, HttpResp};
use simcore::SimRng;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client-side limit on one cheap read; past it the read has failed.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Share of cheap reads sent as `If-None-Match` revalidations.
pub const REVALIDATE_SHARE: f64 = 0.2;

/// Request header carrying a stream request's index, so a traced run
/// can pair the server-side handle time with the client-side latency.
pub const SEQ_HEADER: &str = "x-bench-seq";

/// One GET over a fresh connection, the way the service is used.
pub fn get(
    addr: SocketAddr,
    target: &str,
    if_none_match: Option<&str>,
    seq: Option<usize>,
    timeout: Duration,
) -> Result<HttpResp, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("set timeout: {e}"))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| format!("set timeout: {e}"))?;
    let mut head = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n");
    if let Some(etag) = if_none_match {
        head.push_str(&format!("If-None-Match: {etag}\r\n"));
    }
    if let Some(seq) = seq {
        head.push_str(&format!("{SEQ_HEADER}: {seq}\r\n"));
    }
    head.push_str("\r\n");
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    parse_response(&raw)
}

/// Parse a `Connection: close` response: status line, the ETag header,
/// and a body whose length must match `Content-Length`.
pub fn parse_response(raw: &[u8]) -> Result<HttpResp, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("no header end in {} bytes", raw.len()))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "non-UTF-8 head".to_string())?;
    let body = raw[split + 4..].to_vec();
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| "bad status line".to_string())?;
    let mut etag = None;
    let mut length = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        match name.trim().to_ascii_lowercase().as_str() {
            "etag" => etag = Some(value.trim().to_string()),
            "content-length" => length = value.trim().parse::<usize>().ok(),
            _ => {}
        }
    }
    if length != Some(body.len()) {
        return Err(format!(
            "body of {} bytes, Content-Length {length:?}",
            body.len()
        ));
    }
    Ok(HttpResp { status, etag, body })
}

/// One cheap read of the mix.
#[derive(Debug, Clone)]
pub struct Read1 {
    pub target: String,
    pub revalidate: bool,
}

/// The cheap-read routes: the trends table, every weekly series raw and
/// normalized, the manifest, one already-rendered experiment CSV, and
/// the health probe.
pub fn cheap_routes(experiment_csv: &str) -> Vec<String> {
    let mut routes = vec![
        "/v1/trends".to_string(),
        "/v1/manifest".to_string(),
        "/healthz".to_string(),
    ];
    for id in ddoscovery::ObsId::ALL {
        routes.push(format!("/v1/series/{}", id.slug()));
        routes.push(format!("/v1/series/{}?norm=1", id.slug()));
    }
    routes.push(experiment_csv.to_string());
    routes
}

/// A seeded read sequence over `routes`: routes drawn uniformly, and
/// about [`REVALIDATE_SHARE`] of the reads of ETag-carrying routes sent
/// as revalidations.
pub fn read_mix(routes: &[String], n: usize, rng: &mut SimRng) -> Vec<Read1> {
    (0..n)
        .map(|_| {
            let target = rng.choose(routes).clone();
            let revalidate = target != "/healthz" && rng.chance(REVALIDATE_SHARE);
            Read1 { target, revalidate }
        })
        .collect()
}

/// First responses by target: what every later read must reproduce.
pub type Firsts = BTreeMap<String, HttpResp>;

/// What an open-loop stream measured.
#[derive(Debug, Default, Clone)]
pub struct StreamResult {
    /// `(request index, latency from its due time in ms)`, a failed
    /// request counting as infinitely slow.
    pub latency_ms: Vec<(usize, f64)>,
    /// How late each request was sent, ms.
    pub lateness_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the log.
    pub errors: Vec<String>,
    /// Wall time from the first due time to the last completion, s.
    pub wall_s: f64,
}

impl StreamResult {
    /// Latencies in due-time order, failures as infinity.
    pub fn in_order(&self) -> Vec<f64> {
        let mut v = self.latency_ms.clone();
        v.sort_by_key(|&(i, _)| i);
        v.into_iter().map(|(_, ms)| ms).collect()
    }

    pub fn merge(&mut self, other: StreamResult) {
        self.latency_ms.extend(other.latency_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(
            other
                .errors
                .into_iter()
                .take(5usize.saturating_sub(self.errors.len())),
        );
        self.wall_s = self.wall_s.max(other.wall_s);
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

/// Wait for `due`, by yielding when `spin` is set. A sleeping load
/// thread lets an otherwise idle virtual CPU halt, and waking a halted
/// virtual CPU can take milliseconds, which would show up as generator
/// lateness; a yielding thread keeps it awake but takes CPU time from
/// anything else runnable.
fn wait_until(due: Instant, spin: bool) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if spin {
            std::thread::yield_now();
        } else {
            std::thread::sleep(due - now);
        }
    }
}

/// Send `reads` open-loop at `rate` per second from `threads` load
/// threads, each holding at most one connection: read `i` is due at
/// `start + i / rate` and is sent by thread `i % threads`. Every
/// response is checked against `firsts`. `on_done` sees each request's
/// index and its latency from the send, for per-request attribution.
/// `spin` selects how a thread waits for a due time (see `wait_until`).
pub fn open_loop(
    addr: SocketAddr,
    reads: &[Read1],
    firsts: &Firsts,
    rate: f64,
    threads: usize,
    spin: bool,
    on_done: &(dyn Fn(usize, f64) + Sync),
) -> StreamResult {
    let start = Instant::now() + Duration::from_millis(5);
    let interval = 1.0 / rate;
    let results: Vec<StreamResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut out = StreamResult::default();
                    for i in (t..reads.len()).step_by(threads) {
                        let due = start + Duration::from_secs_f64(i as f64 * interval);
                        wait_until(due, spin);
                        let sent = Instant::now();
                        out.lateness_ms
                            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                        out.attempted += 1;
                        let read = &reads[i];
                        let first = &firsts[&read.target];
                        let etag = read.revalidate.then_some(first.etag.as_deref()).flatten();
                        let outcome = get(addr, &read.target, etag, Some(i), READ_TIMEOUT)
                            .and_then(|resp| check_read(first, &resp, read.revalidate));
                        let done = Instant::now();
                        on_done(i, done.duration_since(sent).as_secs_f64() * 1e3);
                        match outcome {
                            Ok(()) => out
                                .latency_ms
                                .push((i, done.duration_since(due).as_secs_f64() * 1e3)),
                            Err(why) => {
                                out.latency_ms.push((i, f64::INFINITY));
                                out.fail(format!("{}: {why}", read.target));
                            }
                        }
                        out.wall_s = done.duration_since(start).as_secs_f64();
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let mut all = StreamResult::default();
    for r in results {
        all.merge(r);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse_and_lengths_are_enforced() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nContent-Length: 4\r\nETag: \"ab\"\r\n\r\nx,y\n";
        let r = parse_response(raw).unwrap();
        assert_eq!(
            (r.status, r.etag.as_deref(), r.body.as_slice()),
            (200, Some("\"ab\""), &b"x,y\n"[..])
        );
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nx,y\n";
        assert!(parse_response(short).is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n").is_err());
        let shed =
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nRetry-After: 1\r\n\r\n";
        assert_eq!(parse_response(shed).unwrap().status, 503);
    }

    #[test]
    fn the_read_mix_is_seeded_and_revalidates_about_one_in_five() {
        let routes = cheap_routes("/v1/experiments/table1/table1.csv");
        let a = read_mix(&routes, 5000, &mut SimRng::new(3));
        let b = read_mix(&routes, 5000, &mut SimRng::new(3));
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.target == y.target && x.revalidate == y.revalidate));
        let share = a.iter().filter(|r| r.revalidate).count() as f64 / a.len() as f64;
        assert!((0.15..0.22).contains(&share), "{share}");
        assert!(a.iter().all(|r| !(r.revalidate && r.target == "/healthz")));
    }
}
