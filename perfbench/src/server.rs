//! A `pypmc serve` child process and the closed-loop load against it.

use crate::trace::{Span, Tracer};
use pypm::serve::{Client, STATUS_OK};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// A running server child. Dropping it kills and reaps the process if
/// [`ServerProc::shutdown`] did not already stop it.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts `pypmc serve` with its defaults (only the address is
    /// set, to an ephemeral port) and waits for its `listening on` line.
    ///
    /// # Errors
    ///
    /// Fails when the binary cannot start or never reports its address.
    pub fn spawn(pypmc: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(pypmc)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", pypmc.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        let mut proc = ServerProc {
            child,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                proc.addr = addr;
                Ok(proc)
            }
            _ => Err(format!("server did not report its address (got {line:?})")),
        }
    }

    /// The server's peak resident set (`VmHWM`), MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `shutdown` and waits for the process to exit (killing it
    /// after 30 s).
    pub fn shutdown(mut self) {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.request("shutdown");
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            thread::sleep(Duration::from_millis(5));
        }
        // Drop kills and reaps.
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, MB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// How the load picks each connection's next input.
#[derive(Debug, Clone, Copy)]
pub enum Order {
    /// Both connections walk one shared cycle over the inputs.
    Cycle,
    /// Each connection draws uniformly, from its own seeded stream.
    Uniform {
        /// The workload seed.
        seed: u64,
    },
}

/// One measured request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the input.
    pub input: usize,
    /// Response status byte (`u8::MAX` for a transport failure).
    pub status: u8,
    /// Client round trip, ns.
    pub rtt_ns: u64,
    /// When the response arrived, ns since the load started.
    pub done_ns: u64,
    /// Whether the request ran in a traced slice.
    pub traced: bool,
    /// Whether the payload equalled the input's reference response.
    pub matched_reference: bool,
    /// The payload, kept when it did not match the reference.
    pub payload: Option<String>,
}

/// Everything the load produced.
#[derive(Debug, Default)]
pub struct LoadOut {
    /// The server's `VmHWM` once `rss_mark` requests had completed
    /// (`None` if fewer did), MB.
    pub rss_at_mark_mb: Option<f64>,
    /// All samples, both connections.
    pub samples: Vec<Sample>,
    /// Wall time of the measured phase.
    pub wall: Duration,
    /// Client spans (traced runs only).
    pub spans: Vec<Span>,
}

/// Length of the alternating untraced/traced slices of a traced run.
const TRACE_SLICE: Duration = Duration::from_millis(500);

/// Runs a closed loop with two connections (one per thread, this one
/// included) for `seconds`. A response byte-identical to the input's
/// `reference` is only counted; any other payload is kept for checking.
/// With `trace`, alternate [`TRACE_SLICE`]s record a span per request.
/// The server's peak memory is read once `rss_mark` requests completed,
/// so that it does not depend on how many requests fit in the run.
#[allow(clippy::too_many_arguments)]
pub fn run_load(
    server: &ServerProc,
    rss_mark: u64,
    lines: &[String],
    references: &[Option<String>],
    order: Order,
    seconds: f64,
    trace: bool,
    epoch: Instant,
) -> Result<LoadOut, String> {
    let addr = server.addr;
    let cursor = AtomicUsize::new(0);
    let request_ids = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let rss_at_mark = std::sync::Mutex::new(None);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let conn = |id: u64| -> Result<(Vec<Sample>, Vec<Span>), String> {
        let mut client =
            Client::connect(addr).map_err(|e| format!("connection {id}: cannot connect: {e}"))?;
        let mut rng = crate::inputs::Rng::new(
            match order {
                Order::Uniform { seed } => seed,
                Order::Cycle => 0,
            },
            100 + id,
        );
        let mut tracer = Tracer::new(epoch);
        let mut samples = Vec::new();
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            let input = match order {
                Order::Cycle => cursor.fetch_add(1, Ordering::Relaxed) % lines.len(),
                Order::Uniform { .. } => rng.below(lines.len()),
            };
            let traced =
                trace && (now.duration_since(start).as_nanos() / TRACE_SLICE.as_nanos()) % 2 == 1;
            let t0 = Instant::now();
            let response = client.request(&lines[input]);
            let t1 = Instant::now();
            if traced {
                let rid = request_ids.fetch_add(1, Ordering::Relaxed);
                tracer.record("Client::request", rid, t0, t1);
            }
            let (status, payload) = match response {
                Ok(r) => r,
                Err(e) => {
                    samples.push(Sample {
                        input,
                        status: u8::MAX,
                        rtt_ns: 0,
                        done_ns: t1.duration_since(start).as_nanos() as u64,
                        traced,
                        matched_reference: false,
                        payload: Some(e.to_string()),
                    });
                    break;
                }
            };
            if completed.fetch_add(1, Ordering::Relaxed) + 1 == rss_mark {
                *rss_at_mark.lock().expect("no panics while held") = server.peak_rss_mb();
            }
            let matched = status == STATUS_OK && references[input].as_deref() == Some(&payload);
            samples.push(Sample {
                input,
                status,
                rtt_ns: t1.duration_since(t0).as_nanos() as u64,
                done_ns: t1.duration_since(start).as_nanos() as u64,
                traced,
                matched_reference: matched,
                payload: (!matched).then_some(payload),
            });
        }
        Ok((samples, tracer.into_spans()))
    };
    let (a, b) = thread::scope(|scope| {
        let other = scope.spawn(|| conn(1));
        let mine = conn(0);
        (mine, other.join().expect("load thread panicked"))
    });
    let wall = start.elapsed();
    let (mut samples, mut spans) = a?;
    let (s2, sp2) = b?;
    samples.extend(s2);
    crate::trace::append(&mut spans, sp2);
    Ok(LoadOut {
        rss_at_mark_mb: rss_at_mark.into_inner().expect("no panics while held"),
        samples,
        wall,
        spans,
    })
}

/// Sends every input on both connections at once, `rounds` times, so
/// both server workers see (and memoize) every input; then fetches each
/// input once more. That last response is a cache hit, so it carries
/// the exact bytes every later hit returns: the input's reference.
pub fn prime(addr: SocketAddr, lines: &[String], rounds: usize) -> Result<Vec<String>, String> {
    let conn = |id: u64, rounds: usize| -> Result<Vec<String>, String> {
        let mut client =
            Client::connect(addr).map_err(|e| format!("priming connection {id}: {e}"))?;
        let mut last = Vec::with_capacity(lines.len());
        for _ in 0..rounds {
            last.clear();
            for line in lines {
                let (status, payload) = client
                    .request(line)
                    .map_err(|e| format!("priming {line:?}: {e}"))?;
                if status != STATUS_OK {
                    return Err(format!("priming {line:?}: status {status}: {payload}"));
                }
                last.push(payload);
            }
        }
        Ok(last)
    };
    thread::scope(|scope| {
        let other = scope.spawn(|| conn(1, rounds));
        let mine = conn(0, rounds);
        other.join().expect("priming thread panicked").and(mine)
    })?;
    conn(0, 1)
}

/// The server's `stats` document.
///
/// # Errors
///
/// Fails on a transport error or a non-OK response.
pub fn stats(addr: SocketAddr) -> Result<crate::json::Value, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("stats: {e}"))?;
    match c.request("stats") {
        Ok((STATUS_OK, body)) => crate::json::parse(&body),
        Ok((status, body)) => Err(format!("stats: status {status}: {body}")),
        Err(e) => Err(format!("stats: {e}")),
    }
}
