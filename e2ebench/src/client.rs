//! The open-loop generator and the loopback HTTP client.
//!
//! [`run_open_loop`] sends a [`Plan`] from one thread per stream, each with
//! at most one request in flight. Every request is timed from its
//! *scheduled* send, so a stall delays — and is charged to — the requests
//! queued behind it; how late each send left is recorded as generator
//! lateness.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::gen::{Op, Plan, Request};

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A thread stops sending once it runs this late: the phase has already
/// failed any latency limit, and waiting for the backlog to drain would
/// only stretch the run.
const ABORT_LAG_NS: u64 = 1_000_000_000;

/// The generator sleeps until this close to a due time, then spins, so that
/// timer slack does not show up as lateness.
const SPIN_NS: u64 = 60_000;

/// A parsed `/recommend` answer: item ids with the bit patterns of their
/// scores, so comparisons are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// The user the answer is for.
    pub user: u32,
    /// History version the answer was computed at.
    pub version: u64,
    /// Whether the popularity fallback answered.
    pub fallback: bool,
    /// `(item, score.to_bits())`, best first.
    pub items: Vec<(u32, u32)>,
}

/// What one request got back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A recommend answer.
    Answer(Answer),
    /// An ingest receipt with the user's new history version.
    Ingested {
        /// Version after the ingest.
        version: u64,
    },
    /// A non-200 status, a connection error or an unparseable body.
    Failed(String),
}

impl Reply {
    /// Whether the request succeeded (answers are checked separately).
    pub fn ok(&self) -> bool {
        !matches!(self, Reply::Failed(_))
    }
}

/// One recorded span (see the traced run): name, start, end, parent and
/// request id. `id` is unique within a level; `parent` is 0 for a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Request id (shared by one request's spans at every level).
    pub req: u64,
    /// This span's id (`req * 16 + slot`, slot 0 = the request's root).
    pub id: u64,
    /// Parent span id, 0 for a root span.
    pub parent: u64,
    /// Start, [`now_ns`] clock.
    pub start: u64,
    /// End, [`now_ns`] clock.
    pub end: u64,
}

/// Per-thread context handed to the request executor.
pub struct Ctx {
    /// Reusable response buffer.
    pub buf: Vec<u8>,
    /// Span sink; `None` when the run is untraced.
    pub spans: Option<Vec<Span>>,
    req: u64,
    next_slot: u64,
}

impl Ctx {
    fn new(traced: bool, capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(4096),
            spans: traced.then(|| Vec::with_capacity(capacity)),
            req: 0,
            next_slot: 1,
        }
    }

    /// A context outside any phase in which the executor still takes its
    /// timings (the spans themselves are discarded).
    pub fn outside() -> Self {
        Self::new(true, 0)
    }

    /// [`now_ns`] when traced; 0 without reading the clock otherwise, so an
    /// untraced replay runs with no tracing work at all.
    pub fn now(&self) -> u64 {
        if self.spans.is_some() {
            now_ns()
        } else {
            0
        }
    }

    /// Span id of the current request's root span.
    pub fn root(&self) -> u64 {
        self.req * 16
    }

    /// Reserves a span id for the current request, so a span can be named
    /// as a parent before it ends.
    pub fn reserve(&mut self) -> u64 {
        let id = self.req * 16 + self.next_slot;
        self.next_slot += 1;
        id
    }

    /// Records span `id` (from [`reserve`](Self::reserve)); a no-op when
    /// untraced.
    pub fn record(&mut self, id: u64, name: &'static str, parent: u64, start: u64, end: u64) {
        if let Some(spans) = self.spans.as_mut() {
            spans.push(Span {
                name,
                req: self.req,
                id,
                parent,
                start,
                end,
            });
        }
    }

    /// Records a child span of `parent` for the current request.
    pub fn span(&mut self, name: &'static str, parent: u64, start: u64, end: u64) {
        let id = self.reserve();
        self.record(id, name, parent, start, end);
    }
}

/// One sent request and what it got.
#[derive(Debug, Clone)]
pub struct Record {
    /// The request.
    pub req: Request,
    /// How late the send left, ns.
    pub lag_ns: u64,
    /// Scheduled send to reply, ns.
    pub latency_ns: u64,
    /// The reply.
    pub reply: Reply,
}

/// Everything one open-loop phase produced.
pub struct PhaseResult {
    /// Sent requests, in id order.
    pub records: Vec<Record>,
    /// Requests due but never sent because a thread fell too far behind.
    pub unsent: usize,
    /// CPU time the client threads used, seconds.
    pub client_cpu_s: f64,
    /// Spans recorded by the executor and the generator (traced runs).
    pub spans: Vec<Span>,
}

impl PhaseResult {
    /// Latencies from scheduled send, ms, of the requests matching `pick`.
    pub fn latencies_ms(&self, pick: impl Fn(&Op) -> bool) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| pick(&r.req.op))
            .map(|r| r.latency_ns as f64 / 1e6)
            .collect()
    }

    /// Generator lateness of every send, ms, in id order.
    pub fn lags_ms(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.lag_ns as f64 / 1e6).collect()
    }

    /// Requests that failed (non-200, connection error, bad body).
    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| !r.reply.ok()).count()
    }
}

/// Sends `plan` open-loop: one thread per stream, each request no earlier
/// than its due time, at most one in flight per thread. `exec` performs one
/// request; with `traced`, the generator records each request's root span
/// (named `level`) and `exec` may add children through [`Ctx::span`].
pub fn run_open_loop<E>(plan: &Plan, level: &'static str, traced: bool, exec: E) -> PhaseResult
where
    E: Fn(&Request, &mut Ctx) -> Reply + Sync,
{
    // Threads start together a little after the plan is handed over.
    let t0 = now_ns() + 20_000_000;
    let per_thread: Vec<(Vec<Record>, usize, f64, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .streams
            .iter()
            .map(|stream| {
                let exec = &exec;
                s.spawn(move || {
                    let cpu0 = thread_cpu_s();
                    let mut ctx = Ctx::new(traced, stream.len() * 8);
                    let mut records = Vec::with_capacity(stream.len());
                    let mut unsent = 0;
                    for (n, req) in stream.iter().enumerate() {
                        let due = t0 + req.at_ns;
                        wait_until(due);
                        let start = now_ns();
                        let lag_ns = start - due;
                        if lag_ns > ABORT_LAG_NS {
                            unsent = stream.len() - n;
                            break;
                        }
                        ctx.req = req.id;
                        ctx.next_slot = 1;
                        let reply = exec(req, &mut ctx);
                        let end = now_ns();
                        if let Some(spans) = ctx.spans.as_mut() {
                            spans.push(Span {
                                name: level,
                                req: req.id,
                                id: req.id * 16,
                                parent: 0,
                                start,
                                end,
                            });
                        }
                        records.push(Record {
                            req: *req,
                            lag_ns,
                            latency_ns: end - due,
                            reply,
                        });
                    }
                    let cpu = thread_cpu_s() - cpu0;
                    (records, unsent, cpu, ctx.spans.unwrap_or_default())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut result = PhaseResult {
        records: Vec::with_capacity(plan.len()),
        unsent: 0,
        client_cpu_s: 0.0,
        spans: Vec::new(),
    };
    for (records, unsent, cpu, spans) in per_thread {
        result.records.extend(records);
        result.unsent += unsent;
        result.client_cpu_s += cpu;
        result.spans.extend(spans);
    }
    result.records.sort_by_key(|r| r.req.id);
    result
}

fn wait_until(due: u64) {
    loop {
        let now = now_ns();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The request line and headers for `op`.
pub fn request_text(op: &Op, k: usize) -> String {
    match *op {
        Op::Recommend { user } => {
            format!("GET /recommend?user={user}&k={k} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n")
        }
        Op::Ingest { user, item } => format!(
            "POST /ingest?user={user}&item={item} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
        ),
    }
}

/// One HTTP exchange on a fresh connection (the server closes after each
/// response). Returns the status code; the body is left in `buf` from
/// `body_start` on.
pub fn http_exchange(
    addr: SocketAddr,
    text: &str,
    buf: &mut Vec<u8>,
) -> Result<(u16, usize), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("timeout: {e}"))?;
    stream
        .write_all(text.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    buf.clear();
    stream.read_to_end(buf).map_err(|e| format!("read: {e}"))?;
    let head_end = find(buf, b"\r\n\r\n").ok_or("no header terminator")?;
    let status = std::str::from_utf8(&buf[..head_end])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("bad status line")?;
    Ok((status, head_end + 4))
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Sends `op` over HTTP and parses the reply.
pub fn http_call(addr: SocketAddr, op: &Op, k: usize, buf: &mut Vec<u8>) -> Reply {
    let (status, body_start) = match http_exchange(addr, &request_text(op, k), buf) {
        Ok(r) => r,
        Err(e) => return Reply::Failed(e),
    };
    if status != 200 {
        return Reply::Failed(format!("status {status}"));
    }
    let Ok(body) = std::str::from_utf8(&buf[body_start..]) else {
        return Reply::Failed("non-UTF-8 body".into());
    };
    let parsed = match op {
        Op::Recommend { .. } => parse_answer(body).map(Reply::Answer),
        Op::Ingest { .. } => field(body, "version").map(|version| Reply::Ingested { version }),
    };
    parsed.unwrap_or_else(|| Reply::Failed(format!("unparseable body: {body}")))
}

/// The unsigned integer after `"name":` in a flat JSON object.
fn field(body: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let at = body.find(&key)? + key.len();
    let digits: &str = &body[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// Parses `{"user":U,"version":V,"fallback":B,"items":[{"item":I,"score":S},…]}`.
pub fn parse_answer(body: &str) -> Option<Answer> {
    let user = field(body, "user")? as u32;
    let version = field(body, "version")?;
    let fallback = body.contains("\"fallback\":true");
    let list = &body[body.find("\"items\":[")? + 9..];
    let mut items = Vec::new();
    for entry in list.split("{\"item\":").skip(1) {
        let (item, rest) = entry.split_once(",\"score\":")?;
        let score = rest.split('}').next()?;
        items.push((item.parse().ok()?, score.parse::<f32>().ok()?.to_bits()));
    }
    Some(Answer {
        user,
        version,
        fallback,
        items,
    })
}

/// `GET /health` until it answers 200 (setup ends there).
pub fn wait_healthy(addr: SocketAddr) {
    let mut buf = Vec::new();
    let text = "GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
    loop {
        if let Ok((200, _)) = http_exchange(addr, text, &mut buf) {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// utime + stime of `/proc/<path>/stat`, seconds.
fn proc_cpu_s(path: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks (100 per second).
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// CPU time of the whole process (every thread, live or exited), seconds.
pub fn process_cpu_s() -> f64 {
    proc_cpu_s("/proc/self/stat")
}

/// CPU time of the calling thread, seconds.
pub fn thread_cpu_s() -> f64 {
    proc_cpu_s("/proc/thread-self/stat")
}

/// A `kB` field of `/proc/self/status`, MiB.
fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resets the peak resident set size to the current one (writing `5` to
/// `/proc/self/clear_refs`) and returns the current one (`VmRSS`), MiB, so
/// that a later [`peak_rss_mb`] minus this is the peak growth since now.
pub fn reset_peak_rss_mb() -> f64 {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("could not reset the peak RSS: {e}");
    }
    status_mb("VmRSS:")
}

/// Host-wide CPU clock ticks from the first line of `/proc/stat`:
/// `(steal, total)`. Steal is time a virtual CPU was ready to run but the
/// hypervisor ran something else.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice; the
    // guest fields are already counted in user and nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Share of CPU time stolen by the hypervisor between two [`cpu_ticks`]
/// readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Threads currently alive in this process (`/proc/self/task`).
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::read_only;

    #[test]
    fn parses_recommend_and_ingest_bodies() {
        let body = r#"{"user":7,"version":3,"fallback":false,"items":[{"item":12,"score":1.5},{"item":4,"score":-0.25}]}"#;
        let a = parse_answer(body).unwrap();
        assert_eq!(a.user, 7);
        assert_eq!(a.version, 3);
        assert!(!a.fallback);
        assert_eq!(
            a.items,
            vec![(12, 1.5f32.to_bits()), (4, (-0.25f32).to_bits())]
        );
        let empty = parse_answer(r#"{"user":1,"version":0,"fallback":true,"items":[]}"#).unwrap();
        assert!(empty.fallback && empty.items.is_empty());
        assert_eq!(
            field(
                r#"{"user":1,"item":2,"version":9,"history_changed":true}"#,
                "version"
            ),
            Some(9)
        );
        assert!(parse_answer("{}").is_none());
    }

    #[test]
    fn latency_is_measured_from_the_scheduled_send() {
        // Each request takes 4 ms but they are due every 1 ms on one
        // thread: the backlog grows, and from the scheduled send request i
        // waits ~3 ms per earlier request on top of its own 4 ms.
        let plan = read_only(1, 0, 10, 1000.0, 20, 1);
        let res = run_open_loop(&plan, "test", false, |_, _| {
            std::thread::sleep(Duration::from_millis(4));
            Reply::Ingested { version: 0 }
        });
        assert_eq!(res.records.len(), 20);
        let last = &res.records[19];
        // Due at 19 ms, sent no earlier than 19 * 4 = 76 ms.
        assert!(last.lag_ns >= 55_000_000, "lag {}", last.lag_ns);
        assert!(last.latency_ns >= last.lag_ns + 4_000_000);
        let lags = res.lags_ms();
        assert!(crate::stats::lateness_grows(&lags, 5.0));
        // An idle schedule runs on time: lateness stays near zero.
        let idle = read_only(1, 0, 10, 200.0, 20, 2);
        let res = run_open_loop(&idle, "test", true, |_, _| Reply::Ingested { version: 0 });
        assert!(res.records.iter().all(|r| r.lag_ns < 5_000_000));
        assert_eq!(res.spans.len(), 20);
        assert!(!crate::stats::lateness_grows(&res.lags_ms(), 5.0));
    }
}
