//! The served side: pinning the benchmark to one CPU, spawning `p3-serve`,
//! booting it through warm-up, and the closed loop over one Unix-socket
//! connection.

use crate::workload::{Spec, Workload};
use p3_service::client::Client;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::ops::Range;
use std::time::{Duration, Instant};

/// A request that takes longer than this counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Correlation id of phase-opening program loads (request ids count up
/// from 0; ids travel as JSON numbers, so this stays below 2^53).
pub const LOAD_ID: u64 = 1 << 52;
/// `/proc/<pid>/stat` reports CPU time in USER_HZ ticks, 100 per second on
/// Linux.
const TICKS_PER_SEC: f64 = 100.0;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and so every thread and process it starts
/// afterwards (the server included), to the last CPU it may run on;
/// returns that CPU. On a virtual machine sharing its host, a request
/// handed between threads on different CPUs waits on the host scheduler
/// whenever the other virtual CPU is descheduled, and that wait, not the
/// program, set the spread of sub-millisecond latencies. On one CPU every
/// hand-off is local.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

/// A running `p3-serve`, killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Where its socket and audit log live.
    pub dir: PathBuf,
}

impl Server {
    /// Spawns `bin` serving `program` over a socket in `dir`, with the
    /// audit log in `dir/audit`, and waits for its `listening unix` line.
    pub fn spawn(bin: &Path, dir: &Path, program: &Path) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let stderr = std::fs::File::create(dir.join("serve.log"))
            .map_err(|e| format!("create serve.log: {e}"))?;
        let mut child = Command::new(bin)
            .arg("--program")
            .arg(program)
            .arg("--unix")
            .arg(dir.join("s.sock"))
            .arg("--audit-dir")
            .arg(dir.join("audit"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            dir: dir.to_path_buf(),
        };
        let mut line = String::new();
        let mut reader = BufReader::new(stdout);
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = server.child.wait();
                    let log = std::fs::read_to_string(dir.join("serve.log")).unwrap_or_default();
                    return Err(format!("p3-serve exited before listening: {log}"));
                }
                Ok(_) if line.starts_with("listening unix") => return Ok(server),
                Ok(_) => {}
            }
        }
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A new connection.
    pub fn connect(&self) -> Result<Client, String> {
        let mut c =
            Client::connect_unix(&self.dir.join("s.sock")).map_err(|e| format!("connect: {e}"))?;
        c.set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("set timeout: {e}"))?;
        Ok(c)
    }

    /// User + system CPU seconds consumed so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("read stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')').ok_or("bad stat")? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        let (u, s) = (tick(11).ok_or("bad utime")?, tick(12).ok_or("bad stime")?);
        Ok((u + s) as f64 / TICKS_PER_SEC)
    }

    /// Peak resident memory (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read status: {e}"))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or("no VmHWM")?;
        Ok(kb / 1024.0)
    }

    /// Asks for a graceful shutdown and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut c) = self.connect() {
            let _ = c.roundtrip(r#"{"op":"shutdown"}"#);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("p3-serve did not shut down".to_string()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Boots a server with `w.programs[program]` and answers that program's
/// warm-up; returns the server, an open connection, and the set-up time: spawn → listening, plus the
/// warm-up answered. The wait for the first connection to be accepted is
/// left out: the server's accept loop polls every 25 ms, which would make
/// the time bimodal, 0 or 25 ms, by a race with no bearing on the work.
pub fn boot(
    w: &Workload,
    program: usize,
    bin: &Path,
    dir: &Path,
) -> Result<(Server, Client, f64), String> {
    let path = dir.join("program.pl");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    std::fs::write(&path, &w.programs[program]).map_err(|e| format!("write program: {e}"))?;
    let spawned = Instant::now();
    let server = Server::spawn(bin, dir, &path)?;
    let listening = spawned.elapsed();
    let mut conn = server.connect()?;
    conn.roundtrip(r#"{"op":"ping"}"#)
        .map_err(|e| format!("first ping: {e}"))?;
    let start = Instant::now() - listening;
    for (i, spec) in w.warmup_of(program).enumerate() {
        let reply = conn
            .roundtrip(&w.line(spec, i as u64))
            .map_err(|e| format!("warm-up request: {e}"))?;
        if !reply.contains("\"status\":\"ok\"") {
            return Err(format!("warm-up request failed: {reply}"));
        }
    }
    Ok((server, conn, start.elapsed().as_secs_f64()))
}

/// One timed request as the client saw it.
pub struct Sent {
    /// Request index, or `None` for a phase-opening load.
    pub index: Option<u64>,
    /// The request's op, as named on the wire.
    pub class: &'static str,
    /// Wall time from send to reply, ns.
    pub latency_ns: u64,
}

/// What the timed phase produced.
pub struct TimedRun {
    /// Every request in completion order.
    pub sent: Vec<Sent>,
    /// Requests whose reply never arrived or could not be read.
    pub transport_failures: Vec<String>,
    /// Replies to check: `(spec, reply, times)`, one per distinct reply
    /// text per distinct request with how often it came back (identical
    /// replies to identical requests are checked once).
    pub replies: Vec<(Spec, String, usize)>,
    /// Wall time of the phase, s.
    pub elapsed_s: f64,
    /// Server CPU over the phase, s.
    pub cpu_s: f64,
    /// Whether the workload ran out of distinct requests early.
    pub exhausted: bool,
}

impl TimedRun {
    /// This run followed by `later`, as one timed phase.
    pub fn merged(mut self, later: TimedRun) -> TimedRun {
        self.sent.extend(later.sent);
        self.transport_failures.extend(later.transport_failures);
        self.replies.extend(later.replies);
        self.elapsed_s += later.elapsed_s;
        self.cpu_s += later.cpu_s;
        self.exhausted |= later.exhausted;
        self
    }
}

/// The last reply to each request text, with its position in
/// [`TimedRun::replies`].
type Seen = HashMap<String, (String, usize)>;

/// Sends `line` for `spec` on `conn`, recording the outcome.
fn send(
    conn: &mut Client,
    w: &Workload,
    spec: Spec,
    id: u64,
    index: Option<u64>,
    seen: &mut Seen,
    out: &mut TimedRun,
) {
    let line = w.line(&spec, id);
    let start = Instant::now();
    let reply = conn.roundtrip(&line);
    let latency_ns = start.elapsed().as_nanos() as u64;
    out.sent.push(Sent {
        index,
        class: spec.op.class(),
        latency_ns,
    });
    match reply {
        Err(e) => out.transport_failures.push(format!("{line}: {e}")),
        Ok(reply) => {
            // Replies echo the id first; compare the rest.
            let body = reply.split_once(',').map_or("", |(_, b)| b).to_string();
            let key = line.split_once(',').map_or("", |(_, b)| b).to_string();
            match seen.get(&key) {
                Some((last, at)) if *last == body => out.replies[*at].2 += 1,
                _ => {
                    seen.insert(key, (body, out.replies.len()));
                    out.replies.push((spec, reply, 1));
                }
            }
        }
    }
}

/// Runs the closed loop for `seconds` on `conn` over the request indices
/// of `range`: each request goes out as soon as the previous reply
/// arrives, and a phase-opening load goes out before its phase's first
/// request. One connection: a second would only queue behind the first on
/// the one CPU the benchmark and the server share.
pub fn timed_phase(
    w: &Workload,
    server: &Server,
    conn: &mut Client,
    seconds: f64,
    range: Range<u64>,
) -> Result<TimedRun, String> {
    let mut run = TimedRun {
        sent: Vec::new(),
        transport_failures: Vec::new(),
        replies: Vec::new(),
        elapsed_s: 0.0,
        cpu_s: 0.0,
        exhausted: false,
    };
    let mut seen = Seen::new();
    let phase_len = w.phase_len().unwrap_or(u64::MAX);
    let cpu0 = server.cpu_seconds()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut i = range.start;
    while i < range.end && Instant::now() < deadline {
        if i % phase_len == 0 {
            if let Some(load) = w.phase_load(i / phase_len) {
                send(conn, w, load, LOAD_ID, None, &mut seen, &mut run);
            }
        }
        send(conn, w, w.request(i), i, Some(i), &mut seen, &mut run);
        i += 1;
    }
    run.elapsed_s = start.elapsed().as_secs_f64();
    run.cpu_s = server.cpu_seconds()? - cpu0;
    run.exhausted = i >= range.end && run.elapsed_s < seconds;
    Ok(run)
}
