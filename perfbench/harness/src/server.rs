//! Starting, probing and stopping `elinda-serve` as a child process, and
//! reading its counters from `/metrics` and `/proc/<pid>`.

use crate::client::Client;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    log: Option<JoinHandle<Vec<String>>>,
    pub addr: SocketAddr,
    /// Spawn to the first `200` from `/health`.
    pub setup: Duration,
}

impl Server {
    /// Spawn the server with `args` and wait until `/health` answers.
    pub fn start(bin: &Path, args: &[String]) -> Result<Server, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drain the server's log for its whole life, so the pipe never
        // fills; the listening line carries the port.
        let log = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix("listening on http://") {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
                lines.push(line);
            }
            lines
        });
        let mut server = Server {
            child,
            stdin,
            log: Some(log),
            addr: "127.0.0.1:1".parse().expect("literal address"),
            setup: Duration::ZERO,
        };
        let addr = match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(addr) => addr,
            Err(_) => {
                let log = server.kill();
                return Err(format!("server did not start:\n{}", log.join("\n")));
            }
        };
        server.addr = addr
            .parse()
            .map_err(|e| format!("bad address {addr:?}: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let mut client = Client::new(server.addr);
            if let Ok(r) = client.get("/health") {
                if r.status == 200 {
                    break;
                }
            }
            if Instant::now() > deadline {
                server.kill();
                return Err("server never answered /health".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        server.setup = started.elapsed();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Clean stop: `quit` on stdin, which drains, folds and persists
    /// staged writes and syncs the WAL before exiting.
    pub fn quit(mut self) -> Result<Vec<String>, String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"quit\n");
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let log = self.log.take().map(|h| h.join().unwrap_or_default());
                    let log = log.unwrap_or_default();
                    return if status.success() {
                        Ok(log)
                    } else {
                        Err(format!("server exited with {status}:\n{}", log.join("\n")))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.kill();
                    return Err("server did not stop after `quit`".into());
                }
            }
        }
    }

    /// Hard stop; returns the log.
    pub fn kill(&mut self) -> Vec<String> {
        self.stdin.take();
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.log
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.log.is_some() {
            self.kill();
        }
    }
}

/// Counters of a process, read from `/proc/<pid>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User plus system CPU time of all threads, in seconds.
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`), in MiB.
    pub hwm_mib: f64,
    /// Current resident set (`VmRSS`), in MiB.
    pub rss_mib: f64,
    /// Bytes the process caused to be written to storage.
    pub write_bytes: u64,
}

pub fn proc_sample(pid: u32) -> ProcSample {
    let mut sample = ProcSample::default();
    if let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        if let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let ticks = |i: usize| {
                fields
                    .get(i)
                    .and_then(|f| f.parse::<f64>().ok())
                    .unwrap_or(0.0)
            };
            sample.cpu_s = (ticks(11) + ticks(12)) / clock_ticks_per_second();
        }
    }
    if let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) {
        for line in status.lines() {
            let kib = || {
                line.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(0.0)
                    / 1024.0
            };
            if line.starts_with("VmHWM:") {
                sample.hwm_mib = kib();
            } else if line.starts_with("VmRSS:") {
                sample.rss_mib = kib();
            }
        }
    }
    if let Ok(io) = std::fs::read_to_string(format!("/proc/{pid}/io")) {
        for line in io.lines() {
            if let Some(v) = line.strip_prefix("write_bytes:") {
                sample.write_bytes = v.trim().parse().unwrap_or(0);
            }
        }
    }
    sample
}

/// `AT_CLKTCK` from the auxiliary vector (100 on every common Linux).
fn clock_ticks_per_second() -> f64 {
    const AT_CLKTCK: u64 = 17;
    if let Ok(auxv) = std::fs::read("/proc/self/auxv") {
        for pair in auxv.chunks_exact(16) {
            let key = u64::from_ne_bytes(pair[..8].try_into().expect("8 bytes"));
            let value = u64::from_ne_bytes(pair[8..].try_into().expect("8 bytes"));
            if key == AT_CLKTCK && value > 0 {
                return value as f64;
            }
        }
    }
    100.0
}

/// `/metrics` as `series → value` (labels kept in the series name).
pub fn metrics(addr: SocketAddr) -> Result<HashMap<String, f64>, String> {
    let r = Client::new(addr).get("/metrics")?;
    if r.status != 200 {
        return Err(format!("/metrics answered {}", r.status));
    }
    let text = String::from_utf8_lossy(&r.body);
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// The value of one series; 0 when the server does not export it.
pub fn metric(m: &HashMap<String, f64>, name: &str) -> f64 {
    m.get(name).copied().unwrap_or(0.0)
}
