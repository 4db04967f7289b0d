//! The server under test: the real `honeylab serve` binary as a child
//! process, so its `/proc/<pid>` counters cover the server alone.

use crate::affinity::CpuSet;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Counters from the server's shutdown summary (`final:` and
/// `collector:` lines of `honeylab serve`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FinalReport {
    /// Sessions completed and handed to the collector.
    pub completed: u64,
    /// Connections shed (capacity + per-IP).
    pub shed: u64,
    /// Connections that died on a protocol error.
    pub wire_errors: u64,
    /// Connection pumps that panicked.
    pub panics: u64,
    /// Records the collector stored.
    pub collector_accepted: u64,
    /// Records the collector lost.
    pub collector_dropped: u64,
    /// Records the collector quarantined.
    pub collector_quarantined: u64,
}

/// `key=value` from a `final:` line (`shed=A+B` sums both parts).
fn kv(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .map(|v| v.split('+').filter_map(|p| p.parse::<u64>().ok()).sum())
}

/// Parses the shutdown summary out of the server's stderr.
pub fn parse_final(lines: &[String]) -> Result<FinalReport, String> {
    let fin = lines
        .iter()
        .find_map(|l| l.strip_prefix("final: "))
        .ok_or("server printed no final: line")?;
    let col = lines
        .iter()
        .find_map(|l| l.strip_prefix("collector: "))
        .ok_or("server printed no collector: line")?;
    // "collector: N accepted, D dropped, Q quarantined"
    let nums: Vec<u64> = col
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|p| p.parse().ok())
        .collect();
    let [accepted, dropped, quarantined] = nums[..] else {
        return Err(format!("unparsable collector line: {col}"));
    };
    let get = |k: &str| kv(fin, k).ok_or_else(|| format!("no {k}= in final line: {fin}"));
    Ok(FinalReport {
        completed: get("completed")?,
        shed: get("shed")?,
        wire_errors: get("wire_errors")?,
        panics: get("panics")?,
        collector_accepted: accepted,
        collector_dropped: dropped,
        collector_quarantined: quarantined,
    })
}

/// A running `honeylab serve`. Dropping it without [`ServerProc::stop`]
/// kills the process and waits for it.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: mpsc::Receiver<String>,
    reader: Option<JoinHandle<()>>,
    seen: Vec<String>,
    /// Server process id.
    pub pid: u32,
    /// SSH listener.
    pub ssh: SocketAddr,
    /// HTTP listener, when started with the dashboard plane.
    pub http: Option<SocketAddr>,
}

/// How to start the server.
#[derive(Debug, Clone)]
pub struct ServerArgs {
    /// Spill store directory (`--store`), default WAL policy.
    pub store: Option<PathBuf>,
    /// Start the HTTP plane on an ephemeral port.
    pub http: bool,
    /// CPUs the server may run on.
    pub cpus: Option<CpuSet>,
}

impl ServerProc {
    /// Starts `bin serve` on ephemeral loopback ports with one shard and
    /// admission limits above any workload's connection count, and waits
    /// until every listener is bound.
    pub fn start(bin: &Path, args: &ServerArgs) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        cmd.args([
            "serve",
            "--ssh-port",
            "0",
            "--workers",
            "1",
            "--max-conns",
            "16384",
            "--per-ip",
            "16384",
            "--stats-secs",
            "0",
        ]);
        if let Some(dir) = &args.store {
            cmd.arg("--store").arg(dir);
        }
        if args.http {
            cmd.args(["--http-port", "0"]);
        }
        if let Some(set) = args.cpus {
            use std::os::unix::process::CommandExt;
            // SAFETY: the hook runs between fork and exec and only makes
            // one system call (no allocation, no locks).
            unsafe {
                cmd.pre_exec(move || crate::affinity::pin(&set));
            }
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stderr = child.stderr.take().expect("stderr piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name("serve-stderr".into())
            .spawn(move || {
                for line in BufReader::new(stderr).lines() {
                    let Ok(line) = line else { break };
                    if tx.send(line).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| format!("spawn stderr reader: {e}"))?;
        let pid = child.id();
        let mut srv = ServerProc {
            child,
            stdin,
            lines: rx,
            reader: Some(reader),
            seen: Vec::new(),
            pid,
            ssh: SocketAddr::from(([127, 0, 0, 1], 0)),
            http: None,
        };
        let mut ssh = None;
        let deadline = Instant::now() + Duration::from_secs(30);
        // "press Ctrl-C" follows every "listening …" line.
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = srv
                .lines
                .recv_timeout(left)
                .map_err(|_| format!("server did not come up: {:?}", srv.seen))?;
            if let Some(a) = line.strip_prefix("listening ssh on ") {
                ssh = a.trim().parse().ok();
            }
            if let Some(a) = line.strip_prefix("listening http on ") {
                srv.http = a.split_whitespace().next().and_then(|a| a.parse().ok());
            }
            let ready = line.starts_with("press Ctrl-C");
            srv.seen.push(line);
            if ready {
                break;
            }
        }
        srv.ssh = ssh.ok_or("server printed no ssh address")?;
        if args.http && srv.http.is_none() {
            return Err("server printed no http address".into());
        }
        Ok(srv)
    }

    /// Requests a drain (closes stdin), waits for exit, and parses the
    /// shutdown summary.
    pub fn stop(mut self) -> Result<FinalReport, String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(None) => return Err("server did not exit within 60 s of a drain".into()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        };
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        self.seen.extend(self.lines.try_iter());
        if !status.success() {
            return Err(format!("server exited with {status}: {:?}", self.seen));
        }
        parse_final(&self.seen)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        drop(self.stdin.take());
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shutdown_summary() {
        let lines = vec![
            "shutting down: draining in-flight sessions…".to_string(),
            "final: accepted=12 active=0 completed=11 timed_out=0 shed=1+0 wire_errors=0 in=10B out=20B accept_errors=0 panics=0 respawns=0".to_string(),
            "collector: 11 accepted, 0 dropped, 0 quarantined".to_string(),
        ];
        let r = parse_final(&lines).expect("parses");
        assert_eq!(r.completed, 11);
        assert_eq!(r.shed, 1);
        assert_eq!(r.collector_accepted, 11);
        assert_eq!(r.panics, 0);
        assert!(parse_final(&lines[..1]).is_err());
    }
}
