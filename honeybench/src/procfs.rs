//! `/proc` readers: process and per-thread CPU, syscall and
//! context-switch counters, and memory high-water marks.
//!
//! Server CPU is read from the server's own `/proc/<pid>`, so it never
//! includes the load generator; the generator's CPU is read from
//! `/proc/self` and reported separately.

use std::collections::HashMap;
use std::time::Instant;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/*/stat` (100 on
/// every Linux configuration Rust targets).
pub const TICKS_PER_SEC: f64 = 100.0;

/// Which server layer a thread belongs to, from the name `serve` gives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// `accept-ssh` / `accept-telnet` (serve::server accept loop).
    Accept,
    /// `shard-N` (serve::reactor shards).
    Shard,
    /// `serve-aggregator` (serve::stats).
    Aggregator,
    /// `http-accept`, `http-worker-N` (serve::http).
    Http,
    /// Everything else: main, stdin watcher, shard supervisor.
    Other,
}

impl Role {
    /// Classifies a thread by its (15-byte truncated) `comm` name.
    pub fn of(comm: &str) -> Role {
        if comm.starts_with("accept-") {
            Role::Accept
        } else if comm.starts_with("shard-") && !comm.starts_with("shard-super") {
            Role::Shard
        } else if comm.starts_with("serve-aggreg") {
            Role::Aggregator
        } else if comm.starts_with("http-") {
            Role::Http
        } else {
            Role::Other
        }
    }
}

/// Counters of one thread.
#[derive(Debug, Clone, Default)]
pub struct ThreadCounters {
    /// `comm` name.
    pub comm: String,
    /// CPU time, ns (`schedstat` run time; `stat` ticks where the
    /// kernel has no schedstat).
    pub cpu_ns: u64,
    /// `read`-family syscalls (`io: syscr`).
    pub syscr: u64,
    /// `write`-family syscalls (`io: syscw`).
    pub syscw: u64,
    /// Voluntary context switches (the thread blocked).
    pub voluntary_switches: u64,
}

/// One snapshot of a process and its threads.
#[derive(Debug, Clone)]
pub struct Sample {
    /// When the snapshot was taken.
    pub at: Instant,
    /// Whole-process utime + stime, ticks (includes exited threads).
    pub ticks: u64,
    /// Live threads by tid.
    pub threads: HashMap<u32, ThreadCounters>,
}

/// utime + stime from a `stat` line; the parenthesised comm may hold
/// spaces, so fields are counted after its closing paren.
fn stat_ticks(stat: &str) -> Option<u64> {
    let after = stat.rsplit_once(')')?.1;
    let mut it = after.split_whitespace().skip(11); // field 3 is first here
    let utime: u64 = it.next()?.parse().ok()?;
    let stime: u64 = it.next()?.parse().ok()?;
    Some(utime + stime)
}

fn field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Whole-process CPU ticks of `pid` (`"self"` for this process).
pub fn process_ticks(pid: &str) -> Result<u64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("read /proc/{pid}/stat: {e}"))?;
    stat_ticks(&stat).ok_or_else(|| format!("unparsable /proc/{pid}/stat"))
}

/// Snapshots `pid` and every live thread.
pub fn sample(pid: u32) -> Result<Sample, String> {
    let at = Instant::now();
    let ticks = process_ticks(&pid.to_string())?;
    let dir = format!("/proc/{pid}/task");
    let mut threads = HashMap::new();
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("read {dir}: {e}"))?;
    for entry in entries.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let base = format!("{dir}/{tid}");
        // A thread can exit between the listing and the reads; skip it.
        let (Ok(stat), Ok(comm), Ok(status)) = (
            std::fs::read_to_string(format!("{base}/stat")),
            std::fs::read_to_string(format!("{base}/comm")),
            std::fs::read_to_string(format!("{base}/status")),
        ) else {
            continue;
        };
        let io = std::fs::read_to_string(format!("{base}/io")).unwrap_or_default();
        let cpu_ns = std::fs::read_to_string(format!("{base}/schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or_else(|| stat_ticks(&stat).unwrap_or(0) * (1e9 / TICKS_PER_SEC) as u64);
        threads.insert(
            tid,
            ThreadCounters {
                comm: comm.trim().to_string(),
                cpu_ns,
                syscr: field(&io, "syscr").unwrap_or(0),
                syscw: field(&io, "syscw").unwrap_or(0),
                voluntary_switches: field(&status, "voluntary_ctxt_switches").unwrap_or(0),
            },
        );
    }
    Ok(Sample { at, ticks, threads })
}

/// Counter deltas of one role over a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoleDelta {
    /// CPU seconds.
    pub cpu_secs: f64,
    /// Read-family syscalls.
    pub syscr: u64,
    /// Write-family syscalls.
    pub syscw: u64,
    /// Voluntary context switches.
    pub voluntary_switches: u64,
    /// Threads of this role seen at the end of the window.
    pub threads: usize,
}

/// Deltas between two samples of one process.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// Window length, seconds.
    pub secs: f64,
    /// Whole-process CPU seconds.
    pub process_cpu_secs: f64,
    /// Per-role deltas.
    pub roles: HashMap<Role, RoleDelta>,
}

impl Delta {
    /// Between `a` (start) and `b` (end). A thread born inside the
    /// window counts from zero.
    pub fn between(a: &Sample, b: &Sample) -> Delta {
        let mut roles: HashMap<Role, RoleDelta> = HashMap::new();
        for (tid, end) in &b.threads {
            let start = a.threads.get(tid).cloned().unwrap_or_default();
            let d = roles.entry(Role::of(&end.comm)).or_default();
            d.cpu_secs += end.cpu_ns.saturating_sub(start.cpu_ns) as f64 / 1e9;
            d.syscr += end.syscr.saturating_sub(start.syscr);
            d.syscw += end.syscw.saturating_sub(start.syscw);
            d.voluntary_switches += end
                .voluntary_switches
                .saturating_sub(start.voluntary_switches);
            d.threads += 1;
        }
        Delta {
            secs: b.at.duration_since(a.at).as_secs_f64(),
            process_cpu_secs: b.ticks.saturating_sub(a.ticks) as f64 / TICKS_PER_SEC,
            roles,
        }
    }

    /// One role's delta (zero if the process has no such thread).
    pub fn role(&self, r: Role) -> RoleDelta {
        self.roles.get(&r).copied().unwrap_or_default()
    }

    /// Σ per-thread CPU seconds.
    pub fn thread_cpu_secs(&self) -> f64 {
        self.roles.values().map(|d| d.cpu_secs).sum()
    }

    /// Σ per-thread CPU ÷ process CPU: 1 when no CPU escaped the
    /// per-thread attribution (no thread exited inside the window).
    pub fn thread_sum_ratio(&self) -> f64 {
        if self.process_cpu_secs > 0.0 {
            self.thread_cpu_secs() / self.process_cpu_secs
        } else {
            0.0
        }
    }
}

/// Steal time of every CPU, ticks (`/proc/stat`): time the hypervisor
/// ran something else while a virtual CPU had work. Zero on bare metal.
pub fn steal_ticks() -> Result<u64, String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
    let total = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    Ok(total)
}

/// Share of all CPUs' time stolen by the hypervisor between two
/// [`steal_ticks`] readings `secs` apart.
pub fn stolen_share(before: u64, after: u64, secs: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    after.saturating_sub(before) as f64 / TICKS_PER_SEC / (secs.max(1e-9) * cpus)
}

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`, `VmRSS`).
pub fn status_kb(pid: &str, key: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    field(&status, key).ok_or_else(|| format!("no {key} in /proc/{pid}/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_comm() {
        let stat = "42 (a b) S 1 2 3 4 5 6 7 8 9 10 17 4 0 0";
        assert_eq!(stat_ticks(stat), Some(21));
    }

    #[test]
    fn roles_follow_serve_thread_names() {
        assert_eq!(Role::of("accept-ssh"), Role::Accept);
        assert_eq!(Role::of("shard-0"), Role::Shard);
        assert_eq!(Role::of("shard-superviso"), Role::Other);
        assert_eq!(Role::of("serve-aggregato"), Role::Aggregator);
        assert_eq!(Role::of("http-worker-1"), Role::Http);
        assert_eq!(Role::of("honeylab"), Role::Other);
    }

    #[test]
    fn samples_this_process() {
        let s = sample(std::process::id()).expect("self sample");
        assert!(!s.threads.is_empty());
        assert!(status_kb("self", "VmHWM").expect("VmHWM") > 0);
    }
}
