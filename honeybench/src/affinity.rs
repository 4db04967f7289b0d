//! CPU pinning for the live workloads: the server gets one CPU, the
//! load generator the others. Without it, the scheduler's placement of
//! the shard, the aggregator and the barrage worker changes from run to
//! run, and with it throughput by up to 2× on a 2-CPU host.

/// A CPU set as the kernel's `sched_{get,set}affinity` see it
/// (1024 bits, like glibc's `cpu_set_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    /// CPUs in the set.
    pub fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|&c| self.0[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    fn of(cpus: &[usize]) -> CpuSet {
        let mut m = [0u64; 16];
        for &c in cpus.iter().filter(|&&c| c < 1024) {
            m[c / 64] |= 1 << (c % 64);
        }
        CpuSet(m)
    }
}

/// The calling thread's allowed CPUs.
pub fn current() -> Result<CpuSet, String> {
    let mut m = [0u64; 16];
    // SAFETY: `m` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&m), m.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(CpuSet(m))
}

/// Restricts the calling thread (and threads it spawns later, and a
/// process it execs) to `set`. Async-signal-safe: one system call, no
/// allocation, so it may run between `fork` and `exec`.
pub fn pin(set: &CpuSet) -> std::io::Result<()> {
    // SAFETY: `set.0` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&set.0), set.0.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Splits `allowed` into (server, generator): the highest CPU for the
/// server, the rest for the generator. `None` with fewer than two CPUs,
/// where there is nothing to separate.
pub fn split(allowed: &CpuSet) -> Option<(CpuSet, CpuSet)> {
    let cpus = allowed.cpus();
    let (&server, rest) = cpus.split_last()?;
    if rest.is_empty() {
        return None;
    }
    Some((CpuSet::of(&[server]), CpuSet::of(rest)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_the_highest_cpu_off() {
        let (s, g) = split(&CpuSet::of(&[0, 1, 3])).expect("three CPUs split");
        assert_eq!(s.cpus(), vec![3]);
        assert_eq!(g.cpus(), vec![0, 1]);
        assert!(split(&CpuSet::of(&[2])).is_none());
        assert!(!current().expect("affinity").cpus().is_empty());
    }
}
