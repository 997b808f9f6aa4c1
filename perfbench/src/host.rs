//! Host readings from `/proc`: CPU time of the whole process and of the
//! calling thread, the hypervisor's steal, and peak resident memory (with
//! a reset, so a peak can cover one window); and CPU affinity.
//!
//! The benchmark runs on small shared virtual machines, where steal can
//! swing wall-clock figures by double-digit percentages from one run to
//! the next. CPU time counts only the time a thread really ran, so the
//! CPU-cost metric and the steal diagnostic come from here.

use std::fs;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Words of a glibc `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// A set of CPUs, laid out as glibc's `cpu_set_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; CPU_SET_WORDS]);

impl CpuSet {
    /// The calling thread's affinity set.
    pub fn current() -> Result<CpuSet, String> {
        let mut set = [0u64; CPU_SET_WORDS];
        // SAFETY: `set` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
        if rc != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(CpuSet(set))
    }

    /// The set's lowest CPU, and a set holding only it.
    pub fn first(&self) -> Result<(usize, CpuSet), String> {
        let cpu = (0..CPU_SET_WORDS * 64)
            .find(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .ok_or("the affinity set is empty")?;
        let mut one = [0u64; CPU_SET_WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        Ok((cpu, CpuSet(one)))
    }

    /// Restricts the calling thread, and every thread it spawns
    /// afterwards, to this set. On one CPU,
    /// `std::thread::available_parallelism` reports 1, so every
    /// auto-threaded kernel and engine step runs inline.
    pub fn apply(&self) -> Result<(), String> {
        // SAFETY: `self.0` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if rc != 0 {
            return Err(format!(
                "sched_setaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(())
    }
}

/// Clock ticks per second of the `utime`/`stime` fields (Linux `USER_HZ`,
/// 100 on every mainstream architecture).
const TICKS_PER_S: f64 = 100.0;

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// User + system CPU seconds of the whole process, exited threads
/// included (`/proc/self/stat` fields 14 and 15).
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = read("/proc/self/stat")?;
    // The command name (field 2) is parenthesized and may hold spaces;
    // counting starts again after its closing parenthesis at field 3.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("/proc/self/stat field {} missing", i + 3))
    };
    Ok((field(11)? + field(12)?) / TICKS_PER_S)
}

/// CPU seconds the calling thread has run, at nanosecond resolution
/// (`/proc/thread-self/schedstat`, first field).
pub fn thread_cpu_s() -> Result<f64, String> {
    let s = read("/proc/thread-self/schedstat")?;
    let ns: f64 = s
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or("malformed /proc/thread-self/schedstat")?;
    Ok(ns / 1e9)
}

/// The aggregate `cpu` line of `/proc/stat`: all ticks and steal ticks.
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    /// Reads the current totals.
    pub fn now() -> Result<CpuTicks, String> {
        let stat = read("/proc/stat")?;
        let line = stat
            .lines()
            .find(|l| l.starts_with("cpu "))
            .ok_or("no cpu line in /proc/stat")?;
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already inside user, so it is not added again.
        let total = v.iter().take(8).sum();
        Ok(CpuTicks {
            total,
            steal: v.get(7).copied().unwrap_or(0),
        })
    }

    /// Share of all CPU ticks since `earlier` that the hypervisor stole.
    pub fn steal_share_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Resets the process's peak resident set (`VmHWM`) to its live memory,
/// so the next [`peak_rss_mb`] reads the peak since now. The allocator
/// first returns its free pages to the kernel: memory freed earlier would
/// otherwise stay resident, and later allocations could reuse it without
/// raising the peak.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: `malloc_trim` only releases free heap pages; it has no
    // preconditions.
    unsafe { malloc_trim(0) };
    fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))
}

/// Peak resident set of the process in MiB (`VmHWM`) since it started or
/// since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = read("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_monotone() {
        let a = process_cpu_s().unwrap();
        let t = thread_cpu_s().unwrap();
        // Spin for 50 ms of wall time; the scheduler books the thread's
        // run time at least once per tick within that.
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < std::time::Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        assert!(thread_cpu_s().unwrap() > t);
        assert!(process_cpu_s().unwrap() >= a);
        assert!(peak_rss_mb().unwrap() > 0.0);
        let c = CpuTicks::now().unwrap();
        let share = CpuTicks::now().unwrap().steal_share_since(&c);
        assert!((0.0..=1.0).contains(&share));
    }

    #[test]
    fn one_cpu_binds_the_thread_and_its_children_until_restored() {
        // On a thread of its own, so the other tests keep every CPU.
        std::thread::spawn(|| {
            let cpus = || std::thread::available_parallelism().unwrap().get();
            let (all, before) = (CpuSet::current().unwrap(), cpus());
            let (_, one) = all.first().unwrap();
            one.apply().unwrap();
            assert_eq!(cpus(), 1);
            assert_eq!(std::thread::spawn(cpus).join().unwrap(), 1);
            all.apply().unwrap();
            assert_eq!(cpus(), before);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn reset_drops_the_peak_of_freed_memory() {
        // Touch 96 MiB, free it (a block this large goes back to the
        // kernel), and reset: the peak falls back near the live set.
        const MIB: usize = 96;
        let mut block = vec![0u8; MIB << 20];
        for page in block.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&block);
        let with_block = peak_rss_mb().unwrap();
        drop(block);
        reset_peak_rss().unwrap();
        let after = peak_rss_mb().unwrap();
        assert!(
            after < with_block - MIB as f64 / 2.0,
            "peak {with_block} MiB before the reset, {after} MiB after"
        );
    }
}
