//! A `read`-syscall counter — the runtime witness behind the claim that a
//! warm engine decode tick makes no syscalls (`tests/alloc_gate.rs` and
//! the `engine.zero_syscall_tick` CI bench gate are both built on it).
//!
//! Linux reports every `read`-family syscall a process has made as
//! `syscr` in `/proc/self/io`, summed over all its threads. Reading that
//! file costs read syscalls of its own, so [`count_read_syscalls`]
//! measures that cost first (two back-to-back reads of the counter) and
//! subtracts it.

use std::fs::File;
use std::io::Read;

/// `read`-family syscalls this process has made so far (`syscr` in
/// `/proc/self/io`), or `None` where that file cannot be read or parsed.
/// Reads into a stack buffer, so it allocates nothing and costs the same
/// number of syscalls every call.
pub fn read_syscalls() -> Option<u64> {
    let mut file = File::open("/proc/self/io").ok()?;
    let mut buf = [0u8; 512];
    let mut len = 0;
    while len < buf.len() {
        match file.read(&mut buf[len..]).ok()? {
            0 => break,
            n => len += n,
        }
    }
    let text = std::str::from_utf8(&buf[..len]).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix("syscr:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Runs `f` and returns how many `read`-family syscalls the process made
/// while it ran, net of the witness's own reads, or `None` where
/// `/proc/self/io` is unavailable or does not count the witness's own
/// reads (a counter that never moves would make every check pass).
///
/// Counts process-wide: run witness tests single-threaded
/// (`--test-threads=1`) and before any other thread is started, so
/// concurrent threads don't bleed in.
pub fn count_read_syscalls<R>(f: impl FnOnce() -> R) -> (Option<u64>, R) {
    let own = match (read_syscalls(), read_syscalls()) {
        (Some(a), Some(b)) if b > a => b - a,
        _ => return (None, f()),
    };
    let before = read_syscalls();
    let out = f();
    let after = read_syscalls();
    let net = before
        .zip(after)
        .map(|(b, a)| a.saturating_sub(b).saturating_sub(own));
    (net, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_reads_net_of_the_witness() {
        // Procfs may be hidden in a sandbox; the witness then skips.
        if read_syscalls().is_none() {
            eprintln!("/proc/self/io unavailable: syscall witness skipped");
            return;
        }
        // Other test threads may read concurrently, so only a lower bound
        // is exact here; `tests/alloc_gate.rs` asserts an exact zero
        // single-threaded.
        let (busy, ()) = count_read_syscalls(|| {
            for _ in 0..3 {
                std::hint::black_box(read_syscalls());
            }
        });
        assert!(busy.is_some_and(|n| n >= 3), "three reads went uncounted");
    }
}
