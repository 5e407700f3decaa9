//! Runs one command and reports its wall time, CPU time and peak
//! resident set, measured by its parent.
//!
//! The peak must come from a small parent. A child's `ru_maxrss` keeps
//! the high-water mark of the address space it ran in before `exec`,
//! and a spawned child starts in its parent's: spawned from `run.py`
//! every child would read ~14 MB, the Python process's own size. This
//! process is a few MB, below anything it is asked to measure.

use std::io;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Linux's `struct rusage`: two `timeval`s and fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one command cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Exit code, or 128 + the signal that ended it.
    pub exit: i32,
    /// Spawn to exit, in seconds.
    pub wall_s: f64,
    /// User plus system CPU, in seconds.
    pub cpu_s: f64,
    /// Peak resident set, in MB (2^20 bytes).
    pub peak_rss_mb: f64,
}

/// Runs `argv` with its standard output discarded and waits for it.
///
/// # Errors
///
/// When the command cannot be started or waited for.
pub fn measure(argv: &[String]) -> io::Result<Cost> {
    let (program, args) = argv
        .split_first()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "empty command"))?;
    let started = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdout(Stdio::null())
        .spawn()?;
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable and laid out as
    // the kernel's `int` and `struct rusage` (64-bit Linux) for the
    // whole call; `pid` is our own unreaped child.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_s = started.elapsed().as_secs_f64();
    if reaped != pid {
        return Err(io::Error::last_os_error());
    }
    // `child` is reaped now; dropping the handle neither waits nor kills.
    drop(child);
    let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    let exit = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok(Cost {
        exit,
        wall_s,
        cpu_s: seconds(usage.utime) + seconds(usage.stime),
        peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
    })
}

/// This process's own peak resident set in MB (`VmHWM`, which covers
/// only the address space since `exec`).
pub fn own_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Vec<String> {
        vec!["/bin/sh".into(), "-c".into(), script.into()]
    }

    #[test]
    fn exit_codes_and_signals_come_back() {
        assert_eq!(measure(&sh("exit 0")).unwrap().exit, 0);
        assert_eq!(measure(&sh("exit 3")).unwrap().exit, 3);
        assert_eq!(measure(&sh("kill -9 $$")).unwrap().exit, 128 + 9);
    }

    #[test]
    fn cost_is_measured_from_the_child() {
        let cost = measure(&sh("i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done")).unwrap();
        assert!(cost.cpu_s > 0.0 && cost.wall_s >= cost.cpu_s * 0.5);
        assert!(cost.peak_rss_mb > 0.0);
        assert!(own_peak_rss_mb() > 0.0);
    }
}
