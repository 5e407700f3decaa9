//! The host-speed probe: a fixed piece of benchmark-owned work whose time
//! tells how fast the host runs this thread right now.
//!
//! On a shared 2-vCPU host the same code runs up to ~1.8× slower while
//! other tenants load the cores, in phases of a second to minutes that
//! `/proc/stat` steal does not show. The warm worker times the probe
//! between every few passes, on the thread that runs them, and the serve
//! client brackets each round with probes, so `run.py` can scale those
//! intervals to one reference host speed.
//! The probe uses only the standard library, so no change to the program
//! can change its cost.

use std::fmt::Write;
use std::time::Instant;

/// Iterations of one probe: about 4 ms on an uncontended core.
const ITERATIONS: u64 = 300_000;

/// Table size, in `u64`s: 256 KiB, resident in a core's own cache, the
/// level whose contention tracked the workloads best.
const TABLE: usize = 1 << 15;

/// One run of the probe's work: random updates of a cache-resident table
/// with an `f64` format-and-parse every 16 steps.
fn work() -> u64 {
    let mut table = vec![0u64; TABLE];
    let mut text = String::new();
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    for i in 0..ITERATIONS {
        x = crate::mix::mix(x);
        let slot = (x as usize) & (TABLE - 1);
        table[slot] = table[slot].wrapping_add(x);
        if i % 16 == 0 {
            text.clear();
            write!(text, "{}", (x >> 11) as f64 * 1e-9).expect("writing to a String cannot fail");
            let parsed: f64 = text.parse().expect("a formatted f64 parses back");
            acc = acc.wrapping_add(parsed.to_bits());
        }
        if x & 3 == 0 {
            acc ^= table[slot.wrapping_mul(7) & (TABLE - 1)];
        }
    }
    std::hint::black_box(acc)
}

/// Seconds one probe takes now.
pub fn seconds() -> f64 {
    let started = Instant::now();
    work();
    started.elapsed().as_secs_f64()
}

/// Probes in a bracket: enough that one of them runs unstolen even while
/// the host steals a third of the time.
const BRACKET: usize = 9;

/// The fastest of [`BRACKET`] probes: the host speed at one edge of an
/// interval that cannot be probed inside (a serve round). A probe that
/// was stolen from or preempted only reads slower, and `run.py` leaves
/// stolen time out of the interval on its own; a median would count it
/// twice (in one steal burst, 31% of ticks, it read 1.9 times slow).
pub fn bracket_s() -> f64 {
    (0..BRACKET)
        .map(|_| seconds())
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_fixed_work_in_positive_time() {
        assert_eq!(work(), work());
        assert!(seconds() > 0.0);
        assert!(bracket_s() > 0.0);
    }
}
