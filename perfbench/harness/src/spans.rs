//! In-memory spans for the traced run.
//!
//! A span records a name, its start and end (nanoseconds since the
//! trace began), the span that caused it and the operation it belongs
//! to. Spans stay in memory while the workload runs and are written
//! out once, at the end, so writing them never lands inside a measured
//! interval.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span times, `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The operation (experiment, pass, request, campaign) it belongs to.
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// Nanoseconds since the trace began.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Opens a span ending "now" once [`Trace::close`] is called.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = self.now_ns();
        self.record(name, parent, op, now, now)
    }

    /// Closes a span opened with [`Trace::open`].
    pub fn close(&mut self, index: usize) {
        let now = self.now_ns();
        self.spans[index].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, parent, op, start, end);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves every span of `other` into this trace, re-parenting its
    /// roots under `parent` and shifting its clock onto this one.
    pub fn absorb(&mut self, other: Trace, parent: Option<usize>) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base).or(parent),
            ..s
        }));
    }

    /// How many spans are named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum()
    }

    /// Total self time of the spans named `name`, in seconds: each
    /// span's duration minus the durations of its direct children.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut children_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children_ns[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&children_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.duration_ns().saturating_sub(c) as f64 * 1e-9)
            .sum()
    }

    /// Writes every span as one tab-separated line:
    /// `index name op parent start_ns end_ns` (`-` for no parent).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\top\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process, including threads that have already exited (the runner's
/// scoped workers exit after every parallel call).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system) this process has used so far.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and clock_gettime
    // writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut trace = Trace::default();
        let root = trace.record("a", None, 0, 0, 100);
        let child = trace.record("b", Some(root), 0, 10, 40);
        trace.record("c", Some(child), 0, 15, 25);
        trace.record("b", Some(root), 0, 50, 60);
        assert_eq!(trace.count("b"), 2);
        assert!((trace.self_s("a") - 60e-9).abs() < 1e-15);
        assert!((trace.self_s("b") - 30e-9).abs() < 1e-15);
        assert!((trace.total_s("b") - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn absorbed_roots_hang_under_the_given_parent() {
        let mut outer = Trace::default();
        let root = outer.open("outer", None, 1);
        let mut inner = Trace::default();
        let a = inner.record("x", None, 2, 0, 5);
        inner.record("y", Some(a), 2, 1, 2);
        outer.absorb(inner, Some(root));
        outer.close(root);
        let spans = outer.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, Some(1));
    }

    #[test]
    fn process_cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > before);
    }
}
