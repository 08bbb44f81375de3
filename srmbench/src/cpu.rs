//! CPU time of the system under test: the process minus the benchmark.
//!
//! Everything runs in one process, so `getrusage` would charge the load
//! generator and the wiretap to the program. Linux keeps per-thread on-CPU
//! time under `/proc/self/task/<tid>/`: `schedstat` in nanoseconds where
//! the kernel has scheduler statistics, `stat` in clock ticks everywhere.
//! The benchmark's own threads register their tid once; the system's CPU is
//! the sum over all tasks minus the sum over registered ones.

use std::collections::BTreeSet;
use std::fs;
use std::sync::Mutex;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Fixed at
/// 100 on every Linux ABI this benchmark can run on.
const NS_PER_TICK: u64 = 10_000_000;

/// The set of threads that belong to the benchmark, not the program.
#[derive(Default)]
pub struct OwnThreads {
    tids: Mutex<BTreeSet<u64>>,
}

/// The calling thread's kernel tid (`/proc/thread-self` → `<pid>/task/<tid>`).
fn current_tid() -> Option<u64> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// On-CPU nanoseconds of one task, preferring the nanosecond source.
fn task_cpu_ns(tid: u64) -> Option<u64> {
    if let Ok(s) = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")) {
        if let Some(ns) = s.split_whitespace().next().and_then(|f| f.parse().ok()) {
            return Some(ns);
        }
    }
    let s = fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
    parse_stat_ticks(&s).map(|t| t * NS_PER_TICK)
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The comm field may hold
/// spaces and parentheses, so fields are counted from the *last* `)`.
fn parse_stat_ticks(line: &str) -> Option<u64> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut f = rest.split_whitespace();
    // After the comm: state is field 3, utime field 14, stime field 15.
    let utime: u64 = f.nth(11)?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some(utime + stime)
}

/// One reading: total on-CPU ns of all live tasks and of the own ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuSample {
    /// Every live thread of the process.
    pub process_ns: u64,
    /// The registered benchmark threads among them.
    pub own_ns: u64,
}

impl CpuSample {
    /// CPU of the system under test: process minus benchmark threads.
    pub fn system_ns(&self) -> u64 {
        self.process_ns.saturating_sub(self.own_ns)
    }
}

impl OwnThreads {
    /// Mark the calling thread as part of the benchmark.
    pub fn register_current(&self) {
        if let Some(tid) = current_tid() {
            self.tids.lock().expect("own-thread set lock").insert(tid);
        }
    }

    /// Read every task's CPU time. A thread that exits between the
    /// directory listing and the read simply drops out of the sum; windows
    /// are only taken while the thread set is stable.
    pub fn sample(&self) -> CpuSample {
        let own = self.tids.lock().expect("own-thread set lock").clone();
        let mut out = CpuSample::default();
        let Ok(dir) = fs::read_dir("/proc/self/task") else {
            return out;
        };
        for entry in dir.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            let Some(ns) = task_cpu_ns(tid) else { continue };
            out.process_ns += ns;
            if own.contains(&tid) {
                out.own_ns += ns;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn spin(d: Duration) {
        let end = Instant::now() + d;
        let mut x = 0u64;
        while Instant::now() < end {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
    }

    #[test]
    fn stat_line_with_hostile_comm_parses() {
        let line = "42 (a b) c) R 1 2 3 4 5 6 7 8 9 10 700 300 0 0 20 0 1 0 100 0 0";
        assert_eq!(parse_stat_ticks(line), Some(1000));
        assert_eq!(parse_stat_ticks("garbage"), None);
    }

    #[test]
    fn own_threads_are_subtracted_and_foreign_ones_are_not() {
        let own = Arc::new(OwnThreads::default());
        own.register_current();
        let before = own.sample();
        // A foreign (system-under-test) thread and a registered one each
        // burn ~80 ms and then stay alive (exited tasks vanish from /proc)
        // until the reading is taken.
        let burn_then_wait = || {
            spin(Duration::from_millis(80));
            std::thread::sleep(Duration::from_millis(150));
        };
        let foreign = std::thread::spawn(burn_then_wait);
        let o2 = Arc::clone(&own);
        let mine = std::thread::spawn(move || {
            o2.register_current();
            burn_then_wait();
        });
        std::thread::sleep(Duration::from_millis(130));
        let after = own.sample();
        foreign.join().unwrap();
        mine.join().unwrap();
        let sys = after.system_ns().saturating_sub(before.system_ns());
        let own_burn = after.own_ns.saturating_sub(before.own_ns);
        // Other tests in this process may add foreign CPU, so only lower
        // bounds hold; what matters is that each burn lands on its side.
        assert!(
            own_burn >= 40_000_000,
            "registered burn counted as own: {own_burn}"
        );
        assert!(sys >= 40_000_000, "foreign burn counted as system: {sys}");
    }
}
