//! Host-normalized op costs.
//!
//! The benchmark runs on a few CPUs of a shared host whose speed drifts
//! by tens of percent, in phases that last from seconds to minutes: time
//! taken by other guests (steal), and other tenants slowing the CPUs we
//! do get. A wall time taken in a slow phase reads as a regression that
//! is not there. So the end-to-end timings are op costs in
//! "reference milliseconds":
//!
//! - An op's cost is the CPU time it uses: every thread of this process
//!   and, for `serve-mix`, of the daemon. CPU time leaves out the time
//!   the host ran someone else.
//! - Ops are bracketed by probes: a fixed amount of work that does not
//!   depend on the code under test. Each op's CPU time is scaled by
//!   the probe's reference time over the probes' CPU time around it
//!   ([`REFERENCE_MS`], [`SERVICE_REFERENCE_MS`]), so a phase
//!   that slows the CPUs slows probe and op alike and cancels out, while
//!   a change to the program moves the op and not the probe.
//!
//! The raw wall and CPU figures stay in the detail record.

use crate::stats::{median, Rng};
use std::time::{Duration, Instant};

/// CPU time of one probe on a quiet 2-CPU Xeon host, without and with
/// the service part. Any constants would do; these keep reference and
/// plain milliseconds close on such a host.
pub const REFERENCE_MS: f64 = 6.0;
pub const SERVICE_REFERENCE_MS: f64 = 10.0;

/// An op is scaled by the median of the probes taken within this much
/// of its midpoint: one probe is too noisy to scale by, and a slow
/// phase of the host lasts longer than this.
const SMOOTH: Duration = Duration::from_secs(5);

/// Steps of the pointer chase per probe pass.
const STEPS: u32 = 200_000;
const TABLE_BITS: u32 = 16;
/// Keys sorted per probe pass.
const KEYS: usize = 16_384;
/// Fresh pages faulted in, and socket round trips, per service probe.
const PAGES: usize = 512;
const ROUND_TRIPS: u32 = 200;

/// The fixed work: a data-dependent walk over a 256 KiB table with an
/// unpredictable branch per step, as in an interpreter's dispatch loop,
/// then sorting hashed keys, a branchy compare-and-move loop. It runs
/// once on the calling thread and once on `jobs` threads at the same
/// time, the two shapes the measured ops take. It works in buffers it
/// owns and allocates nothing, so it leaves `peak_rss_mb` alone.
///
/// A service probe adds what a request to the daemon costs besides
/// computing: faulting in fresh zeroed pages, as a new or reset device
/// does, and round trips over a socket between two threads.
pub struct Probe {
    table: Vec<u32>,
    keys: Vec<Vec<u64>>,
    service: bool,
}

impl Probe {
    pub fn new(jobs: u32) -> Probe {
        Probe::with_service(jobs, false)
    }

    pub fn with_service(jobs: u32, service: bool) -> Probe {
        let mut rng = Rng::new(0x7AB1E);
        let table = (0..1u32 << TABLE_BITS)
            .map(|_| rng.next_u64() as u32)
            .collect();
        Probe {
            table,
            keys: vec![vec![0; KEYS]; jobs.max(1) as usize],
            service,
        }
    }

    /// What this probe's CPU time reads on the reference host.
    pub fn reference_ms(&self) -> f64 {
        if self.service {
            SERVICE_REFERENCE_MS
        } else {
            REFERENCE_MS
        }
    }

    /// Runs the fixed work once; returns its (wall, CPU) time in ms.
    pub fn sample(&mut self) -> (f64, f64) {
        let t = Instant::now();
        let table = &self.table;
        // Each thread reads its own CPU clock: a process-wide reading
        // misses the last slice of a thread still running elsewhere.
        let work = |salt: u32, keys: &mut Vec<u64>| {
            let c = thread_cpu_ms();
            std::hint::black_box(chase(table, STEPS ^ salt) ^ sort_keys(keys, salt));
            thread_cpu_ms() - c
        };
        let (first, rest) = self.keys.split_first_mut().expect("one buffer per job");
        let mut cpu = work(0, first);
        if rest.is_empty() {
            cpu += work(1, first);
        } else {
            cpu += std::thread::scope(|s| {
                let mut handles = vec![s.spawn(|| work(1, first))];
                for (w, keys) in rest.iter_mut().enumerate() {
                    handles.push(s.spawn(move || work(w as u32 + 2, keys)));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("probe thread"))
                    .sum::<f64>()
            });
        }
        if self.service {
            cpu += fault_pages() + ping_pong();
        }
        (t.elapsed().as_secs_f64() * 1e3, cpu)
    }
}

/// Maps fresh anonymous memory, writes one byte per page and unmaps
/// it; returns the CPU ms taken. Mapped directly, so no allocator
/// keeps the pages between probes.
fn fault_pages() -> f64 {
    const PROT_READ_WRITE: i32 = 0x1 | 0x2;
    const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;
    let len = PAGES << 12;
    let c = thread_cpu_ms();
    // SAFETY: a fresh private mapping of `len` bytes, written only
    // within its bounds and unmapped before return.
    unsafe {
        let p = mmap(
            std::ptr::null_mut(),
            len,
            PROT_READ_WRITE,
            MAP_PRIVATE_ANONYMOUS,
            -1,
            0,
        );
        assert!(p as isize != -1, "probe mmap failed");
        for page in 0..PAGES {
            std::ptr::write_volatile(p.cast::<u8>().add(page << 12), 1);
        }
        munmap(p, len);
    }
    thread_cpu_ms() - c
}

/// One-byte round trips between this thread and an echo thread over a
/// socket pair; returns the CPU ms both threads took.
fn ping_pong() -> f64 {
    use std::io::{Read, Write};
    let (mut a, mut b) = std::os::unix::net::UnixStream::pair().expect("probe socket pair");
    std::thread::scope(|s| {
        let echo = s.spawn(move || {
            let c = thread_cpu_ms();
            let mut byte = [0u8];
            for _ in 0..ROUND_TRIPS {
                b.read_exact(&mut byte).expect("probe echo read");
                b.write_all(&byte).expect("probe echo write");
            }
            thread_cpu_ms() - c
        });
        let c = thread_cpu_ms();
        let mut byte = [0u8];
        for _ in 0..ROUND_TRIPS {
            a.write_all(&[1]).expect("probe write");
            a.read_exact(&mut byte).expect("probe read");
        }
        thread_cpu_ms() - c + echo.join().expect("probe echo thread")
    })
}

fn chase(table: &[u32], steps: u32) -> u64 {
    let mask = table.len() - 1;
    let (mut i, mut acc) = (0usize, 0u64);
    for s in 0..steps {
        let v = table[i];
        acc = acc.rotate_left(7) ^ u64::from(v);
        i = if acc & 8 == 0 {
            v as usize
        } else {
            (v ^ s) as usize
        } & mask;
    }
    acc
}

fn sort_keys(keys: &mut [u64], salt: u32) -> u64 {
    let mut rng = Rng::new(u64::from(salt));
    for k in keys.iter_mut() {
        *k = rng.next_u64();
    }
    keys.sort_unstable();
    keys[keys.len() / 2]
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mmap(
        addr: *mut std::ffi::c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut std::ffi::c_void;
    fn munmap(addr: *mut std::ffi::c_void, len: usize) -> i32;
}

/// CPU time in ms used so far by every thread of process `pid`, ended
/// ones included, or of this process for `None`; NaN if unreadable.
/// Threads still running on another CPU count up to their last
/// scheduler tick.
pub fn cpu_ms(pid: Option<u32>) -> f64 {
    // CLOCK_PROCESS_CPUTIME_ID, or the CPU clock of process `pid` in the
    // encoding clock_getcpuclockid(3) uses on Linux.
    read_clock(match pid {
        None => 2,
        Some(p) => (!(p as i32) << 3) | 2,
    })
}

/// CPU time in ms used so far by the calling thread.
fn thread_cpu_ms() -> f64 {
    read_clock(3) // CLOCK_THREAD_CPUTIME_ID
}

fn read_clock(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// The start of one timed op.
pub struct Stamp {
    pub wall: Instant,
    cpu: f64,
}

/// Op costs of one run. Ops are timed in order, and a probe follows an
/// op once `interval` has passed since the last probe (every op for
/// interval zero). [`Clock::finish`] scales each op's CPU time by
/// the probe's reference time over the median probe CPU time near it.
pub struct Clock {
    probe: Probe,
    interval: Duration,
    /// The daemon whose CPU time counts towards each op, if any.
    server: Option<u32>,
    /// Per probe: when it ran, and its wall and CPU ms.
    probes: Vec<(Instant, f64, f64)>,
    /// Per op: its midpoint, wall ms and CPU ms.
    mids: Vec<Instant>,
    pub wall: Vec<f64>,
    pub cpu: Vec<f64>,
    /// Per op, after `finish`: reference ms.
    pub scaled: Vec<f64>,
}

impl Clock {
    pub fn new(probe: Probe, interval: Duration, server: Option<u32>) -> Clock {
        let mut c = Clock {
            probe,
            interval,
            server,
            probes: Vec::new(),
            mids: Vec::new(),
            wall: Vec::new(),
            cpu: Vec::new(),
            scaled: Vec::new(),
        };
        // The first pass warms the table into cache; it is not counted.
        c.probe.sample();
        c.take_probe();
        c
    }

    fn take_probe(&mut self) {
        let (wall, cpu) = self.probe.sample();
        self.probes.push((Instant::now(), wall, cpu));
    }

    /// Sets the daemon whose CPU time counts towards the ops that follow.
    pub fn set_server(&mut self, pid: Option<u32>) {
        self.server = pid;
    }

    fn cpu_now(&self) -> f64 {
        cpu_ms(None) + self.server.map_or(0.0, |pid| cpu_ms(Some(pid)))
    }

    pub fn start(&self) -> Stamp {
        Stamp {
            cpu: self.cpu_now(),
            wall: Instant::now(),
        }
    }

    /// Ends the op begun at `s`; returns its wall time. May probe.
    pub fn stop(&mut self, s: Stamp) -> Duration {
        self.stop_plus(s, 0.0)
    }

    /// As [`Clock::stop`], counting `extra_cpu_ms` more CPU time towards
    /// the op (that of a process started during it).
    pub fn stop_plus(&mut self, s: Stamp, extra_cpu_ms: f64) -> Duration {
        let wall = s.wall.elapsed();
        self.cpu.push(self.cpu_now() - s.cpu + extra_cpu_ms);
        self.wall.push(wall.as_secs_f64() * 1e3);
        self.mids.push(s.wall + wall / 2);
        let last = self.probes.last().expect("a first probe").0;
        if last.elapsed() >= self.interval {
            self.take_probe();
        }
        wall
    }

    /// Takes a last probe and scales every op. Call before reading
    /// `scaled`.
    pub fn finish(&mut self) {
        self.take_probe();
        let at: Vec<Instant> = self.probes.iter().map(|p| p.0).collect();
        let reference = self.probe.reference_ms();
        self.scaled = self
            .mids
            .iter()
            .zip(&self.cpu)
            .map(|(&mid, &cpu)| {
                let lo = at.partition_point(|&t| t + SMOOTH < mid);
                let hi = at.partition_point(|&t| t <= mid + SMOOTH);
                // A long op may have no probe this near: use the two
                // around it.
                let (lo, hi) = if hi - lo >= 2 {
                    (lo, hi)
                } else {
                    let after = at.partition_point(|&t| t <= mid).min(at.len() - 1);
                    (after.saturating_sub(1), after + 1)
                };
                let near: Vec<f64> = self.probes[lo..hi].iter().map(|p| p.2).collect();
                cpu * reference / median(&near)
            })
            .collect();
    }

    /// Ops per second in reference time.
    pub fn ops_per_s(&self) -> f64 {
        self.scaled.len() as f64 / (self.scaled.iter().sum::<f64>() / 1e3)
    }

    /// The raw figures behind the reference ones, for the detail record.
    pub fn notes(&self) -> Vec<(String, String)> {
        let col =
            |f: fn(&(Instant, f64, f64)) -> f64| self.probes.iter().map(f).collect::<Vec<_>>();
        [
            ("wall_op_p50_ms", median(&self.wall)),
            ("cpu_op_p50_ms", median(&self.cpu)),
            ("probe_wall_ms", median(&col(|p| p.1))),
            ("probe_cpu_ms", median(&col(|p| p.2))),
            ("probes", self.probes.len() as f64),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), format!("{v:.4}")))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(ms) {
            std::hint::black_box(chase(&[1, 2, 3, 0], 1000));
        }
    }

    #[test]
    fn ops_are_scaled_by_the_median_probe_near_them() {
        let mut c = Clock::new(Probe::new(2), Duration::ZERO, None);
        for ms in [2, 4, 6] {
            let s = c.start();
            busy(ms);
            c.stop(s);
        }
        c.finish();
        assert_eq!(c.scaled.len(), 3);
        // One probe before the ops, one after each, one at the end.
        assert_eq!(c.probes.len(), 5);
        let all: Vec<f64> = c.probes.iter().map(|p| p.2).collect();
        for (s, cpu) in c.scaled.iter().zip(&c.cpu) {
            assert!((s - cpu * REFERENCE_MS / median(&all)).abs() < 1e-9);
        }
        assert!(c.cpu[2] > c.cpu[0], "CPU time follows the work done");
    }

    #[test]
    fn probes_follow_the_interval() {
        let mut c = Clock::new(
            Probe::with_service(1, true),
            Duration::from_secs(3600),
            None,
        );
        for _ in 0..3 {
            let s = c.start();
            busy(1);
            c.stop(s);
        }
        c.finish();
        assert_eq!(c.probes.len(), 2);
        assert!((c.scaled[1] / c.scaled[0] - c.cpu[1] / c.cpu[0]).abs() < 1e-9);
    }

    #[test]
    fn reads_a_process_cpu_clock_by_pid() {
        let own = cpu_ms(None);
        let by_pid = cpu_ms(Some(std::process::id()));
        assert!(own > 0.0 && by_pid >= own, "{own} vs {by_pid}");
    }
}
