//! Process plumbing the harness needs and `std` does not offer: per-child
//! resource usage (`wait4`), the harness's own CPU clock (`getrusage`),
//! process-group kill, the CPU clock of a live daemon, and the `/proc` readers
//! for the host.
//!
//! The four libc entry points are declared by hand (the image has no `libc`
//! crate); the struct layouts are the Linux LP64 ones.

use std::io::{self, Read};
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, Stdio};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark harness reads Linux LP64 rusage and /proc");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `struct rusage` on Linux LP64: two timevals, then fourteen longs of which
/// only `ru_maxrss` (KiB) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn clock_gettime(clockid: i32, ts: *mut Timespec) -> i32;
}

const SIGKILL: i32 = 9;
const RUSAGE_SELF: i32 = 0;

impl Rusage {
    fn cpu_s(&self) -> f64 {
        (self.utime.sec + self.stime.sec) as f64 + (self.utime.usec + self.stime.usec) as f64 * 1e-6
    }
}

/// How a reaped product process ended and what it cost. CPU and peak RSS
/// cover the process *and every descendant it waited for* (the kernel folds
/// reaped children into the parent's record), i.e. the whole process tree of
/// a `repro distribute` or `--engine native` run.
#[derive(Debug, Clone)]
pub struct Exit {
    /// Exit code; `None` when killed by a signal.
    pub code: Option<i32>,
    /// User + system CPU seconds of the tree.
    pub cpu_s: f64,
    /// Highest resident set of any process in the tree, KiB.
    pub maxrss_kb: u64,
}

/// A spawned product process in its own process group. Dropping it without
/// a clean [`Proc::wait`] kills the whole group, so no daemon or worker
/// outlives a panic, a failed op or an early return.
pub struct Proc {
    child: Child,
    reaped: bool,
    clean: bool,
}

impl Proc {
    /// Spawn `cmd` as a process-group leader with piped stdout and inherited
    /// stderr (product diagnostics reach the harness's stderr verbatim).
    pub fn spawn(cmd: &mut Command) -> io::Result<Proc> {
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .process_group(0)
            .spawn()?;
        Ok(Proc {
            child,
            reaped: false,
            clean: false,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The piped stdout (taken once).
    pub fn stdout(&mut self) -> std::process::ChildStdout {
        self.child
            .stdout
            .take()
            .expect("stdout is piped and taken once")
    }

    /// Read stdout to EOF, then reap.
    pub fn output(&mut self) -> io::Result<(String, Exit)> {
        let mut out = String::new();
        self.stdout().read_to_string(&mut out)?;
        Ok((out, self.wait()?))
    }

    /// Reap the process with `wait4`, returning its tree's resource usage.
    pub fn wait(&mut self) -> io::Result<Exit> {
        assert!(!self.reaped, "process already reaped");
        let mut status = 0i32;
        let mut ru = Rusage::default();
        // SAFETY: `status` and `ru` are valid for writes of their types for
        // the duration of the call, and the pid is an unreaped child of this
        // process (`reaped` guards against a second wait).
        let got = unsafe { wait4(self.child.id() as i32, &mut status, 0, &mut ru) };
        if got < 0 {
            return Err(io::Error::last_os_error());
        }
        self.reaped = true;
        let code = if status & 0x7f == 0 {
            Some((status >> 8) & 0xff)
        } else {
            None
        };
        self.clean = code == Some(0);
        Ok(Exit {
            code,
            cpu_s: ru.cpu_s(),
            maxrss_kb: ru.maxrss.max(0) as u64,
        })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if self.clean {
            return;
        }
        let pid = self.child.id() as i32;
        // SAFETY: plain syscalls on integers. The group id is this child's
        // pid; either the child is unreaped (the id cannot have been
        // recycled) or it just exited abnormally and stragglers of its
        // group may remain.
        unsafe {
            kill(-pid, SIGKILL);
            if !self.reaped {
                let mut status = 0i32;
                wait4(pid, &mut status, 0, std::ptr::null_mut());
            }
        }
    }
}

/// User + system CPU seconds this process has used so far.
pub fn self_cpu_s() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is valid for a write of `struct rusage`.
    unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    ru.cpu_s()
}

/// User + system CPU seconds of a live process — all its threads, exited
/// ones included — from the kernel's per-process CPU-time clock, at
/// nanosecond resolution (`/proc/<pid>/stat` only has 10 ms ticks, coarser
/// than one warm request).
pub fn proc_cpu_s(pid: u32) -> io::Result<f64> {
    // What `clock_getcpuclockid(3)` computes: the inverted pid in the upper
    // bits, CPUCLOCK_SCHED (2) as the per-process clock type.
    let clockid = (!(pid as i32) << 3) | 2;
    let mut ts = Timespec::default();
    // SAFETY: `ts` is valid for a write of `struct timespec`.
    if unsafe { clock_gettime(clockid, &mut ts) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ts.sec as f64 + ts.nsec as f64 * 1e-9)
}

/// Peak resident set (`VmHWM`, KiB) of this process.
pub fn self_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Cumulative (steal, total) jiffies of the whole machine from `/proc/stat`.
pub fn host_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}
