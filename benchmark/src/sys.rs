//! Host facts and process accounting: CPU time, peak RSS, and the
//! provenance block every result file records.

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system, all threads, exited ones included)
/// this process has consumed. The scheduler's nanosecond accounting,
/// not the 10 ms ticks of `/proc/self/stat`, so a one-second pass is
/// not quantised to 1 %.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `timespec`-layout
    // struct (two 64-bit fields on every 64-bit Linux target this
    // harness supports); the call only writes through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .expect("VmHWM line")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM value");
    kb / 1024.0
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Where and on what the numbers were taken: recorded in every result
/// file so two files can be told apart before they are compared.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    pub nproc: usize,
    pub kernel: String,
    pub sha: String,
    pub dirty: bool,
}

impl Host {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
        // Outside a git checkout (the driver's copy) the sha is unknown.
        let sha = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
        let dirty = command_line("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
        Self {
            nproc,
            kernel,
            sha,
            dirty,
        }
    }
}
