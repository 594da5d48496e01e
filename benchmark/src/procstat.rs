//! What the operating system says about this process and this machine:
//! CPU time and peak memory of a trial, where the file system puts trial
//! directories, and the environment record every result file carries.
//! Linux only (`/proc`), like the sandbox it measures.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "ind-benchmark reads /proc and calls clock_gettime and ioctl with the 64-bit Linux ABI"
);

/// `struct timespec` on 64-bit Linux: two C `long`s.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // From the C library std already links. `/proc/self/stat` reports the
    // same clock in 10 ms ticks, which quantises a 0.3 s section to 3 %
    // steps and lets a median read identically run after run.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn ioctl(fd: i32, request: u64, ...) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process has consumed so far, summed over
/// all its threads, including ones that already exited.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable, correctly laid-out `timespec` (the
    // cfg gate above pins the 64-bit Linux ABI) and the call writes nothing
    // else; the clock id is a constant every Linux since 2.6.12 accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

const FS_IOC_GETFLAGS: u64 = 0x8008_6601;
const FS_IOC_SETFLAGS: u64 = 0x4008_6602;
/// `chattr +T`: "top of a directory hierarchy" for ext4's Orlov allocator.
const FS_TOPDIR_FL: i32 = 0x0002_0000;

/// Asks the file system to place each new subdirectory of `dir` in a block
/// group of its own, chosen from the subdirectory's name (`chattr +T`),
/// instead of next to `dir`. Returns whether the flag is set.
///
/// Why a benchmark needs this: the sandbox's ext4 has no journal, and such
/// a file system avoids reusing an inode deleted in the last 60 s (300 s
/// more while its table block is dirty) by stepping over every such inode
/// on every create. Trial directories that sit side by side share one
/// block group, so each trial's 552 creates walk over the files of every
/// trial deleted before it: 20 us per create in an untouched group, 440 us
/// once the group's 8192 inodes have all been through a trial, which moved
/// `discover_wall_s` on `pdb_files` from 1.2 s to 1.8 s with the minutes
/// of benchmarking that preceded a run. A user's discovery runs once, in a
/// directory with no such history; a trial directory of its own group
/// gives every trial that. Best effort: a file system without the flag
/// refuses it, and the run goes on as before.
pub fn spread_subdirectories(dir: &Path) -> bool {
    use std::os::fd::AsRawFd;
    let Ok(handle) = std::fs::File::open(dir) else {
        return false;
    };
    // The requests are declared for a C `long` but the kernel moves an
    // `int`: room for the former, the value in the first half.
    let mut flags = [0i32; 2];
    // SAFETY: `handle` is an open descriptor for the whole call, and both
    // requests read or write at most the eight live, writable bytes of
    // `flags`.
    unsafe {
        if ioctl(handle.as_raw_fd(), FS_IOC_GETFLAGS, flags.as_mut_ptr()) != 0 {
            return false;
        }
        flags[0] |= FS_TOPDIR_FL;
        ioctl(handle.as_raw_fd(), FS_IOC_SETFLAGS, flags.as_ptr()) == 0
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM line".to_string())
}

/// File-system type holding `path`, from the longest matching mount point
/// in `/proc/self/mountinfo` (`"unknown"` when it cannot be read).
pub fn filesystem_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        // "36 35 98:0 /root /mount/point opts... - fstype source superopts"
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount_point), Some(fs_type)) = (left.split(' ').nth(4), right.split(' ').next())
        else {
            continue;
        };
        if path.starts_with(mount_point) && best.is_none_or(|(len, _)| mount_point.len() >= len) {
            best = Some((mount_point.len(), fs_type));
        }
    }
    best.map_or("unknown", |(_, fs)| fs).to_string()
}

fn first_line_of(command: &str, args: &[&str]) -> String {
    Command::new(command)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The environment-and-noise record: where and under what conditions the
/// numbers beside it were taken. `work_root` is where trial workdirs live;
/// `trial_dirs_spread` is what [`spread_subdirectories`] said of it.
pub fn environment(work_root: &Path, trial_dirs_spread: bool) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let fs_type = filesystem_type(work_root);
    let mut fields = vec![
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", Json::Str(cpu_model)),
        (
            "kernel",
            Json::Str(read_trimmed("/proc/sys/kernel/osrelease")),
        ),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        // "unknown" in the driver's checkout, which is not a git repository.
        (
            "git_commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("workdir_filesystem", Json::Str(fs_type.clone())),
        ("trial_dirs_spread", Json::Bool(trial_dirs_spread)),
        ("loadavg_before", Json::Str(read_trimmed("/proc/loadavg"))),
        (
            "flush_policy",
            Json::str(
                "library default: every value file is staged, fsynced, renamed and its \
                 directory fsynced, then the manifest is published the same way",
            ),
        ),
        (
            "cache_state",
            Json::str(
                "page cache warm (inputs were just written); numbers are this sandbox's, \
                 not a device's",
            ),
        ),
        (
            "loop",
            Json::str("closed loop, one client, one fresh child process per trial, sequential"),
        ),
    ];
    if fs_type == "tmpfs" || fs_type == "ramfs" {
        let warning = "WORKDIR IS ON TMPFS: fsync is free there, so the durable-publication \
                       cost this benchmark exists to show is invisible";
        eprintln!("warning: {warning}");
        fields.push(("warning", Json::str(warning)));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_rss_is_positive() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_seconds() > before);
        assert!(peak_rss_mib().unwrap() > 0.5);
    }

    #[test]
    fn spreading_is_refused_quietly_where_it_cannot_apply() {
        assert!(!spread_subdirectories(Path::new(
            "/nonexistent/ind-benchmark"
        )));
        assert!(!spread_subdirectories(Path::new("/proc/self")));
    }

    #[test]
    fn filesystem_of_proc_is_proc() {
        assert_eq!(filesystem_type(Path::new("/proc/self")), "proc");
        assert_ne!(filesystem_type(Path::new(".")), "unknown");
    }
}
