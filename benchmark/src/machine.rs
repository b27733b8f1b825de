//! The machine the numbers were measured on, recorded beside them.

use crate::json::{self, Value};
use std::path::Path;
use std::process::Command;

/// A `kB` field of `/proc/<pid>/status` (`pid` may be `self`); `0.0` when
/// the file or the field is missing.
pub fn proc_status_kb(pid: &str, field: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0.0)
}

/// `(all jiffies, stolen jiffies)` summed over the CPUs since boot. Stolen
/// time is what the hypervisor gave to someone else while this VM wanted to
/// run: the sandbox's own measure of how noisy its neighbours are.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest times are
    // already inside user/nice).
    (
        fields.iter().take(8).sum(),
        fields.get(7).copied().unwrap_or(0),
    )
}

fn first_line_of(program: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `device fstype` of the mount holding `path` (longest mount-point prefix
/// in `/proc/mounts`).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|line| {
                    let mut parts = line.split_whitespace();
                    let (device, point, fstype) = (parts.next()?, parts.next()?, parts.next()?);
                    path.starts_with(point)
                        .then(|| (point.len(), format!("{device} {fstype}")))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cores, RAM, toolchain, commit and the file system under the data dirs.
pub fn record(repo_root: &Path, work_dir: &Path) -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let ram_kb = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("MemTotal"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .unwrap_or(0);
    json::obj([
        ("cores", Value::UInt(cores as u64)),
        ("ram_mb", Value::UInt(ram_kb / 1024)),
        ("rustc", json::s(first_line_of("rustc", &["-V"], repo_root))),
        (
            "git_commit",
            json::s(first_line_of("git", &["rev-parse", "HEAD"], repo_root)),
        ),
        ("data_dir_filesystem", json::s(filesystem_of(work_dir))),
        (
            "note",
            json::s(
                "fsync and read latencies are this sandbox's (page cache, virtual disk), \
                 not a storage device's",
            ),
        ),
    ])
}
