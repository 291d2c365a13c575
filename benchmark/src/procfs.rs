//! What the benchmark reads from `/proc`: CPU per thread, hypervisor
//! steal, peak RSS, and the filesystem a data dir is on.

use std::path::Path;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, 100 per second on
/// every architecture this runs on.
const TICK_NS: u64 = 10_000_000;

/// Name prefix of the loadgen threads, whose CPU is the benchmark's own
/// and is left out of the CPU metrics.
pub const LOADGEN_PREFIX: &str = "bench-loadgen";

/// `utime + stime` from one `/proc/.../stat` line, with the thread name.
/// The name sits in parentheses and may itself contain spaces.
fn parse_stat(line: &str) -> Option<(&str, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let mut fields = line[close + 1..].split_ascii_whitespace();
    // After the name: state is field 3, utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((&line[open + 1..close], utime + stime))
}

/// CPU time used so far by each live thread of this process except the
/// loadgen's, as `(thread id, ns)`. A thread that has exited is gone from
/// the list, so callers difference two readings thread by thread.
///
/// `schedstat` gives the scheduler's exact on-CPU time; `stat`'s ticks
/// are only sampled at the timer interrupt on kernels without full CPU
/// accounting, so they are the fallback where `schedstat` is missing.
pub fn pipeline_thread_cpu_ns() -> Vec<(u32, u64)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|task| {
            let tid = task.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(task.path().join("stat")).ok()?;
            let (name, ticks) = parse_stat(&stat)?;
            if name.starts_with(LOADGEN_PREFIX) {
                return None;
            }
            let exact = std::fs::read_to_string(task.path().join("schedstat"))
                .ok()
                .and_then(|s| s.split_ascii_whitespace().next()?.parse::<u64>().ok());
            Some((tid, exact.unwrap_or(ticks * TICK_NS)))
        })
        .collect()
}

/// `(steal, total)` jiffies over all CPUs since boot.
pub fn steal_and_total() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(cpu) = stat.lines().next() else {
        return (0, 0);
    };
    let fields: Vec<u64> = cpu
        .split_ascii_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user and nice.
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Peak resident set size of this process so far, in bytes.
pub fn vm_hwm_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse::<u64>().ok())
        .map_or(0, |kib| kib * 1024)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point).then_some((point.len(), kind))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind.to_string())
}

/// Trimmed standard output of a command, or `unknown` (for the
/// environment stamp of a result file: `rustc --version`, the git commit).
pub fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_and_parens_in_the_name() {
        let line = "123 (gw (worker) 1) S 1 2 3 4 5 6 7 8 9 10 40 2 0 0 20 0 9 0 100";
        assert_eq!(parse_stat(line), Some(("gw (worker) 1", 42)));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn own_process_readings_are_sane() {
        assert!(vm_hwm_bytes() > 0);
        let (steal, total) = steal_and_total();
        assert!(total > 0 && steal <= total);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
