//! Process and machine facts from `/proc` (Linux).

use std::path::Path;

/// `/proc/<pid>` path component: `"self"` or a child's pid.
fn proc_file(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(p) => format!("/proc/{p}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_file(pid, "status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// Resets the peak-RSS mark to the current RSS, so the peak measured
/// afterwards excludes set-up and oracle work. Best effort: kernels
/// without `clear_refs` keep the lifetime peak.
pub fn reset_peak_rss(pid: Option<u32>) {
    let _ = std::fs::write(proc_file(pid, "clear_refs"), "5");
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The git revision of the measured tree at `root`; "unknown" when `root`
/// is not a git checkout (exported source trees carry no history). Git is
/// not asked at all then, so it never searches the directories above.
pub fn git_rev(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
