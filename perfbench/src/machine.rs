//! Facts about the machine a result was measured on, recorded next to
//! every result.

use std::path::Path;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Available parallelism (what the default crew sizes itself to).
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of cpu0's unified or data cache at `level`, as sysfs prints it.
fn cache_size(level: &str) -> String {
    (0..8)
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let lv = read(&format!("{dir}/level"))?;
            let ty = read(&format!("{dir}/type"))?;
            (lv.trim() == level && ty.trim() != "Instruction")
                .then(|| read(&format!("{dir}/size")))
                .flatten()
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in /proc/self/mounts).
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    read("/proc/self/mounts")
        .and_then(|m| {
            m.lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_dev, point, fs) = (f.next()?, f.next()?, f.next()?);
                    dir.starts_with(point)
                        .then(|| (point.len(), fs.to_string()))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process so far, in MB (VmHWM).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// One JSON object with the facts, for the details line.
#[must_use]
pub fn facts_json(store_dir: &Path) -> String {
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"l2\": \"{}\", \"l3\": \"{}\", \"store_fs\": \"{}\"}}",
        nproc(),
        cpu_model().replace('"', "'"),
        cache_size("2"),
        cache_size("3"),
        filesystem_of(store_dir)
    )
}
