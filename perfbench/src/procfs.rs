//! Process memory from `/proc/self`.

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Reset the peak resident set to the current one, so memory that input
/// generation touched and freed does not count.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// CPU time (user + system) this process has used, seconds.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // utime and stime are fields 14 and 15 of the line, in clock ticks;
    // count from after the parenthesised command name, which may hold
    // spaces.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS)
}

/// Kernel clock ticks per second (`USER_HZ`, 100 on Linux).
const CLOCK_TICKS: f64 = 100.0;

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`.
fn host_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let line = stat.lines().next().ok_or("empty /proc/stat")?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    Ok((v.get(7).copied().unwrap_or(0), v.iter().take(8).sum()))
}

/// Process CPU time and host steal, as a reading or a difference of two.
/// Unreadable counters read as NaN CPU, which the run rejects.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Process CPU seconds.
    pub cpu_s: f64,
    steal: u64,
    total: u64,
}

impl Usage {
    /// The counters now.
    pub fn now() -> Self {
        let (steal, total) = host_ticks().unwrap_or((0, 0));
        Self {
            cpu_s: cpu_seconds().unwrap_or(f64::NAN),
            steal,
            total,
        }
    }

    /// What was used between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Self {
        Self {
            cpu_s: self.cpu_s - earlier.cpu_s,
            steal: self.steal.saturating_sub(earlier.steal),
            total: self.total.saturating_sub(earlier.total),
        }
    }

    /// Share of host CPU time the hypervisor stole.
    pub fn steal_share(&self) -> f64 {
        self.steal as f64 / self.total.max(1) as f64
    }
}
