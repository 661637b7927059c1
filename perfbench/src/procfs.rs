//! Process CPU time and peak RSS from `/proc`, with no dependencies.

use std::fs;

/// User + system CPU seconds of the whole process (every thread, live
/// or exited), from fields 14 and 15 of `/proc/self/stat`.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) is parenthesised and may hold spaces;
    // the fields after it start at the last ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("/proc/self/stat: no ')'")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k is fields[k - 3].
    let ticks = |k: usize| -> Result<u64, String> {
        fields
            .get(k - 3)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("/proc/self/stat: field {k} missing"))
    };
    Ok((ticks(14)? + ticks(15)?) as f64 / clock_ticks_per_second() as f64)
}

/// `AT_CLKTCK` from the auxiliary vector (what `sysconf(_SC_CLK_TCK)`
/// returns); 100 if it cannot be read.
fn clock_ticks_per_second() -> u64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(auxv) = fs::read("/proc/self/auxv") else {
        return 100;
    };
    auxv.chunks_exact(16)
        .map(|pair| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&pair[..8]), word(&pair[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map(|(_, v)| v)
        .filter(|&v| v > 0)
        .unwrap_or(100)
}

/// Peak resident set size (`VmHWM` of `/proc/self/status`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("/proc/self/status: no VmHWM")?;
    Ok(kib as f64 / 1024.0)
}
