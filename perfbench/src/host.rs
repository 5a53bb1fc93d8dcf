//! The host the numbers were measured on: CPU count, last-level cache and
//! a STREAM-style memory-bandwidth probe, plus the process's peak memory.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// CPUs this process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Last-level cache size in bytes, as the stencil's tile heuristics see it.
pub fn llc_bytes() -> usize {
    advect_core::numa::host_llc_bytes()
}

/// Refuse a configured width the host cannot run without
/// oversubscription: a number measured that way is not scaling.
pub fn check_width(what: &str, width: usize, cpus: usize) -> Result<(), String> {
    if width > cpus {
        return Err(format!(
            "{what} needs {width} concurrent threads but the host has {cpus} CPUs; refusing to report oversubscription"
        ));
    }
    Ok(())
}

/// Result of the bandwidth probe.
#[derive(Debug, Clone, Copy)]
pub struct Bandwidth {
    /// `b[i] = a[i]`, 16 bytes per element, GB/s.
    pub copy_gbs: f64,
    /// `a[i] = b[i] + s * a[i]`, 24 bytes per element, GB/s.
    pub triad_gbs: f64,
    /// Length of each of the two arrays, bytes.
    pub array_bytes: usize,
}

/// Single-threaded STREAM-style copy and triad over two arrays, each at
/// least four times the last-level cache (and at least 64 MiB), so every
/// pass streams from memory. Single-threaded because the roofline it
/// feeds is the single-threaded stencil probe's. The triad reuses the
/// first array as its third stream, which keeps the probe at two arrays;
/// it moves the same 24 bytes per element as STREAM's triad.
pub fn bandwidth(llc: usize) -> Bandwidth {
    let array_bytes = (4 * llc).max(64 << 20);
    let len = array_bytes / 8;
    let mut a = vec![1.0f64; len];
    let mut b = vec![2.0f64; len];
    let mut copy = Vec::new();
    let mut triad = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        b.copy_from_slice(black_box(&a));
        black_box(&mut b);
        copy.push(16.0 * len as f64 / t.elapsed().as_secs_f64() / 1e9);
        let t = Instant::now();
        for (x, y) in a.iter_mut().zip(black_box(&b).iter()) {
            *x = y + 0.5 * *x;
        }
        black_box(&mut a);
        triad.push(24.0 * len as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    Bandwidth {
        copy_gbs: stats::median(&copy),
        triad_gbs: stats::median(&triad),
        array_bytes,
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_above_the_cpu_count_are_refused() {
        assert!(check_width("x", 2, 2).is_ok());
        let err = check_width("x", 3, 2).unwrap_err();
        assert!(err.contains("3 concurrent threads"), "{err}");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
