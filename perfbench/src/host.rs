//! Host-side measurements: the fixed reference kernel and peak memory.

use gnr_num::{c64, CMatrix, Rng};
use std::hint::black_box;
use std::time::Instant;

/// Order of the reference kernel's dense complex LU.
const KERNEL_N: usize = 160;
/// Repetitions; the median is reported. Enough of them that the kernel
/// also brings the core out of idle before set-up is timed.
const KERNEL_REPS: usize = 31;

/// Times a fixed dense complex LU factorization (same matrix on every
/// host and run) and returns the median milliseconds. It is recorded at the
/// start and end of every run so that a slow or noisy host shows in the
/// report; no metric is ever scaled by it.
pub fn reference_kernel_ms() -> f64 {
    let mut rng = Rng::seed_from_u64(0x5eed_cafe);
    let a = CMatrix::from_fn(KERNEL_N, KERNEL_N, |i, j| {
        let diag = if i == j { KERNEL_N as f64 } else { 0.0 };
        c64(diag + rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0))
    });
    let mut times: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| {
            let t = Instant::now();
            let lu = black_box(&a)
                .lu()
                .expect("diagonally dominant matrix factors");
            black_box(lu);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::median(&mut times)
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb / 1024.0)
}

/// Resets the peak-RSS high-water mark to the current RSS so that a
/// workload run after another in the same process reports its own peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
