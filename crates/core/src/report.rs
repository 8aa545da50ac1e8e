//! Shared plumbing for the table/figure regeneration binaries.

use crate::devices::{DeviceLibrary, Fidelity};
use gnr_num::par::ExecCtx;

/// Default on-disk table cache used by the regeneration binaries.
pub const CACHE_DIR: &str = ".gnrlab-cache";

/// Builds the standard library for a regeneration binary: fidelity from
/// the `GNRLAB_FAST` environment variable, disk cache enabled, and a
/// banner describing the run printed to stdout.
pub fn standard_library(experiment: &str) -> DeviceLibrary {
    let fidelity = Fidelity::from_env();
    println!("== gnrlab :: {experiment} ==");
    println!(
        "fidelity: {:?}{}  (set GNRLAB_FAST=1 for the quick mode)",
        fidelity,
        if fidelity == Fidelity::Fast {
            " [reduced geometry/grids]"
        } else {
            ""
        }
    );
    DeviceLibrary::with_disk_cache(fidelity, CACHE_DIR)
}

/// Prints the content-addressed table-cache counters recorded on `ctx`'s
/// telemetry sink, when telemetry is armed (`GNR_TELEMETRY=1`, see
/// [`gnr_num::telemetry::arm_from_env`]).
pub fn cache_summary(ctx: &ExecCtx) {
    let telemetry = ctx.telemetry().snapshot();
    let get = |name: &str| telemetry.counter(name).unwrap_or(0);
    let (hits, misses) = (get("table_cache.hits"), get("table_cache.misses"));
    if hits + misses > 0 {
        println!(
            "table cache: {hits} hits, {misses} misses, {} writes, {} evictions",
            get("table_cache.writes"),
            get("table_cache.evictions")
        );
    }
}

/// Formats a quantity in engineering notation with a unit.
pub fn eng(value: f64, unit: &str) -> String {
    let (scale, prefix) = match value.abs() {
        v if v >= 1.0 => (1.0, ""),
        v if v >= 1e-3 => (1e3, "m"),
        v if v >= 1e-6 => (1e6, "u"),
        v if v >= 1e-9 => (1e9, "n"),
        v if v >= 1e-12 => (1e12, "p"),
        v if v >= 1e-15 => (1e15, "f"),
        v if v >= 1e-18 => (1e18, "a"),
        _ => (1e21, "z"),
    };
    format!("{:.3} {}{}", value * scale, prefix, unit)
}

/// Renders an xy-series as a two-column table with a caption.
pub fn series(caption: &str, x_label: &str, y_label: &str, data: &[(f64, f64)]) -> String {
    let mut out = format!("# {caption}\n# {x_label:>12} {y_label:>14}\n");
    for (x, y) in data {
        out.push_str(&format!("{x:>14.4} {y:>14.6e}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eng_formatting() {
        assert_eq!(eng(2.5e-6, "A"), "2.500 uA");
        assert_eq!(eng(3.0, "V"), "3.000 V");
        assert_eq!(eng(1.2e-12, "s"), "1.200 ps");
    }

    #[test]
    fn series_renders_rows() {
        let s = series("iv", "vg", "id", &[(0.1, 1e-6), (0.2, 2e-6)]);
        assert!(s.contains("# iv"));
        assert_eq!(s.lines().count(), 4);
    }
}
