//! Regenerates paper Table 1: frequency, EDP, and SNM of the 15-stage FO4
//! ring oscillator for GNRFETs at operating points A/B/C versus scaled
//! CMOS at the 22/32/45 nm nodes and V_DD ∈ {0.8, 0.6, 0.4} V.
//!
//! The CMOS rows share the design-space map's content-addressed table
//! store, so each node/supply model card is sampled once per run (and
//! once ever, with the disk cache warm).

use gnr_num::par::ExecCtx;
use gnrfet_explore::comparison::comparison_table;
use gnrfet_explore::contours::design_space_map;
use gnrfet_explore::report;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    gnr_num::telemetry::arm_from_env();
    let ctx = ExecCtx::from_env();
    let mut lib = report::standard_library("table1 — GNRFET vs scaled CMOS");
    // Locate A/B/C on a modest design-space grid first.
    let vdd_axis: Vec<f64> = (0..8).map(|i| 0.18 + i as f64 * 0.07).collect();
    let vt_axis: Vec<f64> = (0..7).map(|i| 0.02 + i as f64 * 0.04).collect();
    let map = design_space_map(&ctx, &mut lib, &vdd_axis, &vt_axis, 15)?;
    let f_max = map.feasible().map(|p| p.frequency_hz).fold(0.0, f64::max);
    let f_target = (3e9f64).max(0.55 * f_max);
    let best_snm = map.feasible().map(|p| p.snm_v).fold(0.0, f64::max);
    let snm_floor = (0.15f64).min(0.75 * best_snm);
    let a = map
        .point_min_edp(f_target)
        .ok_or("frequency floor unreachable on the exploration grid")?;
    let b = map.point_min_edp_with_snm(f_target, snm_floor).unwrap_or(a);
    let c = map.point_same_edp_higher_vt(&b, 0.25).unwrap_or(b);
    let points = vec![
        (format!("GNRFET A (VDD={:.2},VT={:.2})", a.vdd, a.vt), a),
        (format!("GNRFET B (VDD={:.2},VT={:.2})", b.vdd, b.vt), b),
        (format!("GNRFET C (VDD={:.2},VT={:.2})", c.vdd, c.vt), c),
    ];
    let table = comparison_table(&ctx, &mut lib, &points, 15)?;
    println!("\n{table}");
    println!("paper Table 1: GNRFET A/B/C at 3.3/3.4/2.5 GHz, EDP 22.7/27.6/36.8 fJ-ps,");
    println!("SNM 0.09/0.14/0.15 V; CMOS EDP 1129-6012 fJ-ps; advantage 40-168x.");
    Ok(())
}
