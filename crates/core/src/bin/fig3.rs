//! Regenerates paper Fig. 3(b): EDP, frequency, and SNM contours of the
//! 15-stage FO4 ring oscillator over the (V_DD, V_T) design space, and the
//! operating points A (min EDP at a frequency floor), B (min EDP at
//! frequency + SNM floors), and C (equal EDP/SNM at higher V_T).

use gnr_num::par::ExecCtx;
use gnrfet_explore::contours::design_space_map;
use gnrfet_explore::report;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    gnr_num::telemetry::arm_from_env();
    let ctx = ExecCtx::from_env();
    let mut lib = report::standard_library("fig3 — (V_DD, V_T) design-space contours");
    let vdd_axis: Vec<f64> = (0..10).map(|i| 0.15 + i as f64 * 0.06).collect();
    let vt_axis: Vec<f64> = (0..9).map(|i| 0.02 + i as f64 * 0.035).collect();
    let map = design_space_map(&ctx, &mut lib, &vdd_axis, &vt_axis, 15)?;
    println!(
        "raw-table V_T = {:.3} V; {} feasible design points\n",
        map.vt_raw,
        map.feasible().count()
    );
    println!(
        "{}",
        map.render(|p| p.frequency_hz / 1e9, "frequency (GHz)")
    );
    println!(
        "{}",
        map.render(|p| (p.edp_js * 1e30).log10(), "log10 EDP (aJ-ps)")
    );
    println!("{}", map.render(|p| p.snm_v, "SNM (V)"));
    println!(
        "{}",
        map.render(|p| p.static_w * 1e6, "inverter static power (uW)")
    );

    // Operating-point methodology. The paper uses 3 GHz and SNM 0.15 V on
    // its landscape; our surrogate's landscape is rescaled (faster devices,
    // ~half the inverter gain), so the floors are set as fractions of the
    // map extremes to keep the constraints binding (see EXPERIMENTS.md).
    let f_max = map.feasible().map(|p| p.frequency_hz).fold(0.0, f64::max);
    let f_target = (3e9f64).max(0.55 * f_max);
    let snm_floor = {
        let best_snm = map.feasible().map(|p| p.snm_v).fold(0.0, f64::max);
        (0.15f64).min(0.65 * best_snm)
    };
    println!(
        "frequency floor {:.2} GHz, SNM floor {snm_floor:.3} V\n",
        f_target / 1e9
    );
    if let Some(a) = map.point_min_edp(f_target) {
        println!(
            "point A (min EDP, f >= floor):                 V_DD={:.2} V_T={:.2}  f={:.2} GHz EDP={:.1} aJ-ps SNM={:.3} V",
            a.vdd, a.vt, a.frequency_hz / 1e9, a.edp_js * 1e30, a.snm_v
        );
        if let Some(b) = map.point_min_edp_with_snm(f_target, snm_floor) {
            println!(
                "point B (+ SNM >= {snm_floor:.3} V):            V_DD={:.2} V_T={:.2}  f={:.2} GHz EDP={:.1} aJ-ps SNM={:.3} V",
                b.vdd, b.vt, b.frequency_hz / 1e9, b.edp_js * 1e30, b.snm_v
            );
            if let Some(c) = map.point_same_edp_higher_vt(&b, 0.25) {
                println!(
                    "point C (same EDP/SNM, higher V_T):      V_DD={:.2} V_T={:.2}  f={:.2} GHz EDP={:.1} aJ-ps SNM={:.3} V",
                    c.vdd, c.vt, c.frequency_hz / 1e9, c.edp_js * 1e30, c.snm_v
                );
                println!(
                    "frequency at B is {:.0}% higher than at C (paper: 40%)",
                    100.0 * (b.frequency_hz / c.frequency_hz - 1.0)
                );
            } else {
                println!("point C: no equal-EDP/SNM point at higher V_T on this grid");
            }
        } else {
            println!("point B: SNM floor {snm_floor:.3} V unreachable at 3 GHz on this grid");
        }
    } else {
        println!("point A: 3 GHz not reachable on this grid");
    }
    report::cache_summary(&ctx);
    Ok(())
}
