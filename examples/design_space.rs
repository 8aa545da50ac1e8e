//! Technology exploration: the (V_DD, V_T) design space of a GNRFET ring
//! oscillator (the paper's §3.1 methodology on a reduced grid).
//!
//! Maps EDP, frequency, and SNM over supply and threshold voltage, then
//! picks the paper's operating points: A (performance only), B
//! (performance + noise robustness), and C (the equal-EDP trap at high
//! V_T).
//!
//! Run with: `cargo run --release --example design_space`

use gnrlab::explore::contours::design_space_map;
use gnrlab::explore::devices::{DeviceLibrary, Fidelity};
use gnrlab::num::par::ExecCtx;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    gnrlab::num::telemetry::arm_from_env();
    let ctx = ExecCtx::from_env();
    // The library's in-memory content-addressed table store deduplicates
    // device builds across the whole grid even with no disk cache: every
    // (geometry, bias grid, solver options) table is solved once and
    // every later request is a byte-identical cache hit.
    let mut lib = DeviceLibrary::new(Fidelity::Fast);
    let vdd_axis: Vec<f64> = (0..6).map(|i| 0.2 + i as f64 * 0.08).collect();
    let vt_axis: Vec<f64> = (0..5).map(|i| 0.03 + i as f64 * 0.05).collect();
    println!(
        "exploring a {}x{} (V_DD, V_T) grid ...",
        vdd_axis.len(),
        vt_axis.len()
    );
    let map = design_space_map(&ctx, &mut lib, &vdd_axis, &vt_axis, 15)?;

    println!(
        "\n{}",
        map.render(|p| p.frequency_hz / 1e9, "ring-oscillator frequency (GHz)")
    );
    println!("{}", map.render(|p| p.edp_js * 1e30, "EDP (aJ-ps)"));
    println!("{}", map.render(|p| p.snm_v * 1e3, "inverter SNM (mV)"));

    let f_target = 3e9;
    let best_snm = map.feasible().map(|p| p.snm_v).fold(0.0, f64::max);
    if let Some(a) = map.point_min_edp(f_target) {
        println!(
            "A: min EDP @ >=3 GHz           -> V_DD={:.2}, V_T={:.2}: {:.2} GHz, {:.1} aJ-ps, SNM {:.0} mV",
            a.vdd, a.vt, a.frequency_hz / 1e9, a.edp_js * 1e30, a.snm_v * 1e3
        );
        if let Some(b) = map.point_min_edp_with_snm(f_target, 0.6 * best_snm) {
            println!(
                "B: + SNM floor ({:.0} mV)       -> V_DD={:.2}, V_T={:.2}: {:.2} GHz, {:.1} aJ-ps, SNM {:.0} mV",
                0.6 * best_snm * 1e3, b.vdd, b.vt, b.frequency_hz / 1e9, b.edp_js * 1e30, b.snm_v * 1e3
            );
            if let Some(c) = map.point_same_edp_higher_vt(&b, 0.3) {
                println!(
                    "C: same EDP/SNM, higher V_T    -> V_DD={:.2}, V_T={:.2}: {:.2} GHz ({:+.0}% vs B)",
                    c.vdd,
                    c.vt,
                    c.frequency_hz / 1e9,
                    100.0 * (c.frequency_hz / b.frequency_hz - 1.0)
                );
            }
        }
    }
    let telemetry = ctx.telemetry().snapshot();
    if let Some(hits) = telemetry.counter("table_cache.hits") {
        println!(
            "\ntable cache: {hits} intra-run hits, {} misses (GNR_TELEMETRY=1)",
            telemetry.counter("table_cache.misses").unwrap_or(0)
        );
    }
    println!("\nthe paper's conclusion: unlike CMOS, raising V_T does not buy noise");
    println!("robustness in GNRFET circuits — the SBFET potential-divider effect");
    println!("costs frequency instead.");
    Ok(())
}
