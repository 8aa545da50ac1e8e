//! Regenerates paper Fig. 6: Monte Carlo distributions of frequency,
//! dynamic power, and static power for the 15-stage FO4 ring oscillator
//! with per-inverter width (N = 9/12/15) and charge (−q/0/+q) variations
//! drawn from a discretized normal distribution.
//!
//! Sample chunks print as they land, an interrupted run checkpoints, and
//! re-running resumes by seed range. Device tables come from the shared
//! on-disk content-addressed cache, so repeated invocations skip straight
//! to the sampling.

use gnr_num::par::ExecCtx;
use gnrfet_explore::monte_carlo::{
    characterize_stage_universe, monte_carlo_from_universe_resumable, MonteCarloResult,
};
use gnrfet_explore::report;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    gnr_num::telemetry::arm_from_env();
    let ctx = ExecCtx::from_env();
    let mut lib = report::standard_library("fig6 — Monte Carlo ring-oscillator study");
    let vdd = 0.4;
    let samples = match std::env::var("GNRLAB_MC_SAMPLES") {
        Ok(s) => s.parse().unwrap_or(10_000),
        Err(_) => 10_000,
    };
    println!("characterizing the 81-configuration stage universe...");
    std::fs::create_dir_all(report::CACHE_DIR)?;
    let checkpoint = std::path::PathBuf::from(format!("{}/fig6-mc.json", report::CACHE_DIR));
    let universe = characterize_stage_universe(&ctx, &mut lib, vdd, 15)?;
    let mut delivered = 0usize;
    let outcome = monte_carlo_from_universe_resumable(
        &ctx,
        &universe,
        samples,
        0x5eed,
        Some(&checkpoint),
        Some(&mut |chunk| {
            delivered += chunk.totals.len();
            if chunk.restored {
                println!("  resumed {delivered} checkpointed samples (seed range restored)");
            } else if delivered % 2048 < chunk.totals.len() || delivered == samples {
                println!("  {delivered}/{samples} samples");
            }
        }),
    )?;
    if let Some(stop) = &outcome.interrupted {
        println!(
            "interrupted ({stop}) after {}/{} samples — rerun to resume",
            outcome.completed_samples, outcome.requested_samples
        );
    }
    let result = &outcome.result;

    if result.stalled_samples > 0 {
        println!(
            "{} of {samples} rings contained a non-functional stage and stalled",
            result.stalled_samples
        );
    }
    let f = result.frequency_summary()?;
    let d = result.dynamic_summary()?;
    let s = result.static_summary()?;
    println!("\n{samples} samples at V_DD = {vdd} V:\n");
    println!(
        "frequency: nominal {:.3} GHz, mean {:.3} GHz ({:+.1}% vs nominal), sigma {:.3} GHz",
        result.nominal_frequency_hz / 1e9,
        f.mean / 1e9,
        100.0 * (f.mean / result.nominal_frequency_hz - 1.0),
        f.std_dev / 1e9
    );
    println!("   paper: mean frequency decreases by ~10% from nominal");
    println!(
        "dynamic P: nominal {:.3} uW, mean {:.3} uW ({:+.1}%), sigma {:.3} uW",
        result.nominal_dynamic_w * 1e6,
        d.mean * 1e6,
        100.0 * (d.mean / result.nominal_dynamic_w - 1.0),
        d.std_dev * 1e6
    );
    println!("   paper: mean dynamic power remains ~unchanged");
    println!(
        "static  P: nominal {:.3} uW, mean {:.3} uW ({:+.1}%), sigma {:.3} uW",
        result.nominal_static_w * 1e6,
        s.mean * 1e6,
        100.0 * (s.mean / result.nominal_static_w - 1.0),
        s.std_dev * 1e6
    );
    println!("   paper: mean static power increases by ~23% from nominal\n");

    let freq_ghz: Vec<f64> = result.frequency_hz.iter().map(|v| v / 1e9).collect();
    let dyn_uw: Vec<f64> = result.dynamic_w.iter().map(|v| v * 1e6).collect();
    let stat_uw: Vec<f64> = result.static_w.iter().map(|v| v * 1e6).collect();
    println!("frequency histogram (GHz):");
    println!("{}", MonteCarloResult::histogram(&freq_ghz, 18)?.ascii(46));
    println!("dynamic power histogram (uW):");
    println!("{}", MonteCarloResult::histogram(&dyn_uw, 18)?.ascii(46));
    println!("static power histogram (uW):");
    println!("{}", MonteCarloResult::histogram(&stat_uw, 18)?.ascii(46));
    report::cache_summary(&ctx);
    Ok(())
}
