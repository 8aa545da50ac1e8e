//! Benchmark of the gnrlab pipeline: three workloads (`paper_circuits`,
//! `device_tables`, `deck_logic`), end-to-end metrics from an untraced
//! run, and per-layer metrics from a traced run.
//!
//! A run sets the workload up, then repeats passes over its fixed input
//! set for the requested number of seconds, checking every output. The
//! traced run additionally records spans around every call the benchmark
//! makes into a layer, and resets and snapshots `gnr_num::telemetry` so
//! that every counter belongs to this workload.

pub mod check;
pub mod host;
pub mod metrics;
pub mod trace;
pub mod workloads;

use check::Checker;
use gnr_num::par::ExecCtx;
use gnr_num::telemetry::{self, TelemetrySnapshot};
use std::time::Instant;
use trace::{Span, Tracer};
use workloads::Inputs;

/// Median of `v` (sorted in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated percentile `p` in `[0, 1]` of `v` (sorted in place).
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// What one run does.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub threads: usize,
}

/// Everything the traced pass recorded.
#[derive(Clone, Debug)]
pub struct TracedPass {
    pub wall_s: f64,
    /// Spans of the set-up and the traced pass.
    pub spans: Vec<Span>,
    /// Spans inside the traced pass only (its root excluded).
    pub pass_spans: Vec<Span>,
    pub root: Span,
    /// Telemetry over the first set-up and the traced pass.
    pub telemetry: TelemetrySnapshot,
}

/// The outcome of one workload run.
#[derive(Clone, Debug)]
pub struct WorkloadRun {
    pub config: RunConfig,
    pub setup_s: Vec<f64>,
    /// Wall seconds of every untraced pass.
    pub pass_wall_s: Vec<f64>,
    /// Units completed correctly in each untraced pass.
    pub pass_units_ok: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub drift: f64,
    pub failures: Vec<String>,
    /// Peak resident memory over set-up and the first pass (later passes
    /// repeat the same work, and their count depends on host speed).
    pub peak_rss_mb: f64,
    pub kernel_start_ms: f64,
    pub kernel_end_ms: f64,
    pub traced: Option<TracedPass>,
    /// Outputs of the last pass, in check order.
    pub digest: Vec<f64>,
}

/// Runs one workload as configured.
pub fn run_workload(cfg: &RunConfig) -> Result<WorkloadRun, String> {
    host::reset_peak_rss();
    let kernel_start_ms = host::reference_kernel_ms();
    let ctx = ExecCtx::with_threads(cfg.threads);
    let mut tracer = Tracer::new();
    if cfg.traced {
        telemetry::disarm();
        telemetry::reset();
        telemetry::arm();
        tracer.set_enabled(true);
    }

    // Reading the references is the benchmark's own work, not set-up.
    let mut chk = Checker::load(&cfg.workload)?;
    let setup = |tr: &Tracer| -> Result<(Box<dyn workloads::Workload>, f64), String> {
        let t = Instant::now();
        let w = {
            let _root = tr.enter("setup");
            workloads::setup(&cfg.workload, Inputs::Seeded(cfg.seed), &ctx, tr)?
        };
        Ok((w, t.elapsed().as_secs_f64()))
    };
    // Only the first set-up is traced and counted.
    let (mut workload, first_setup_s) = setup(&tracer)?;
    let mut setup_s = vec![first_setup_s];
    tracer.set_enabled(false);
    telemetry::disarm();

    // Untraced passes: the end-to-end measurement, until their wall time
    // adds up to the budget (repeated set-ups come on top). The traced run
    // splits its time between untraced passes (the overhead baseline) and
    // one traced pass.
    let budget = if cfg.traced {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut pass_wall_s = Vec::new();
    let mut pass_units_ok = Vec::new();
    let mut peak_rss_mb = None;
    loop {
        chk.clear_digest();
        let (attempted_before, failed_before) = chk.counts();
        let t = Instant::now();
        workload.pass(&ctx, &tracer, &mut chk);
        pass_wall_s.push(t.elapsed().as_secs_f64());
        let (attempted_after, failed_after) = chk.counts();
        pass_units_ok.push((attempted_after - attempted_before) - (failed_after - failed_before));
        if peak_rss_mb.is_none() {
            peak_rss_mb =
                Some(host::peak_rss_mb().ok_or("cannot read peak RSS from /proc/self/status")?);
        }
        for _ in 0..workloads::setup_repeats(&cfg.workload) {
            setup_s.push(setup(&tracer)?.1);
        }
        if pass_wall_s.iter().sum::<f64>() >= budget {
            break;
        }
    }

    let traced = if cfg.traced {
        chk.clear_digest();
        tracer.set_enabled(true);
        telemetry::arm();
        let t = Instant::now();
        let root_id = {
            let root = tracer.enter("pass");
            workload.pass(&ctx, &tracer, &mut chk);
            root.id()
        };
        let wall_s = t.elapsed().as_secs_f64();
        telemetry::disarm();
        tracer.set_enabled(false);
        let root_id = root_id.ok_or("traced pass recorded no root span")?;
        Some(TracedPass {
            wall_s,
            spans: tracer.spans(),
            pass_spans: tracer.descendants(root_id),
            root: tracer.span_by_id(root_id).ok_or("root span missing")?,
            telemetry: telemetry::snapshot(),
        })
    } else {
        None
    };

    let kernel_end_ms = host::reference_kernel_ms();
    let (attempted, failed) = chk.counts();
    Ok(WorkloadRun {
        config: cfg.clone(),
        setup_s,
        pass_wall_s,
        pass_units_ok,
        attempted,
        failed,
        drift: chk.drift(),
        failures: chk.failures().iter().take(5).cloned().collect(),
        peak_rss_mb: peak_rss_mb.unwrap_or_default(),
        kernel_start_ms,
        kernel_end_ms,
        traced,
        digest: chk.digest().to_vec(),
    })
}

/// Runs every candidate input of `workload` once and rewrites its
/// reference file.
pub fn write_refs(workload: &str, threads: usize) -> Result<std::path::PathBuf, String> {
    let ctx = ExecCtx::with_threads(threads);
    let tracer = Tracer::new();
    let mut w = workloads::setup(workload, Inputs::AllCandidates, &ctx, &tracer)?;
    let mut chk = Checker::recording();
    w.pass(&ctx, &tracer, &mut chk);
    let (attempted, failed) = chk.counts();
    if failed > 0 {
        return Err(format!(
            "{workload}: {failed} of {attempted} units failed while writing references: {:?}",
            chk.failures()
        ));
    }
    chk.save(workload)
}
