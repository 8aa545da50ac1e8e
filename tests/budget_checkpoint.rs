//! Acceptance suite for budgeted execution and checkpoint/resume.
//!
//! Pins the contract from DESIGN.md §13: a seed-20080608 Monte Carlo run
//! that is cancelled (or runs out of budget) mid-flight checkpoints its
//! completed prefix, and the resumed run produces a summary bit-identical
//! to an uninterrupted run — at any pool size, with the §4 pins (530
//! stalled / 0.735 yield) intact. An exhausted budget surfaces partial
//! statistics plus a typed stop, never a panic; a corrupted checkpoint is
//! detected, discarded, and the run restarts clean. A streamed run
//! cancelled from its own chunk sink resumes by seed range with the
//! restored prefix delivered first and every later chunk on a fixed
//! boundary.
//!
//! The fault injector and the checkpoint files are process-global /
//! on-disk shared state, so every test serializes through [`suite_lock`].

use gnrlab::explore::devices::{DeviceLibrary, Fidelity};
use gnrlab::explore::monte_carlo::{
    characterize_stage_universe, monte_carlo_from_universe, monte_carlo_from_universe_resumable,
    McChunk, MonteCarloResult, StageUniverse, MC_CHECKPOINT_CHUNK,
};
use gnrlab::num::budget::{Budget, CancelToken, ExecLimits};
use gnrlab::num::fault::{self, FaultPlan};
use gnrlab::num::par::ExecCtx;
use gnrlab::num::{telemetry, NumError};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

const MC_SEED: u64 = 20080608;
const MC_SAMPLES: usize = 2000;

fn suite_lock() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// The one-time Fast-fidelity stage universe shared by every test (the
/// characterization is the expensive step; the sampling runs are cheap).
fn universe() -> &'static StageUniverse {
    static UNIVERSE: OnceLock<StageUniverse> = OnceLock::new();
    UNIVERSE.get_or_init(|| {
        let mut lib = DeviceLibrary::new(Fidelity::Fast);
        characterize_stage_universe(&ExecCtx::serial(), &mut lib, 0.4, 15)
            .expect("universe characterizes")
    })
}

fn checkpoint_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gnr-budget-checkpoint-{}-{name}.json",
        std::process::id()
    ))
}

/// A budget that allows exactly `n` budget checks before tripping.
fn check_capped(n: u64) -> ExecLimits {
    ExecLimits::none().with_budget(Budget::unlimited().with_check_cap(n))
}

fn assert_pins(result: &MonteCarloResult, what: &str) {
    assert_eq!(result.frequency_hz.len(), 1470, "{what}: functional pin");
    assert_eq!(result.stalled_samples, 530, "{what}: stalled pin");
    assert!(
        (result.functional_yield() - 0.735).abs() < 1e-12,
        "{what}: yield pin"
    );
}

fn assert_bit_identical(a: &MonteCarloResult, b: &MonteCarloResult, what: &str) {
    assert_eq!(a.frequency_hz.len(), b.frequency_hz.len(), "{what}: count");
    assert_eq!(a.stalled_samples, b.stalled_samples, "{what}: stalls");
    for (x, y) in a.frequency_hz.iter().zip(&b.frequency_hz) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: frequency");
    }
    for (x, y) in a.dynamic_w.iter().zip(&b.dynamic_w) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: dynamic power");
    }
    for (x, y) in a.static_w.iter().zip(&b.static_w) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: static power");
    }
}

/// The headline acceptance test: interrupt the pinned §4 Monte Carlo run
/// mid-flight, checkpoint, resume on 1- and 4-thread pools, and demand the
/// resumed summary is byte-identical to the uninterrupted run — pins and
/// all.
#[test]
fn cancelled_mc_resumes_bit_identically_on_serial_and_parallel_pools() {
    let _g = suite_lock();
    fault::disarm();
    let baseline = monte_carlo_from_universe(&ExecCtx::serial(), universe(), MC_SAMPLES, MC_SEED);
    assert_eq!(baseline.frequency_hz.len(), 1470, "functional pin");
    assert_eq!(baseline.stalled_samples, 530, "stalled pin");
    assert!(
        (baseline.functional_yield() - 0.735).abs() < 1e-12,
        "yield pin"
    );

    for threads in [1usize, 4] {
        let path = checkpoint_path(&format!("resume-{threads}"));
        let _ = std::fs::remove_file(&path);
        // Three budget checks pass, the fourth trips: three chunks (768
        // samples) land in the checkpoint.
        let ctx = ExecCtx::with_threads(threads).with_limits(check_capped(3));
        let partial = monte_carlo_from_universe_resumable(
            &ctx,
            universe(),
            MC_SAMPLES,
            MC_SEED,
            Some(&path),
            None,
        )
        .expect("interrupted run still returns partial statistics");
        assert!(!partial.is_complete());
        assert_eq!(partial.completed_samples, 3 * MC_CHECKPOINT_CHUNK);
        assert!(
            matches!(partial.interrupted, Some(NumError::BudgetExhausted { .. })),
            "got {:?}",
            partial.interrupted
        );
        assert!(path.exists(), "interrupted run must leave a checkpoint");

        // Resume without limits: the run completes, removes the file, and
        // the merged summary matches the uninterrupted baseline bit for
        // bit — including the fault-log pins.
        let ctx = ExecCtx::with_threads(threads);
        let resumed = monte_carlo_from_universe_resumable(
            &ctx,
            universe(),
            MC_SAMPLES,
            MC_SEED,
            Some(&path),
            None,
        )
        .expect("resume completes");
        assert!(resumed.is_complete());
        assert_eq!(resumed.completed_samples, MC_SAMPLES);
        assert!(!path.exists(), "finished run must remove its checkpoint");
        assert_bit_identical(
            &baseline,
            &resumed.result,
            &format!("{threads}-thread resume"),
        );
        assert_eq!(resumed.result.frequency_hz.len(), 1470);
        assert_eq!(resumed.result.stalled_samples, 530);
        assert!((resumed.result.functional_yield() - 0.735).abs() < 1e-12);
    }
}

/// Budget exhaustion without a checkpoint path still degrades gracefully:
/// the partial population is a strict bit-prefix of the full run, and the
/// typed stop is reported rather than thrown.
#[test]
fn exhausted_budget_reports_partial_statistics() {
    let _g = suite_lock();
    fault::disarm();
    let baseline = monte_carlo_from_universe(&ExecCtx::serial(), universe(), MC_SAMPLES, MC_SEED);
    let ctx = ExecCtx::serial().with_limits(check_capped(2));
    let partial =
        monte_carlo_from_universe_resumable(&ctx, universe(), MC_SAMPLES, MC_SEED, None, None)
            .expect("partial statistics");
    assert_eq!(partial.completed_samples, 2 * MC_CHECKPOINT_CHUNK);
    assert_eq!(partial.requested_samples, MC_SAMPLES);
    let err = partial.interrupted.expect("typed stop");
    assert!(
        matches!(err, NumError::BudgetExhausted { ref site } if site == "mc.chunk"),
        "got {err:?}"
    );
    // Every sample that was composed carries the same bits as in the full
    // run: kept-vs-stalled partitioning is per-sample, so the partial
    // population is a prefix of the baseline's.
    let r = &partial.result;
    assert_eq!(
        r.frequency_hz.len() + r.stalled_samples,
        partial.completed_samples
    );
    for (x, y) in r.frequency_hz.iter().zip(&baseline.frequency_hz) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// A cancel token trips the very first budget probe: zero samples, typed
/// `Cancelled`, no checkpoint file left behind.
#[test]
fn cancel_token_stops_before_the_first_chunk() {
    let _g = suite_lock();
    fault::disarm();
    let path = checkpoint_path("cancelled");
    let _ = std::fs::remove_file(&path);
    let token = CancelToken::new();
    token.cancel();
    let ctx = ExecCtx::serial().with_limits(ExecLimits::none().with_cancel(token));
    let outcome = monte_carlo_from_universe_resumable(
        &ctx,
        universe(),
        MC_SAMPLES,
        MC_SEED,
        Some(&path),
        None,
    )
    .expect("cancelled run still returns");
    assert_eq!(outcome.completed_samples, 0);
    assert!(
        matches!(outcome.interrupted, Some(NumError::Cancelled { .. })),
        "got {:?}",
        outcome.interrupted
    );
    assert!(!path.exists(), "no chunk completed, no checkpoint written");
}

/// A corrupted checkpoint (injected via the `checkpoint.corrupt` fault
/// site) is detected, discarded — counted — and the run restarts from
/// scratch to the same bit-identical summary.
#[test]
fn corrupt_checkpoint_is_discarded_and_run_restarts_clean() {
    let _g = suite_lock();
    fault::disarm();
    let baseline = monte_carlo_from_universe(&ExecCtx::serial(), universe(), MC_SAMPLES, MC_SEED);
    let path = checkpoint_path("corrupt");
    let _ = std::fs::remove_file(&path);
    // Leave a genuine partial checkpoint on disk...
    let ctx = ExecCtx::serial().with_limits(check_capped(1));
    let partial = monte_carlo_from_universe_resumable(
        &ctx,
        universe(),
        MC_SAMPLES,
        MC_SEED,
        Some(&path),
        None,
    )
    .expect("partial run");
    assert_eq!(partial.completed_samples, MC_CHECKPOINT_CHUNK);
    assert!(path.exists());
    // ...then resume with the corrupt-read fault armed: the load must
    // discard (and delete) the file instead of trusting it.
    fault::arm(FaultPlan::seeded(1).with_site("checkpoint.corrupt", 1.0));
    telemetry::reset();
    telemetry::arm();
    let resumed = monte_carlo_from_universe_resumable(
        &ExecCtx::serial(),
        universe(),
        MC_SAMPLES,
        MC_SEED,
        Some(&path),
        None,
    );
    let snap = telemetry::snapshot();
    let injected = fault::injection_count("checkpoint.corrupt");
    telemetry::disarm();
    fault::disarm();
    let resumed = resumed.expect("clean restart completes");
    assert!(resumed.is_complete());
    assert_eq!(injected, 1, "corrupt-read fault must fire exactly once");
    assert_eq!(
        snap.counter("checkpoint.discarded"),
        Some(1),
        "discard must be counted"
    );
    assert!(
        snap.counter("checkpoint.writes").unwrap_or(0) > 0,
        "restarted run re-checkpoints its chunks"
    );
    assert!(!path.exists(), "completed restart removes its checkpoint");
    assert_bit_identical(&baseline, &resumed.result, "post-discard restart");
}

/// Records `(start, len, restored)` per delivered chunk.
fn record(chunks: &mut Vec<(usize, usize, bool)>) -> impl FnMut(&McChunk) + '_ {
    |c| chunks.push((c.start, c.totals.len(), c.restored))
}

/// The streaming acceptance test, per pool size: the universe is
/// characterized on the pool, a streamed sweep is cancelled from its own
/// sink after three chunks and checkpoints, and the resume by seed range
/// delivers the restored prefix first as one chunk, then the computed
/// chunks on fixed boundaries — with the merged population carrying the
/// §4 pins bit-identically to the uninterrupted baseline.
#[test]
fn streamed_mc_cancelled_from_sink_resumes_bit_identically_on_both_pools() {
    let _g = suite_lock();
    fault::disarm();
    // One table store shared by both pool sizes: the device tables are
    // bit-deterministic, so the 4-thread run may replay the tables the
    // 1-thread run built.
    let store = Arc::new(gnrlab::device::TableStore::in_memory());
    let mut baseline: Option<MonteCarloResult> = None;
    for threads in [1usize, 4] {
        let ctx = ExecCtx::with_threads(threads);
        let mut lib = DeviceLibrary::with_store(Fidelity::Fast, Arc::clone(&store));
        let universe =
            characterize_stage_universe(&ctx, &mut lib, 0.4, 15).expect("universe characterizes");

        // Uninterrupted baseline.
        telemetry::reset();
        telemetry::arm();
        let full =
            monte_carlo_from_universe_resumable(&ctx, &universe, MC_SAMPLES, MC_SEED, None, None)
                .expect("baseline sweep");
        let snap = telemetry::snapshot();
        telemetry::disarm();
        assert_eq!(
            snap.counter("mc.samples"),
            Some(MC_SAMPLES as u64),
            "the sweep records its sample count"
        );
        assert!(full.is_complete());
        assert_pins(&full.result, &format!("{threads}-thread baseline"));
        match &baseline {
            Some(first) => assert_bit_identical(
                first,
                &full.result,
                &format!("{threads}-thread vs 1-thread baseline"),
            ),
            None => baseline = Some(full.result.clone()),
        }

        // Interrupt: the sink cancels its own run after three chunks.
        let path = checkpoint_path(&format!("stream-resume-{threads}"));
        let _ = std::fs::remove_file(&path);
        let token = CancelToken::new();
        let cancellable = ctx.with_limits(ExecLimits::none().with_cancel(token.clone()));
        let mut chunks = Vec::new();
        let partial = {
            let mut sink = record(&mut chunks);
            let mut seen = 0usize;
            monte_carlo_from_universe_resumable(
                &cancellable,
                &universe,
                MC_SAMPLES,
                MC_SEED,
                Some(&path),
                Some(&mut |c| {
                    sink(c);
                    seen += 1;
                    if seen == 3 {
                        token.cancel();
                    }
                }),
            )
            .expect("interrupted sweep still returns partial statistics")
        };
        assert!(!partial.is_complete());
        assert_eq!(partial.completed_samples, 3 * MC_CHECKPOINT_CHUNK);
        assert!(
            matches!(partial.interrupted, Some(NumError::Cancelled { .. })),
            "got {:?}",
            partial.interrupted
        );
        assert!(path.exists(), "interrupted sweep must leave a checkpoint");
        assert_eq!(
            chunks,
            (0..3)
                .map(|i| (i * MC_CHECKPOINT_CHUNK, MC_CHECKPOINT_CHUNK, false))
                .collect::<Vec<_>>(),
            "computed chunks land on fixed boundaries"
        );

        // Resume under fresh limits: the restored prefix must arrive first
        // as a single chunk, then the remaining fixed-size chunks (short
        // tail last).
        let fresh = ctx.with_limits(ExecLimits::none().with_budget(Budget::unlimited()));
        let mut chunks = Vec::new();
        let resumed = monte_carlo_from_universe_resumable(
            &fresh,
            &universe,
            MC_SAMPLES,
            MC_SEED,
            Some(&path),
            Some(&mut record(&mut chunks)),
        )
        .expect("resume completes");
        assert!(resumed.is_complete());
        assert_eq!(resumed.completed_samples, MC_SAMPLES);
        assert!(!path.exists(), "finished sweep must remove its checkpoint");
        assert_eq!(
            chunks[0],
            (0, 3 * MC_CHECKPOINT_CHUNK, true),
            "restored prefix first"
        );
        let mut expected_start = 3 * MC_CHECKPOINT_CHUNK;
        for &(start, len, restored) in &chunks[1..] {
            assert!(!restored);
            assert_eq!(start, expected_start, "chunks arrive in sample order");
            assert_eq!(len, MC_CHECKPOINT_CHUNK.min(MC_SAMPLES - start));
            expected_start += len;
        }
        assert_eq!(
            expected_start, MC_SAMPLES,
            "every sample delivered exactly once"
        );
        assert_bit_identical(
            baseline.as_ref().expect("baseline"),
            &resumed.result,
            &format!("{threads}-thread resume"),
        );
        assert_pins(&resumed.result, &format!("{threads}-thread resume"));
    }
}
