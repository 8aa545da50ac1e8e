//! Determinism self-check: at one seed, two traced runs give identical
//! deterministic telemetry counters and identical outputs, and so does a
//! run on a 1-thread pool against a 2-thread pool.
//!
//! Each run does one untraced and one traced pass, so this takes a few
//! minutes in release mode:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use gnrlab_perfbench::{run_workload, RunConfig, WorkloadRun};
use std::sync::Mutex;

/// Telemetry is process-global: runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

const SEED: u64 = 7;

fn traced_run(workload: &str, threads: usize) -> WorkloadRun {
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed: SEED,
        // Shorter than any pass: one untraced pass, then the traced one.
        seconds: 1e-3,
        traced: true,
        threads,
    };
    run_workload(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn counters(run: &WorkloadRun) -> Vec<(String, u64)> {
    let snap = &run.traced.as_ref().expect("traced run").telemetry;
    snap.counters().map(|(k, v)| (k.to_string(), v)).collect()
}

fn bits(run: &WorkloadRun) -> Vec<u64> {
    run.digest.iter().map(|v| v.to_bits()).collect()
}

fn check(workload: &str) {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let a = traced_run(workload, 2);
    let b = traced_run(workload, 2);
    let serial = traced_run(workload, 1);
    assert_eq!(a.failed, 0, "{workload}: {:?}", a.failures);
    assert_eq!(
        a.drift, 0.0,
        "{workload}: outputs drifted from the references"
    );
    assert!(!counters(&a).is_empty(), "{workload}: no counters recorded");
    assert!(!a.digest.is_empty(), "{workload}: no outputs checked");
    assert_eq!(
        counters(&a),
        counters(&b),
        "{workload}: counters differ between runs"
    );
    assert_eq!(
        bits(&a),
        bits(&b),
        "{workload}: outputs differ between runs"
    );
    assert_eq!(
        counters(&a),
        counters(&serial),
        "{workload}: counters differ at 1 thread"
    );
    assert_eq!(
        bits(&a),
        bits(&serial),
        "{workload}: outputs differ at 1 thread"
    );
}

#[test]
fn deck_logic_is_deterministic() {
    check("deck_logic");
}

#[test]
fn device_tables_is_deterministic() {
    check("device_tables");
}

#[test]
fn paper_circuits_is_deterministic() {
    check("paper_circuits");
}
