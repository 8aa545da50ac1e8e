//! Output checks against committed reference values.
//!
//! Every unit of work a workload completes is checked here. A unit fails
//! when its public call returned an error, when an output check fails, or
//! when an output is NaN where the reference is finite. NaN in both the
//! output and the reference (a dead cell, say) is a physics verdict and
//! passes. Separately, the largest relative deviation of any output from
//! its reference is tracked as `output_drift_rel`.
//!
//! References live in `refs/<workload>.json` as a map from an input key to
//! the output vector the program produced for that input when the file was
//! written (`null` encodes NaN). Running the benchmark with
//! `--write-refs` recomputes every candidate input and rewrites the file.

use gnr_num::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Relative deviations are taken against `max(|ref|, FLOOR_REL * scale)`,
/// where `scale` is the largest finite `|ref|` of the same output vector,
/// so that entries near zero in a vector spanning decades (an off-current,
/// say) do not dominate.
const FLOOR_REL: f64 = 1e-6;

/// Checks outputs against (or, in record mode, records) references.
pub struct Checker {
    refs: BTreeMap<String, Vec<f64>>,
    recording: bool,
    /// Units attempted / failed since the last [`Checker::take_counts`].
    attempted: u64,
    failed: u64,
    /// Largest relative deviation seen so far.
    drift: f64,
    /// Every checked output, in order: the determinism self-check compares
    /// these bit for bit.
    digest: Vec<f64>,
    failures: Vec<String>,
}

/// Directory holding the committed reference files.
pub fn refs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("refs")
}

fn refs_path(workload: &str) -> PathBuf {
    refs_dir().join(format!("{workload}.json"))
}

impl Checker {
    /// Loads `refs/<workload>.json`.
    pub fn load(workload: &str) -> Result<Self, String> {
        let path = refs_path(workload);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read references {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let entries = match doc.get("entries") {
            Some(Json::Obj(pairs)) => pairs,
            _ => return Err(format!("{}: missing \"entries\" object", path.display())),
        };
        let mut refs = BTreeMap::new();
        for (key, value) in entries {
            let values = value
                .as_array()
                .ok_or_else(|| format!("{}: entry {key} is not an array", path.display()))?
                .iter()
                .map(|v| v.as_f64().unwrap_or(f64::NAN))
                .collect();
            refs.insert(key.clone(), values);
        }
        Ok(Self::with_refs(refs, false))
    }

    /// A checker that records every output instead of comparing.
    pub fn recording() -> Self {
        Self::with_refs(BTreeMap::new(), true)
    }

    fn with_refs(refs: BTreeMap<String, Vec<f64>>, recording: bool) -> Self {
        Checker {
            refs,
            recording,
            attempted: 0,
            failed: 0,
            drift: 0.0,
            digest: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Writes the recorded references to `refs/<workload>.json`.
    pub fn save(&self, workload: &str) -> Result<PathBuf, String> {
        let entries = self
            .refs
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(v.clone())))
            .collect();
        let doc = Json::Obj(vec![
            ("schema".into(), Json::from("gnrlab-perfbench-refs/v1")),
            ("workload".into(), Json::from(workload)),
            ("entries".into(), Json::Obj(entries)),
        ]);
        let path = refs_path(workload);
        std::fs::create_dir_all(refs_dir()).map_err(|e| e.to_string())?;
        std::fs::write(&path, doc.dump() + "\n").map_err(|e| e.to_string())?;
        Ok(path)
    }

    /// Compares `outputs` with the reference under `key`; returns whether
    /// every output passed (deviation within `tol`, NaN only where the
    /// reference is NaN). In record mode stores them and returns `true`.
    pub fn compare(&mut self, key: &str, outputs: &[f64], tol: f64) -> bool {
        self.digest.extend_from_slice(outputs);
        if self.recording {
            self.refs.insert(key.to_string(), outputs.to_vec());
            return true;
        }
        let Some(reference) = self.refs.get(key) else {
            self.failures.push(format!("{key}: no reference"));
            self.drift = self.drift.max(1.0);
            return false;
        };
        if reference.len() != outputs.len() {
            self.failures.push(format!(
                "{key}: {} outputs, reference has {}",
                outputs.len(),
                reference.len()
            ));
            self.drift = self.drift.max(1.0);
            return false;
        }
        let scale = reference
            .iter()
            .filter(|r| r.is_finite())
            .fold(0.0f64, |m, r| m.max(r.abs()));
        let mut ok = true;
        for (i, (&out, &r)) in outputs.iter().zip(reference).enumerate() {
            let dev = match (out.is_nan(), r.is_nan()) {
                (true, true) => 0.0,
                (true, false) | (false, true) => 1.0,
                (false, false) => {
                    let denom = r.abs().max(FLOOR_REL * scale).max(f64::MIN_POSITIVE);
                    (out - r).abs() / denom
                }
            };
            // A deviation is at most reported as 1 (100%): a structural
            // mismatch (NaN against a finite value) counts as that.
            self.drift = self.drift.max(dev.min(1.0));
            if dev > tol {
                if ok {
                    self.failures.push(format!(
                        "{key}[{i}]: output {out:e} vs reference {r:e} (rel {dev:.3e} > {tol:e})"
                    ));
                }
                ok = false;
            }
        }
        ok
    }

    /// Counts one unit of work, failed unless `ok`.
    pub fn unit(&mut self, ok: bool) {
        self.units(1, ok);
    }

    /// Counts `n` units that pass or fail together (the bias points of one
    /// table build, for example).
    pub fn units(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    /// Records an error returned by a public call for `n` units.
    pub fn error(&mut self, what: &str, n: u64, err: impl std::fmt::Display) {
        self.failures.push(format!("{what}: {err}"));
        self.units(n, false);
    }

    /// Records a failed output check that has no reference behind it.
    pub fn fail_check(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// Units attempted and failed so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    pub fn drift(&self) -> f64 {
        self.drift
    }

    pub fn digest(&self) -> &[f64] {
        &self.digest
    }

    /// Clears the output digest (kept per pass by the self-check).
    pub fn clear_digest(&mut self) {
        self.digest.clear();
    }

    /// The first few failure messages, for the human-readable report.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker(key: &str, values: Vec<f64>) -> Checker {
        let mut refs = BTreeMap::new();
        refs.insert(key.to_string(), values);
        Checker::with_refs(refs, false)
    }

    #[test]
    fn exact_match_has_zero_drift() {
        let mut c = checker("k", vec![1.0, f64::NAN, 0.0]);
        assert!(c.compare("k", &[1.0, f64::NAN, 0.0], 1e-9));
        assert_eq!(c.drift(), 0.0);
    }

    #[test]
    fn nan_against_finite_fails() {
        let mut c = checker("k", vec![1.0]);
        assert!(!c.compare("k", &[f64::NAN], 0.5));
        assert_eq!(c.drift(), 1.0);
    }

    #[test]
    fn deviation_is_relative_with_vector_floor() {
        let mut c = checker("k", vec![1.0, 0.0]);
        assert!(c.compare("k", &[1.001, 1e-7], 0.2));
        assert!((c.drift() - 0.1).abs() < 1e-9, "{}", c.drift());
        assert!(!c.compare("k", &[1.5, 0.0], 0.2));
    }

    #[test]
    fn missing_reference_fails() {
        let mut c = checker("k", vec![1.0]);
        assert!(!c.compare("other", &[1.0], 1.0));
    }
}
