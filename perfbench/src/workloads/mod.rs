//! The three workloads. Each is a closed loop driven by one client: a pass
//! calls the program's public functions one after another on the calling
//! thread, and the program fans work out on the `ExecCtx` pool.

pub mod deck;
pub mod device;
pub mod paper;

use crate::check::Checker;
use crate::trace::Tracer;
use gnr_num::par::ExecCtx;
use gnr_num::Rng;

/// Relative deviation from the reference beyond which an output check
/// fails. Every output is deterministic (bit-identical across runs and
/// pool sizes), so this is set at the program's own conformance level
/// (mode-space NEGF against real space agrees to 1e-6): any change that
/// moves an output further makes its units fail.
pub const CHECK_REL_TOL: f64 = 1e-6;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["paper_circuits", "device_tables", "deck_logic"];

/// Which inputs a workload runs.
#[derive(Clone, Copy, Debug)]
pub enum Inputs {
    /// A seeded draw from the committed candidate sets.
    Seeded(u64),
    /// Every candidate (used to write the reference files).
    AllCandidates,
}

/// A set-up workload.
pub trait Workload {
    /// One pass over the workload's fixed input set; every unit is checked
    /// and counted in `chk`.
    fn pass(&mut self, ctx: &ExecCtx, tr: &Tracer, chk: &mut Checker);
}

/// How many times set-up is timed again after every untraced pass (each
/// repeat is built and dropped). A set-up of milliseconds to a second
/// falls within one phase of the host's speed, which drifts over seconds;
/// repeats spread over the run make the median of the set-up times as
/// representative as that of the passes; the short ones vary the most, so
/// each repeats several times per pass. `paper_circuits` builds its
/// whole device library in set-up, which takes tens of seconds, so it is
/// set up once per run.
pub fn setup_repeats(name: &str) -> usize {
    if name == "paper_circuits" {
        0
    } else {
        4
    }
}

/// Sets up workload `name`.
pub fn setup(
    name: &str,
    inputs: Inputs,
    ctx: &ExecCtx,
    tr: &Tracer,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper_circuits" => Box::new(paper::setup(inputs, ctx, tr)?),
        "device_tables" => Box::new(device::setup(inputs, tr)?),
        "deck_logic" => Box::new(deck::setup(inputs, tr)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// `k` distinct candidates in candidate order.
fn pick_distinct(rng: &mut Rng, candidates: &[f64], k: usize) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..candidates.len()).collect();
    rng.shuffle(&mut idx);
    let mut chosen: Vec<usize> = idx.into_iter().take(k).collect();
    chosen.sort_unstable();
    chosen.into_iter().map(|i| candidates[i]).collect()
}
