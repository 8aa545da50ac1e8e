//! `paper_circuits`: the paper's circuit artifacts at `Fidelity::Fast` on a
//! warm `DeviceLibrary` whose tables are built in set-up.
//!
//! Each pass runs the Fig. 3 design-space map over a 3 × 3 (V_DD, V_T)
//! grid, the Table 1 15-stage ring rows (one GNRFET operating point and
//! one 22 nm CMOS row), the Fig. 6 stage-universe characterization plus a
//! Monte Carlo draw from it, and the Fig. 7 latch study. A unit is one
//! design point, ring row, universe cell, latch case or Monte Carlo run.

use super::{pick_distinct, Inputs, Workload, CHECK_REL_TOL};
use crate::check::Checker;
use crate::trace::Tracer;
use gnr_cmos::CmosNode;
use gnr_num::par::ExecCtx;
use gnr_num::Rng;
use gnrfet_explore::comparison::{cmos_row, gnrfet_row, BenchRow};
use gnrfet_explore::contours::{design_space_map, DesignPoint};
use gnrfet_explore::devices::{ArrayScenario, DeviceLibrary, DeviceVariant, Fidelity};
use gnrfet_explore::latch::latch_study;
use gnrfet_explore::monte_carlo::{characterize_stage_universe, monte_carlo_from_universe};

/// Candidate supplies: the Fig. 3 axis from 0.33 V up, where every
/// candidate V_T is below the map's 0.75·V_DD feasibility limit, so every
/// seed's grid costs about the same.
const VDD_CANDIDATES: [f64; 6] = [0.33, 0.39, 0.45, 0.51, 0.57, 0.63];
/// Candidate thresholds: the Fig. 3 V_T axis up to 0.23 V.
const VT_CANDIDATES: [f64; 7] = [0.02, 0.055, 0.09, 0.125, 0.16, 0.195, 0.23];
/// Table 1 CMOS supplies (22 nm node). The 0.4 V row is left out: it runs
/// about 20% faster than the others, which would make the pass time depend
/// on the seed.
const CMOS_VDD_CANDIDATES: [f64; 2] = [0.8, 0.6];
/// Monte Carlo seeds the workload seed chooses from.
const MC_SEED_CANDIDATES: [u64; 8] = [0x5eed, 20080608, 11, 23, 101, 4099, 65537, 9_000_001];
/// Grid size of the design-space map per pass.
const GRID: usize = 3;
/// Paper supply for the stage universe, Monte Carlo and latch study.
const STUDY_VDD: f64 = 0.4;
const STAGES: usize = 15;
const MC_SAMPLES: usize = 50_000;

pub struct PaperCircuits {
    lib: DeviceLibrary,
    vdd_axis: Vec<f64>,
    vt_axis: Vec<f64>,
    gnrfet_points: Vec<(f64, f64)>,
    cmos_vdds: Vec<f64>,
    mc_seeds: Vec<u64>,
}

/// The device variants every pass draws n-type and p-type tables for: the
/// 9 stage-universe configurations (widths 9/12/15, charges −q/0/+q,
/// nominal included, all four ribbons) and the latch study's worst cases
/// (n-type N = 9 with +q, p-type N = 18 with −q, one or all ribbons).
fn library_variants() -> (Vec<DeviceVariant>, Vec<DeviceVariant>) {
    let all_four = |n, charge_q| DeviceVariant {
        n,
        charge_q,
        scenario: ArrayScenario::AllFour,
    };
    let universe: Vec<DeviceVariant> = [9, 12, 15]
        .into_iter()
        .flat_map(|n| [-1.0, 0.0, 1.0].map(|q| all_four(n, q)))
        .collect();
    let mut ntype = universe.clone();
    let mut ptype = universe;
    for scenario in ArrayScenario::BOTH {
        ntype.push(DeviceVariant {
            n: 9,
            charge_q: 1.0,
            scenario,
        });
        ptype.push(DeviceVariant {
            n: 18,
            charge_q: -1.0,
            scenario,
        });
    }
    (ntype, ptype)
}

/// Builds the warm library: every table the passes use, plus the nominal
/// model behind the min-leakage gate offset, so that every pass does the
/// same work.
pub fn setup(inputs: Inputs, ctx: &ExecCtx, tr: &Tracer) -> Result<PaperCircuits, String> {
    let mut lib = DeviceLibrary::new(Fidelity::Fast);
    // The p-type tables are requested through `ptype_table` exactly as the
    // studies do: the library keys a p-type table by the mirrored charge,
    // so a zero charge becomes −0.0 and gets a table of its own.
    let (ntype, ptype) = library_variants();
    for variant in ntype {
        tr.span("device.sbfet_table", || lib.ntype_table(ctx, variant))
            .map_err(|e| format!("library n-type table {variant:?}: {e}"))?;
    }
    for variant in ptype {
        tr.span("device.sbfet_table", || lib.ptype_table(ctx, variant))
            .map_err(|e| format!("library p-type table {variant:?}: {e}"))?;
    }
    tr.span("device.model", || lib.min_leakage_shift(STUDY_VDD))
        .map_err(|e| format!("min-leakage shift: {e}"))?;
    let w = match inputs {
        Inputs::AllCandidates => PaperCircuits {
            lib,
            vdd_axis: VDD_CANDIDATES.to_vec(),
            vt_axis: VT_CANDIDATES.to_vec(),
            gnrfet_points: VDD_CANDIDATES
                .iter()
                .flat_map(|&vdd| VT_CANDIDATES.iter().map(move |&vt| (vdd, vt)))
                .collect(),
            cmos_vdds: CMOS_VDD_CANDIDATES.to_vec(),
            mc_seeds: MC_SEED_CANDIDATES.to_vec(),
        },
        Inputs::Seeded(seed) => {
            let mut rng = Rng::seed_from_u64(seed ^ 0x9a9e_c12c);
            let vdd_axis = pick_distinct(&mut rng, &VDD_CANDIDATES, GRID);
            let vt_axis = pick_distinct(&mut rng, &VT_CANDIDATES, GRID);
            let point = (vdd_axis[rng.below(GRID)], vt_axis[rng.below(GRID)]);
            let cmos_vdd = CMOS_VDD_CANDIDATES[rng.below(CMOS_VDD_CANDIDATES.len())];
            let mc_seed = MC_SEED_CANDIDATES[rng.below(MC_SEED_CANDIDATES.len())];
            PaperCircuits {
                lib,
                vdd_axis,
                vt_axis,
                gnrfet_points: vec![point],
                cmos_vdds: vec![cmos_vdd],
                mc_seeds: vec![mc_seed],
            }
        }
    };
    Ok(w)
}

fn row_outputs(r: &BenchRow) -> Vec<f64> {
    vec![r.frequency_hz, r.edp_js, r.snm_v]
}

/// The universe's per-cell figures, read from its `Debug` form (the cells
/// are not otherwise exposed): `[delay, static, dynamic, energy, snm]` per
/// cell, NaN for a dead cell.
fn universe_cells(debug: &str) -> Result<Vec<[f64; 5]>, String> {
    const FIELDS: [&str; 5] = [
        "delay_s: ",
        "static_w: ",
        "dynamic_w: ",
        "energy_j: ",
        "snm_v: ",
    ];
    let mut cells = Vec::new();
    for chunk in debug.split("InverterFigures {").skip(1) {
        let mut cell = [0.0; 5];
        for (k, field) in FIELDS.iter().enumerate() {
            let at = chunk
                .find(field)
                .ok_or_else(|| format!("universe cell lacks {field}"))?;
            let rest = &chunk[at + field.len()..];
            let end = rest.find([',', ' ', '}']).unwrap_or(rest.len());
            cell[k] = rest[..end]
                .parse()
                .map_err(|e| format!("universe cell {field}{}: {e}", &rest[..end]))?;
        }
        cells.push(cell);
    }
    Ok(cells)
}

impl Workload for PaperCircuits {
    fn pass(&mut self, ctx: &ExecCtx, tr: &Tracer, chk: &mut Checker) {
        // Fig. 3: the (V_DD, V_T) map.
        let n_points = (self.vdd_axis.len() * self.vt_axis.len()) as u64;
        let map = tr.span("core.design_space", || {
            design_space_map(ctx, &mut self.lib, &self.vdd_axis, &self.vt_axis, STAGES)
        });
        tr.span("bench.check", || match &map {
            Ok(map) => {
                for (i, &vdd) in self.vdd_axis.iter().enumerate() {
                    for (j, &vt) in self.vt_axis.iter().enumerate() {
                        let out: Vec<f64> = match map.at(i, j) {
                            Some(p) => {
                                vec![p.frequency_hz, p.edp_js, p.snm_v, p.static_w, p.dynamic_w]
                            }
                            None => Vec::new(),
                        };
                        let ok = chk.compare(&format!("dp/{vdd:.3}/{vt:.3}"), &out, CHECK_REL_TOL);
                        chk.unit(ok);
                    }
                }
            }
            Err(e) => chk.error("design_space_map", n_points, e),
        });

        // Table 1: ring rows by full 15-stage transient.
        for &(vdd, vt) in &self.gnrfet_points {
            let point = DesignPoint {
                vdd,
                vt,
                frequency_hz: 0.0,
                edp_js: 0.0,
                snm_v: 0.0,
                static_w: 0.0,
                dynamic_w: 0.0,
            };
            let row = tr.span("core.ring_rows", || {
                gnrfet_row(ctx, &mut self.lib, "GNRFET", &point, STAGES)
            });
            tr.span("bench.check", || match row {
                Ok(r) => {
                    let ok = chk.compare(
                        &format!("ring/gnrfet/{vdd:.3}/{vt:.3}"),
                        &row_outputs(&r),
                        CHECK_REL_TOL,
                    );
                    chk.unit(ok);
                }
                Err(e) => chk.error("gnrfet_row", 1, e),
            });
        }
        for &vdd in &self.cmos_vdds {
            let row = tr.span("core.ring_rows", || cmos_row(CmosNode::N22, vdd, STAGES));
            tr.span("bench.check", || match row {
                Ok(r) => {
                    let ok = chk.compare(
                        &format!("ring/cmos22/{vdd:.2}"),
                        &row_outputs(&r),
                        CHECK_REL_TOL,
                    );
                    chk.unit(ok);
                }
                Err(e) => chk.error("cmos_row", 1, e),
            });
        }

        // Fig. 6: stage universe, then Monte Carlo from it.
        let universe = tr.span("core.universe", || {
            characterize_stage_universe(ctx, &mut self.lib, STUDY_VDD, STAGES)
        });
        let universe = match universe {
            Ok(u) => u,
            Err(e) => {
                chk.error(
                    "characterize_stage_universe",
                    81 + self.mc_seeds.len() as u64,
                    e,
                );
                return self.latch(ctx, tr, chk);
            }
        };
        tr.span("bench.check", || {
            match universe_cells(&format!("{universe:?}")) {
                Ok(cells) if cells.len() == 81 => {
                    for (i, cell) in cells.iter().enumerate() {
                        let ok = chk.compare(
                            &format!("universe/{STUDY_VDD:.2}/cell{i}"),
                            cell,
                            CHECK_REL_TOL,
                        );
                        chk.unit(ok);
                    }
                }
                Ok(cells) => chk.error(
                    "characterize_stage_universe",
                    81,
                    format!("{} cells", cells.len()),
                ),
                Err(e) => chk.error("characterize_stage_universe", 81, e),
            }
        });
        for &seed in &self.mc_seeds {
            let mc = tr.span("core.mc", || {
                monte_carlo_from_universe(ctx, &universe, MC_SAMPLES, seed)
            });
            tr.span("bench.check", || {
                let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
                let out = [
                    mc.nominal_frequency_hz,
                    mc.nominal_dynamic_w,
                    mc.nominal_static_w,
                    mean(&mc.frequency_hz),
                    mean(&mc.dynamic_w),
                    mean(&mc.static_w),
                    mc.stalled_samples as f64,
                    mc.frequency_hz.len() as f64,
                ];
                let ok = chk.compare(&format!("mc/{STUDY_VDD:.2}/{seed}"), &out, CHECK_REL_TOL);
                chk.unit(ok);
            });
        }
        self.latch(ctx, tr, chk);
    }
}

impl PaperCircuits {
    /// Fig. 7: the three-case latch study.
    fn latch(&mut self, ctx: &ExecCtx, tr: &Tracer, chk: &mut Checker) {
        let study = tr.span("core.latch", || latch_study(ctx, &mut self.lib, STUDY_VDD));
        tr.span("bench.check", || match study {
            Ok(s) if s.cases.len() == 3 => {
                for (i, case) in s.cases.iter().enumerate() {
                    let out = [case.margins.upper_v, case.margins.lower_v, case.static_w];
                    let ok = chk.compare(
                        &format!("latch/{STUDY_VDD:.2}/case{i}"),
                        &out,
                        CHECK_REL_TOL,
                    );
                    chk.unit(ok);
                }
            }
            Ok(s) => chk.error("latch_study", 3, format!("{} cases", s.cases.len())),
            Err(e) => chk.error("latch_study", 3, e),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_debug_parses_including_dead_cells() {
        let text = "StageUniverse { figures: [InverterFigures { delay_s: 1.5e-11, static_w: 0.0, \
                    dynamic_w: 2.0, energy_j: 3.0, snm_v: 0.1 }, InverterFigures { delay_s: NaN, \
                    static_w: 0.0, dynamic_w: NaN, energy_j: NaN, snm_v: NaN }], stages: 15 }";
        let cells = universe_cells(text).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0], [1.5e-11, 0.0, 2.0, 3.0, 0.1]);
        assert!(cells[1][0].is_nan() && cells[1][1] == 0.0);
    }
}
