//! Circuit-zoo integration: the committed decks under `decks/zoo/` run as
//! real workloads — a 4-bit ripple-carry adder swept over its full truth
//! table, a 6T SRAM cell's butterfly SNM pinned to a golden value,
//! wide-fan-in NAND output-level ordering, fanout-tapered clock-chain
//! delays, and one deck's DC operating point written as a rawfile.

use gnrlab::num::budget::ExecLimits;
use gnrlab::num::par::ExecCtx;
use gnrlab::spice::dc::set_source_value;
use gnrlab::spice::measure::{propagation_delay, sram_butterfly_snm};
use gnrlab::spice::netlist::AnalysisCard;
use gnrlab::spice::{
    dc_operating_point, parse_deck, transient, DcOptions, ElaboratedDeck, ModelBindings,
    TransientOptions,
};

const VDD: f64 = 0.8;

fn elaborate(text: &str) -> ElaboratedDeck {
    parse_deck(text)
        .expect("parse deck")
        .elaborate(&ModelBindings::new())
        .expect("elaborate deck")
}

/// All 256 input combinations of the 4-bit ripple-carry adder compute
/// the right sum and carry, with warm-started DC sweeps (the previous
/// solution seeds the next combination).
#[test]
fn adder4_truth_table_sweep() {
    let elab = elaborate(include_str!("../decks/zoo/adder4.sp"));
    let mut circuit = elab.circuit.clone();
    let a_sources: Vec<usize> = (0..4)
        .map(|i| elab.source_index(&format!("va{i}")).expect("va source"))
        .collect();
    let b_sources: Vec<usize> = (0..4)
        .map(|i| elab.source_index(&format!("vb{i}")).expect("vb source"))
        .collect();
    let outs: Vec<_> = ["s0", "s1", "s2", "s3", "cout"]
        .iter()
        .map(|n| elab.node(n).expect("output node"))
        .collect();
    let mut warm: Option<Vec<f64>> = None;
    for a in 0..16u32 {
        for b in 0..16u32 {
            for i in 0..4 {
                let va = if a >> i & 1 == 1 { VDD } else { 0.0 };
                let vb = if b >> i & 1 == 1 { VDD } else { 0.0 };
                set_source_value(&mut circuit, a_sources[i], va).expect("set a");
                set_source_value(&mut circuit, b_sources[i], vb).expect("set b");
            }
            let x = dc_operating_point(
                &circuit,
                warm.as_deref(),
                DcOptions::default(),
                &ExecLimits::none(),
            )
            .unwrap_or_else(|e| panic!("a={a} b={b}: {e}"));
            let want = a + b;
            for (bit, node) in outs.iter().enumerate() {
                let v = circuit.voltage(&x, *node);
                let logic = v > VDD / 2.0;
                let expect = want >> bit & 1 == 1;
                assert_eq!(
                    logic, expect,
                    "a={a} b={b} bit {bit}: v={v:.4} (expect {expect})"
                );
                // Levels must be solid, not marginal.
                assert!(
                    if expect { v > 0.9 * VDD } else { v < 0.1 * VDD },
                    "a={a} b={b} bit {bit}: weak level {v:.4}"
                );
            }
            warm = Some(x);
        }
    }
}

/// The SRAM cell's hold-state butterfly SNM is pinned to a golden value.
/// The measurement chain (two forced half-VTCs through `transfer_curve`,
/// then the max-inscribed-square DP) is deterministic, so the tolerance
/// only absorbs cross-platform libm drift.
#[test]
fn sram6t_snm_matches_golden() {
    const GOLDEN_SNM_V: f64 = 0.29223744292237447;
    let elab = elaborate(include_str!("../decks/zoo/sram6t.sp"));
    let q = elab.node("q").expect("q node");
    let qb = elab.node("qb").expect("qb node");
    let margins = sram_butterfly_snm(&elab.circuit, q, qb, VDD, 41).expect("butterfly snm");
    let snm = margins.snm();
    assert!(
        (snm - GOLDEN_SNM_V).abs() < 1e-9,
        "snm {snm:.16} drifted from golden {GOLDEN_SNM_V:.16}"
    );
    // Sanity: a healthy hold cell keeps a sizeable fraction of VDD/2.
    assert!(
        snm > 0.2 * VDD && snm < 0.5 * VDD,
        "snm {snm:.4} out of range"
    );
}

/// V_OL degrades monotonically with n-stack depth: the 8-input NAND
/// sits above the 4-input, which sits above the 2-input — and all stay
/// well below the logic threshold.
#[test]
fn nand_tree_output_low_ordering() {
    let vol: Vec<f64> = [
        include_str!("../decks/zoo/nand2.sp"),
        include_str!("../decks/zoo/nand4.sp"),
        include_str!("../decks/zoo/nand8.sp"),
    ]
    .iter()
    .map(|text| {
        let elab = elaborate(text);
        let x = dc_operating_point(
            &elab.circuit,
            None,
            DcOptions::default(),
            &ExecLimits::none(),
        )
        .expect("nand dc");
        elab.circuit.voltage(&x, elab.node("out").expect("out"))
    })
    .collect();
    assert!(
        vol[0] < vol[1] && vol[1] < vol[2],
        "V_OL must grow with stack depth: {vol:?}"
    );
    assert!(vol[2] < 0.05 * VDD, "nand8 V_OL too high: {:.4}", vol[2]);
}

/// Clock-chain propagation delay grows monotonically with the fanout
/// taper factor; the transient runs straight off each deck's `.tran`
/// card.
#[test]
fn clock_chain_delay_monotone_in_fanout() {
    let ctx = ExecCtx::from_env();
    let mut delays = Vec::new();
    for text in [
        include_str!("../decks/zoo/clock_f2.sp"),
        include_str!("../decks/zoo/clock_f3.sp"),
        include_str!("../decks/zoo/clock_f4.sp"),
    ] {
        let elab = elaborate(text);
        let (dt, t_stop) = elab
            .analyses
            .iter()
            .find_map(|a| match a {
                AnalysisCard::Tran { dt, t_stop } => Some((*dt, *t_stop)),
                _ => None,
            })
            .expect("deck has a .tran card");
        let (result, _) = transient(&ctx, &elab.circuit, &TransientOptions::new(t_stop, dt))
            .expect("clock transient");
        let vin = result.voltage(&elab.circuit, elab.node("in").expect("in"));
        let vout = result.voltage(&elab.circuit, elab.node("out").expect("out"));
        let delay = propagation_delay(result.times(), &vin, &vout, VDD / 2.0, true, true)
            .expect("chain delay");
        assert!(delay > 0.0 && delay < 1e-9, "implausible delay {delay:.3e}");
        delays.push(delay);
    }
    assert!(
        delays[0] < delays[1] && delays[1] < delays[2],
        "delay must grow with fanout taper: {delays:?}"
    );
}

/// A zoo deck runs parse → elaborate → DC operating point → rawfile (the
/// `gnr-spice dc` path) and yields a well-formed rawfile with in-range,
/// symmetric SRAM storage-node levels.
#[test]
fn sram_deck_dc_operating_point_rawfile() {
    let elab = elaborate(include_str!("../decks/zoo/sram6t.sp"));
    let x = dc_operating_point(
        &elab.circuit,
        None,
        DcOptions::default(),
        &ExecLimits::none(),
    )
    .expect("deck DC operating point");
    let raw = gnrlab::spice::rawfile::dc_rawfile(&elab, &x);
    let vars = raw
        .get("variables")
        .and_then(|v| v.as_array())
        .expect("variables");
    let names: Vec<&str> = vars
        .iter()
        .filter_map(|v| v.get("name").and_then(|n| n.as_str()))
        .collect();
    let iq = names
        .iter()
        .position(|n| *n == "v(q)")
        .expect("v(q) variable");
    let iqb = names
        .iter()
        .position(|n| *n == "v(qb)")
        .expect("v(qb) variable");
    let points = raw
        .get("points")
        .and_then(|p| p.as_array())
        .expect("points");
    let point = points[0].as_array().expect("point row");
    let vq = point[iq].as_f64().expect("v(q) value");
    let vqb = point[iqb].as_f64().expect("v(qb) value");
    // An unbiased cold-start DC on the symmetric cross-coupled pair finds
    // the metastable point: both storage nodes in-range and (by symmetry)
    // equal. The bistable states are exercised by the forced butterfly
    // measurement in `sram6t_snm_matches_golden`.
    for (name, v) in [("v(q)", vq), ("v(qb)", vqb)] {
        assert!(
            v.is_finite() && (-0.01..=VDD + 0.01).contains(&v),
            "{name} out of range: {v:?}"
        );
    }
    assert!(
        (vq - vqb).abs() < 1e-6,
        "symmetric cell must solve symmetrically: {vq:?} vs {vqb:?}"
    );
    assert_eq!(
        raw.get("format").and_then(|f| f.as_str()),
        Some("gnr-rawfile/v1"),
        "rawfile format tag"
    );
}
