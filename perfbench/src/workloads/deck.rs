//! `deck_logic`: the `gnr-spice` deck path at scale.
//!
//! Each pass parses and elaborates generated NAND-only ripple-carry adder
//! decks (32 and 64 bits) and a 64-input NAND tree, then solves
//! `dc_operating_point` over chains of operand vectors, warm-starting each
//! solve from the previous one in its chain, and checks every output bit
//! against integer (or boolean) arithmetic with solid logic levels. A unit
//! is one DC vector.
//!
//! The workload seed picks one chain per deck from a committed candidate
//! set; a chain's first vector starts cold, so its solutions do not depend
//! on which chains ran before and every candidate has a reference.

use super::{Inputs, Workload, CHECK_REL_TOL};
use crate::check::Checker;
use crate::trace::Tracer;
use gnr_num::budget::ExecLimits;
use gnr_num::par::ExecCtx;
use gnr_num::Rng;
use gnr_spice::dc::set_source_value;
use gnr_spice::{dc_operating_point, parse_deck, DcOptions, ElaboratedDeck, ModelBindings};

const VDD: f64 = 0.8;
/// Candidate operand chains per deck.
const CHAINS: u64 = 16;

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Ripple-carry adder of nine-NAND full adders.
    Adder { bits: usize },
    /// Balanced tree of 2-input NANDs reducing `width` inputs to one.
    NandTree { width: usize },
}

/// Decks per pass and the number of vectors in each of their chains.
const DECKS: [(Shape, usize); 3] = [
    (Shape::Adder { bits: 32 }, 4),
    (Shape::Adder { bits: 64 }, 3),
    (Shape::NandTree { width: 64 }, 4),
];

const NAND2_SUBCKT: &str = ".subckt nand2 a b out vdd\n\
    mn1 out a mid nmos\nmn2 mid b 0 nmos\n\
    mp1 out a vdd pmos\nmp2 out b vdd pmos\n\
    cl out 0 5e-17\n.ends\n";

impl Shape {
    fn name(&self) -> String {
        match self {
            Shape::Adder { bits } => format!("adder{bits}"),
            Shape::NandTree { width } => format!("nandtree{width}"),
        }
    }

    fn deck(&self) -> String {
        let mut d = format!("* {}: generated nand-only netlist\n", self.name());
        d.push_str(".model nmos surrogate polarity=n\n.model pmos surrogate polarity=p\n");
        d.push_str(NAND2_SUBCKT);
        d.push_str(&format!("vdd vdd 0 dc {VDD}\n"));
        match *self {
            Shape::Adder { bits } => {
                d.push_str(
                    ".subckt fa a b cin sum cout vdd\n\
                     x1 a b n1 vdd nand2\nx2 a n1 n2 vdd nand2\nx3 b n1 n3 vdd nand2\n\
                     x4 n2 n3 hx vdd nand2\nx5 hx cin n4 vdd nand2\nx6 hx n4 n5 vdd nand2\n\
                     x7 cin n4 n6 vdd nand2\nx8 n5 n6 sum vdd nand2\nx9 n1 n4 cout vdd nand2\n\
                     .ends\n",
                );
                for i in 0..bits {
                    d.push_str(&format!("va{i} a{i} 0 dc 0\nvb{i} b{i} 0 dc 0\n"));
                }
                d.push_str("vcin c0 0 dc 0\n");
                for i in 0..bits {
                    d.push_str(&format!("xfa{i} a{i} b{i} c{i} s{i} c{} vdd fa\n", i + 1));
                }
            }
            Shape::NandTree { width } => {
                for j in 0..width {
                    d.push_str(&format!("vi{j} l0_{j} 0 dc 0\n"));
                }
                let (mut level, mut w) = (0, width);
                while w > 1 {
                    for j in 0..w / 2 {
                        d.push_str(&format!(
                            "x{level}_{j} l{level}_{a} l{level}_{b} l{next}_{j} vdd nand2\n",
                            a = 2 * j,
                            b = 2 * j + 1,
                            next = level + 1
                        ));
                    }
                    level += 1;
                    w /= 2;
                }
            }
        }
        d.push_str(".op\n.end\n");
        d
    }

    /// Input sources in the order of [`Shape::vector_levels`].
    fn input_sources(&self) -> Vec<String> {
        match *self {
            Shape::Adder { bits } => (0..bits)
                .map(|i| format!("va{i}"))
                .chain((0..bits).map(|i| format!("vb{i}")))
                .chain(std::iter::once("vcin".to_string()))
                .collect(),
            Shape::NandTree { width } => (0..width).map(|j| format!("vi{j}")).collect(),
        }
    }

    /// Output nodes with the logic value each must take for `inputs`.
    fn expected_outputs(&self, inputs: &[bool]) -> Vec<(String, bool)> {
        match *self {
            Shape::Adder { bits } => {
                let word = |bits_in: &[bool]| -> u128 {
                    bits_in
                        .iter()
                        .enumerate()
                        .map(|(i, &b)| u128::from(b) << i)
                        .sum()
                };
                let a = word(&inputs[..bits]);
                let b = word(&inputs[bits..2 * bits]);
                let sum = a + b + u128::from(inputs[2 * bits]);
                (0..bits)
                    .map(|i| (format!("s{i}"), sum >> i & 1 == 1))
                    .chain(std::iter::once((format!("c{bits}"), sum >> bits & 1 == 1)))
                    .collect()
            }
            Shape::NandTree { .. } => {
                let mut out = Vec::new();
                let mut level_vals = inputs.to_vec();
                let mut level = 0;
                while level_vals.len() > 1 {
                    level += 1;
                    level_vals = level_vals.chunks(2).map(|p| !(p[0] && p[1])).collect();
                    for (j, &v) in level_vals.iter().enumerate() {
                        out.push((format!("l{level}_{j}"), v));
                    }
                }
                out
            }
        }
    }

    /// The input bits of every vector of candidate chain `chain`.
    fn chain_vectors(&self, deck_index: usize, chain: u64, len: usize) -> Vec<Vec<bool>> {
        let mut rng = Rng::seed_from_u64(0xadd0_0000 + 1000 * deck_index as u64 + chain);
        let n = self.input_sources().len();
        (0..len)
            .map(|_| {
                (0..n)
                    .map(|_| match self {
                        // Mostly-high inputs keep the tree's outputs mixed.
                        Shape::NandTree { .. } => rng.uniform() < 0.8,
                        Shape::Adder { .. } => rng.next_u64() & 1 == 1,
                    })
                    .collect()
            })
            .collect()
    }
}

struct DeckCase {
    shape: Shape,
    text: String,
    /// (candidate chain id, its vectors)
    chains: Vec<(u64, Vec<Vec<bool>>)>,
}

pub struct DeckLogic {
    decks: Vec<DeckCase>,
}

fn elaborate(text: &str, tr: &Tracer) -> Result<ElaboratedDeck, String> {
    let deck = tr
        .span("spice.netlist.parse", || parse_deck(text))
        .map_err(|e| format!("parse: {e}"))?;
    tr.span("spice.netlist.elaborate", || {
        deck.elaborate(&ModelBindings::new())
    })
    .map_err(|e| format!("elaborate: {e}"))
}

/// Generates the decks and parses and elaborates each once.
pub fn setup(inputs: Inputs, tr: &Tracer) -> Result<DeckLogic, String> {
    let mut rng = match inputs {
        Inputs::Seeded(seed) => Some(Rng::seed_from_u64(seed ^ 0xdec0_10c1)),
        Inputs::AllCandidates => None,
    };
    let mut decks = Vec::new();
    for (index, &(shape, len)) in DECKS.iter().enumerate() {
        let text = shape.deck();
        elaborate(&text, tr).map_err(|e| format!("{}: {e}", shape.name()))?;
        let chain_ids: Vec<u64> = match rng.as_mut() {
            Some(rng) => vec![rng.below(CHAINS as usize) as u64],
            None => (0..CHAINS).collect(),
        };
        let chains = chain_ids
            .into_iter()
            .map(|c| (c, shape.chain_vectors(index, c, len)))
            .collect();
        decks.push(DeckCase {
            shape,
            text,
            chains,
        });
    }
    Ok(DeckLogic { decks })
}

impl DeckCase {
    fn run(&self, tr: &Tracer, chk: &mut Checker) {
        let name = self.shape.name();
        let vectors: u64 = self.chains.iter().map(|(_, v)| v.len() as u64).sum();
        let elab = match elaborate(&self.text, tr) {
            Ok(e) => e,
            Err(e) => return chk.error(&name, vectors, e),
        };
        let sources: Option<Vec<usize>> = self
            .shape
            .input_sources()
            .iter()
            .map(|s| elab.source_index(s))
            .collect();
        let Some(sources) = sources else {
            return chk.error(&name, vectors, "input source missing after elaboration");
        };
        let mut circuit = elab.circuit.clone();
        for (chain, inputs) in &self.chains {
            let mut warm: Option<Vec<f64>> = None;
            for (k, bits) in inputs.iter().enumerate() {
                let solved = tr.span("spice.dc", || {
                    for (&src, &high) in sources.iter().zip(bits) {
                        set_source_value(&mut circuit, src, if high { VDD } else { 0.0 })?;
                    }
                    dc_operating_point(
                        &circuit,
                        warm.as_deref(),
                        DcOptions::default(),
                        &ExecLimits::none(),
                    )
                });
                let key = format!("{name}/chain{chain}/v{k}");
                match solved {
                    Ok(x) => {
                        tr.span("bench.check", || {
                            let ok = check_vector(&self.shape, &elab, &x, bits, &key, chk);
                            chk.unit(ok);
                        });
                        warm = Some(x);
                    }
                    Err(e) => {
                        chk.error(&key, 1, e);
                        warm = None;
                    }
                }
            }
        }
    }
}

/// Every output bit against arithmetic, with solid levels (> 0.9·V_DD or
/// < 0.1·V_DD), and the output voltages against their references.
fn check_vector(
    shape: &Shape,
    elab: &ElaboratedDeck,
    x: &[f64],
    bits: &[bool],
    key: &str,
    chk: &mut Checker,
) -> bool {
    let mut ok = true;
    let mut volts = Vec::new();
    for (node, want) in shape.expected_outputs(bits) {
        let Some(id) = elab.node(&node) else {
            chk.fail_check(format!("{key}: node {node} missing"));
            return false;
        };
        let v = elab.circuit.voltage(x, id);
        volts.push(v);
        let solid = if want { v > 0.9 * VDD } else { v < 0.1 * VDD };
        if !solid {
            if ok {
                chk.fail_check(format!("{key}: {node} = {v:.4} V, expected logic {want}"));
            }
            ok = false;
        }
    }
    chk.compare(key, &volts, CHECK_REL_TOL) && ok
}

impl Workload for DeckLogic {
    fn pass(&mut self, _ctx: &ExecCtx, tr: &Tracer, chk: &mut Checker) {
        for deck in &self.decks {
            deck.run(tr, chk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_expectation_is_integer_addition() {
        let shape = Shape::Adder { bits: 4 };
        // a = 0b1011 (11), b = 0b0110 (6), cin = 1: 18 = 0b1_0010.
        let bits = [true, true, false, true, false, true, true, false, true];
        let got: Vec<bool> = shape
            .expected_outputs(&bits)
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        assert_eq!(got, vec![false, true, false, false, true]);
    }

    #[test]
    fn tree_expectation_is_nand_of_pairs() {
        let shape = Shape::NandTree { width: 4 };
        let outs = shape.expected_outputs(&[true, true, false, true]);
        assert_eq!(
            outs,
            vec![
                ("l1_0".to_string(), false),
                ("l1_1".to_string(), true),
                ("l2_0".to_string(), true)
            ]
        );
    }
}
