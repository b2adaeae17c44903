//! The benchmark's own AIG evaluator.
//!
//! It shares nothing with `sec-sim`: it walks the `sec_netlist::Aig`
//! node list directly, 64 input sequences at a time (one per bit of a
//! `u64`), so a verdict from the engines is checked against a
//! computation made apart from them.

use sec_netlist::{Aig, Lit, Node};

/// SplitMix64: a small, fixed pseudo-random stream for input vectors.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// 64 lanes of one circuit's state, stepped frame by frame.
struct Lanes<'a> {
    aig: &'a Aig,
    vals: Vec<u64>,
    state: Vec<u64>,
}

impl<'a> Lanes<'a> {
    fn new(aig: &'a Aig) -> Lanes<'a> {
        let state = aig
            .latches()
            .iter()
            .map(|&l| if aig.latch_init(l) { !0 } else { 0 })
            .collect();
        Lanes {
            aig,
            vals: vec![0; aig.num_nodes()],
            state,
        }
    }

    fn lit(&self, l: Lit) -> u64 {
        let v = self.vals[l.var().index()];
        if l.is_complemented() {
            !v
        } else {
            v
        }
    }

    /// Evaluates one frame under `inputs` (one word per primary input),
    /// returns the output words and advances the state.
    fn step(&mut self, inputs: &[u64]) -> Vec<u64> {
        let aig = self.aig;
        for v in aig.vars() {
            let value = match aig.node(v) {
                Node::Const => 0,
                Node::Input { index } => inputs[*index as usize],
                Node::Latch { index, .. } => self.state[*index as usize],
                Node::And { a, b } => self.lit(*a) & self.lit(*b),
            };
            self.vals[v.index()] = value;
        }
        let outs = aig.outputs().iter().map(|o| self.lit(o.lit)).collect();
        for (i, &l) in aig.latches().iter().enumerate() {
            let next = aig.latch_next(l).expect("every latch is driven");
            self.state[i] = self.lit(next);
        }
        outs
    }
}

/// Runs `spec` and `imp` in lockstep on 64 seeded random input
/// sequences of `frames` frames (inputs are paired by position, as the
/// product machine pairs them). Returns the first frame at which some
/// output pair differs in some lane.
pub fn first_mismatch(spec: &Aig, imp: &Aig, frames: usize, seed: u64) -> Option<usize> {
    assert_eq!(spec.num_inputs(), imp.num_inputs(), "input count");
    assert_eq!(spec.num_outputs(), imp.num_outputs(), "output count");
    let mut rng = SplitMix::new(seed);
    let (mut a, mut b) = (Lanes::new(spec), Lanes::new(imp));
    for frame in 0..frames {
        let inputs: Vec<u64> = (0..spec.num_inputs()).map(|_| rng.next_u64()).collect();
        let (oa, ob) = (a.step(&inputs), b.step(&inputs));
        if oa.iter().zip(&ob).any(|(x, y)| x != y) {
            return Some(frame);
        }
    }
    None
}

/// The lanes (bits) of 64 seeded random input sequences of `frames`
/// frames on which some output pair of `spec` and `imp` differs at
/// some frame.
pub fn mismatching_lanes(spec: &Aig, imp: &Aig, frames: usize, seed: u64) -> u64 {
    let mut rng = SplitMix::new(seed);
    let (mut a, mut b) = (Lanes::new(spec), Lanes::new(imp));
    let mut lanes = 0u64;
    for _ in 0..frames {
        let inputs: Vec<u64> = (0..spec.num_inputs()).map(|_| rng.next_u64()).collect();
        let (oa, ob) = (a.step(&inputs), b.step(&inputs));
        lanes |= oa.iter().zip(&ob).fold(0, |acc, (x, y)| acc | (x ^ y));
    }
    lanes
}

/// Whether one input trace (`frames[t][input]`, applied from the
/// initial state) makes some output pair of `spec` and `imp` differ:
/// the replay a counterexample must pass.
pub fn trace_shows_mismatch(spec: &Aig, imp: &Aig, frames: &[Vec<bool>]) -> bool {
    if spec.num_inputs() != imp.num_inputs() || spec.num_outputs() != imp.num_outputs() {
        return false;
    }
    let (mut a, mut b) = (Lanes::new(spec), Lanes::new(imp));
    for frame in frames {
        if frame.len() != spec.num_inputs() {
            return false;
        }
        let inputs: Vec<u64> = frame.iter().map(|&x| if x { !0 } else { 0 }).collect();
        if a.step(&inputs) != b.step(&inputs) {
            return true;
        }
    }
    false
}

/// Parses the `cex` field of a `serve.result` line: frames separated
/// by `,`, one `0`/`1` character per primary input.
pub fn parse_cex(text: &str) -> Option<Vec<Vec<bool>>> {
    text.split(',')
        .map(|f| {
            f.chars()
                .map(|c| match c {
                    '0' => Some(false),
                    '1' => Some(true),
                    _ => None,
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_synth::{mutate, Mutation};

    /// A 3-bit binary counter with an enable input, outputs = the bits.
    fn counter3() -> Aig {
        let mut aig = Aig::new();
        let en = aig.add_input("en").lit();
        let q: Vec<_> = (0..3).map(|_| aig.add_latch(false)).collect();
        let mut carry = en;
        for &l in &q {
            let bit = l.lit();
            let next = aig.xor(bit, carry);
            carry = aig.and(bit, carry);
            aig.set_latch_next(l, next);
        }
        for (i, &l) in q.iter().enumerate() {
            aig.add_output(l.lit(), format!("q{i}"));
        }
        aig
    }

    /// Output bits of one lane over `frames` frames with enable held.
    fn count(aig: &Aig, enable: bool, frames: usize) -> Vec<u64> {
        let mut lanes = Lanes::new(aig);
        (0..frames)
            .map(|_| {
                let outs = lanes.step(&[if enable { !0 } else { 0 }]);
                outs.iter()
                    .enumerate()
                    .map(|(i, w)| (w & 1) << i)
                    .sum::<u64>()
            })
            .collect()
    }

    #[test]
    fn hand_built_counter_counts() {
        let aig = counter3();
        assert_eq!(count(&aig, true, 10), vec![0, 1, 2, 3, 4, 5, 6, 7, 0, 1]);
        assert_eq!(count(&aig, false, 4), vec![0, 0, 0, 0]);
        assert_eq!(first_mismatch(&aig, &aig, 32, 7), None);
    }

    #[test]
    fn known_mutation_is_exposed_and_its_trace_replays() {
        let spec = counter3();
        // The top bit's next state inverted: visible once en toggles.
        let bad = mutate(&spec, Mutation::InvertNext(2));
        assert!(first_mismatch(&spec, &bad, 8, 1).is_some());
        let trace = vec![vec![true]; 2];
        assert!(trace_shows_mismatch(&spec, &bad, &trace));
        // An initial-value flip shows at frame 0 under any input.
        let flipped = mutate(&spec, Mutation::FlipInit(0));
        assert_eq!(first_mismatch(&spec, &flipped, 4, 9), Some(0));
        // A trace on the unmutated pair never shows a mismatch.
        assert!(!trace_shows_mismatch(&spec, &spec, &trace));
    }

    #[test]
    fn cex_text_parses() {
        assert_eq!(
            parse_cex("10,01"),
            Some(vec![vec![true, false], vec![false, true]])
        );
        assert_eq!(parse_cex("1x"), None);
    }
}
