//! Static profile estimation — the alternative to training runs that
//! the paper points at ("These estimates can be obtained through
//! profiling or through static analyses, which have been demonstrated
//! to be also very accurate \[28\]" — Wu & Larus).
//!
//! A simplified Wu–Larus estimator: branch probabilities come from
//! structural heuristics (back edges are taken, loop exits are not),
//! and block frequencies are obtained by propagating the entry
//! frequency through the CFG to a fixpoint (geometric convergence,
//! since every cycle's probability product is below 1).

use crate::dom::Dominators;
use crate::function::Function;
use crate::profile::Profile;
use crate::types::BlockId;

/// Probability (×1000) that a branch takes its back edge each visit
/// (i.e. an expected trip count of ~9 per entry).
const LOOP_BACK_PROB: f64 = 0.9;
/// Probability for either arm of an unbiased branch.
const EVEN_PROB: f64 = 0.5;
/// Scale factor from (fractional) frequencies to integer counts.
const SCALE: f64 = 1000.0;

/// Estimates an edge [`Profile`] for `f` without executing it.
///
/// The result plugs in anywhere a trained profile does; partition
/// quality and COCO's placements degrade gracefully with estimate
/// error, and correctness never depends on the weights.
///
/// ```
/// use gmt_ir::{FunctionBuilder, estimate_profile};
///
/// # fn main() -> Result<(), gmt_ir::VerifyError> {
/// let mut b = FunctionBuilder::new("f");
/// let x = b.param();
/// b.ret(Some(x.into()));
/// let f = b.finish()?;
/// let profile = estimate_profile(&f);
/// assert!(profile.block_weight(&f, f.entry()) > 0);
/// # Ok(())
/// # }
/// ```
pub fn estimate_profile(f: &Function) -> Profile {
    let dom = Dominators::compute(f);
    let loops = crate::loops::LoopForest::compute(f, &dom);
    let n = f.num_blocks();

    // Whether the edge `b -> s` stays inside b's innermost loop.
    let stays_in_loop = |b: BlockId, s: BlockId| -> bool {
        let Some(li) = loops.innermost[b.index()] else { return false };
        loops.loops[li].contains(s)
    };

    // Edge probabilities by heuristic: the arm that keeps executing
    // b's innermost loop is strongly taken (the loop heuristic of Wu &
    // Larus); otherwise the arms are even.
    let mut edges: Vec<(BlockId, BlockId, f64)> = Vec::new();
    for b in f.blocks() {
        let succs = f.successors(b);
        match succs.len() {
            0 => {}
            1 => edges.push((b, succs[0], 1.0)),
            _ => {
                let inside: Vec<bool> = succs.iter().map(|&s| stays_in_loop(b, s)).collect();
                if inside.iter().any(|&x| x) && !inside.iter().all(|&x| x) {
                    for (k, &s) in succs.iter().enumerate() {
                        let p = if inside[k] { LOOP_BACK_PROB } else { 1.0 - LOOP_BACK_PROB };
                        edges.push((b, s, p));
                    }
                } else {
                    for s in succs {
                        edges.push((b, s, EVEN_PROB));
                    }
                }
            }
        }
    }

    // Propagate block frequencies to a fixpoint.
    let mut freq = vec![0.0f64; n];
    let order = f.reverse_post_order();
    for _ in 0..200 {
        let mut next = vec![0.0f64; n];
        next[f.entry().index()] = 1.0;
        for &(from, to, p) in &edges {
            next[to.index()] += freq[from.index()] * p;
        }
        // Entry keeps its external inflow.
        next[f.entry().index()] = 1.0
            + edges
                .iter()
                .filter(|&&(_, to, _)| to == f.entry())
                .map(|&(from, _, p)| freq[from.index()] * p)
                .sum::<f64>();
        let delta: f64 = order
            .iter()
            .map(|b| (next[b.index()] - freq[b.index()]).abs())
            .sum();
        freq = next;
        if delta < 1e-9 {
            break;
        }
    }

    let mut profile = Profile::new();
    profile.set_entries(SCALE as u64);
    let mut weights: std::collections::HashMap<(BlockId, BlockId), u64> =
        std::collections::HashMap::new();
    for &(from, to, p) in &edges {
        let w = (freq[from.index()] * p * SCALE).round() as u64;
        *weights.entry((from, to)).or_insert(0) += w;
    }
    for ((from, to), w) in weights {
        profile.set_edge(from, to, w);
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::BinOp;

    /// Counted loop: the estimator should weight the body ~9x the exit.
    #[test]
    fn loop_body_heavily_weighted() {
        let mut b = FunctionBuilder::new("l");
        let n = b.param();
        let i = b.fresh_reg();
        let h = b.block("h");
        let body = b.block("body");
        let exit = b.block("exit");
        b.const_into(i, 0);
        b.jump(h);
        b.switch_to(h);
        let c = b.bin(BinOp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        b.bin_into(BinOp::Add, i, i, 1i64);
        b.jump(h);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish().unwrap();
        let p = estimate_profile(&f);
        let body_w = p.block_weight(&f, BlockId(2));
        let exit_w = p.block_weight(&f, BlockId(3));
        assert!(
            body_w > exit_w * 5,
            "body {body_w} should dwarf exit {exit_w}"
        );
    }

    /// Diamond: both arms get roughly half the entry weight.
    #[test]
    fn diamond_splits_evenly() {
        let mut b = FunctionBuilder::new("d");
        let x = b.param();
        let t = b.block("t");
        let e = b.block("e");
        let j = b.block("j");
        let c = b.bin(BinOp::Lt, x, 3i64);
        b.branch(c, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        let f = b.finish().unwrap();
        let p = estimate_profile(&f);
        let wt = p.block_weight(&f, BlockId(1));
        let we = p.block_weight(&f, BlockId(2));
        assert_eq!(wt, we);
        assert!(wt > 0);
        // The join gets everything back.
        assert_eq!(p.block_weight(&f, BlockId(3)), wt + we);
    }

    /// Nested loops multiply: the inner body is the hottest block.
    #[test]
    fn nesting_compounds() {
        let mut b = FunctionBuilder::new("n");
        let n = b.param();
        let i = b.fresh_reg();
        let j = b.fresh_reg();
        let h1 = b.block("h1");
        let h2 = b.block("h2");
        let b2 = b.block("b2");
        let a1 = b.block("a1");
        let exit = b.block("exit");
        b.const_into(i, 0);
        b.jump(h1);
        b.switch_to(h1);
        let c1 = b.bin(BinOp::Lt, i, n);
        b.branch(c1, h2, exit);
        b.switch_to(h2);
        b.const_into(j, 0);
        b.jump(b2);
        b.switch_to(b2);
        b.bin_into(BinOp::Add, j, j, 1i64);
        let c2 = b.bin(BinOp::Lt, j, n);
        b.branch(c2, b2, a1);
        b.switch_to(a1);
        b.bin_into(BinOp::Add, i, i, 1i64);
        b.jump(h1);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish().unwrap();
        let p = estimate_profile(&f);
        let weights = p.block_weights(&f);
        let inner = weights[BlockId(3).index()];
        assert_eq!(
            weights.iter().copied().max().unwrap(),
            inner,
            "inner body must be hottest: {weights:?}"
        );
    }
}
