//! Seeded input generation. Everything a workload feeds the program is
//! built here from `--seed`; the same seed gives the same inputs.

use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::uniquify::uniquify_into;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Free variable wrapped around every absent probe. No generated corpus
/// term mentions it, so no such probe can be present in any store.
pub const ABSENT_MARKER: &str = "absent_probe";

/// A generator seeded from the run seed, an input stream tag and an
/// index, so that each stream and element is independent of the others.
pub fn rng(seed: u64, stream: u64, index: u64) -> StdRng {
    let mut x = seed
        ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)
        ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(x ^ (x >> 31))
}

/// Term shapes of one workload's corpus.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// The store corpus: 10, 25, 40 or 55 nodes.
    Small,
    /// Program-sized terms of 150 to 450 nodes.
    Program,
}

/// Input stream tags.
const CLASS_STREAM: u64 = 1;
const ORDER_STREAM: u64 = 2;
const PROBE_STREAM: u64 = 3;

/// Builds the representative of generated class `class` into `arena`:
/// balanced, arithmetic or unbalanced (deep-spine) by class, with a size
/// drawn from `shape`.
pub fn class_term(arena: &mut ExprArena, seed: u64, class: u64, shape: Shape) -> NodeId {
    let mut rng = rng(seed, CLASS_STREAM, class);
    let size = match shape {
        Shape::Small => 10 + (class as usize % 4) * 15,
        // Sizes are stratified, not drawn: every family gets the same
        // spread of sizes whatever the seed, so the corpus's cost (the
        // deep spines' is quadratic in size) does not swing with it.
        Shape::Program => 150 + (class as usize / 3 * 97) % 301,
    };
    match class % 3 {
        0 => expr_gen::balanced(arena, size, &mut rng),
        1 => expr_gen::arithmetic(arena, size, &mut rng),
        _ => expr_gen::unbalanced(arena, size, &mut rng),
    }
}

/// A duplicate-heavy corpus in one client arena.
pub struct Corpus {
    /// The arena every corpus term lives in.
    pub arena: ExprArena,
    /// The terms, in ingest order.
    pub roots: Vec<NodeId>,
    /// The generated class of each term.
    pub class: Vec<u64>,
    /// Number of generated classes.
    pub classes: u64,
    /// Total nodes over all terms.
    pub nodes: u64,
}

impl Corpus {
    /// `classes × copies` terms: every class appears `copies` times,
    /// every other copy alpha-renamed, in a seeded shuffled order.
    pub fn generate(seed: u64, classes: u64, copies: u64, shape: Shape) -> Corpus {
        let mut rep_arena = ExprArena::new();
        let reps: Vec<NodeId> = (0..classes)
            .map(|c| class_term(&mut rep_arena, seed, c, shape))
            .collect();
        let mut order: Vec<(u64, u64)> = (0..copies)
            .flat_map(|k| (0..classes).map(move |c| (c, k)))
            .collect();
        let mut shuffle = rng(seed, ORDER_STREAM, 0);
        for i in (1..order.len()).rev() {
            order.swap(i, shuffle.random_range(0..=i));
        }
        let mut roots = Vec::with_capacity(order.len());
        let mut class = Vec::with_capacity(order.len());
        let mut nodes = 0u64;
        let mut arena = ExprArena::new();
        for (c, k) in order {
            let rep = reps[c as usize];
            let root = if k % 2 == 0 {
                uniquify_into(&rep_arena, rep, &mut arena)
            } else {
                arena.import_subtree(&rep_arena, rep)
            };
            nodes += arena.subtree_size(root) as u64;
            roots.push(root);
            class.push(c);
        }
        Corpus {
            arena,
            roots,
            class,
            classes,
            nodes,
        }
    }

    /// The position of the first corpus term of each generated class.
    pub fn first_of_class(&self) -> Vec<usize> {
        let mut first = vec![usize::MAX; self.classes as usize];
        for (i, &c) in self.class.iter().enumerate().rev() {
            first[c as usize] = i;
        }
        first
    }
}

/// Probe terms in one shared query arena, each labelled with the corpus
/// term it is an alpha-renamed copy of, or `None` when it is absent.
pub struct Probes {
    /// The shared query arena.
    pub arena: ExprArena,
    /// The probe terms.
    pub roots: Vec<NodeId>,
    /// For a present probe, the index of the corpus term it copies.
    pub expect: Vec<Option<usize>>,
}

impl Probes {
    /// `count` probes; every `absent_every`-th one is absent, the rest
    /// are alpha-renamed copies of corpus terms drawn without replacement
    /// (with replacement once the corpus is used up).
    pub fn generate(
        seed: u64,
        corpus: &Corpus,
        count: usize,
        absent_every: usize,
        shape: Shape,
    ) -> Probes {
        let mut arena = ExprArena::new();
        let mut roots = Vec::with_capacity(count);
        let mut expect = Vec::with_capacity(count);
        let mut draw = rng(seed, PROBE_STREAM, 0);
        let mut pool: Vec<usize> = Vec::new();
        for i in 0..count {
            if i % absent_every == absent_every - 1 {
                roots.push(absent_term(&mut arena, seed, i as u64, shape));
                expect.push(None);
            } else {
                if pool.is_empty() {
                    pool = (0..corpus.roots.len()).collect();
                }
                let t = pool.swap_remove(draw.random_range(0..pool.len()));
                roots.push(uniquify_into(&corpus.arena, corpus.roots[t], &mut arena));
                expect.push(Some(t));
            }
        }
        Probes {
            arena,
            roots,
            expect,
        }
    }
}

/// A term no corpus contains: a fresh generated term applied to the
/// [`ABSENT_MARKER`] free variable.
pub fn absent_term(arena: &mut ExprArena, seed: u64, index: u64, shape: Shape) -> NodeId {
    let body = class_term(arena, seed ^ 0x00AB_5E17, u64::MAX / 2 + index, shape);
    let marker = arena.var_named(ABSENT_MARKER);
    arena.app(marker, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_corpus() {
        let a = Corpus::generate(7, 20, 3, Shape::Small);
        let b = Corpus::generate(7, 20, 3, Shape::Small);
        assert_eq!(a.class, b.class);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.roots.len(), 60);
        let c = Corpus::generate(8, 20, 3, Shape::Small);
        assert_ne!(a.class, c.class);
    }
}
