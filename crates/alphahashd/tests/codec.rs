//! The term codec against a reference encoder and against damaged input.
//!
//! `put_term` must emit exactly the bytes of the straightforward
//! encoder it replaced — two hash maps, node id → run position and name
//! → table index — kept below as [`reference_put_term`]: the term
//! encoding is part of protocol v2 and does not change with the encoder.
//! And `take_term`/`take_update` must answer any damaged payload with a
//! typed error or a term that survives a second round trip, never with
//! a panic.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use alphahashd::wire::{put_term, put_update, take_term, take_update};
use lambda_lang::visit::postorder;
use lambda_lang::{parse, ExprArena, ExprNode, Literal, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The encoder `put_term` replaced, byte for byte: positions of emitted
/// nodes keyed by arena id, names keyed by string in first-use order.
fn reference_put_term(out: &mut Vec<u8>, arena: &ExprArena, root: NodeId) {
    let order = postorder(arena, root);
    let mut pos = HashMap::with_capacity(order.len());
    let mut names: Vec<&str> = Vec::new();
    let mut name_idx: HashMap<&str, u32> = HashMap::new();
    for &id in &order {
        match arena.node(id) {
            ExprNode::Var(s) | ExprNode::Lam(s, _) | ExprNode::Let(s, _, _) => {
                let name = arena.name(s);
                name_idx.entry(name).or_insert_with(|| {
                    names.push(name);
                    u32::try_from(names.len() - 1).expect("name table fits u32")
                });
            }
            ExprNode::App(..) | ExprNode::Lit(_) => {}
        }
    }
    let u32_le = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
    u32_le(out, u32::try_from(names.len()).expect("fits"));
    for name in &names {
        u32_le(out, u32::try_from(name.len()).expect("fits"));
        out.extend_from_slice(name.as_bytes());
    }
    u32_le(out, u32::try_from(order.len()).expect("fits"));
    for (i, &id) in order.iter().enumerate() {
        match arena.node(id) {
            ExprNode::Var(s) => {
                out.push(0);
                u32_le(out, name_idx[arena.name(s)]);
            }
            ExprNode::Lam(s, body) => {
                out.push(1);
                u32_le(out, name_idx[arena.name(s)]);
                u32_le(out, pos[&body]);
            }
            ExprNode::App(f, a) => {
                out.push(2);
                u32_le(out, pos[&f]);
                u32_le(out, pos[&a]);
            }
            ExprNode::Let(s, rhs, body) => {
                out.push(3);
                u32_le(out, name_idx[arena.name(s)]);
                u32_le(out, pos[&rhs]);
                u32_le(out, pos[&body]);
            }
            ExprNode::Lit(lit) => {
                out.push(4);
                match lit {
                    Literal::I64(v) => {
                        out.push(0);
                        out.extend_from_slice(&(v as u64).to_le_bytes());
                    }
                    Literal::F64Bits(bits) => {
                        out.push(1);
                        out.extend_from_slice(&bits.to_le_bytes());
                    }
                    Literal::Bool(b) => {
                        out.push(2);
                        out.push(u8::from(b));
                    }
                }
            }
        }
        pos.insert(id, u32::try_from(i).expect("fits"));
    }
}

/// Exact structural equality with names compared as strings. Iterative,
/// so 100k-deep spines are fine.
fn same_tree(a: &ExprArena, ra: NodeId, b: &ExprArena, rb: NodeId) -> bool {
    let mut stack = vec![(ra, rb)];
    while let Some((x, y)) = stack.pop() {
        match (a.node(x), b.node(y)) {
            (ExprNode::Var(s), ExprNode::Var(t)) => {
                if a.name(s) != b.name(t) {
                    return false;
                }
            }
            (ExprNode::Lam(s, bx), ExprNode::Lam(t, by)) => {
                if a.name(s) != b.name(t) {
                    return false;
                }
                stack.push((bx, by));
            }
            (ExprNode::App(f, u), ExprNode::App(g, v)) => {
                stack.push((f, g));
                stack.push((u, v));
            }
            (ExprNode::Let(s, r1, b1), ExprNode::Let(t, r2, b2)) => {
                if a.name(s) != b.name(t) {
                    return false;
                }
                stack.push((r1, r2));
                stack.push((b1, b2));
            }
            (ExprNode::Lit(l), ExprNode::Lit(m)) => {
                if l != m {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

/// `put_term` appends the reference bytes (behind an existing prefix,
/// as batch chunks concatenate terms), and `take_term` reads the same
/// tree back, consuming exactly the term.
fn assert_matches_reference(arena: &ExprArena, root: NodeId, what: &str) {
    let prefix = [0xA5u8, 0x5A, 0x00];
    let mut encoded = prefix.to_vec();
    put_term(&mut encoded, arena, root);
    let mut reference = prefix.to_vec();
    reference_put_term(&mut reference, arena, root);
    assert!(
        encoded == reference,
        "{what}: put_term's {} bytes differ from the reference encoder's {}",
        encoded.len(),
        reference.len()
    );
    let mut input = &encoded[prefix.len()..];
    let mut dst = ExprArena::new();
    let back = take_term(&mut input, &mut dst).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(input.is_empty(), "{what}: decoder consumed the whole term");
    assert!(same_tree(arena, root, &dst, back), "{what}: round trip");
}

#[test]
fn encoder_matches_reference_on_generated_terms() {
    for seed in 0..12u64 {
        for size in [1usize, 2, 9, 40, 257] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut arena = ExprArena::new();
            let root = expr_gen::balanced(&mut arena, size, &mut rng);
            assert_matches_reference(&arena, root, &format!("balanced {size} seed {seed}"));
            let root = expr_gen::unbalanced(&mut arena, size, &mut rng);
            assert_matches_reference(&arena, root, &format!("unbalanced {size} seed {seed}"));
            let root = expr_gen::arithmetic(&mut arena, size.max(8), &mut rng);
            assert_matches_reference(&arena, root, &format!("arithmetic {size} seed {seed}"));
            for width in [3, 40, usize::MAX] {
                let root = expr_gen::wide_open_spine(&mut arena, size, width, &mut rng);
                assert_matches_reference(
                    &arena,
                    root,
                    &format!("wide_open_spine {size}/{width} seed {seed}"),
                );
            }
        }
    }
}

#[test]
fn encoder_matches_reference_on_every_node_and_literal_kind() {
    let mut arena = ExprArena::new();
    let root = parse(&mut arena, r"let f = \x. \y. x + (y * 2) in f true 3").expect("parses");
    assert_matches_reference(&arena, root, "parsed let/lam/app/var/int/bool");

    let int = arena.int(-7);
    let float = arena.float(1.5);
    let nan = arena.lit(Literal::F64Bits(f64::NAN.to_bits() | 1));
    let yes = arena.lit(Literal::Bool(true));
    let no = arena.lit(Literal::Bool(false));
    let v = arena.var_named("v");
    let args = [int, float, nan, yes, no, v];
    let app = arena.app_many(v, &args);
    let body = arena.let_named("w", app, v);
    let root = arena.lam_named("v", body);
    assert_matches_reference(&arena, root, "all three literal kinds");
}

#[test]
fn encoder_matches_reference_on_repeated_and_shadowed_names() {
    for src in [
        r"\x. \x. x x",
        r"let x = 1 in let x = x in \x. x x",
        r"f x x f (\f. f x)",
        r"\a. \b. \a. b a (\b. a b)",
    ] {
        let mut arena = ExprArena::new();
        let root = parse(&mut arena, src).expect("parses");
        assert_matches_reference(&arena, root, src);
    }
}

/// 5,000 distinct names, each used again once the table is wide, in an
/// order unlike the interner's.
#[test]
fn encoder_matches_reference_on_a_term_with_5000_names() {
    let mut arena = ExprArena::new();
    let syms: Vec<_> = (0..5000)
        .map(|i| arena.intern(&format!("n{}", (i * 7919) % 5000)))
        .collect();
    let mut acc = arena.var(syms[0]);
    for &s in &syms[1..] {
        let v = arena.var(s);
        acc = arena.app(acc, v);
    }
    for &s in syms.iter().rev().step_by(3) {
        let v = arena.var(s);
        acc = arena.app(v, acc);
        acc = arena.lam(s, acc);
    }
    assert_matches_reference(&arena, acc, "5,000 distinct names");
}

/// 100,000 nested binders and a 100,000-deep right-leaning application
/// spine: neither encoder nor decoder recurses.
#[test]
fn encoder_matches_reference_on_a_100k_deep_spine() {
    const DEPTH: usize = 100_000;
    let mut arena = ExprArena::new();
    let x = arena.intern("x");
    let mut lams = arena.var(x);
    for i in 0..DEPTH {
        let s = if i % 2 == 0 { x } else { arena.intern("y") };
        lams = arena.lam(s, lams);
    }
    assert_matches_reference(&arena, lams, "100k nested lambdas");

    let f = arena.intern("f");
    let mut spine = arena.int(0);
    for _ in 0..DEPTH {
        let v = arena.var(f);
        spine = arena.app(v, spine);
    }
    assert_matches_reference(&arena, spine, "100k-deep application spine");
}

/// An arena may share a node between two parents. Postorder visits it
/// once per parent, and `put_term` encodes what it visits: a tree with
/// one copy per occurrence, each referenced once. This is the one input
/// on which the reference encoder wrote other bytes: it pointed every
/// reference to a shared node at its latest copy, a DAG run that
/// `take_term` refuses.
#[test]
fn shared_nodes_encode_as_a_tree() {
    let mut arena = ExprArena::new();
    let x = arena.var_named("x");
    let pair = arena.app(x, x);
    let root = arena.app(pair, pair);
    let mut bytes = Vec::new();
    put_term(&mut bytes, &arena, root);
    let mut dst = ExprArena::new();
    let back = take_term(&mut bytes.as_slice(), &mut dst).expect("decodes");
    assert!(same_tree(&arena, root, &dst, back));
    assert_eq!(dst.len(), 7, "one decoded node per occurrence");
    let mut reference = Vec::new();
    reference_put_term(&mut reference, &arena, root);
    assert_ne!(bytes, reference);
    assert!(take_term(&mut reference.as_slice(), &mut dst).is_err());
}

// ---------------------------------------------------------------------
// Runs that are not trees.

/// A term payload with no names whose nodes are `nodes`, each given as
/// its encoded bytes.
fn nameless_run(nodes: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = 0u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&u32::try_from(nodes.len()).expect("fits").to_le_bytes());
    for node in nodes {
        bytes.extend_from_slice(node);
    }
    bytes
}

fn lit_true() -> Vec<u8> {
    vec![4, 2, 1]
}

fn app(f: u32, a: u32) -> Vec<u8> {
    let mut node = vec![2];
    node.extend_from_slice(&f.to_le_bytes());
    node.extend_from_slice(&a.to_le_bytes());
    node
}

/// A bool literal, then 22 × `App(i-1, i-1)`: 209 bytes whose DAG
/// unfolds to 2^23 - 1 nodes. Accepted, it would make every store walk
/// (hashing, canonicalisation) visit all of them; refused, it costs the
/// decoder its 23 nodes.
#[test]
fn a_run_that_references_a_node_twice_is_refused() {
    let mut nodes = vec![lit_true()];
    nodes.extend((1..=22).map(|i| app(i - 1, i - 1)));
    let bytes = nameless_run(&nodes);
    assert_eq!(bytes.len(), 209);
    let mut arena = ExprArena::new();
    let err = take_term(&mut bytes.as_slice(), &mut arena).expect_err("a DAG is not a term");
    assert!(err.to_string().contains("referenced again"), "{err}");
    assert!(arena.len() <= 2, "refused at the first shared reference");

    // The same through a `Let` whose rhs is its body.
    let mut let_node = vec![3];
    for v in [0u32, 0, 0] {
        let_node.extend_from_slice(&v.to_le_bytes());
    }
    let mut bytes = 1u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.push(b'x');
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&lit_true());
    bytes.extend_from_slice(&let_node);
    assert!(take_term(&mut bytes.as_slice(), &mut ExprArena::new()).is_err());
}

/// Every node but the root must be some later node's child: a run with
/// an orphan would make the decoder build nodes no term contains.
#[test]
fn a_run_with_an_unreferenced_node_is_refused() {
    let bytes = nameless_run(&[lit_true(), lit_true(), lit_true(), app(1, 2)]);
    let err = take_term(&mut bytes.as_slice(), &mut ExprArena::new()).expect_err("orphan");
    assert!(err.to_string().contains("node 0"), "{err}");
}

/// Children need only come before their parent, each claimed once: a
/// run that is not in `put_term`'s postorder is still a tree.
#[test]
fn a_tree_in_any_backward_order_decodes() {
    let mut int = vec![4, 0];
    int.extend_from_slice(&7u64.to_le_bytes());
    let bytes = nameless_run(&[int, lit_true(), app(1, 0)]);
    let mut arena = ExprArena::new();
    let root = take_term(&mut bytes.as_slice(), &mut arena).expect("a tree");
    let mut expected = ExprArena::new();
    let (t, i) = (expected.lit(Literal::Bool(true)), expected.int(7));
    let want = expected.app(t, i);
    assert!(same_tree(&arena, root, &expected, want));
}

// ---------------------------------------------------------------------
// Damaged payloads.

/// A valid payload to damage, with the offsets of its length and count
/// fields (path length, name count, name lengths, node count).
struct Base {
    bytes: Vec<u8>,
    update: bool,
    fields: Vec<usize>,
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize
}

/// Offsets of the count fields of the term encoded at `at`.
fn term_fields(bytes: &[u8], mut at: usize, fields: &mut Vec<usize>) {
    fields.push(at);
    let names = u32_at(bytes, at);
    at += 4;
    for _ in 0..names {
        fields.push(at);
        at += 4 + u32_at(bytes, at);
    }
    fields.push(at);
}

fn term_base(arena: &ExprArena, root: NodeId) -> Base {
    let mut bytes = Vec::new();
    put_term(&mut bytes, arena, root);
    let mut fields = Vec::new();
    term_fields(&bytes, 0, &mut fields);
    Base {
        bytes,
        update: false,
        fields,
    }
}

fn update_base(path: &[u32], arena: &ExprArena, root: NodeId) -> Base {
    let mut bytes = Vec::new();
    put_update(&mut bytes, 0x0002_0000_0000_0011, path, arena, root);
    let mut fields = vec![8];
    term_fields(&bytes, 12 + 4 * path.len(), &mut fields);
    Base {
        bytes,
        update: true,
        fields,
    }
}

fn bases() -> Vec<Base> {
    let mut out = Vec::new();
    let mut arena = ExprArena::new();
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DE ^ seed);
        for size in [3usize, 11, 30] {
            let root = expr_gen::balanced(&mut arena, size, &mut rng);
            out.push(term_base(&arena, root));
            let root = expr_gen::unbalanced(&mut arena, size, &mut rng);
            out.push(term_base(&arena, root));
            let root = expr_gen::arithmetic(&mut arena, size.max(8), &mut rng);
            out.push(term_base(&arena, root));
            out.push(update_base(&[0, 1, 0][..(seed % 4) as usize], &arena, root));
        }
    }
    for src in [r"let f = \x. \y. x + (y * 2) in f true 3", r"\x. \x. x x"] {
        let root = parse(&mut arena, src).expect("parses");
        out.push(term_base(&arena, root));
        out.push(update_base(&[1], &arena, root));
    }
    out
}

/// A count value a damaged or hostile sender might put in a field.
fn hostile_u32(rng: &mut StdRng, old: usize, payload_len: usize) -> u32 {
    let old = u32::try_from(old).unwrap_or(u32::MAX);
    match rng.random_range(0..10u32) {
        0 => 0,
        1 => u32::MAX,
        2 => u32::MAX - 1,
        3 => 0x8000_0000,
        4 => old.wrapping_add(1),
        5 => old.wrapping_sub(1),
        6 => u32::try_from(payload_len).expect("small payload"),
        7 => rng.random_range(0..64u32),
        8 => 0x7FFF_FFFF,
        _ => rng.random::<u32>(),
    }
}

fn mutate(base: &Base, rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = base.bytes.clone();
    match rng.random_range(0..4u32) {
        0 => {
            for _ in 0..rng.random_range(1..=3u32) {
                let bit = rng.random_range(0..bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        1 => bytes.truncate(rng.random_range(0..bytes.len())),
        2 => {
            let at = base.fields[rng.random_range(0..base.fields.len())];
            let v = hostile_u32(rng, u32_at(&bytes, at), bytes.len());
            bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
        _ => {
            // Any 4-byte window: child references, name indices, tags.
            let at = rng.random_range(0..bytes.len() - 3);
            let v = hostile_u32(rng, u32_at(&bytes, at), bytes.len());
            bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
    }
    bytes
}

/// Decodes `bytes`; on success re-encodes what it got and checks that
/// decoding those bytes gives the same tree again. `true` iff the
/// damaged payload decoded.
fn decode_and_round_trip(bytes: &[u8], update: bool) -> bool {
    let mut arena = ExprArena::new();
    let mut input = bytes;
    if update {
        let Ok((term, path, root)) = take_update(&mut input, &mut arena) else {
            return false;
        };
        let mut again = Vec::new();
        put_update(&mut again, term, &path, &arena, root);
        let mut arena2 = ExprArena::new();
        let (term2, path2, root2) =
            take_update(&mut again.as_slice(), &mut arena2).expect("re-encoded update decodes");
        assert_eq!((term, &path), (term2, &path2));
        assert!(same_tree(&arena, root, &arena2, root2));
    } else {
        let Ok(root) = take_term(&mut input, &mut arena) else {
            return false;
        };
        let mut again = Vec::new();
        put_term(&mut again, &arena, root);
        let mut arena2 = ExprArena::new();
        let root2 = take_term(&mut again.as_slice(), &mut arena2).expect("re-encoded term decodes");
        assert!(same_tree(&arena, root, &arena2, root2));
    }
    true
}

#[test]
fn damaged_payloads_never_panic_and_decoded_terms_round_trip() {
    const CASES: usize = 12_000;
    let bases = bases();
    let mut rng = StdRng::seed_from_u64(0x00DA_3A6E);
    let mut decoded = 0;
    for case in 0..CASES {
        let base = &bases[rng.random_range(0..bases.len())];
        let bytes = mutate(base, &mut rng);
        match catch_unwind(AssertUnwindSafe(|| {
            decode_and_round_trip(&bytes, base.update)
        })) {
            Ok(true) => decoded += 1,
            Ok(false) => {}
            Err(_) => panic!(
                "case {case}: decoding {} damaged bytes panicked: {bytes:02x?}",
                bytes.len()
            ),
        }
    }
    // Both outcomes must be exercised, or the mutations prove nothing.
    assert!(
        decoded > CASES / 20 && decoded < CASES - CASES / 20,
        "{decoded} of {CASES} damaged payloads decoded"
    );
}
