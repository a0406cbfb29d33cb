//! The term codec against a reference encoder and against damaged input.
//!
//! `put_term` must emit exactly the bytes of the straightforward
//! encoder it replaced — two hash maps, node id → run position and name
//! → table index — kept below as [`reference_put_term`]: the term
//! encoding is part of protocol v2 and does not change with the encoder.
//! And every decoder of untrusted wire bytes — `take_term`,
//! `take_terms`, `take_update`, `take_handshake`, `take_hello`,
//! `take_outcome`, `take_stats` and the frame reader `read_frame` — must
//! answer any damaged input with a typed error or a value that survives
//! a second round trip through its encoder, never with a panic.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use alpha_store::StoreStats;
use alphahashd::wire::{
    put_handshake, put_hello, put_outcome, put_stats, put_term, put_update, read_frame,
    take_handshake, take_hello, take_outcome, take_stats, take_term, take_terms, take_update,
    write_frame, RemoteOutcome, RemoteStats, ServerHello, WireError, PROTOCOL_VERSION,
};
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

/// The decoder a damaged input is fed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Term,
    Update,
    /// A batch chunk of this many terms.
    Terms(u32),
    Handshake,
    Hello,
    Outcome,
    Stats,
    /// A stream of frames, read until a clean end.
    Frames,
}

/// A valid input to damage, with the offsets of its `u32` length and
/// count fields (path length, name count, name lengths, node count,
/// string lengths, frame lengths).
struct Base {
    bytes: Vec<u8>,
    kind: Kind,
    fields: Vec<usize>,
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize
}

/// Offsets of the count fields of the term encoded at `at`; returns the
/// offset just past the term's name table.
fn term_fields(bytes: &[u8], mut at: usize, fields: &mut Vec<usize>) -> usize {
    fields.push(at);
    let names = u32_at(bytes, at);
    at += 4;
    for _ in 0..names {
        fields.push(at);
        at += 4 + u32_at(bytes, at);
    }
    fields.push(at);
    at
}

fn term_base(arena: &ExprArena, root: NodeId) -> Base {
    let mut bytes = Vec::new();
    put_term(&mut bytes, arena, root);
    let mut fields = Vec::new();
    term_fields(&bytes, 0, &mut fields);
    Base {
        bytes,
        kind: Kind::Term,
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
        kind: Kind::Update,
        fields,
    }
}

/// A batch chunk body: `roots` encoded back to back.
fn terms_base(arena: &ExprArena, roots: &[NodeId]) -> Base {
    let (mut bytes, mut fields) = (Vec::new(), Vec::new());
    for &root in roots {
        let at = bytes.len();
        put_term(&mut bytes, arena, root);
        term_fields(&bytes, at, &mut fields);
    }
    Base {
        bytes,
        kind: Kind::Terms(roots.len() as u32),
        fields,
    }
}

fn stats_base(reason: &str, recovery: Option<(u64, bool)>, obs_json: &str) -> Base {
    let stats = RemoteStats {
        store: StoreStats {
            terms_ingested: 40,
            classes_created: 12,
            merges_confirmed: 28,
            ..StoreStats::default()
        },
        num_classes: 12,
        num_terms: 40,
        wal_records: Some(7),
        health_code: u8::from(!reason.is_empty()),
        health_reason: reason.to_owned(),
        recovery,
        obs_json: obs_json.to_owned(),
    };
    let mut bytes = Vec::new();
    put_stats(&mut bytes, &stats);
    // Store stats, the census, `Some(7)` and the health code come first.
    let reason_at = 64 + 16 + 9 + 1;
    let recovery_len = if recovery.is_some() { 10 } else { 1 };
    let fields = vec![reason_at, reason_at + 4 + reason.len() + recovery_len];
    Base {
        bytes,
        kind: Kind::Stats,
        fields,
    }
}

fn frames_base(payloads: &[&[u8]]) -> Base {
    let (mut bytes, mut fields) = (Vec::new(), Vec::new());
    for payload in payloads {
        fields.push(bytes.len());
        write_frame(&mut bytes, payload).expect("frames fit");
    }
    Base {
        bytes,
        kind: Kind::Frames,
        fields,
    }
}

fn fixed_base(kind: Kind, put: impl FnOnce(&mut Vec<u8>)) -> Base {
    let mut bytes = Vec::new();
    put(&mut bytes);
    Base {
        bytes,
        kind,
        fields: Vec::new(),
    }
}

fn bases() -> Vec<Base> {
    let mut out = Vec::new();
    let mut arena = ExprArena::new();
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DE ^ seed);
        for size in [3usize, 11, 30] {
            let balanced = expr_gen::balanced(&mut arena, size, &mut rng);
            out.push(term_base(&arena, balanced));
            let unbalanced = expr_gen::unbalanced(&mut arena, size, &mut rng);
            out.push(term_base(&arena, unbalanced));
            let root = expr_gen::arithmetic(&mut arena, size.max(8), &mut rng);
            out.push(term_base(&arena, root));
            out.push(update_base(&[0, 1, 0][..(seed % 4) as usize], &arena, root));
            out.push(terms_base(
                &arena,
                &[balanced, unbalanced, root][..1 + (seed % 3) as usize],
            ));
        }
    }
    for src in [r"let f = \x. \y. x + (y * 2) in f true 3", r"\x. \x. x x"] {
        let root = parse(&mut arena, src).expect("parses");
        out.push(term_base(&arena, root));
        out.push(update_base(&[1], &arena, root));
        out.push(terms_base(&arena, &[root, root]));
    }
    out.push(terms_base(&arena, &[]));
    for version in [PROTOCOL_VERSION, 1, u16::MAX] {
        out.push(fixed_base(Kind::Handshake, |b| put_handshake(b, version)));
    }
    for subexpr_min_nodes in [None, Some(3)] {
        let hello = ServerHello {
            version: PROTOCOL_VERSION,
            hash_bits: 64,
            shard_count: 16,
            subexpr_min_nodes,
        };
        out.push(fixed_base(Kind::Hello, |b| put_hello(b, &hello)));
    }
    for fresh in [false, true] {
        let outcome = RemoteOutcome {
            term: 0x0003_0000_0000_0009,
            class: 0x0001_0000_0000_0004,
            fresh,
            subs_indexed: 17,
            subs_merged: u64::from(fresh) * 5,
            subs_skipped_min_nodes: 2,
        };
        out.push(fixed_base(Kind::Outcome, |b| put_outcome(b, &outcome)));
    }
    out.push(stats_base("", None, "{}"));
    out.push(stats_base(
        "wal append failed",
        Some((42, false)),
        r#"{"m":[1,2]}"#,
    ));
    out.push(frames_base(&[b"\x05hello"]));
    out.push(frames_base(&[b"", b"\x01\x02\x03", &[0xAB; 40]]));
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

/// Damages `base`: flipped bits, a truncation, a hostile count field or
/// a hostile 4-byte window — or, for a batch chunk, a hostile term count.
fn mutate(base: &Base, rng: &mut StdRng) -> (Vec<u8>, Kind) {
    let mut bytes = base.bytes.clone();
    if let Kind::Terms(count) = base.kind {
        if bytes.is_empty() || rng.random_range(0..5u32) == 0 {
            return (
                bytes,
                Kind::Terms(hostile_u32(rng, count as usize, base.bytes.len())),
            );
        }
    }
    let mut pick = rng.random_range(0..4u32);
    if pick == 2 && base.fields.is_empty() || pick == 3 && bytes.len() < 4 {
        pick = 0;
    }
    match pick {
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
    (bytes, base.kind)
}

/// Decodes a value with `take`; on success re-encodes it with `put` and
/// checks that decoding those bytes gives the same value again.
fn value_round_trip<T: PartialEq + std::fmt::Debug>(
    bytes: &[u8],
    take: impl Fn(&mut &[u8]) -> Result<T, WireError>,
    put: impl Fn(&mut Vec<u8>, &T),
) -> bool {
    let Ok(value) = take(&mut &bytes[..]) else {
        return false;
    };
    let mut again = Vec::new();
    put(&mut again, &value);
    let value2 = take(&mut again.as_slice()).expect("re-encoded value decodes");
    assert_eq!(value, value2);
    true
}

/// Decodes `bytes` as `kind`; on success re-encodes what it got and
/// checks that decoding those bytes gives the same value again. `true`
/// iff the damaged input decoded.
fn decode_and_round_trip(bytes: &[u8], kind: Kind) -> bool {
    let mut arena = ExprArena::new();
    let mut input = bytes;
    match kind {
        Kind::Update => {
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
        }
        Kind::Term => {
            let Ok(root) = take_term(&mut input, &mut arena) else {
                return false;
            };
            let mut again = Vec::new();
            put_term(&mut again, &arena, root);
            let mut arena2 = ExprArena::new();
            let root2 =
                take_term(&mut again.as_slice(), &mut arena2).expect("re-encoded term decodes");
            assert!(same_tree(&arena, root, &arena2, root2));
        }
        Kind::Terms(count) => {
            let mut roots = Vec::new();
            if take_terms(&mut input, count, &mut arena, &mut roots).is_err() {
                assert!(
                    roots.len() < count as usize,
                    "a failed chunk decoded every term"
                );
                return false;
            }
            let mut again = Vec::new();
            for &root in &roots {
                put_term(&mut again, &arena, root);
            }
            let (mut arena2, mut roots2) = (ExprArena::new(), Vec::new());
            take_terms(&mut again.as_slice(), count, &mut arena2, &mut roots2)
                .expect("re-encoded chunk decodes");
            assert_eq!(roots.len(), roots2.len());
            for (&a, &b) in roots.iter().zip(&roots2) {
                assert!(same_tree(&arena, a, &arena2, b));
            }
        }
        Kind::Handshake => {
            return value_round_trip(bytes, take_handshake, |b, &v| put_handshake(b, v))
        }
        Kind::Hello => return value_round_trip(bytes, take_hello, put_hello),
        Kind::Outcome => return value_round_trip(bytes, take_outcome, put_outcome),
        Kind::Stats => return value_round_trip(bytes, take_stats, put_stats),
        Kind::Frames => {
            let mut payloads = Vec::new();
            loop {
                match read_frame(&mut input) {
                    Ok(Some(payload)) => payloads.push(payload),
                    Ok(None) => break,
                    Err(_) => return false,
                }
            }
            let mut again = Vec::new();
            for payload in &payloads {
                write_frame(&mut again, payload).expect("a decoded payload fits a frame");
            }
            let mut stream = again.as_slice();
            for payload in &payloads {
                assert_eq!(
                    read_frame(&mut stream).expect("re-framed").as_ref(),
                    Some(payload)
                );
            }
            assert!(read_frame(&mut stream).expect("clean end").is_none());
        }
    }
    true
}

#[test]
fn damaged_payloads_never_panic_and_decoded_terms_round_trip() {
    const CASES: usize = 20_000;
    let bases = bases();
    let mut rng = StdRng::seed_from_u64(0x00DA_3A6E);
    // Per decoder: (decoded, refused).
    let mut outcomes: HashMap<&str, (usize, usize)> = HashMap::new();
    for case in 0..CASES {
        let base = &bases[rng.random_range(0..bases.len())];
        let (bytes, kind) = mutate(base, &mut rng);
        let decoded = match catch_unwind(AssertUnwindSafe(|| decode_and_round_trip(&bytes, kind))) {
            Ok(decoded) => decoded,
            Err(_) => panic!(
                "case {case}: decoding {} damaged bytes as {kind:?} panicked: {bytes:02x?}",
                bytes.len()
            ),
        };
        let name = match kind {
            Kind::Terms(_) => "terms",
            Kind::Term => "term",
            Kind::Update => "update",
            Kind::Handshake => "handshake",
            Kind::Hello => "hello",
            Kind::Outcome => "outcome",
            Kind::Stats => "stats",
            Kind::Frames => "frames",
        };
        let tally = outcomes.entry(name).or_default();
        if decoded {
            tally.0 += 1;
        } else {
            tally.1 += 1;
        }
    }
    // Both outcomes must be exercised for every decoder, or the
    // mutations prove nothing about it.
    assert_eq!(outcomes.len(), 8, "{outcomes:?}");
    for (name, (decoded, refused)) in &outcomes {
        assert!(
            *decoded > 0 && *refused > 0,
            "{name}: {decoded} decoded, {refused} refused"
        );
    }
    let decoded: usize = outcomes.values().map(|t| t.0).sum();
    assert!(
        decoded > CASES / 20 && decoded < CASES - CASES / 20,
        "{decoded} of {CASES} damaged inputs decoded"
    );
}
