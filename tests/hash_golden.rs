//! Golden hash values: the exact bits the §5 pass produces on a fixed
//! corpus.
//!
//! Snapshots, WAL records and the wire protocol all persist these hashes,
//! so any change to a combiner, to the variable-map representation or to
//! the merge order that moves a single bit is a format break. The other
//! suites only compare hashes with each other (equal classes, agreeing
//! strategies); this one compares them with numbers recorded once.
//!
//! The corpus is the paper's worked examples plus seeded `balanced`,
//! `unbalanced`, `wide_open_spine`, `anf_chain` and `binder_fan` terms.
//! The wide spines sustain more free variables than the flat tiers hold,
//! so the pass runs through the inline, spilled and tree tiers of
//! `FlatVarMap`. For every term, width (u16, u32, u64, u128) and
//! `MergeStrategy`, a line pins the root hash and a digest of every
//! subexpression hash in post-order.

use alpha_hash::combine::{HashScheme, HashWord};
use alpha_hash::hashed::{HashedSummariser, MergeStrategy};
use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::parse::parse;
use lambda_lang::uniquify::uniquify;
use lambda_lang::visit::postorder;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The worked examples of the paper (§1, §2.2, §2.4, §4) that the other
/// suites check by class.
const PAPER_EXAMPLES: [&str; 17] = [
    "(a + (v+7)) * (v+7)",
    "(a + (let x = exp z in x+7)) * (let y = exp z in y+7)",
    r"foo (\x. x+7) (\y. y+7)",
    r"\x. x + y",
    r"\p. p + y",
    r"\q. q + z",
    "let bar = x+1 in bar*y",
    r"map (\y. y+1) vs",
    r"\x. t * (x+1)",
    r"\x. y * (x+1)",
    "let x = bar in x+2",
    r"\x. \y. x",
    r"\x. \y. y",
    "1",
    "1.0",
    "let a = 1 in a",
    r"(\a. a) 1",
];

/// One arena holding every corpus term, each with a label.
fn corpus() -> (ExprArena, Vec<(String, NodeId)>) {
    let mut arena = ExprArena::new();
    let mut terms = Vec::new();
    for (i, src) in PAPER_EXAMPLES.iter().enumerate() {
        let mut scratch = ExprArena::new();
        let parsed = parse(&mut scratch, src).unwrap_or_else(|e| panic!("{src}: {e}"));
        let (unique, root) = uniquify(&scratch, parsed);
        terms.push((format!("paper{i}"), arena.import_subtree(&unique, root)));
    }
    for seed in [1u64, 2] {
        for size in [60usize, 400] {
            let mut rng = StdRng::seed_from_u64(seed);
            let root = expr_gen::balanced(&mut arena, size, &mut rng);
            terms.push((format!("balanced/{seed}/{size}"), root));
            let root = expr_gen::unbalanced(&mut arena, size, &mut rng);
            terms.push((format!("unbalanced/{seed}/{size}"), root));
        }
    }
    // Widths 3 (inline), 6 and 12 (spilled) and 48 (past the tree
    // threshold).
    for (seed, width) in [(3u64, 3usize), (4, 6), (5, 12), (6, 48)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let root = expr_gen::wide_open_spine(&mut arena, 300, width, &mut rng);
        terms.push((format!("wide/{seed}/{width}"), root));
    }
    // The compiler-IR shapes on which per-subterm canon is quadratic.
    let mut rng = StdRng::seed_from_u64(7);
    let root = expr_gen::anf_chain(&mut arena, 50, &mut rng);
    terms.push(("anf/7/50".to_owned(), root));
    let root = expr_gen::binder_fan(&mut arena, 43, &mut rng);
    terms.push(("fan/7/43".to_owned(), root));
    (arena, terms)
}

/// FNV-1a over the little-endian bytes of `words` (each widened to 128
/// bits): a digest that depends on nothing in the crate under test.
fn digest(words: impl Iterator<Item = u128>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// One line per term: the root hash and the digest of every
/// subexpression hash in post-order, under one width and strategy.
fn lines<H: HashWord + Into<u128>>(
    arena: &ExprArena,
    terms: &[(String, NodeId)],
    strategy: MergeStrategy,
    width: &str,
) -> Vec<String> {
    let scheme: HashScheme<H> = HashScheme::default();
    let mut summariser = HashedSummariser::with_strategy(arena, &scheme, strategy);
    terms
        .iter()
        .map(|(label, root)| {
            let hashes = summariser.summarise_all(arena, *root);
            let order = postorder(arena, *root);
            let subs = digest(order.iter().map(|&n| {
                hashes
                    .get(n)
                    .expect("every node of the term is hashed")
                    .into()
            }));
            let root_hash: u128 = hashes.get(*root).expect("root hashed").into();
            format!("{label} {strategy:?} {width} root={root_hash:x} subs={subs:016x}")
        })
        .collect()
}

fn all_lines() -> Vec<String> {
    let (arena, terms) = corpus();
    let mut out = Vec::new();
    for strategy in [
        MergeStrategy::SmallerIntoBigger,
        MergeStrategy::TransformBoth,
    ] {
        out.extend(lines::<u16>(&arena, &terms, strategy, "u16"));
        out.extend(lines::<u32>(&arena, &terms, strategy, "u32"));
        out.extend(lines::<u64>(&arena, &terms, strategy, "u64"));
        out.extend(lines::<u128>(&arena, &terms, strategy, "u128"));
    }
    out
}

#[test]
fn every_subexpression_hash_is_pinned() {
    let got = all_lines();
    let want: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(got.len(), want.len(), "corpus size changed");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "hash changed");
    }
}

#[test]
fn name_hashes_are_pinned() {
    let default: HashScheme<u64> = HashScheme::default();
    let seeded: HashScheme<u128> = HashScheme::new(0x5EED);
    let got: Vec<String> = ["", "x", "bar", "x%0", "w17_4096"]
        .iter()
        .map(|name| {
            format!(
                "{name:?} {:016x} {:016x}",
                default.var_name(name),
                seeded.var_name(name)
            )
        })
        .collect();
    assert_eq!(got.join("\n"), NAME_GOLDEN);
}

/// Recorded before the lean-pass rewrite of the summariser and left
/// untouched since.
const NAME_GOLDEN: &str = r#""" d6829cac340c4c57 618e3f138c8372b2
"x" 680fa9c0cba2363a 57583124081c5e2a
"bar" 37ddc96d6e7e4985 1c9b36f6f5d64ba8
"x%0" 3a08c5a75992d06c 56473459f79b834d
"w17_4096" cd977f5f05be76c7 da3c6deac996ccd4"#;

/// Recorded before the lean-pass rewrite of the summariser and left
/// untouched since.
const GOLDEN: &str = r#"paper0 SmallerIntoBigger u16 root=f89 subs=cb01b10b7cf722fa
paper1 SmallerIntoBigger u16 root=4663 subs=80bdce8602bbe87b
paper2 SmallerIntoBigger u16 root=69a3 subs=2923afed5b7590c2
paper3 SmallerIntoBigger u16 root=22e2 subs=50fcf6d7f687a91a
paper4 SmallerIntoBigger u16 root=22e2 subs=a55beb55265c44bd
paper5 SmallerIntoBigger u16 root=1977 subs=97003b5f9d453bae
paper6 SmallerIntoBigger u16 root=edfe subs=01512078968f73c9
paper7 SmallerIntoBigger u16 root=928e subs=a9e5f4c95f912805
paper8 SmallerIntoBigger u16 root=bd26 subs=a52bdfa332be1d93
paper9 SmallerIntoBigger u16 root=898d subs=345995de4d6c45c7
paper10 SmallerIntoBigger u16 root=aa6b subs=9691e5e403a783d7
paper11 SmallerIntoBigger u16 root=3d41 subs=f711cba58852c5b3
paper12 SmallerIntoBigger u16 root=53f4 subs=727bb0c9a51cc89b
paper13 SmallerIntoBigger u16 root=ba02 subs=c6a8901e31bfd7c5
paper14 SmallerIntoBigger u16 root=e6ee subs=e3aeb4fb1f47544d
paper15 SmallerIntoBigger u16 root=61ba subs=961b00d7e3b244c1
paper16 SmallerIntoBigger u16 root=aebc subs=d170f4f1219aafed
balanced/1/60 SmallerIntoBigger u16 root=e42f subs=0879ae23562e03b6
unbalanced/1/60 SmallerIntoBigger u16 root=2e8a subs=5b97a03e83b6a2eb
balanced/1/400 SmallerIntoBigger u16 root=9540 subs=64c354bc2f2c0397
unbalanced/1/400 SmallerIntoBigger u16 root=8c2e subs=96cd1d5232a5c6c3
balanced/2/60 SmallerIntoBigger u16 root=9ef9 subs=fcc4f02d2ab6daf5
unbalanced/2/60 SmallerIntoBigger u16 root=cbcb subs=7e92266eda2ef0b8
balanced/2/400 SmallerIntoBigger u16 root=10ea subs=73203de5aa71dd76
unbalanced/2/400 SmallerIntoBigger u16 root=506f subs=e2d3e2d26e4ec544
wide/3/3 SmallerIntoBigger u16 root=cdfd subs=a0b68d6b04ae1f70
wide/4/6 SmallerIntoBigger u16 root=79c5 subs=a38ce8c593ef51e7
wide/5/12 SmallerIntoBigger u16 root=1b67 subs=b3fdfb232ef71ab6
wide/6/48 SmallerIntoBigger u16 root=af33 subs=2bd05be967eb5042
anf/7/50 SmallerIntoBigger u16 root=159c subs=276431a9f104b797
fan/7/43 SmallerIntoBigger u16 root=ca54 subs=1cc9776449f2ad22
paper0 SmallerIntoBigger u32 root=923a592a subs=c9fb98ab39a69e72
paper1 SmallerIntoBigger u32 root=d47244f9 subs=54c47495845c577c
paper2 SmallerIntoBigger u32 root=46784b5f subs=de5094eedfab13db
paper3 SmallerIntoBigger u32 root=abe803cc subs=94376c00327f3712
paper4 SmallerIntoBigger u32 root=abe803cc subs=77150936eae6aa31
paper5 SmallerIntoBigger u32 root=6d346643 subs=915275af2a097aa3
paper6 SmallerIntoBigger u32 root=20017e76 subs=069cb7b137132ddb
paper7 SmallerIntoBigger u32 root=70526cfc subs=e7f43ceb95c693cb
paper8 SmallerIntoBigger u32 root=6e2dbdc2 subs=fa330df6fed3dca5
paper9 SmallerIntoBigger u32 root=bd7c8523 subs=6806930e21ef8fee
paper10 SmallerIntoBigger u32 root=274361cd subs=8ba61025fdf96c29
paper11 SmallerIntoBigger u32 root=e5436b5e subs=dd596cb15f4f052c
paper12 SmallerIntoBigger u32 root=9852ade4 subs=9a38c4157d404ddd
paper13 SmallerIntoBigger u32 root=7cf012ae subs=ff109a67f1fe1965
paper14 SmallerIntoBigger u32 root=340aec9b subs=4ea5f5c7441618c4
paper15 SmallerIntoBigger u32 root=6f8f5837 subs=79e39f89b86f49a7
paper16 SmallerIntoBigger u32 root=92a9c5e5 subs=1e0e18540c55fae2
balanced/1/60 SmallerIntoBigger u32 root=8a54dced subs=00975417556f121d
unbalanced/1/60 SmallerIntoBigger u32 root=d1ff3374 subs=a83cc3adf9608d44
balanced/1/400 SmallerIntoBigger u32 root=7a72f555 subs=3827c44349f1f8f5
unbalanced/1/400 SmallerIntoBigger u32 root=72fca635 subs=52541a41c6290e06
balanced/2/60 SmallerIntoBigger u32 root=bfaf9213 subs=b4875a41e6a3d554
unbalanced/2/60 SmallerIntoBigger u32 root=3a901a79 subs=1a762042076c8bdc
balanced/2/400 SmallerIntoBigger u32 root=1a9a1f0c subs=221fac75660a3f90
unbalanced/2/400 SmallerIntoBigger u32 root=88d092fd subs=b742557e57daa2eb
wide/3/3 SmallerIntoBigger u32 root=f707a29b subs=1279e142fd90007a
wide/4/6 SmallerIntoBigger u32 root=b9cd6b37 subs=4367e9e844931a82
wide/5/12 SmallerIntoBigger u32 root=479bdd04 subs=a415bcb5bcc5f023
wide/6/48 SmallerIntoBigger u32 root=a2f14630 subs=1dd5742425649ac7
anf/7/50 SmallerIntoBigger u32 root=bab77c3c subs=ab00837a636fbb6e
fan/7/43 SmallerIntoBigger u32 root=815fecdf subs=548c8ba52e874bf1
paper0 SmallerIntoBigger u64 root=8654ab1937a394ce subs=65990b86a92f55c4
paper1 SmallerIntoBigger u64 root=142f07f0d33cd0e3 subs=d214e394806ee17f
paper2 SmallerIntoBigger u64 root=900ae7bbbcc53e2a subs=5b3f293e7baddae9
paper3 SmallerIntoBigger u64 root=d99e519270960080 subs=8df305c9adac81cf
paper4 SmallerIntoBigger u64 root=d99e519270960080 subs=2faa175e0f5ed7c9
paper5 SmallerIntoBigger u64 root=ca0172ce8ce1e10e subs=9a6f5fbefbd14b6b
paper6 SmallerIntoBigger u64 root=77c579ad7fe4f4f7 subs=79b7dbef96ea4b9c
paper7 SmallerIntoBigger u64 root=e3e90a5bad65057e subs=e06ed118b915d0b8
paper8 SmallerIntoBigger u64 root=cc6c589651484cd8 subs=f5980432b8e727bb
paper9 SmallerIntoBigger u64 root=38fbb4a2839507bd subs=f2826ce9378eec36
paper10 SmallerIntoBigger u64 root=db887467adc0406b subs=44b5055e0d3511af
paper11 SmallerIntoBigger u64 root=b1e953cfa1358795 subs=b61cf1221c55eee2
paper12 SmallerIntoBigger u64 root=b1f5b90cef1e3ef0 subs=6428ae9ee85f019d
paper13 SmallerIntoBigger u64 root=91ff74a690f7ab32 subs=5523c9c4e2473d8b
paper14 SmallerIntoBigger u64 root=86560a55ad56c5de subs=fb391407e1f8edf6
paper15 SmallerIntoBigger u64 root=388cd5a28b0bb1e8 subs=ecd22712ddd7df7c
paper16 SmallerIntoBigger u64 root=6a2486ae32739e67 subs=4f338e44381c223e
balanced/1/60 SmallerIntoBigger u64 root=66e8b60eade3ea2b subs=4aba346ff3b34176
unbalanced/1/60 SmallerIntoBigger u64 root=7f32ea8896459c3f subs=7edc3e3eb33d9f43
balanced/1/400 SmallerIntoBigger u64 root=10c38badfd8e45cb subs=150130083a94d98f
unbalanced/1/400 SmallerIntoBigger u64 root=dd9ef71fa46445eb subs=3e9aae722e490cdc
balanced/2/60 SmallerIntoBigger u64 root=c00ed2dfea3de1b8 subs=965d44e93371a33b
unbalanced/2/60 SmallerIntoBigger u64 root=2ca9509566e5a513 subs=76e13e1a9ffc4e02
balanced/2/400 SmallerIntoBigger u64 root=691d5ba9495c6624 subs=287bff0521c954ca
unbalanced/2/400 SmallerIntoBigger u64 root=68abea5da29eec83 subs=44bbfb48d89ce17d
wide/3/3 SmallerIntoBigger u64 root=c2f4b9199cc5cab3 subs=aeff34eb8c9c60e6
wide/4/6 SmallerIntoBigger u64 root=a3228930688865de subs=227ace829f43852d
wide/5/12 SmallerIntoBigger u64 root=684b3a12a5c1ad74 subs=2c501f2d3e211600
wide/6/48 SmallerIntoBigger u64 root=32a8f5f0294d82d3 subs=9d2d59f1dfc63a25
anf/7/50 SmallerIntoBigger u64 root=a3b8c624e0b4bcd0 subs=cea566befea587b1
fan/7/43 SmallerIntoBigger u64 root=4f17724dc1c09ca1 subs=cbeee3fa928ef946
paper0 SmallerIntoBigger u128 root=4fb06a69ed4f0dfda6c3a11879c9ab0c subs=9385c4912225dad6
paper1 SmallerIntoBigger u128 root=dd62cd803e885ee99ee66dcf7b394dbd subs=4da572f14f139465
paper2 SmallerIntoBigger u128 root=a14e9deb7062e6390f89da610d9bfa52 subs=7b544f04fd6d17f2
paper3 SmallerIntoBigger u128 root=2f46d0eff551b19b0da89884b2a74e12 subs=cdba3ac5bbc0a5d5
paper4 SmallerIntoBigger u128 root=2f46d0eff551b19b0da89884b2a74e12 subs=023e3d0b72f1c819
paper5 SmallerIntoBigger u128 root=44b03481a0b4a6f30615e3dd5c5322c6 subs=4bdfd9565917ba47
paper6 SmallerIntoBigger u128 root=8b6852430a7a45874647fec339e62cd0 subs=2e02a9db6fa2d08e
paper7 SmallerIntoBigger u128 root=1e8b069814b4fde6f40ce39f9b5b09ab subs=490ddc9306843e4d
paper8 SmallerIntoBigger u128 root=39e29c7f6b274f3c6fe134426c5e1f00 subs=e663d3fbb21274b9
paper9 SmallerIntoBigger u128 root=f666c7fa1dc9d45282a3dd565b20e90e subs=49a64c7616e8a36f
paper10 SmallerIntoBigger u128 root=e880d620983c83d37f395c4994272b41 subs=93483185f26f5260
paper11 SmallerIntoBigger u128 root=19ae0118ea5e11893c90d99131b0a50b subs=c51a84c7b1288b03
paper12 SmallerIntoBigger u128 root=a5ce41dca97a2bb555fb1ecb6c80c8e1 subs=9d1b30d3434296a0
paper13 SmallerIntoBigger u128 root=4335d8e98560a2a7b1d17c96d35ac490 subs=057c4dd7cbc8eccd
paper14 SmallerIntoBigger u128 root=83ce4f7b2e28387851c06e6602006c5c subs=db3749219bda0913
paper15 SmallerIntoBigger u128 root=10f627df94a73663535ad62ac86aa974 subs=43b84f47a0b99f39
paper16 SmallerIntoBigger u128 root=70ef3fa87245b60f0552ef4f30934ddf subs=fbb67343c75de132
balanced/1/60 SmallerIntoBigger u128 root=49f2918c58d2984b707e973dfa85abb0 subs=29104c9c8296173a
unbalanced/1/60 SmallerIntoBigger u128 root=60ac36d1e5935d4fac48da4cb030d397 subs=e90c87f068911ee0
balanced/1/400 SmallerIntoBigger u128 root=3641efd32d9d2a049fe7c92159ebaebb subs=0de12b755b2dd1df
unbalanced/1/400 SmallerIntoBigger u128 root=d848434dcc2280d68137382b7364797f subs=12d2090593843b2e
balanced/2/60 SmallerIntoBigger u128 root=5633e5919f6cd886f659186a64911c34 subs=91173ecb16fff9e9
unbalanced/2/60 SmallerIntoBigger u128 root=8b3e4b9d11cc200823716704b17a428 subs=918308f45bff2562
balanced/2/400 SmallerIntoBigger u128 root=a01b779d39d2464cccc6440f2fc6678 subs=482db87bf7225f4c
unbalanced/2/400 SmallerIntoBigger u128 root=38309f357f08889a918929420f5a100e subs=a141e3ccbbb9cb2b
wide/3/3 SmallerIntoBigger u128 root=d9961372e024e4cc4aebcb93e690a122 subs=12e1cd3f1a50d346
wide/4/6 SmallerIntoBigger u128 root=f9d02fbc672838919643af81b03bec57 subs=7cb1b8c49f9bb0bb
wide/5/12 SmallerIntoBigger u128 root=67c00b28bd6df427ecdf740a9610a41 subs=31ea9168019d1987
wide/6/48 SmallerIntoBigger u128 root=593f0330304abbdc5f40ac24341a651a subs=bf7776fec6ee7721
anf/7/50 SmallerIntoBigger u128 root=c287e8568e749ea520f08dd56ddd783c subs=fcde13875b027065
fan/7/43 SmallerIntoBigger u128 root=1f7eb6a86e4ac0cb2bf5e450fa3aa2f4 subs=69aa2f69add4643e
paper0 TransformBoth u16 root=d36e subs=11c9350e2a63228c
paper1 TransformBoth u16 root=bee5 subs=5481e941b10c2ed6
paper2 TransformBoth u16 root=cfb6 subs=17af39222ec9b67c
paper3 TransformBoth u16 root=ae46 subs=e0132d3c1b43a1c4
paper4 TransformBoth u16 root=ae46 subs=bbffd1d04242d994
paper5 TransformBoth u16 root=4b63 subs=4e9e5ecd2208dfe3
paper6 TransformBoth u16 root=9a49 subs=63638728065b4f3a
paper7 TransformBoth u16 root=6ae4 subs=1e07822881a00d42
paper8 TransformBoth u16 root=c89e subs=50db3180b8b8c031
paper9 TransformBoth u16 root=5664 subs=f438088f74fa91f0
paper10 TransformBoth u16 root=244c subs=6d290cf72fe0e1d9
paper11 TransformBoth u16 root=3d41 subs=f711cba58852c5b3
paper12 TransformBoth u16 root=53f4 subs=727bb0c9a51cc89b
paper13 TransformBoth u16 root=ba02 subs=c6a8901e31bfd7c5
paper14 TransformBoth u16 root=e6ee subs=e3aeb4fb1f47544d
paper15 TransformBoth u16 root=61ba subs=961b00d7e3b244c1
paper16 TransformBoth u16 root=aebc subs=d170f4f1219aafed
balanced/1/60 TransformBoth u16 root=e65 subs=199f2ad0532c2049
unbalanced/1/60 TransformBoth u16 root=bd09 subs=795193fd6132051d
balanced/1/400 TransformBoth u16 root=b757 subs=51a0a2277075ccb1
unbalanced/1/400 TransformBoth u16 root=278e subs=70cb25790e82b584
balanced/2/60 TransformBoth u16 root=1213 subs=1c7548f28733ad15
unbalanced/2/60 TransformBoth u16 root=f8db subs=62cc819fb0240bef
balanced/2/400 TransformBoth u16 root=dc6 subs=dbb92459425d3668
unbalanced/2/400 TransformBoth u16 root=c73b subs=2d1cbcc14f0245ad
wide/3/3 TransformBoth u16 root=313e subs=9ec6b906f42482a4
wide/4/6 TransformBoth u16 root=ee5c subs=95e9e16c30ad3e0c
wide/5/12 TransformBoth u16 root=583b subs=c3254856c2bea589
wide/6/48 TransformBoth u16 root=c8de subs=1b8c8f4443d35c47
anf/7/50 TransformBoth u16 root=cb71 subs=a4477a727eb671cb
fan/7/43 TransformBoth u16 root=9266 subs=d9ece08915be6939
paper0 TransformBoth u32 root=14e715a subs=9b0d765c156a2185
paper1 TransformBoth u32 root=4c07521d subs=9561b6cf4bf7b807
paper2 TransformBoth u32 root=3c5b0a13 subs=c912eee0f5511bff
paper3 TransformBoth u32 root=d5c54924 subs=2d3b8e539fa7771d
paper4 TransformBoth u32 root=d5c54924 subs=fae327624bc976bc
paper5 TransformBoth u32 root=89577783 subs=4e86a93a550e836c
paper6 TransformBoth u32 root=73d3e80f subs=dbf711cd106b4f83
paper7 TransformBoth u32 root=86197199 subs=c01e5d5da866a4e8
paper8 TransformBoth u32 root=a96db3cc subs=d1cb004e7fd21401
paper9 TransformBoth u32 root=6f8d4778 subs=1666ae0411eb4025
paper10 TransformBoth u32 root=4bf3733e subs=f673393aedd04207
paper11 TransformBoth u32 root=e5436b5e subs=dd596cb15f4f052c
paper12 TransformBoth u32 root=9852ade4 subs=9a38c4157d404ddd
paper13 TransformBoth u32 root=7cf012ae subs=ff109a67f1fe1965
paper14 TransformBoth u32 root=340aec9b subs=4ea5f5c7441618c4
paper15 TransformBoth u32 root=6f8f5837 subs=79e39f89b86f49a7
paper16 TransformBoth u32 root=92a9c5e5 subs=1e0e18540c55fae2
balanced/1/60 TransformBoth u32 root=eaf94c51 subs=412e7f6521d281cc
unbalanced/1/60 TransformBoth u32 root=27304283 subs=1d055bdebd9b8f39
balanced/1/400 TransformBoth u32 root=ba16002b subs=a1eb38bc738e3051
unbalanced/1/400 TransformBoth u32 root=54dbf1b3 subs=d79a882c587b28e7
balanced/2/60 TransformBoth u32 root=5b423413 subs=5f574be4f7503deb
unbalanced/2/60 TransformBoth u32 root=7fc96079 subs=ffbeaa96774c5466
balanced/2/400 TransformBoth u32 root=4e629579 subs=46ce3fb9d3cf30a9
unbalanced/2/400 TransformBoth u32 root=6a61339d subs=9f01b5e9cc77bbd4
wide/3/3 TransformBoth u32 root=f5c6b3f4 subs=7c880221d0006262
wide/4/6 TransformBoth u32 root=8ae5bec3 subs=a3caf631b1db291c
wide/5/12 TransformBoth u32 root=b457881d subs=8566e2acc877998f
wide/6/48 TransformBoth u32 root=c60ec029 subs=81f8c19ad34d6bee
anf/7/50 TransformBoth u32 root=b1fba8e0 subs=766855c43ce9b937
fan/7/43 TransformBoth u32 root=8603e322 subs=ea8ca8bc8f56e42c
paper0 TransformBoth u64 root=d22f85ee9cc7faa5 subs=4a4e127272cff5f0
paper1 TransformBoth u64 root=b5c7785501625e41 subs=fa9473de653647ff
paper2 TransformBoth u64 root=88a5d49d7b8b9b3d subs=3aad188d5fa8206d
paper3 TransformBoth u64 root=abad7cf45192129e subs=f15b1a9946a4af91
paper4 TransformBoth u64 root=abad7cf45192129e subs=8ec50aed89552848
paper5 TransformBoth u64 root=7b4a9c1e971297af subs=046394eca892f770
paper6 TransformBoth u64 root=13f10e900302b25f subs=42d471418d79a2f5
paper7 TransformBoth u64 root=5b1bab3d2993b69 subs=f48b0e56f43ff8d5
paper8 TransformBoth u64 root=4b999f9efe477c30 subs=1c078f78cf5066f7
paper9 TransformBoth u64 root=475e0c901abd20e9 subs=e7a6b4d7ef271dc1
paper10 TransformBoth u64 root=8a31386b635796c6 subs=386586e268444d1b
paper11 TransformBoth u64 root=b1e953cfa1358795 subs=b61cf1221c55eee2
paper12 TransformBoth u64 root=b1f5b90cef1e3ef0 subs=6428ae9ee85f019d
paper13 TransformBoth u64 root=91ff74a690f7ab32 subs=5523c9c4e2473d8b
paper14 TransformBoth u64 root=86560a55ad56c5de subs=fb391407e1f8edf6
paper15 TransformBoth u64 root=388cd5a28b0bb1e8 subs=ecd22712ddd7df7c
paper16 TransformBoth u64 root=6a2486ae32739e67 subs=4f338e44381c223e
balanced/1/60 TransformBoth u64 root=e9753cd980cdea7f subs=2df96e5d39be8937
unbalanced/1/60 TransformBoth u64 root=64bc89ff2f0fe24c subs=e1f23a37fc883065
balanced/1/400 TransformBoth u64 root=ce40cd679a0c70d5 subs=e0b9d36a3bbe60ee
unbalanced/1/400 TransformBoth u64 root=c7dfe2d9213ce2fc subs=c73271ecdd9ec870
balanced/2/60 TransformBoth u64 root=8d9f0500172576a4 subs=efd4584a0e108f62
unbalanced/2/60 TransformBoth u64 root=ca51a1b8369c3e79 subs=5961a7e30303563e
balanced/2/400 TransformBoth u64 root=2767aff42553aaed subs=4e0ee7d8340fa910
unbalanced/2/400 TransformBoth u64 root=4929f38280515cf6 subs=fa7fb2963dccf540
wide/3/3 TransformBoth u64 root=6d480a74ed0cc4f1 subs=391d39566bb25192
wide/4/6 TransformBoth u64 root=a04fe96a951460ae subs=246bcb7b218ebb57
wide/5/12 TransformBoth u64 root=37003a587a4b9b80 subs=e0109187c29c7d6e
wide/6/48 TransformBoth u64 root=818aef32fea2d96d subs=80b428f33780dd6f
anf/7/50 TransformBoth u64 root=20ab318c0e63c021 subs=41bf2d500e03e950
fan/7/43 TransformBoth u64 root=a121ac01fe2e9077 subs=f6bca171f49e5955
paper0 TransformBoth u128 root=a02c87fd8188aa21ed39c3e2b77d424b subs=c1eee1a8e3aebbc7
paper1 TransformBoth u128 root=510c3e8db24c8d74f557fdb535584d11 subs=09cb9972fa5789ee
paper2 TransformBoth u128 root=a44997c09966bbc9f7a932c3a5ea723 subs=0d744e4c46d28a5e
paper3 TransformBoth u128 root=ffbfdf8054eaefb79829dcb1fc809eaa subs=01811e1e4ae8c59d
paper4 TransformBoth u128 root=ffbfdf8054eaefb79829dcb1fc809eaa subs=cb77dd7b6f45b94b
paper5 TransformBoth u128 root=464a4dfe60a547a3fed460dc67b6d8a4 subs=cd8ae462638bc5f4
paper6 TransformBoth u128 root=9dd1d82d7ba93e4a449a3102a4ff75a8 subs=40e99a7ed0488540
paper7 TransformBoth u128 root=513eb4cc519829f11d6250f39fae4e52 subs=881cb97450d777b2
paper8 TransformBoth u128 root=7e3cec8de921678fb81425000cd39b0 subs=d717da5763d8fa40
paper9 TransformBoth u128 root=6cb9097661744f1a598ccd0516eb9258 subs=4cce2c9434fac9e1
paper10 TransformBoth u128 root=e88622f80501f39ff6ae5257c3eac0a1 subs=9ded5836419a7d37
paper11 TransformBoth u128 root=19ae0118ea5e11893c90d99131b0a50b subs=c51a84c7b1288b03
paper12 TransformBoth u128 root=a5ce41dca97a2bb555fb1ecb6c80c8e1 subs=9d1b30d3434296a0
paper13 TransformBoth u128 root=4335d8e98560a2a7b1d17c96d35ac490 subs=057c4dd7cbc8eccd
paper14 TransformBoth u128 root=83ce4f7b2e28387851c06e6602006c5c subs=db3749219bda0913
paper15 TransformBoth u128 root=10f627df94a73663535ad62ac86aa974 subs=43b84f47a0b99f39
paper16 TransformBoth u128 root=70ef3fa87245b60f0552ef4f30934ddf subs=fbb67343c75de132
balanced/1/60 TransformBoth u128 root=36d0b3221c5c3e803483c265c11e0891 subs=01e084aa75283938
unbalanced/1/60 TransformBoth u128 root=2e673cafb6b3eb268f3851d8d0c986d6 subs=d842a1171acdcb2c
balanced/1/400 TransformBoth u128 root=a70d119dfb26f03b1d8f2a6458dea93c subs=72ef9da029a620f1
unbalanced/1/400 TransformBoth u128 root=5749c9ab34ff9b90083514c80b18cb71 subs=f5937423362e1909
balanced/2/60 TransformBoth u128 root=1cd17d41192338c210a38d86a78eb6e5 subs=09c36b1b48d5ef55
unbalanced/2/60 TransformBoth u128 root=904b884c559b26df96c95c59ba2d2947 subs=d334cf2477c41d60
balanced/2/400 TransformBoth u128 root=68b98a1620f621914ecf14b6b3953241 subs=b3ea98b02c82e018
unbalanced/2/400 TransformBoth u128 root=a832c8f01cc7dbed3447de0285637447 subs=2f889647b11d0d24
wide/3/3 TransformBoth u128 root=b9b42ce9f6ea7d97d62b6d7e1b644e1e subs=7f475ffd4da4b1b9
wide/4/6 TransformBoth u128 root=a09b8a66fd161cffc7b7e1df8dd8d970 subs=4bfe73724b528bd7
wide/5/12 TransformBoth u128 root=cecb3f52e4321610bfd44e4f99d98b49 subs=f65f5eaf446ee147
wide/6/48 TransformBoth u128 root=fe576860232a62b9bd836c58fc234f1a subs=3ed241a2217e6402
anf/7/50 TransformBoth u128 root=1088b41912dcdb78d08f95de9484c24a subs=a45e3a624d54168f
fan/7/43 TransformBoth u128 root=307d4bbe78d6369c238f6960ded51f25 subs=31412c0faf0f81ae"#;
