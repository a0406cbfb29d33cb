//! # alpha-hash
//!
//! A Rust implementation of *Hashing Modulo Alpha-Equivalence* (Maziarz,
//! Ellis, Lawrence, Fitzgibbon, Peyton Jones — PLDI 2021): compute, for
//! every subexpression of a program, a fixed-size hash such that two
//! subexpressions hash equal iff they are alpha-equivalent — in
//! O(n (log n)²) total time, compositionally, and therefore incrementally.
//!
//! ## Layout (mirroring the paper)
//!
//! | Module | Paper | Contents |
//! |--------|-------|----------|
//! | [`combine`] | §5, §6.2 | hash widths (u16…u128), seeded combiner families |
//! | [`summary::reference`] | §4.2–4.7 | invertible e-summary, quadratic merge, `rebuild` |
//! | [`summary::fast`] | §4.8 | smaller-subtree merge with `StructureTag`s, `rebuild`: a sink of the production pass |
//! | [`hashed`] | §5 | **the final algorithm**, the one §4.8 traversal: structures/positions as hash codes, XOR map hash, `SummarySink`s |
//! | [`flatmap`] | §5.2 | flat variable maps: inline small-map storage, sorted-run merges, buffer pool |
//! | [`equiv`] | §3 | equivalence classes of all subexpressions |
//! | [`linear`] | App. C | lazy linear-map variant replacing tags |
//! | [`incremental`] | §6.3 | persistent-map engine re-hashing after local rewrites |
//! | [`cse`] | §1 | common-subexpression elimination built on the hash |
//! | [`folding`] | §1, §6.3 | constant-folding campaign driven through the incremental engine |
//!
//! ## Quick start
//!
//! ```
//! use lambda_lang::{ExprArena, parse, uniquify};
//! use alpha_hash::combine::HashScheme;
//! use alpha_hash::hashed::hash_all_subexpressions;
//! use alpha_hash::equiv::group_by_hash;
//!
//! // The paper's §1 example: two alpha-equivalent lambdas.
//! let mut arena = ExprArena::new();
//! let parsed = parse(&mut arena, r"foo (\x. x+7) (\y. y+7)")?;
//! let (arena, root) = uniquify(&arena, parsed); // distinct binders (§2.2)
//!
//! let scheme: HashScheme<u64> = HashScheme::default();
//! let hashes = hash_all_subexpressions(&arena, root, &scheme);
//! let classes = group_by_hash(&hashes);
//! assert!(classes.iter().any(|class| class.len() == 2)); // the lambdas
//! # Ok::<(), lambda_lang::ParseError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod combine;
pub mod cse;
pub mod equiv;
pub mod flatmap;
pub mod folding;
pub mod hashed;
pub mod incremental;
pub mod intern;
pub mod linear;
pub mod summary;

pub use combine::{HashScheme, HashWord};
pub use cse::{cse_forest, eliminate_common_subexpressions, CseConfig, CseResult, ForestCse};
pub use equiv::{ground_truth_classes, hash_classes, shared_dag_size};
pub use flatmap::{FlatVarMap, MapPool};
pub use hashed::{hash_all_subexpressions, hash_expr, HashedSummariser, SubtreeHashes};
