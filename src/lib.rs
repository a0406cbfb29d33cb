//! # hash-modulo-alpha
//!
//! Umbrella crate for the Rust reproduction of *Hashing Modulo
//! Alpha-Equivalence* (Maziarz, Ellis, Lawrence, Fitzgibbon, Peyton Jones
//! — PLDI 2021): one `use` pulls in the whole workspace.
//!
//! * [`lang`] (`lambda-lang`) — the expression substrate: arena AST,
//!   parser/printer, uniquify, alpha-equivalence, de Bruijn, evaluator.
//! * [`pmap`] (`persistent-map`) — the persistent treap behind the
//!   incremental engine.
//! * [`hash`] (`alpha-hash`) — the paper's algorithm: invertible
//!   e-summaries (§4), the hashed form (§5), equivalence classes (§3),
//!   the linear-map variant (App. C), incrementality (§6.3) and the CSE
//!   client (§1).
//! * [`baselines`] (`hash-baselines`) — structural, de Bruijn and locally
//!   nameless hashing (Table 1).
//! * [`gen`] (`expr-gen`) — the evaluation workloads (§7, App. B).
//! * [`store`] (`alpha-store`) — the production subsystem: a sharded,
//!   concurrent, content-addressed store deduplicating streams of terms
//!   modulo alpha, with containment queries at subexpression granularity,
//!   corpus-level CSE and shared-DAG analytics, and optional durability
//!   (write-ahead log + snapshots + crash recovery, [`store::persist`]).
//!
//! The architecture notes in `docs/ARCHITECTURE.md` map these crates to
//! the paper's sections and walk the ingest pipeline end to end;
//! `docs/PERSISTENCE_FORMAT.md` is the byte-level spec of the durable
//! store files.
//!
//! ## Hashing in one call
//!
//! ```
//! use hash_modulo_alpha::prelude::*;
//!
//! let mut arena = ExprArena::new();
//! let parsed = parse(&mut arena, r"foo (\x. x+7) (\y. y+7)")?;
//! let (arena, root) = uniquify(&arena, parsed);
//! let scheme: HashScheme<u64> = HashScheme::default();
//! let classes = hash_classes(&arena, root, &scheme);
//! assert!(classes.iter().any(|c| c.len() == 2));
//! # Ok::<(), lambda_lang::ParseError>(())
//! ```
//!
//! ## The store as a service
//!
//! Configure once with [`StoreBuilder`](prelude::StoreBuilder) — hash
//! scheme, shard count, granularity, durability — then ingest from any
//! number of threads:
//!
//! ```
//! use hash_modulo_alpha::prelude::*;
//!
//! let dir = std::env::temp_dir().join(format!("umbrella-doc-{}", std::process::id()));
//! let store: AlphaStore<u64> = AlphaStore::builder()
//!     .seed(0x5EED)
//!     .shards(8)
//!     .subexpressions(2)     // index subterms for containment queries
//!     .open_durable(&dir)?;  // …and survive restarts
//!
//! let mut arena = ExprArena::new();
//! let t = parse(&mut arena, r"map (\x. x + 1) things").unwrap();
//! store.insert(&arena, t);
//! let pattern = parse(&mut arena, r"\q. q + 1").unwrap();
//! assert!(store.contains(&arena, pattern).is_some());
//! assert!(store.stats().is_exact()); // merges confirmed, never hash-trusted
//! drop(store);
//!
//! // A restart later: recovery re-confirms every replayed merge.
//! let reopened: AlphaStore<u64> = AlphaStore::open(&dir)?;
//! assert!(reopened.contains(&arena, pattern).is_some());
//! # std::fs::remove_dir_all(&dir).unwrap();
//! # Ok::<(), PersistError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use alpha_hash as hash;
pub use alpha_store as store;
pub use expr_gen as gen;
pub use hash_baselines as baselines;
pub use lambda_lang as lang;
pub use persistent_map as pmap;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use alpha_hash::combine::{HashScheme, HashWord};
    pub use alpha_hash::cse::{cse_forest, eliminate_common_subexpressions, CseConfig, ForestCse};
    pub use alpha_hash::equiv::{ground_truth_classes, group_by_hash, hash_classes};
    pub use alpha_hash::hashed::{hash_all_subexpressions, hash_expr};
    pub use alpha_hash::incremental::IncrementalHasher;
    pub use alpha_store::{
        corpus_shared_dag_size, store_backed_cse, AlphaStore, CanonDagStats, ClassId, Granularity,
        InsertOutcome, PersistError, Rewrite, StoreBuilder, StoreError, StoreStats, SubexprSummary,
        TermId, UpdateOutcome, WalOp,
    };
    pub use lambda_lang::{
        alpha_eq, check_unique_binders, parse, print::print, uniquify, ExprArena, ExprNode,
        Literal, NodeId, Symbol,
    };
}
