//! # alpha-store
//!
//! A **sharded, concurrent, content-addressed store of alpha-equivalence
//! classes**, built on the hashing-modulo-alpha algorithm of Maziarz,
//! Ellis, Lawrence, Fitzgibbon and Peyton Jones (PLDI 2021).
//!
//! The library crates of this workspace compute per-expression hashes such
//! that alpha-equivalent terms collide. This crate turns that per-call
//! capability into a long-lived *subsystem*: an [`AlphaStore`] ingests
//! streams of terms — singly or in batches, from one thread or many — and
//! deduplicates them **modulo alpha**, the way hash-consing engines and
//! Merkle-DAG stores deduplicate by content address.
//!
//! ## Design
//!
//! * **Configured once, queried many.** A [`StoreBuilder`] fixes the hash
//!   scheme, shard count and [`Granularity`] up front:
//!   [`Granularity::Roots`] indexes whole inserted terms (the classic
//!   mode), [`Granularity::Subexpressions`] indexes *every* subexpression
//!   of them — hashed in the same fused O(n (log n)²) batched pass, never
//!   per-subterm — so [`AlphaStore::contains`] can answer containment
//!   queries modulo alpha. See [`granularity`] for the cost model.
//! * **Content addressing.** Each term is hashed with the workspace's
//!   [`HashScheme`](alpha_hash::combine::HashScheme); the hash routes the
//!   term to one of N lock-striped shards, so concurrent ingest contends
//!   only on terms that hash to the same stripe.
//! * **Exact, not probabilistic.** A hash match alone never merges two
//!   terms. On a candidate match the store confirms canonical de Bruijn
//!   identity ([`lambda_lang::debruijn`]) and only merges on true
//!   alpha-equivalence; genuine hash collisions are kept as separate
//!   classes and counted in [`StoreStats::hash_collisions`]. Every merge
//!   is confirmed, so [`StoreStats::unconfirmed_merges`] is always zero.
//! * **Hash-consed canonical storage.** Canonical forms live in one
//!   shared, sharded canon DAG: every distinct de Bruijn node is resident
//!   once, however many classes and subterm-index entries reach it, and
//!   merge confirmation for interned entries is one O(1) ref compare.
//!   [`AlphaStore::canon_dag_stats`] reports the resident footprint and
//!   sharing ratio; [`AlphaStore::representative_into`] rebuilds a named
//!   representative with fresh binders, and
//!   [`AlphaStore::canonical_text`] renders the paper's `\. %0` notation.
//! * **Corpus analytics.** [`corpus::corpus_shared_dag_size`] measures the
//!   memory a class-per-node DAG of the whole corpus would need (reusing
//!   [`alpha_hash::equiv::shared_dag_size`]), and
//!   [`corpus::store_backed_cse`] runs cross-term common-subexpression
//!   elimination over the deduplicated corpus.
//! * **Durable, optionally.** [`StoreBuilder::open_durable`] roots the
//!   store in a directory: inserts tee into a group-committed write-ahead
//!   log, [`AlphaStore::checkpoint`] writes an atomically-written
//!   point-in-time image and restarts the log empty, and
//!   [`AlphaStore::open`] recovers after a crash — replaying the WAL tail
//!   through the normal ingest path so every recovered merge is
//!   re-confirmed and exactness survives restarts. See [`persist`].
//!
//! ## Quick start
//!
//! ```
//! use alpha_store::AlphaStore;
//! use lambda_lang::{parse, ExprArena};
//!
//! let store: AlphaStore<u64> = AlphaStore::default();
//! let mut arena = ExprArena::new();
//! let a = parse(&mut arena, r"\x. x + 1")?;
//! let b = parse(&mut arena, r"\y. y + 1")?;
//! let first = store.insert(&arena, a);
//! let second = store.insert(&arena, b); // alpha-equivalent: same class
//! assert_eq!(first.class, second.class);
//! assert!(first.fresh && !second.fresh);
//! assert_eq!(store.num_classes(), 1);
//! assert_eq!(store.num_terms(), 2);
//! # Ok::<(), lambda_lang::ParseError>(())
//! ```
//!
//! For the subexpression-granularity mode and containment queries:
//!
//! ```
//! use alpha_store::AlphaStore;
//! use lambda_lang::{parse, ExprArena};
//!
//! let store: AlphaStore<u64> = AlphaStore::builder().subexpressions(2).build();
//! let mut arena = ExprArena::new();
//! let t = parse(&mut arena, r"map (\x. x + 1) things")?;
//! store.insert(&arena, t);
//! let pattern = parse(&mut arena, r"\q. q + 1")?; // alpha-renamed subterm
//! assert!(store.contains(&arena, pattern).is_some());
//! # Ok::<(), lambda_lang::ParseError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod canon;
pub mod codec;
pub mod corpus;
pub(crate) mod dag;
pub(crate) mod esummary;
pub mod granularity;
pub(crate) mod obs;
pub mod persist;
pub mod prepare;
pub mod query;
pub mod stats;
pub mod store;
pub mod update;

pub use corpus::{corpus_shared_dag_size, store_backed_cse, StoreBackedCse};
pub use granularity::{Granularity, StoreBuilder};
pub use persist::vfs::{FaultKind, FaultVfs, OsVfs, Vfs, VfsFile};
pub use persist::{PersistError, SnapshotOp, WalOp};
pub use prepare::{Preparer, POOLED_PREPARER_MAX_PAGES};
pub use stats::{CanonDagStats, StoreStats};
pub use store::{
    AlphaStore, ClassId, Health, InsertOutcome, RecoveryInfo, StoreError, SubexprSummary, TermId,
};
pub use update::{Rewrite, UpdateOutcome};

/// The zero-dependency metrics/tracing crate backing
/// [`AlphaStore::obs_report`] and friends, re-exported so downstream
/// callers can name its types ([`Report`](alpha_obs::Report),
/// [`Event`](alpha_obs::Event)) without a separate dependency edge.
pub use alpha_obs;
