//! # expr-gen
//!
//! Workload generators for the evaluation of *Hashing Modulo
//! Alpha-Equivalence* (PLDI 2021):
//!
//! * [`random_terms`] — the §7.1 synthetic families: roughly **balanced**
//!   random lambda terms and **wildly unbalanced** spines with deeply
//!   nested lambdas (Figure 2's two panels).
//! * [`adversarial`] — Appendix B.1's adversarial pairs: structurally
//!   identical wrappers around two inequivalent seeds, built so that a
//!   low-level hash collision propagates to the root (Figure 4).
//! * [`models`] — synthetic stand-ins for the §7.2 real-life expressions:
//!   MNIST-CNN (n≈840), GMM (n≈1810) and BERT with a layer knob
//!   (n≈12975 at 12 layers), for Table 2 and Figure 3.
//! * [`wide`] — open application spines that sustain a configurable
//!   free-variable width, the context-sensitive-corpus regime where
//!   e-summary maps stay wide (the tiered var-map's target workload).
//! * [`shapes`] — ANF let chains and binder fans: compiler-IR shapes on
//!   which per-subterm canonical forms grow quadratically while the hasher
//!   stays within the paper's bound.
//!
//! All generators produce expressions whose binding sites are distinct
//! (the §2.2 precondition), so they can be hashed directly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversarial;
pub mod arith;
pub mod models;
pub mod random_terms;
pub mod shapes;
pub mod wide;

pub use adversarial::adversarial_pair;
pub use arith::arithmetic;
pub use models::{bert, gmm, mnist_cnn};
pub use random_terms::{balanced, unbalanced};
pub use shapes::{anf_chain, binder_fan};
pub use wide::wide_open_spine;
