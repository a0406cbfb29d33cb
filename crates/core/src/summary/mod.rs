//! Step 1 of the paper's two-step development (§3.2): invertible
//! e-summaries.
//!
//! * [`mod@reference`] — the basic algorithm with the quadratic `mergeVM`
//!   (§4.6) and its `rebuild` inverse (§4.7).
//! * [`fast`] — the smaller-subtree merge with `StructureTag`s (§4.8),
//!   also invertible. It has no traversal of its own: it is a
//!   [`crate::hashed::SummarySink`] of the production pass, which makes
//!   every merge decision, so `rebuild` witnesses that the store's own
//!   pass loses no information.
//!
//! Neither of these is the production algorithm (that is
//! [`crate::hashed`]); they exist because the paper's correctness argument
//! does: Step 1 loses no information (witnessed by `rebuild`), so the only
//! possible failures of the hashed form are ordinary hash collisions,
//! bounded in §6.2.

pub mod fast;
pub mod reference;
