//! The query surface the root-only store could not express: containment
//! lookups, per-term subexpression classes and occurrence counts.
//!
//! All three lean on the subexpression index maintained by
//! [`Granularity::Subexpressions`](crate::Granularity::Subexpressions)
//! stores: every subexpression of every ingested term (above the
//! `min_nodes` floor) is a confirmed member of some class, so "is this
//! pattern contained in the corpus?" is one hash probe plus one exact
//! canonical comparison — the same cost as a root lookup, over a bigger
//! index. On a [`Granularity::Roots`](crate::Granularity::Roots) store
//! the same queries still answer, but only about whole ingested terms
//! (nothing else was indexed).
//!
//! ```
//! use alpha_store::AlphaStore;
//! use lambda_lang::{parse, ExprArena};
//!
//! let store: AlphaStore<u64> = AlphaStore::builder().subexpressions(1).build();
//! let mut arena = ExprArena::new();
//! let t = parse(&mut arena, "(v + 7) * (v + 7)").unwrap();
//! let outcome = store.insert(&arena, t);
//!
//! let pattern = parse(&mut arena, "v + 7").unwrap();
//! let class = store.contains(&arena, pattern).expect("contained");
//! assert_eq!(store.occurrences(class), 2);          // appears twice
//! assert!(store.subterm_classes(outcome.term).any(|c| c == class));
//! ```

use crate::store::{AlphaStore, ClassId, TermId};
use alpha_hash::combine::HashWord;
use lambda_lang::arena::{ExprArena, NodeId};

impl<H: HashWord> AlphaStore<H> {
    /// Does any ingested term **contain** a subexpression alpha-equivalent
    /// to the pattern at `root`? Returns the pattern's class if so. The
    /// query does not ingest anything.
    ///
    /// The pattern is treated as a standalone term: its free variables
    /// match subexpression occurrences whose variables are free *within
    /// the subexpression* under the same names — including variables bound
    /// further out in the containing term, which are free by name inside
    /// the subterm (the paper's subexpression semantics, §2.2).
    ///
    /// Completeness caveats: on a `Roots` store only whole ingested terms
    /// were indexed, so `contains` degrades to [`AlphaStore::lookup`]
    /// semantics; on a `Subexpressions { min_nodes }` store, patterns
    /// smaller than `min_nodes` can only match terms that were ingested
    /// whole (roots are always indexed, whatever their size).
    ///
    /// ```
    /// use alpha_store::AlphaStore;
    /// use lambda_lang::{parse, ExprArena};
    ///
    /// let store: AlphaStore<u64> = AlphaStore::builder().subexpressions(1).build();
    /// let mut arena = ExprArena::new();
    /// let t = parse(&mut arena, r"foo (\x. x+7) bar").unwrap();
    /// store.insert(&arena, t);
    ///
    /// // An alpha-renamed copy of an inner lambda is *contained*…
    /// let pattern = parse(&mut arena, r"\q. q+7").unwrap();
    /// assert!(store.contains(&arena, pattern).is_some());
    /// // …but was never ingested as a term of its own.
    /// assert!(store.lookup(&arena, pattern).is_none());
    /// ```
    pub fn contains(&self, arena: &ExprArena, root: NodeId) -> Option<ClassId> {
        self.probe_batch(arena, &[root], false)[0]
    }

    /// [`AlphaStore::contains`] over many patterns at once, sharing one
    /// `Preparer` (borrowed warm from the store's pool) across all of
    /// them — the name-hash cache and traversal buffers serve every
    /// pattern — and grouping probes so
    /// each shard's read lock is taken at most once. Answers come back in
    /// input order; none of the patterns is ingested.
    ///
    /// This is the right call shape for query-heavy services ("which of
    /// these N candidate rewrites already exist in the corpus?"): on the
    /// tracked benchmark corpus it probes several times faster than a loop
    /// of single [`AlphaStore::contains`] calls.
    ///
    /// ```
    /// use alpha_store::AlphaStore;
    /// use lambda_lang::{parse, ExprArena};
    ///
    /// let store: AlphaStore<u64> = AlphaStore::builder().subexpressions(1).build();
    /// let mut arena = ExprArena::new();
    /// let t = parse(&mut arena, "(v + 7) * (v + 7)").unwrap();
    /// store.insert(&arena, t);
    ///
    /// let patterns = [
    ///     parse(&mut arena, "v + 7").unwrap(),
    ///     parse(&mut arena, "v + 8").unwrap(),
    /// ];
    /// let found = store.contains_batch(&arena, &patterns);
    /// assert!(found[0].is_some());
    /// assert!(found[1].is_none());
    /// ```
    pub fn contains_batch(&self, arena: &ExprArena, patterns: &[NodeId]) -> Vec<Option<ClassId>> {
        self.probe_batch(arena, patterns, false)
    }

    /// The classes of every indexed subexpression of a previously ingested
    /// term — the term's own class always included — deduplicated and in
    /// ascending [`ClassId`] order. The result is a snapshot: the shard
    /// lock is released before the iterator is handed out.
    ///
    /// On a `Roots` store, the only indexed "subexpression" is the term
    /// itself, so the iterator yields exactly the term's class.
    ///
    /// # Panics
    ///
    /// Panics if `term` was not issued by this store.
    pub fn subterm_classes(&self, term: TermId) -> impl Iterator<Item = ClassId> {
        let shard = self.shards[term.shard as usize]
            .read()
            .expect("shard lock poisoned");
        let ids: Vec<ClassId> = if self.granularity().indexes_subexpressions() {
            let subs = &shard.term_subs[term.index as usize];
            debug_assert!(
                !subs.is_empty(),
                "subexpression-mode inserts always log at least the root's class"
            );
            subs.iter()
                .map(|&(bits, _)| ClassId::from_bits(bits))
                .collect()
        } else {
            // Roots mode keeps no per-term lists; recover the term's class
            // from the term log.
            vec![ClassId::from_bits(shard.terms[term.index as usize])]
        };
        ids.into_iter()
    }

    /// Total appearances of `class` across the corpus: whole-term inserts
    /// plus every indexed subexpression occurrence. On a `Roots` store
    /// this equals [`AlphaStore::members`].
    ///
    /// # Panics
    ///
    /// Panics if `class` was not issued by this store.
    pub fn occurrences(&self, class: ClassId) -> u64 {
        self.with_class(class, |c| c.occurrences)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_hash::combine::HashScheme;
    use lambda_lang::parse::parse;

    fn sub_store(min_nodes: usize) -> AlphaStore<u64> {
        AlphaStore::builder()
            .scheme(HashScheme::new(0xA1FA))
            .shards(8)
            .subexpressions(min_nodes)
            .build()
    }

    #[test]
    fn contains_finds_subexpressions_modulo_alpha() {
        let store = sub_store(1);
        let mut arena = ExprArena::new();
        let t = parse(&mut arena, r"foo (\x. x + 7) (v * 3)").unwrap();
        let outcome = store.insert(&arena, t);
        assert!(outcome.fresh);
        // 14 nodes (ops are curried applications), root excluded.
        assert_eq!(outcome.subs.indexed, 13);
        assert_eq!(outcome.subs.skipped_min_nodes, 0);

        // Alpha-renamed inner lambda: contained, not a root.
        let lam = parse(&mut arena, r"\p. p + 7").unwrap();
        assert!(store.contains(&arena, lam).is_some());
        assert!(store.lookup(&arena, lam).is_none());

        // The argument subterm and a leaf.
        let arg = parse(&mut arena, "v * 3").unwrap();
        assert!(store.contains(&arena, arg).is_some());
        let leaf = parse(&mut arena, "v").unwrap();
        assert!(store.contains(&arena, leaf).is_some());

        // Never-seen patterns.
        let miss = parse(&mut arena, r"\p. p + 8").unwrap();
        assert!(store.contains(&arena, miss).is_none());
        let wrong_free = parse(&mut arena, "w * 3").unwrap();
        assert!(store.contains(&arena, wrong_free).is_none());

        // The batched probe agrees pattern for pattern.
        let patterns = [lam, arg, leaf, miss, wrong_free, t];
        let batch = store.contains_batch(&arena, &patterns);
        for (i, &p) in patterns.iter().enumerate() {
            assert_eq!(batch[i], store.contains(&arena, p), "pattern {i}");
        }

        // The whole term is contained in itself, and is also a root.
        assert_eq!(store.contains(&arena, t), Some(outcome.class));
        assert_eq!(store.lookup(&arena, t), Some(outcome.class));
    }

    #[test]
    fn outer_bound_variables_are_free_by_name_inside_subterms() {
        // In \x. x + 1 the body subterm is "x + 1" with x free: a pattern
        // with free x matches it, a pattern with free y does not.
        let store = sub_store(1);
        let mut arena = ExprArena::new();
        let t = parse(&mut arena, r"\x. x + 1").unwrap();
        store.insert(&arena, t);
        let with_x = parse(&mut arena, "x + 1").unwrap();
        let with_y = parse(&mut arena, "y + 1").unwrap();
        assert!(store.contains(&arena, with_x).is_some());
        assert!(store.contains(&arena, with_y).is_none());
    }

    #[test]
    fn min_nodes_floor_limits_containment_but_not_roots() {
        let store = sub_store(3);
        let mut arena = ExprArena::new();
        let t = parse(&mut arena, r"\x. x + (v * 3)").unwrap();
        let outcome = store.insert(&arena, t);
        // 10 nodes total. Proper subterms clearing the 3-node floor:
        // `add x` (3), `mul v` (3), `mul v 3` (5), `add x (mul v 3)` (9).
        assert_eq!(outcome.subs.indexed, 4);
        assert_eq!(outcome.subs.skipped_min_nodes, 5); // add, x, mul, v, 3

        let mul = parse(&mut arena, "v * 3").unwrap();
        assert!(store.contains(&arena, mul).is_some());
        // Tiny pattern: below the floor, not indexed.
        let leaf = parse(&mut arena, "v").unwrap();
        assert!(store.contains(&arena, leaf).is_none());
        // But a tiny term ingested as a root is always findable.
        let tiny_root = parse(&mut arena, "w").unwrap();
        store.insert(&arena, tiny_root);
        assert!(store.contains(&arena, tiny_root).is_some());
    }

    #[test]
    fn subterm_classes_cover_all_indexed_subexpressions() {
        let store = sub_store(1);
        let mut arena = ExprArena::new();
        // (v+7) + (v+7): the two identical subterms share one class.
        let t = parse(&mut arena, "(v + 7) + (v + 7)").unwrap();
        let outcome = store.insert(&arena, t);
        let classes: Vec<ClassId> = store.subterm_classes(outcome.term).collect();
        // 13 nodes; distinct classes: add, v, 7, `add v`, `add v 7`,
        // `add (add v 7)`, and the root — duplicates deduplicated.
        assert_eq!(classes.len(), 7);
        assert!(classes.contains(&outcome.class));
        assert!(classes.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");

        // Occurrences: v+7 appears twice as a subterm.
        let pat = parse(&mut arena, "v + 7").unwrap();
        let class = store.contains(&arena, pat).expect("indexed");
        assert_eq!(store.occurrences(class), 2);
        assert_eq!(store.members(class), 0); // never a whole-term insert
        assert_eq!(store.occurrences(outcome.class), 1);
        assert_eq!(store.members(outcome.class), 1);
    }

    #[test]
    fn roots_mode_queries_degrade_gracefully() {
        let store: AlphaStore<u64> = AlphaStore::builder().seed(5).build();
        let mut arena = ExprArena::new();
        let t = parse(&mut arena, r"\x. x + 7").unwrap();
        let outcome = store.insert(&arena, t);
        assert_eq!(outcome.subs, crate::store::SubexprSummary::default());

        // contains == lookup on a roots store.
        let body = parse(&mut arena, "x + 7").unwrap();
        assert!(store.contains(&arena, body).is_none());
        assert_eq!(store.contains(&arena, t), Some(outcome.class));

        // subterm_classes yields exactly the term's class.
        let classes: Vec<ClassId> = store.subterm_classes(outcome.term).collect();
        assert_eq!(classes, vec![outcome.class]);
        assert_eq!(
            store.occurrences(outcome.class),
            store.members(outcome.class)
        );
    }
}
