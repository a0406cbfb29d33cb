//! Hash words and seeded hash combiners (paper §5, §6.2).
//!
//! The collision analysis (Definition 6.4, Lemma 6.6, Theorem 6.7) assumes
//! *random functions*: combiners whose outputs are chosen uniformly and
//! independently. As the paper notes, "in practice, it may not be possible
//! to obtain true randomness, or one may prefer to fix the seed and make
//! the hashing algorithm deterministic"; we follow that practical route and
//! instantiate every combiner as a strong seeded mixing chain (splitmix64
//! finalisers over two 64-bit lanes), truncated to the requested width.
//!
//! Widths are generic via [`HashWord`]: the Appendix B collision study runs
//! the identical algorithm at b = 16, Theorem 6.8's recommended production
//! width is b = 128, and the performance benchmarks use b = 64.
//!
//! Each combiner is salted with a distinct per-constructor constant and —
//! exactly as the Lemma 6.6 proof requires — with the *size* of the object
//! being built (the number of constructor calls). The structure size also
//! serves as the `StructureTag` of §4.8, because a structure's size
//! strictly exceeds that of any of its sub-structures.
//!
//! Two things keep a combiner call cheap without changing a bit of its
//! output. A [`HashScheme`] starts every combiner chain once, when it is
//! built (the seed and salt are fixed, so so is the chain's first
//! state), and a call copies that start instead of mixing it again. And a
//! [`Mixer`] knows its word width: for words of 64 bits or fewer it skips
//! the high lane, which truncation would discard.

use std::fmt::Debug;
use std::hash::Hash;

/// A fixed-width hash code. Implemented for `u16`, `u32`, `u64`, `u128`.
///
/// The two "lanes" are independent 64-bit digests; narrow widths truncate
/// the low lane, `u128` concatenates both.
pub trait HashWord: Copy + Eq + Ord + Hash + Debug + Send + Sync + 'static {
    /// Number of bits `b` in the hash space (2^b values).
    const BITS: u32;
    /// The all-zeroes word: the XOR-identity, used as the hash of an empty
    /// variable map.
    const ZERO: Self;

    /// Builds a word from two independently mixed 64-bit lanes.
    fn from_lanes(lo: u64, hi: u64) -> Self;

    /// Expands the word back to two lanes for feeding into further
    /// combiners. For widths ≤ 64 the high lane is zero, which is fine:
    /// the word is absorbed, not used as a key.
    fn to_lanes(self) -> (u64, u64);

    /// XOR — the commutative, associative, invertible aggregation the
    /// paper uses for variable-map hashes (§5.2).
    fn xor(self, other: Self) -> Self;
}

impl HashWord for u16 {
    const BITS: u32 = 16;
    const ZERO: Self = 0;

    #[inline]
    fn from_lanes(lo: u64, _hi: u64) -> Self {
        lo as u16
    }

    #[inline]
    fn to_lanes(self) -> (u64, u64) {
        (self as u64, 0)
    }

    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
}

impl HashWord for u32 {
    const BITS: u32 = 32;
    const ZERO: Self = 0;

    #[inline]
    fn from_lanes(lo: u64, _hi: u64) -> Self {
        lo as u32
    }

    #[inline]
    fn to_lanes(self) -> (u64, u64) {
        (self as u64, 0)
    }

    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
}

impl HashWord for u64 {
    const BITS: u32 = 64;
    const ZERO: Self = 0;

    #[inline]
    fn from_lanes(lo: u64, _hi: u64) -> Self {
        lo
    }

    #[inline]
    fn to_lanes(self) -> (u64, u64) {
        (self, 0)
    }

    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
}

impl HashWord for u128 {
    const BITS: u32 = 128;
    const ZERO: Self = 0;

    #[inline]
    fn from_lanes(lo: u64, hi: u64) -> Self {
        (lo as u128) | ((hi as u128) << 64)
    }

    #[inline]
    fn to_lanes(self) -> (u64, u64) {
        (self as u64, (self >> 64) as u64)
    }

    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
}

/// splitmix64 finaliser: a high-quality 64-bit mixing permutation.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a byte string to 64 bits (FNV-1a core + splitmix finaliser).
/// Used for variable *names*, so hashes are stable across arenas and
/// interners.
pub fn hash_str(seed: u64, s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ seed;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h)
}

/// A two-lane absorbing mixer. Each [`Mixer::absorb`]ed word perturbs both
/// lanes through independent splitmix chains; [`Mixer::finish`] truncates
/// to the chain's [`HashWord`].
///
/// Words of 64 bits or fewer keep only the low lane, so for them the
/// mixer never computes the high one: [`Mixer::finish`] would discard it.
/// The low lane does not depend on the high lane, so every width's hashes
/// are the same bits either way.
#[derive(Clone, Copy, Debug)]
pub struct Mixer<H: HashWord> {
    lo: u64,
    hi: u64,
    _width: std::marker::PhantomData<H>,
}

impl<H: HashWord> Mixer<H> {
    /// Whether the high lane reaches the finished word.
    const WIDE: bool = H::BITS > 64;

    /// Starts a mixing chain from the scheme seed and a per-combiner salt.
    #[inline]
    pub fn new(seed: u64, salt: u64) -> Self {
        let lo = mix64(seed ^ salt);
        let hi = if Self::WIDE {
            mix64(lo ^ 0xA5A5_A5A5_5A5A_5A5A)
        } else {
            0
        };
        Mixer {
            lo,
            hi,
            _width: std::marker::PhantomData,
        }
    }

    /// Absorbs one 64-bit word.
    #[inline]
    pub fn absorb(&mut self, w: u64) -> &mut Self {
        self.lo = mix64(self.lo ^ w);
        if Self::WIDE {
            self.hi = mix64(self.hi.wrapping_add(w).rotate_left(17) ^ 0x94D0_49BB_1331_11EB);
            self.hi = mix64(self.hi ^ w.rotate_left(32));
        }
        self
    }

    /// Absorbs a hash word: its low lane, and for `u128` its high lane too.
    #[inline]
    pub fn absorb_word(&mut self, w: H) -> &mut Self {
        let (lo, hi) = w.to_lanes();
        self.absorb(lo);
        if Self::WIDE {
            self.absorb(hi);
        }
        self
    }

    /// Finishes the chain.
    #[inline]
    pub fn finish(&self) -> H {
        H::from_lanes(self.lo, self.hi)
    }
}

/// Salts that do not start a combiner chain. Arbitrary distinct
/// constants; the scheme seed randomises everything downstream of them.
mod salt {
    pub const VAR_NAME: u64 = 0x01;
    pub const NONE_MARKER: u64 = 0x30;
    pub const SOME_MARKER: u64 = 0x31;
}

/// The combiner chains of a [`HashScheme`], each started from its own
/// per-constructor salt. The discriminant indexes the scheme's
/// precomputed starting lanes.
#[derive(Clone, Copy)]
enum Chain {
    PtHere,
    PtLeft,
    PtRight,
    PtBoth,
    PtJoin,
    SVar,
    SLam,
    SApp,
    SLet,
    SLit,
    Entry,
    ESummary,
}

impl Chain {
    /// Every chain, in discriminant order.
    const ALL: [Chain; 12] = [
        Chain::PtHere,
        Chain::PtLeft,
        Chain::PtRight,
        Chain::PtBoth,
        Chain::PtJoin,
        Chain::SVar,
        Chain::SLam,
        Chain::SApp,
        Chain::SLet,
        Chain::SLit,
        Chain::Entry,
        Chain::ESummary,
    ];

    /// The chain's salt (part of the hash format: changing one changes
    /// every hash the chain produces).
    fn salt(self) -> u64 {
        match self {
            Chain::PtHere => 0x02,
            Chain::PtLeft => 0x03,
            Chain::PtRight => 0x04,
            Chain::PtBoth => 0x05,
            Chain::PtJoin => 0x06,
            Chain::SVar => 0x10,
            Chain::SLam => 0x11,
            Chain::SApp => 0x12,
            Chain::SLet => 0x13,
            Chain::SLit => 0x14,
            Chain::Entry => 0x20,
            Chain::ESummary => 0x21,
        }
    }
}

/// A seeded family of hash combiners — the practical stand-in for the
/// randomly chosen functions of Definition 6.4. Two schemes with different
/// seeds behave as independently drawn combiner families, which is exactly
/// what the Appendix B adversarial experiment varies.
///
/// A scheme starts each combiner chain once, when it is built, and keeps
/// the starting lanes; a combiner call then only absorbs its arguments.
/// It is `Copy` (about 200 bytes), so a hasher may keep its own copy.
#[derive(Clone, Copy, Debug)]
pub struct HashScheme<H: HashWord> {
    seed: u64,
    /// `Mixer::new(seed, chain.salt())` for every [`Chain`], by
    /// discriminant.
    starts: [Mixer<H>; Chain::ALL.len()],
}

/// Seed used by [`HashScheme::default`]: an arbitrary fixed value so that
/// unseeded use is deterministic across runs.
pub const DEFAULT_SEED: u64 = 0xD1B5_4A32_D192_ED03;

impl<H: HashWord> Default for HashScheme<H> {
    fn default() -> Self {
        Self::new(DEFAULT_SEED)
    }
}

impl<H: HashWord> HashScheme<H> {
    /// Creates a combiner family from a seed. Equal seeds give identical
    /// (deterministic) hash functions; different seeds give independent
    /// families.
    pub fn new(seed: u64) -> Self {
        Self::from_raw_seed(mix64(seed))
    }

    /// The scheme's raw internal seed (post-mixing). Together with the
    /// [`HashWord`] width this **completely determines** every hash the
    /// scheme produces, so it is the scheme's stable wire encoding:
    /// persisting this value and later rebuilding the scheme with
    /// [`HashScheme::from_raw_seed`] reproduces identical hashes. The
    /// combiner chains themselves are versioned by the store formats that
    /// persist them (see `alpha-store`'s `persist::format`): any change to
    /// the mixing functions in this module is a wire-format break.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Rebuilds a scheme from a raw internal seed previously obtained via
    /// [`HashScheme::seed`]. Unlike [`HashScheme::new`], the value is used
    /// as-is (no re-mixing), so `from_raw_seed(s.seed())` is exactly `s` —
    /// the round-trip used by persistent stores to reopen a corpus under
    /// the hash function that addressed it.
    ///
    /// ```
    /// use alpha_hash::combine::HashScheme;
    /// let original: HashScheme<u64> = HashScheme::new(0x5EED);
    /// let reopened: HashScheme<u64> = HashScheme::from_raw_seed(original.seed());
    /// assert_eq!(original.s_var(), reopened.s_var());
    /// assert_eq!(original.var_name("x"), reopened.var_name("x"));
    /// ```
    pub fn from_raw_seed(raw: u64) -> Self {
        HashScheme {
            seed: raw,
            starts: Chain::ALL.map(|chain| Mixer::new(raw, chain.salt())),
        }
    }

    /// A copy of the chain's precomputed start.
    #[inline]
    fn mixer(&self, chain: Chain) -> Mixer<H> {
        self.starts[chain as usize]
    }

    /// Hash of a variable *name* (stable across arenas).
    #[inline]
    pub fn var_name(&self, name: &str) -> u64 {
        hash_str(self.seed ^ salt::VAR_NAME, name)
    }

    // ---- position-tree combiners -------------------------------------

    /// `PTHere` (§4.5): a single occurrence at the current node.
    #[inline]
    pub fn pt_here(&self) -> H {
        self.mixer(Chain::PtHere).finish()
    }

    /// `PTLeftOnly` (§4.5; used by the quadratic merge of §4.6).
    #[inline]
    pub fn pt_left(&self, size: u64, p: H) -> H {
        self.mixer(Chain::PtLeft)
            .absorb(size)
            .absorb_word(p)
            .finish()
    }

    /// `PTRightOnly` (§4.5).
    #[inline]
    pub fn pt_right(&self, size: u64, p: H) -> H {
        self.mixer(Chain::PtRight)
            .absorb(size)
            .absorb_word(p)
            .finish()
    }

    /// `PTBoth` (§4.5).
    #[inline]
    pub fn pt_both(&self, size: u64, l: H, r: H) -> H {
        self.mixer(Chain::PtBoth)
            .absorb(size)
            .absorb_word(l)
            .absorb_word(r)
            .finish()
    }

    /// `PTJoin` (§4.8): tagged join of the bigger-map entry (if any) with
    /// the smaller-map entry.
    #[inline]
    pub fn pt_join(&self, size: u64, tag: u64, bigger: Option<H>, smaller: H) -> H {
        let mut m = self.mixer(Chain::PtJoin);
        m.absorb(size).absorb(tag);
        self.absorb_opt(&mut m, bigger);
        m.absorb_word(smaller).finish()
    }

    #[inline]
    fn absorb_opt(&self, m: &mut Mixer<H>, value: Option<H>) {
        match value {
            None => {
                m.absorb(salt::NONE_MARKER);
            }
            Some(h) => {
                m.absorb(salt::SOME_MARKER).absorb_word(h);
            }
        }
    }

    // ---- structure combiners ------------------------------------------

    /// `SVar`: the anonymous variable structure.
    #[inline]
    pub fn s_var(&self) -> H {
        self.mixer(Chain::SVar).finish()
    }

    /// `SLit`: a literal leaf, identified by kind and payload.
    #[inline]
    pub fn s_lit(&self, kind: u64, payload: u64) -> H {
        self.mixer(Chain::SLit)
            .absorb(kind)
            .absorb(payload)
            .finish()
    }

    /// `SLam`: binder position tree (if the variable occurs) + body
    /// structure. `size` is the structure's node count — the Lemma 6.6
    /// salt.
    #[inline]
    pub fn s_lam(&self, size: u64, pos: Option<H>, body: H) -> H {
        let mut m = self.mixer(Chain::SLam);
        m.absorb(size);
        self.absorb_opt(&mut m, pos);
        m.absorb_word(body).finish()
    }

    /// `SApp` with the §4.8 `left_bigger` flag.
    #[inline]
    pub fn s_app(&self, size: u64, left_bigger: bool, fun: H, arg: H) -> H {
        self.mixer(Chain::SApp)
            .absorb(size)
            .absorb(left_bigger as u64)
            .absorb_word(fun)
            .absorb_word(arg)
            .finish()
    }

    /// `SLet`: binder positions in the body + rhs/body structures, with a
    /// `rhs_bigger` merge flag (the `Let` analogue of `left_bigger`).
    #[inline]
    pub fn s_let(&self, size: u64, rhs_bigger: bool, pos: Option<H>, rhs: H, body: H) -> H {
        let mut m = self.mixer(Chain::SLet);
        m.absorb(size).absorb(rhs_bigger as u64);
        self.absorb_opt(&mut m, pos);
        m.absorb_word(rhs).absorb_word(body).finish()
    }

    // ---- map and summary combiners --------------------------------------

    /// Hash of one variable-map entry `(v, p)` (§5.2 `entryHash`). The
    /// map hash is the XOR of these.
    #[inline]
    pub fn entry(&self, name_hash: u64, pos: H) -> H {
        self.mixer(Chain::Entry)
            .absorb(name_hash)
            .absorb_word(pos)
            .finish()
    }

    /// Top-level combination of structure hash and variable-map hash
    /// (§5 `hashESummary`).
    #[inline]
    pub fn esummary(&self, structure: H, varmap: H) -> H {
        self.mixer(Chain::ESummary)
            .absorb_word(structure)
            .absorb_word(varmap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_truncate_consistently() {
        let s64: HashScheme<u64> = HashScheme::new(1);
        let s32: HashScheme<u32> = HashScheme::new(1);
        let s16: HashScheme<u16> = HashScheme::new(1);
        // Identical chains, truncated: low bits must agree.
        assert_eq!(s64.pt_here() as u16, s16.pt_here());
        assert_eq!(s64.s_var() as u16, s16.s_var());
        assert_eq!(s64.pt_here() as u32, s32.pt_here());
        assert_eq!(s64.s_var() as u32, s32.s_var());
        // And u128's low lane is the u64 value.
        let s128: HashScheme<u128> = HashScheme::new(1);
        assert_eq!(s128.s_var().to_lanes().0, s64.s_var());
    }

    #[test]
    fn u128_lanes_are_independent() {
        let s: HashScheme<u128> = HashScheme::new(7);
        let h = s.s_var();
        let (lo, hi) = h.to_lanes();
        assert_ne!(lo, hi);
        assert_eq!(u128::from_lanes(lo, hi), h);
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let a: HashScheme<u64> = HashScheme::new(1);
        let b: HashScheme<u64> = HashScheme::new(2);
        assert_ne!(a.pt_here(), b.pt_here());
        assert_ne!(a.s_var(), b.s_var());
        assert_ne!(a.var_name("x"), b.var_name("x"));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a: HashScheme<u64> = HashScheme::new(42);
        let b: HashScheme<u64> = HashScheme::new(42);
        assert_eq!(a.s_app(3, true, 1, 2), b.s_app(3, true, 1, 2));
        assert_eq!(a.entry(9, 8), b.entry(9, 8));
    }

    #[test]
    fn constructors_are_mutually_distinct() {
        let s: HashScheme<u64> = HashScheme::new(3);
        let values = [
            s.pt_here(),
            s.pt_left(2, 1),
            s.pt_right(2, 1),
            s.pt_both(3, 1, 1),
            s.pt_join(3, 5, None, 1),
            s.s_var(),
            s.s_lit(1, 42),
            s.s_lam(2, None, 1),
            s.s_app(3, true, 1, 1),
            s.s_let(3, false, None, 1, 1),
            s.entry(1, 1),
            s.esummary(1, 1),
        ];
        for (i, a) in values.iter().enumerate() {
            for (j, b) in values.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "combiners {i} and {j} collided");
                }
            }
        }
    }

    #[test]
    fn arguments_matter() {
        let s: HashScheme<u64> = HashScheme::new(11);
        assert_ne!(s.s_app(3, true, 1, 2), s.s_app(3, false, 1, 2));
        assert_ne!(s.s_app(3, true, 1, 2), s.s_app(3, true, 2, 1));
        assert_ne!(s.s_app(3, true, 1, 2), s.s_app(5, true, 1, 2));
        assert_ne!(s.pt_join(4, 7, None, 1), s.pt_join(4, 7, Some(0), 1));
        assert_ne!(s.pt_join(4, 7, Some(1), 2), s.pt_join(4, 7, Some(2), 1));
        assert_ne!(s.s_lam(2, None, 1), s.s_lam(2, Some(0), 1));
    }

    #[test]
    fn none_marker_differs_from_some_zero() {
        let s: HashScheme<u64> = HashScheme::new(13);
        // A lambda whose variable does not occur must differ from one whose
        // position tree happens to hash to 0.
        assert_ne!(s.s_lam(2, None, 9), s.s_lam(2, Some(0), 9));
    }

    #[test]
    fn name_hash_is_stable_and_spread() {
        let s: HashScheme<u64> = HashScheme::new(17);
        assert_eq!(s.var_name("foo"), s.var_name("foo"));
        assert_ne!(s.var_name("foo"), s.var_name("fop"));
        assert_ne!(s.var_name("x"), s.var_name("x%0"));
        // Empty name is fine.
        let _ = s.var_name("");
    }

    #[test]
    fn xor_is_invertible_aggregation() {
        // (a ⊕ b) ⊕ a == b — the property §5.2 relies on for removeFromVM.
        let a = 0xDEAD_BEEF_u64;
        let b = 0x1234_5678_u64;
        assert_eq!(a.xor(b).xor(a), b);
        assert_eq!(u64::ZERO.xor(a), a);
    }

    #[test]
    fn mix64_is_a_permutation_sample() {
        // Distinct inputs give distinct outputs on a sample (sanity; true
        // by construction since splitmix64 is bijective).
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn raw_seed_round_trips_the_whole_scheme() {
        let a: HashScheme<u128> = HashScheme::new(0xFACE);
        let b: HashScheme<u128> = HashScheme::from_raw_seed(a.seed());
        assert_eq!(a.seed(), b.seed());
        assert_eq!(a.s_app(3, true, 1, 2), b.s_app(3, true, 1, 2));
        assert_eq!(a.pt_join(4, 7, Some(9), 1), b.pt_join(4, 7, Some(9), 1));
        assert_eq!(a.var_name("free"), b.var_name("free"));
        // And from_raw_seed really skips the mixing step.
        assert_ne!(
            HashScheme::<u64>::new(1).seed(),
            HashScheme::<u64>::from_raw_seed(1).seed()
        );
    }

    #[test]
    fn default_scheme_is_fixed() {
        let a: HashScheme<u64> = HashScheme::default();
        let b: HashScheme<u64> = HashScheme::default();
        assert_eq!(a.s_var(), b.s_var());
    }
}
