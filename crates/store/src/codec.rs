//! The one byte codec of the daemon's wire frames, the write-ahead log
//! and the snapshot: little-endian scalars, strings (decoded borrowed),
//! hash words, the [`StoreStats`] block, CRC-32, the frame
//! `[len u32][crc32(payload) u32][payload]`, and untrusted counts, by one
//! rule: [`take_count`] refuses a count whose items cannot fit in the
//! bytes that remain, so no decoder sizes a buffer by what a count
//! claims. Decoders return [`DecodeError`], never panic, and each format
//! maps the error onto its own. The named-term run ([`put_term`],
//! [`take_term`], `docs/PROTOCOL.md` §5) is the wire's term payload and
//! the term of every WAL insert record, and the update body
//! ([`put_update`], [`take_update`], §4a) is the wire's `OP_UPDATE`
//! request and the body of every WAL delta record; the snapshot's canon
//! node runs stay with `persist::format`.

use crate::prepare::IndexMap;
use crate::stats::StoreStats;
use alpha_hash::combine::HashWord;
use lambda_lang::visit::postorder_with;
use lambda_lang::{ExprArena, ExprNode, Literal, NodeId, Symbol};
use std::fmt;

/// Why bytes failed to decode: the description each format's own typed
/// error (`PersistError::Corrupt`, `WireError::Frame`) carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Builds an error out of line, so the inlined decoders stay small.
#[cold]
#[inline(never)]
fn error(args: fmt::Arguments<'_>) -> DecodeError {
    DecodeError(args.to_string())
}

// Scalars, strings, hash words.

/// `put_*`/`take_*` for each fixed-width integer, little-endian.
macro_rules! int_codecs {
    ($($int:ty => $put:ident, $take:ident;)*) => {$(
        #[doc = concat!("Appends a `", stringify!($int), "`.")]
        #[inline]
        pub fn $put(out: &mut Vec<u8>, v: $int) {
            out.extend_from_slice(&v.to_le_bytes());
        }

        #[doc = concat!("Takes a `", stringify!($int), "`.")]
        #[inline]
        pub fn $take(input: &mut &[u8]) -> Result<$int, DecodeError> {
            let bytes = take_bytes(input, size_of::<$int>())?;
            Ok(<$int>::from_le_bytes(bytes.try_into().expect("exact width")))
        }
    )*};
}

int_codecs! {
    u8 => put_u8, take_u8;
    u16 => put_u16, take_u16;
    u32 => put_u32, take_u32;
    u64 => put_u64, take_u64;
}

/// Appends a `u32` count of items that follow, read by [`take_count`].
#[inline]
pub fn put_count(out: &mut Vec<u8>, count: usize) {
    put_u32(out, u32::try_from(count).expect("count fits u32"));
}

/// Appends a string: `u32` byte length, then the UTF-8 bytes.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_count(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Appends a hash word as its two 64-bit lanes (16 bytes), whatever the
/// in-memory width, so record layouts are identical across widths.
#[inline]
pub fn put_hash<H: HashWord>(out: &mut Vec<u8>, h: H) {
    let (lo, hi) = h.to_lanes();
    put_u64(out, lo);
    put_u64(out, hi);
}

/// Takes the next `n` bytes off `input`.
#[inline]
pub fn take_bytes<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if input.len() < n {
        let have = input.len();
        return Err(error(format_args!(
            "input truncated: wanted {n} more bytes, have {have}"
        )));
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

/// Takes a string, borrowed from `input`.
#[inline]
pub fn take_str<'a>(input: &mut &'a [u8]) -> Result<&'a str, DecodeError> {
    let len = take_u32(input)? as usize;
    std::str::from_utf8(take_bytes(input, len)?)
        .map_err(|_| error(format_args!("string is not UTF-8")))
}

/// Takes a hash word written by [`put_hash`].
#[inline]
pub fn take_hash<H: HashWord>(input: &mut &[u8]) -> Result<H, DecodeError> {
    let lo = take_u64(input)?;
    let hi = take_u64(input)?;
    Ok(H::from_lanes(lo, hi))
}

/// Takes a `u32` count of items that follow, each at least
/// `min_item_bytes` long, and refuses it if they cannot fit in the bytes
/// that remain: a hostile count fails before anything is sized by it.
#[inline]
pub fn take_count(input: &mut &[u8], min_item_bytes: usize) -> Result<usize, DecodeError> {
    let count = take_u32(input)?;
    let have = input.len();
    if (count as usize).saturating_mul(min_item_bytes) > have {
        return Err(error(format_args!(
            "count {count} of items of at least {min_item_bytes} bytes overruns the {have} bytes left"
        )));
    }
    Ok(count as usize)
}

/// Appends an optional `u64`: `0`, or `1` then the value.
pub fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    put_u8(out, u8::from(v.is_some()));
    if let Some(v) = v {
        put_u64(out, v);
    }
}

/// Takes an optional `u64` written by [`put_opt_u64`].
pub fn take_opt_u64(input: &mut &[u8]) -> Result<Option<u64>, DecodeError> {
    match take_u8(input)? {
        0 => Ok(None),
        1 => take_u64(input).map(Some),
        tag => Err(error(format_args!("unknown option tag {tag}"))),
    }
}

// StoreStats.

/// Appends [`StoreStats`] as 8 × `u64` in field order.
pub fn put_store_stats(out: &mut Vec<u8>, s: &StoreStats) {
    for v in [
        s.terms_ingested,
        s.classes_created,
        s.merges_confirmed,
        s.hash_collisions,
        s.unconfirmed_merges,
        s.subterms_indexed,
        s.subterm_merges_confirmed,
        s.subterms_skipped_min_nodes,
    ] {
        put_u64(out, v);
    }
}

/// Takes [`StoreStats`] written by [`put_store_stats`].
pub fn take_store_stats(input: &mut &[u8]) -> Result<StoreStats, DecodeError> {
    Ok(StoreStats {
        terms_ingested: take_u64(input)?,
        classes_created: take_u64(input)?,
        merges_confirmed: take_u64(input)?,
        hash_collisions: take_u64(input)?,
        unconfirmed_merges: take_u64(input)?,
        subterms_indexed: take_u64(input)?,
        subterm_merges_confirmed: take_u64(input)?,
        subterms_skipped_min_nodes: take_u64(input)?,
    })
}

// CRC-32 (IEEE 802.3 polynomial, reflected).

/// Slice-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; table `k` advances a byte through `k` additional zero bytes, so
/// eight lanes combine to process 8 input bytes per iteration. WAL framing
/// checksums every ingested byte, so this sits on the durable ingest hot
/// path.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the check in every frame header and on the
/// snapshot body. Slice-by-8 for throughput.
///
/// ```
/// // The standard check value for the IEEE polynomial.
/// assert_eq!(alpha_store::codec::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..].try_into().unwrap());
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// Frames.

/// Bytes in a frame header: `[len u32][crc32(payload) u32]`.
pub const FRAME_HEADER_LEN: usize = 8;

/// The header of a frame carrying `payload` (at most `u32::MAX` bytes).
pub fn frame_header(payload: &[u8]) -> [u8; FRAME_HEADER_LEN] {
    let len = u32::try_from(payload.len()).expect("frame payload fits u32");
    let mut header = [0; FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

/// Takes a frame header: the payload length and CRC it claims.
pub fn take_frame_header(input: &mut &[u8]) -> Result<(u32, u32), DecodeError> {
    Ok((take_u32(input)?, take_u32(input)?))
}

/// Checks a received frame payload against its header's CRC.
pub fn check_frame(payload: &[u8], crc: u32) -> Result<(), DecodeError> {
    let actual = crc32(payload);
    if actual != crc {
        return Err(error(format_args!(
            "payload CRC {actual:#010x} does not match header CRC {crc:#010x}"
        )));
    }
    Ok(())
}

/// Reserves a frame header at the end of `out`, where the frame starts:
/// the payload is encoded in place after it, and [`end_frame`] seals it.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    start
}

/// Writes the header of the frame [`begin_frame`] opened at `start`.
pub fn end_frame(out: &mut [u8], start: usize) {
    let (header, payload) = out[start..].split_at_mut(FRAME_HEADER_LEN);
    header.copy_from_slice(&frame_header(payload));
}

/// Takes one whole frame off `input` and returns its CRC-checked payload.
pub fn take_frame<'a>(input: &mut &'a [u8]) -> Result<&'a [u8], DecodeError> {
    let (len, crc) = take_frame_header(input)?;
    let payload = take_bytes(input, len as usize)?;
    check_frame(payload, crc)?;
    Ok(payload)
}

// Named terms.

const NODE_VAR: u8 = 0;
const NODE_LAM: u8 = 1;
const NODE_APP: u8 = 2;
const NODE_LET: u8 = 3;
const NODE_LIT: u8 = 4;

const LIT_I64: u8 = 0;
const LIT_F64_BITS: u8 = 1;
const LIT_BOOL: u8 = 2;

/// Smallest encoded name: the `u32` length prefix of an empty string.
const MIN_NAME_BYTES: usize = 4;
/// Smallest encoded node: a boolean literal (tag, literal tag, byte).
const MIN_NODE_BYTES: usize = 3;

/// Reusable buffers of [`put_term`]: the traversal stack, the per-term
/// name table (each distinct symbol once, in first-use order, with its
/// index), the emitted-position stack and the node run, which is encoded
/// before the name table that precedes it is complete. An arena interns
/// one symbol per string, so keying by symbol yields exactly the table
/// that keying by name would.
#[derive(Default)]
pub struct TermScratch {
    walk: Vec<(NodeId, bool)>,
    syms: Vec<Symbol>,
    index: IndexMap<Symbol, u32>,
    emitted: Vec<u32>,
    run: Vec<u8>,
}

/// The table index of `sym`, appending it to `syms` on first use.
fn name_index(syms: &mut Vec<Symbol>, index: &mut IndexMap<Symbol, u32>, sym: Symbol) -> u32 {
    *index.entry(sym).or_insert_with(|| {
        syms.push(sym);
        u32::try_from(syms.len() - 1).expect("name table fits u32")
    })
}

/// The run position of the most recently emitted node no parent has
/// claimed yet: in postorder that is the current node's last child.
fn pop_child(emitted: &mut Vec<u32>) -> u32 {
    emitted
        .pop()
        .expect("postorder emits a node's children before it")
}

/// Encodes one term as a postorder node run: a name table (the binder
/// and variable names this term uses, in first-use order), then the
/// nodes, children referenced by their position earlier in the run. The
/// root is the last node. Appended to `out`, so terms concatenate.
///
/// One pass, no hashing: names are looked up by symbol in a per-term
/// table, and a node's children are the positions it pops off a stack of
/// emitted positions (postorder emits them last, in order). The run goes
/// to `scratch` while the walk builds the table, then both go to `out`.
/// A warm `scratch` makes an encode allocation-free but for `out`.
pub fn put_term(out: &mut Vec<u8>, arena: &ExprArena, root: NodeId, scratch: &mut TermScratch) {
    let TermScratch {
        walk,
        syms,
        index,
        emitted,
        run,
    } = scratch;
    syms.clear();
    index.clear();
    emitted.clear();
    run.clear();
    let mut len = 0u32;
    postorder_with(arena, root, walk, |id| {
        match arena.node(id) {
            ExprNode::Var(s) => {
                put_u8(run, NODE_VAR);
                put_u32(run, name_index(syms, index, s));
            }
            ExprNode::Lam(s, _) => {
                let body = pop_child(emitted);
                put_u8(run, NODE_LAM);
                put_u32(run, name_index(syms, index, s));
                put_u32(run, body);
            }
            ExprNode::App(..) => {
                let arg = pop_child(emitted);
                let func = pop_child(emitted);
                put_u8(run, NODE_APP);
                put_u32(run, func);
                put_u32(run, arg);
            }
            ExprNode::Let(s, _, _) => {
                let body = pop_child(emitted);
                let rhs = pop_child(emitted);
                put_u8(run, NODE_LET);
                put_u32(run, name_index(syms, index, s));
                put_u32(run, rhs);
                put_u32(run, body);
            }
            ExprNode::Lit(lit) => {
                put_u8(run, NODE_LIT);
                match lit {
                    Literal::I64(v) => {
                        put_u8(run, LIT_I64);
                        put_u64(run, v as u64);
                    }
                    Literal::F64Bits(bits) => {
                        put_u8(run, LIT_F64_BITS);
                        put_u64(run, bits);
                    }
                    Literal::Bool(b) => {
                        put_u8(run, LIT_BOOL);
                        put_u8(run, u8::from(b));
                    }
                }
            }
        }
        emitted.push(len);
        len = len.checked_add(1).expect("node run fits u32");
    });
    let table_len: usize = syms.iter().map(|&s| 4 + arena.name(s).len()).sum();
    out.reserve(4 + table_len + 4 + run.len());
    put_count(out, syms.len());
    for &s in syms.iter() {
        put_str(out, arena.name(s));
    }
    put_count(out, len as usize);
    out.extend_from_slice(run);
}

/// Claims run position `p` as a child of the node being decoded (the
/// next one after `run`): `p` must be earlier in the run and not yet
/// claimed by another node.
fn claim_child(run: &mut [(NodeId, bool)], p: u32) -> Result<NodeId, DecodeError> {
    let i = run.len();
    match run.get_mut(p as usize) {
        None => Err(error(format_args!(
            "child reference {p} at node {i} is not backward"
        ))),
        Some((_, true)) => Err(error(format_args!(
            "node {p} is referenced again at node {i}: a term is a tree"
        ))),
        Some((id, claimed)) => {
            *claimed = true;
            Ok(*id)
        }
    }
}

/// Decodes one term into `arena`, returning its root. Rejects forward
/// or self child references, out-of-range name indices and any node
/// other than the root that is not referenced exactly once, so a
/// decoded term is always a well-formed tree: its size is the run's
/// length, never the unfolded size of a shared DAG, and whatever walks
/// it does work bounded by the bytes it came from.
///
/// The name and node counts are untrusted: [`take_count`] refuses one
/// whose items the rest of `input` cannot hold before anything (the
/// arena included) is sized by it. Names are interned straight from the
/// payload bytes.
pub fn take_term(input: &mut &[u8], arena: &mut ExprArena) -> Result<NodeId, DecodeError> {
    let name_count = take_count(input, MIN_NAME_BYTES)?;
    let mut syms = Vec::with_capacity(name_count);
    for _ in 0..name_count {
        syms.push(arena.intern(take_str(input)?));
    }
    let node_count = take_count(input, MIN_NODE_BYTES)?;
    if node_count == 0 {
        return Err(error(format_args!("term has zero nodes")));
    }
    // Each decoded node, and whether a later node has claimed it as a
    // child yet.
    let mut run: Vec<(NodeId, bool)> = Vec::with_capacity(node_count);
    arena.reserve(node_count);
    let sym = |syms: &[Symbol], i: u32| {
        syms.get(i as usize).copied().ok_or_else(|| {
            error(format_args!(
                "name index {i} out of range ({name_count} names)"
            ))
        })
    };
    for _ in 0..node_count {
        let id = match take_u8(input)? {
            NODE_VAR => {
                let s = sym(&syms, take_u32(input)?)?;
                arena.var(s)
            }
            NODE_LAM => {
                let s = sym(&syms, take_u32(input)?)?;
                let body = claim_child(&mut run, take_u32(input)?)?;
                arena.lam(s, body)
            }
            NODE_APP => {
                let f = claim_child(&mut run, take_u32(input)?)?;
                let a = claim_child(&mut run, take_u32(input)?)?;
                arena.app(f, a)
            }
            NODE_LET => {
                let s = sym(&syms, take_u32(input)?)?;
                let rhs = claim_child(&mut run, take_u32(input)?)?;
                let body = claim_child(&mut run, take_u32(input)?)?;
                arena.let_(s, rhs, body)
            }
            NODE_LIT => match take_u8(input)? {
                LIT_I64 => arena.lit(Literal::I64(take_u64(input)? as i64)),
                LIT_F64_BITS => arena.lit(Literal::F64Bits(take_u64(input)?)),
                LIT_BOOL => arena.lit(Literal::Bool(take_u8(input)? != 0)),
                tag => return Err(error(format_args!("unknown literal tag {tag}"))),
            },
            tag => return Err(error(format_args!("unknown node tag {tag}"))),
        };
        run.push((id, false));
    }
    let (root, nodes) = run.split_last().expect("node_count > 0");
    if let Some(p) = nodes.iter().position(|&(_, claimed)| !claimed) {
        return Err(error(format_args!(
            "node {p} is not the root and no later node references it"
        )));
    }
    Ok(root.0)
}

// Update bodies.

/// Encodes the body of an incremental update (`docs/PROTOCOL.md` §4a):
/// the term handle, the rewrite path (child-slot steps into the term's
/// canonical representative) and the patch, its term encoded with
/// `scratch`. The daemon's `OP_UPDATE` request carries it after the op
/// byte, and every WAL delta record after its hashes.
pub fn put_update(
    out: &mut Vec<u8>,
    term: u64,
    path: &[u32],
    arena: &ExprArena,
    root: NodeId,
    scratch: &mut TermScratch,
) {
    put_u64(out, term);
    put_count(out, path.len());
    for &slot in path {
        put_u32(out, slot);
    }
    put_term(out, arena, root, scratch);
}

/// Decodes an update body written by [`put_update`] into `(term bits,
/// path, patch root)`, the patch decoded into `arena`.
pub fn take_update(
    input: &mut &[u8],
    arena: &mut ExprArena,
) -> Result<(u64, Vec<u32>, NodeId), DecodeError> {
    let term = take_u64(input)?;
    let path = (0..take_count(input, 4)?)
        .map(|_| take_u32(input))
        .collect::<Result<_, _>>()?;
    let root = take_term(input, arena)?;
    Ok((term, path, root))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_count_refuses_items_that_cannot_fit() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 3);
        buf.extend_from_slice(&[0; 12]);
        assert_eq!(take_count(&mut buf.as_slice(), 4), Ok(3));
        assert!(take_count(&mut buf.as_slice(), 5).is_err());
        assert!(take_count(&mut u32::MAX.to_le_bytes().as_slice(), 1).is_err());
    }

    #[test]
    fn frames_round_trip_and_check_their_crc() {
        let mut out = vec![0xEE];
        let start = begin_frame(&mut out);
        out.extend_from_slice(b"payload");
        end_frame(&mut out, start);
        assert_eq!(out[1..9], frame_header(b"payload"));
        let mut input = &out[1..];
        assert_eq!(take_frame(&mut input), Ok(&b"payload"[..]));
        assert!(input.is_empty());

        let last = out.len() - 1;
        assert!(take_frame(&mut &out[1..last]).is_err(), "truncated");
        out[last] ^= 1;
        let err = take_frame(&mut &out[1..]).unwrap_err();
        assert!(err.0.contains("does not match header CRC"), "{err}");
    }
}
