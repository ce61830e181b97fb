//! Versioned, checksummed, zero-dependency binary persistence for
//! deterministic fleet snapshots.
//!
//! This crate sits at the bottom of the workspace dependency graph (like
//! `autodbaas-telemetry`) and defines three layers:
//!
//! * the [`Snap`] trait — exact binary encode/decode for a value. Every
//!   number is little-endian; `f64`/`f32` round-trip through raw bits so
//!   restore is bit-identical, never "close". Hash containers encode in
//!   sorted key order so the byte stream is independent of hash seeds and
//!   insertion history.
//! * the [`snap_struct!`] / [`snap_enum!`] macros — invoked *inside the
//!   defining module* of each state-bearing crate so private fields stay
//!   private. `snap_struct!` lists the persisted fields (decode uses an
//!   exhaustive struct literal, so adding a field without updating the
//!   snapshot impl is a compile error); rebuildable scratch goes in the
//!   `defaults { .. }` arm.
//! * the frame layer ([`FrameWriter`] / [`FrameReader`]) — the same
//!   discipline as the gateway wire codec: an 8-byte magic, a format
//!   version, then tagged length-prefixed frames each sealed with an
//!   FNV-1a checksum, closed by a whole-file trailer hash. Any flipped
//!   bit, truncation, or splice is a typed [`SnapError`], never a panic
//!   and never a silently wrong fleet.
//!
//! Versioning rules: `VERSION` bumps whenever any frame's byte layout
//! changes; readers reject other versions outright (snapshots are
//! reproducibility artifacts, not archival interchange — cross-version
//! migration is explicitly out of scope). Frame tags are allocated by the
//! owning crate and never reused.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};
use std::fmt;

/// File magic: "AutoDBaaS SNAPshot", format generation 1.
pub const MAGIC: [u8; 8] = *b"ADBSNAP1";

/// Snapshot format version. Bump on any layout change; readers reject
/// mismatches with [`SnapError::UnsupportedVersion`].
pub const VERSION: u32 = 2;

/// Reserved tag closing every snapshot file; its payload is the running
/// FNV-1a hash of all preceding bytes.
pub const TRAILER_TAG: u16 = 0xFFFF;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `state` (seed with [`FNV_OFFSET`]
/// via [`fnv1a_start`]).
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Fresh FNV-1a state.
pub fn fnv1a_start() -> u64 {
    FNV_OFFSET
}

/// Typed decode / integrity failure. Snapshots are untrusted input: every
/// malformation maps here, nothing panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// Fewer bytes remain than the value needs.
    Truncated { needed: usize, have: usize },
    /// File does not start with [`MAGIC`].
    BadMagic,
    /// File was written by a different format generation.
    UnsupportedVersion(u32),
    /// A frame's FNV-1a seal does not match its bytes.
    ChecksumMismatch { tag: u16 },
    /// The whole-file trailer hash does not match the preceding bytes.
    TrailerMismatch,
    /// The file ended without a trailer frame.
    MissingTrailer,
    /// An enum/frame tag outside the known vocabulary.
    UnknownTag { what: &'static str, tag: u32 },
    /// A structurally invalid value (bad bool byte, oversize usize, …).
    Malformed(&'static str),
    /// Decode succeeded but bytes were left over.
    TrailingBytes { extra: usize },
    /// Filesystem error while reading or writing a snapshot file.
    Io {
        kind: std::io::ErrorKind,
        path: String,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { needed, have } => {
                write!(f, "truncated snapshot: needed {needed} bytes, have {have}")
            }
            Self::BadMagic => write!(f, "bad snapshot magic"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            Self::ChecksumMismatch { tag } => {
                write!(f, "frame 0x{tag:04x} failed its checksum")
            }
            Self::TrailerMismatch => write!(f, "whole-file trailer hash mismatch"),
            Self::MissingTrailer => write!(f, "snapshot ended without a trailer frame"),
            Self::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            Self::Malformed(what) => write!(f, "malformed {what}"),
            Self::TrailingBytes { extra } => {
                write!(f, "{extra} unconsumed bytes after decode")
            }
            Self::Io { kind, path } => write!(f, "snapshot io error ({kind:?}) on {path}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only byte sink for [`Snap::encode`].
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian i64.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64 as its raw bit pattern (exact round-trip, NaN included).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append raw bytes with a u64 length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a UTF-8 string with a u64 length prefix.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor over encoded bytes for [`Snap::decode`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u16.
    pub fn get_u16(&mut self) -> Result<u16, SnapError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Read a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Read a little-endian i64.
    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        Ok(self.get_u64()? as i64)
    }

    /// Read an f64 from its raw bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a u64-length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.get_len()?;
        self.take(len)
    }

    /// Read a u64-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| SnapError::Malformed("utf-8 string"))
    }

    /// Read a u64 length and bound it to the remaining bytes (every element
    /// occupies at least one byte, so a larger claim is corruption — this
    /// keeps a flipped length bit from asking the allocator for exabytes).
    pub fn get_len(&mut self) -> Result<usize, SnapError> {
        let raw = self.get_u64()?;
        let len = usize::try_from(raw).map_err(|_| SnapError::Malformed("length"))?;
        if len > self.remaining() {
            return Err(SnapError::Truncated {
                needed: len,
                have: self.remaining(),
            });
        }
        Ok(len)
    }
}

/// Exact binary persistence: `decode(encode(x)) == x`, bit for bit.
pub trait Snap: Sized {
    /// Append this value's canonical encoding.
    fn encode(&self, w: &mut SnapWriter);
    /// Rebuild a value from its encoding.
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Encode a value to a standalone byte vector.
pub fn encode_to_vec<T: Snap>(value: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decode a value from a standalone byte slice, requiring full consumption.
pub fn decode_from_slice<T: Snap>(bytes: &[u8]) -> Result<T, SnapError> {
    let mut r = SnapReader::new(bytes);
    let v = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(SnapError::TrailingBytes {
            extra: r.remaining(),
        });
    }
    Ok(v)
}

macro_rules! snap_prim {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Snap for $ty {
            fn encode(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
            fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$get()
            }
        }
    };
}

snap_prim!(u8, put_u8, get_u8);
snap_prim!(u16, put_u16, get_u16);
snap_prim!(u32, put_u32, get_u32);
snap_prim!(u64, put_u64, get_u64);
snap_prim!(i64, put_i64, get_i64);
snap_prim!(f64, put_f64, get_f64);

impl Snap for i32 {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u32(*self as u32);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.get_u32()? as i32)
    }
}

impl Snap for f32 {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u32(self.to_bits());
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(f32::from_bits(r.get_u32()?))
    }
}

impl Snap for bool {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u8(u8::from(*self));
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Malformed("bool")),
        }
    }
}

impl Snap for usize {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        usize::try_from(r.get_u64()?).map_err(|_| SnapError::Malformed("usize"))
    }
}

impl Snap for String {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.get_str()?.to_owned())
    }
}

impl<T: Snap> Snap for Option<T> {
    fn encode(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(SnapError::Malformed("option")),
        }
    }
}

impl<T: Snap> Snap for Box<T> {
    fn encode(&self, w: &mut SnapWriter) {
        (**self).encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl<T: Snap> Snap for std::cmp::Reverse<T> {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(std::cmp::Reverse(T::decode(r)?))
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_len()?;
        let mut out = VecDeque::with_capacity(len);
        for _ in 0..len {
            out.push_back(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn encode(&self, w: &mut SnapWriter) {
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode(r)?);
        }
        out.try_into().map_err(|_| SnapError::Malformed("array"))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap, D: Snap> Snap for (A, B, C, D) {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
        self.3.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?, D::decode(r)?))
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_len()?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

/// Hash maps encode in sorted key order — the byte stream must not depend
/// on hash seeds or insertion history.
impl<K, V> Snap for HashMap<K, V>
where
    K: Snap + Ord + Eq + std::hash::Hash,
    V: Snap,
{
    fn encode(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        w.put_u64(entries.len() as u64);
        for (k, v) in entries {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_len()?;
        let mut out = HashMap::with_capacity(len);
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Hash sets encode in sorted order, like [`HashMap`].
impl<T> Snap for HashSet<T>
where
    T: Snap + Ord + Eq + std::hash::Hash,
{
    fn encode(&self, w: &mut SnapWriter) {
        let mut entries: Vec<&T> = self.iter().collect();
        entries.sort();
        w.put_u64(entries.len() as u64);
        for v in entries {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_len()?;
        let mut out = HashSet::with_capacity(len);
        for _ in 0..len {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

/// Binary heaps encode as their sorted element sequence (heap layout is an
/// implementation detail; the sorted order is canonical and the rebuilt
/// heap is observationally identical).
impl<T: Snap + Ord> Snap for BinaryHeap<T> {
    fn encode(&self, w: &mut SnapWriter) {
        let mut entries: Vec<&T> = self.iter().collect();
        entries.sort();
        w.put_u64(entries.len() as u64);
        for v in entries {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_len()?;
        let mut out = BinaryHeap::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// Implement [`Snap`] for a struct by listing its persisted fields in
/// order; rebuildable scratch goes in the `defaults { field: expr }` arm.
/// Decode uses an exhaustive struct literal, so a newly added field that
/// is neither persisted nor defaulted fails to compile — the snapshot impl
/// can't silently fall behind the struct.
#[macro_export]
macro_rules! snap_struct {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        $crate::snap_struct!($ty { $($field),* } defaults {});
    };
    ($ty:ty { $($field:ident),* $(,)? } defaults { $($dfield:ident: $dval:expr),* $(,)? }) => {
        impl $crate::Snap for $ty {
            fn encode(&self, w: &mut $crate::SnapWriter) {
                $( $crate::Snap::encode(&self.$field, w); )*
            }
            fn decode(
                r: &mut $crate::SnapReader<'_>,
            ) -> ::std::result::Result<Self, $crate::SnapError> {
                ::std::result::Result::Ok(Self {
                    $( $field: $crate::Snap::decode(r)?, )*
                    $( $dfield: $dval, )*
                })
            }
        }
    };
}

/// Implement [`Snap`] for a fieldless enum with explicit, stable tags.
/// Tags are part of the format: never renumber, only append.
#[macro_export]
macro_rules! snap_enum {
    ($ty:ty { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl $crate::Snap for $ty {
            fn encode(&self, w: &mut $crate::SnapWriter) {
                let tag: u16 = match self {
                    $( Self::$variant => $tag, )+
                };
                w.put_u16(tag);
            }
            fn decode(
                r: &mut $crate::SnapReader<'_>,
            ) -> ::std::result::Result<Self, $crate::SnapError> {
                let tag = r.get_u16()?;
                match tag {
                    $( $tag => ::std::result::Result::Ok(Self::$variant), )+
                    _ => ::std::result::Result::Err($crate::SnapError::UnknownTag {
                        what: stringify!($ty),
                        tag: u32::from(tag),
                    }),
                }
            }
        }
    };
}

/// Builder for a complete snapshot file: magic + version header, tagged
/// checksummed frames, whole-file trailer.
#[derive(Debug)]
pub struct FrameWriter {
    out: Vec<u8>,
}

impl Default for FrameWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameWriter {
    /// Start a snapshot file (writes the magic + version header).
    pub fn new() -> Self {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        Self { out }
    }

    /// Append one frame: `[tag u16][len u64][payload][fnv u64]`, where the
    /// seal hashes tag, length and payload. [`TRAILER_TAG`] is reserved and
    /// silently remapped would be corruption — it is a caller contract that
    /// domain tags stay below it.
    pub fn frame(&mut self, tag: u16, payload: &[u8]) {
        debug_assert!(tag != TRAILER_TAG, "trailer tag is reserved");
        let mut h = fnv1a_start();
        h = fnv1a(h, &tag.to_le_bytes());
        h = fnv1a(h, &(payload.len() as u64).to_le_bytes());
        h = fnv1a(h, payload);
        self.out.extend_from_slice(&tag.to_le_bytes());
        self.out
            .extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.out.extend_from_slice(payload);
        self.out.extend_from_slice(&h.to_le_bytes());
    }

    /// Encode a [`Snap`] value directly into a frame.
    pub fn frame_snap<T: Snap>(&mut self, tag: u16, value: &T) {
        let bytes = encode_to_vec(value);
        self.frame(tag, &bytes);
    }

    /// Seal the file with the trailer frame and return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let file_hash = fnv1a(fnv1a_start(), &self.out);
        let payload = file_hash.to_le_bytes();
        let tag = TRAILER_TAG;
        let mut h = fnv1a_start();
        h = fnv1a(h, &tag.to_le_bytes());
        h = fnv1a(h, &(payload.len() as u64).to_le_bytes());
        h = fnv1a(h, &payload);
        self.out.extend_from_slice(&tag.to_le_bytes());
        self.out
            .extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.out.extend_from_slice(&payload);
        self.out.extend_from_slice(&h.to_le_bytes());
        self.out
    }
}

/// Streaming reader over a snapshot file produced by [`FrameWriter`].
/// Verifies the header eagerly, each frame's seal as it is yielded, and
/// the whole-file trailer when the last frame is consumed.
#[derive(Debug)]
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
    finished: bool,
}

impl<'a> FrameReader<'a> {
    /// Open a snapshot byte stream, checking magic and version.
    pub fn new(data: &'a [u8]) -> Result<Self, SnapError> {
        if data.len() < MAGIC.len() + 4 {
            return Err(SnapError::Truncated {
                needed: MAGIC.len() + 4,
                have: data.len(),
            });
        }
        if data[..MAGIC.len()] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let mut vb = [0u8; 4];
        vb.copy_from_slice(&data[MAGIC.len()..MAGIC.len() + 4]);
        let version = u32::from_le_bytes(vb);
        if version != VERSION {
            return Err(SnapError::UnsupportedVersion(version));
        }
        Ok(Self {
            buf: data,
            pos: MAGIC.len() + 4,
            finished: false,
        })
    }

    fn read_raw_frame(&mut self) -> Result<(u16, &'a [u8]), SnapError> {
        let remaining = self.buf.len() - self.pos;
        if remaining < 2 + 8 + 8 {
            return Err(SnapError::MissingTrailer);
        }
        let tag = u16::from_le_bytes([self.buf[self.pos], self.buf[self.pos + 1]]);
        let mut lb = [0u8; 8];
        lb.copy_from_slice(&self.buf[self.pos + 2..self.pos + 10]);
        let len = usize::try_from(u64::from_le_bytes(lb))
            .map_err(|_| SnapError::Malformed("frame length"))?;
        if remaining < 2 + 8 + len + 8 {
            return Err(SnapError::Truncated {
                needed: 2 + 8 + len + 8,
                have: remaining,
            });
        }
        let payload = &self.buf[self.pos + 10..self.pos + 10 + len];
        let mut cb = [0u8; 8];
        cb.copy_from_slice(&self.buf[self.pos + 10 + len..self.pos + 10 + len + 8]);
        let stored = u64::from_le_bytes(cb);
        let mut h = fnv1a_start();
        h = fnv1a(h, &tag.to_le_bytes());
        h = fnv1a(h, &(len as u64).to_le_bytes());
        h = fnv1a(h, payload);
        if h != stored {
            return Err(SnapError::ChecksumMismatch { tag });
        }
        self.pos += 2 + 8 + len + 8;
        Ok((tag, payload))
    }

    /// Yield the next domain frame, or `None` once the trailer has been
    /// reached and verified (including the no-bytes-after-trailer check).
    pub fn next_frame(&mut self) -> Result<Option<(u16, &'a [u8])>, SnapError> {
        if self.finished {
            return Ok(None);
        }
        let body_end = self.pos;
        let (tag, payload) = self.read_raw_frame()?;
        if tag != TRAILER_TAG {
            return Ok(Some((tag, payload)));
        }
        if payload.len() != 8 {
            return Err(SnapError::Malformed("trailer payload"));
        }
        let mut hb = [0u8; 8];
        hb.copy_from_slice(payload);
        let stored = u64::from_le_bytes(hb);
        let actual = fnv1a(fnv1a_start(), &self.buf[..body_end]);
        if stored != actual {
            return Err(SnapError::TrailerMismatch);
        }
        if self.pos != self.buf.len() {
            return Err(SnapError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            });
        }
        self.finished = true;
        Ok(None)
    }

    /// Collect all domain frames, verifying every seal and the trailer.
    pub fn read_all(mut self) -> Result<Vec<(u16, &'a [u8])>, SnapError> {
        let mut out = Vec::new();
        while let Some(f) = self.next_frame()? {
            out.push(f);
        }
        Ok(out)
    }
}

/// Write snapshot bytes to `path` atomically-enough for a single writer:
/// a `.tmp` sibling is written first, then renamed over the target, so a
/// crash mid-write never leaves a half-written file under the final name.
pub fn write_snapshot_file(path: &std::path::Path, bytes: &[u8]) -> Result<(), SnapError> {
    let io = |e: std::io::Error| SnapError::Io {
        kind: e.kind(),
        path: path.display().to_string(),
    };
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes).map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)
}

/// Read snapshot bytes from `path`.
pub fn read_snapshot_file(path: &std::path::Path) -> Result<Vec<u8>, SnapError> {
    std::fs::read(path).map_err(|e| SnapError::Io {
        kind: e.kind(),
        path: path.display().to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        0xdeadbeefu32.encode(&mut w);
        (-42i64).encode(&mut w);
        1.5f64.encode(&mut w);
        f64::NAN.encode(&mut w);
        true.encode(&mut w);
        "héllo".to_string().encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(u32::decode(&mut r).unwrap(), 0xdeadbeef);
        assert_eq!(i64::decode(&mut r).unwrap(), -42);
        assert_eq!(f64::decode(&mut r).unwrap(), 1.5);
        assert!(f64::decode(&mut r).unwrap().is_nan());
        assert!(bool::decode(&mut r).unwrap());
        assert_eq!(String::decode(&mut r).unwrap(), "héllo");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn containers_round_trip() {
        use std::cmp::Reverse;
        let v: Vec<u64> = vec![1, 2, 3];
        let mut m = HashMap::new();
        m.insert(3u64, 9u64);
        m.insert(1, 7);
        let mut s = HashSet::new();
        s.insert(5u32);
        s.insert(2);
        let mut h = BinaryHeap::new();
        h.push(Reverse((4u64, 1usize)));
        h.push(Reverse((2u64, 9usize)));
        let o: Option<Vec<f64>> = Some(vec![0.25, -0.5]);
        let d: VecDeque<u8> = VecDeque::from(vec![9, 8]);

        assert_eq!(
            decode_from_slice::<Vec<u64>>(&encode_to_vec(&v)).unwrap(),
            v
        );
        assert_eq!(
            decode_from_slice::<HashMap<u64, u64>>(&encode_to_vec(&m)).unwrap(),
            m
        );
        assert_eq!(
            decode_from_slice::<HashSet<u32>>(&encode_to_vec(&s)).unwrap(),
            s
        );
        let h2: BinaryHeap<Reverse<(u64, usize)>> = decode_from_slice(&encode_to_vec(&h)).unwrap();
        assert_eq!(h2.into_sorted_vec(), h.into_sorted_vec());
        assert_eq!(
            decode_from_slice::<Option<Vec<f64>>>(&encode_to_vec(&o)).unwrap(),
            o
        );
        assert_eq!(
            decode_from_slice::<VecDeque<u8>>(&encode_to_vec(&d)).unwrap(),
            d
        );
        let arr = [1u64, 2, 3];
        assert_eq!(
            decode_from_slice::<[u64; 3]>(&encode_to_vec(&arr)).unwrap(),
            arr
        );
    }

    #[test]
    fn hashmap_encoding_is_insertion_order_independent() {
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for i in 0..64u64 {
            a.insert(i, i * 3);
        }
        for i in (0..64u64).rev() {
            b.insert(i, i * 3);
        }
        assert_eq!(encode_to_vec(&a), encode_to_vec(&b));
    }

    #[test]
    fn bad_bool_and_trailing_bytes_are_typed_errors() {
        assert_eq!(
            decode_from_slice::<bool>(&[7]),
            Err(SnapError::Malformed("bool"))
        );
        assert_eq!(
            decode_from_slice::<u8>(&[1, 2]),
            Err(SnapError::TrailingBytes { extra: 1 })
        );
        assert!(matches!(
            decode_from_slice::<u64>(&[1, 2]),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn oversize_length_claim_is_truncation_not_allocation() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(
            decode_from_slice::<Vec<u8>>(&bytes),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn frame_file_round_trips() {
        let mut fw = FrameWriter::new();
        fw.frame(1, b"alpha");
        fw.frame(2, b"");
        fw.frame_snap(3, &vec![1u64, 2, 3]);
        let bytes = fw.finish();
        let fr = FrameReader::new(&bytes).unwrap();
        let frames = fr.read_all().unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], (1, b"alpha".as_slice()));
        assert_eq!(frames[1].1.len(), 0);
        let v: Vec<u64> = decode_from_slice(frames[2].1).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let mut fw = FrameWriter::new();
        fw.frame(1, b"payload-bytes");
        fw.frame(7, &[0u8; 16]);
        let bytes = fw.finish();
        for i in 0..bytes.len() {
            for bit in [1u8, 0x80] {
                let mut bad = bytes.clone();
                bad[i] ^= bit;
                let outcome = FrameReader::new(&bad).and_then(|fr| fr.read_all());
                assert!(
                    outcome.is_err(),
                    "flipping bit {bit:#x} of byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let mut fw = FrameWriter::new();
        fw.frame(1, b"abcdef");
        let bytes = fw.finish();
        for cut in 0..bytes.len() {
            let outcome = FrameReader::new(&bytes[..cut]).and_then(|fr| fr.read_all());
            assert!(outcome.is_err(), "truncation at {cut} went undetected");
        }
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let mut fw = FrameWriter::new();
        fw.frame(1, b"x");
        let bytes = fw.finish();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xff;
        assert_eq!(
            FrameReader::new(&wrong_magic).err(),
            Some(SnapError::BadMagic)
        );
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 0xfe;
        assert!(matches!(
            FrameReader::new(&wrong_version).err(),
            Some(SnapError::UnsupportedVersion(_))
        ));
        // A version-1 file (the layout before the fleet dropped its engine
        // switch and two shard knobs) is refused, not misread.
        let mut v1 = bytes;
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            FrameReader::new(&v1).err(),
            Some(SnapError::UnsupportedVersion(1))
        );
    }

    #[test]
    fn bytes_appended_after_trailer_are_rejected() {
        let mut fw = FrameWriter::new();
        fw.frame(1, b"x");
        let mut bytes = fw.finish();
        bytes.push(0);
        let err = FrameReader::new(&bytes).and_then(|fr| fr.read_all());
        assert_eq!(err, Err(SnapError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn snap_macros_work_on_struct_and_enum() {
        #[derive(Debug, PartialEq)]
        struct Demo {
            a: u64,
            b: Vec<f64>,
            scratch: Vec<u8>,
        }
        crate::snap_struct!(Demo { a, b } defaults { scratch: Vec::new() });

        #[derive(Debug, PartialEq)]
        enum Kind {
            X,
            Y,
        }
        crate::snap_enum!(Kind { X = 0, Y = 1 });

        let d = Demo {
            a: 9,
            b: vec![1.0, 2.5],
            scratch: vec![1, 2, 3],
        };
        let d2: Demo = decode_from_slice(&encode_to_vec(&d)).unwrap();
        assert_eq!(d2.a, 9);
        assert_eq!(d2.b, vec![1.0, 2.5]);
        assert!(d2.scratch.is_empty());

        let k: Kind = decode_from_slice(&encode_to_vec(&Kind::Y)).unwrap();
        assert_eq!(k, Kind::Y);
        assert!(matches!(
            decode_from_slice::<Kind>(&encode_to_vec(&9u16)),
            Err(SnapError::UnknownTag { .. })
        ));
    }

    #[test]
    fn file_helpers_round_trip() {
        let dir = std::env::temp_dir().join("adbs-snap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.snap");
        let mut fw = FrameWriter::new();
        fw.frame(4, b"persisted");
        let bytes = fw.finish();
        write_snapshot_file(&path, &bytes).unwrap();
        let back = read_snapshot_file(&path).unwrap();
        assert_eq!(back, bytes);
        assert!(matches!(
            read_snapshot_file(&dir.join("missing.snap")),
            Err(SnapError::Io { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
