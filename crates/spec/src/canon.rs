//! Canonical byte encoding and content hashing for flow-stage data.
//!
//! The batch DSE service (`noc-dse`) answers "synthesize this" for
//! millions of design points by caching flow-stage outputs in a
//! content-addressed on-disk store. That requires every value crossing
//! the store boundary to have a **canonical** byte form:
//!
//! * *deterministic* — the same value always encodes to the same bytes
//!   (no pointers, no hash-map iteration order, no platform-dependent
//!   layout);
//! * *exact* — `decode(encode(x)) == x` bit-for-bit, including `f64`
//!   payloads (encoded via [`f64::to_bits`]), so a cache hit is
//!   indistinguishable from recomputation;
//! * *self-delimiting* — decoding consumes exactly the bytes encoding
//!   produced, so corruption is detected as a decode error, never as a
//!   silently wrong value.
//!
//! [`Canonical`] is the trait all stage inputs/outputs implement;
//! [`content_hash`] maps canonical bytes to the 128-bit [`ContentHash`]
//! used as the store key; [`ContentHasher`] computes the same hash
//! from pieces fed in sequence, and [`hash_parts`] frames a tagged
//! list of parts for it. Downstream crates (`noc-topology`,
//! `noc-floorplan`, `noc-synth`, `noc-power`, `noc`) implement
//! [`Canonical`] for their own stage types; this module provides the
//! primitive, container and spec-type impls.

use crate::app::AppSpec;
use crate::core::{Core, CoreId, CoreRole, IslandId};
use crate::protocol::{MessageClass, SocketProtocol, TransactionKind};
use crate::traffic::{FlowId, QosClass, TrafficFlow, TrafficShape};
use crate::units::{
    BitsPerSecond, Hertz, Micrometers, MilliWatts, PicoJoules, Picoseconds, SquareMicrometers,
};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A decode failure. Corrupt or truncated canonical bytes surface as
/// one of these — callers treat any variant as "not in cache,
/// recompute".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CanonError {
    /// The byte stream ended before the value was complete.
    UnexpectedEof,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The bytes decoded structurally but the value failed validation
    /// (e.g. an [`AppSpec`] whose flows reference missing cores).
    Invalid(String),
    /// Bytes remained after the top-level value was decoded.
    TrailingBytes,
}

impl fmt::Display for CanonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CanonError::UnexpectedEof => f.write_str("unexpected end of canonical bytes"),
            CanonError::BadTag { what, tag } => {
                write!(f, "invalid tag {tag:#04x} while decoding {what}")
            }
            CanonError::Invalid(msg) => write!(f, "decoded value failed validation: {msg}"),
            CanonError::TrailingBytes => f.write_str("trailing bytes after canonical value"),
        }
    }
}

impl Error for CanonError {}

/// Cursor over a canonical byte slice.
#[derive(Debug)]
pub struct CanonReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> CanonReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> CanonReader<'a> {
        CanonReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CanonError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CanonError> {
        if self.remaining() < n {
            return Err(CanonError::UnexpectedEof);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes one byte.
    ///
    /// # Errors
    ///
    /// [`CanonError::UnexpectedEof`] at end of input.
    pub fn take_u8(&mut self) -> Result<u8, CanonError> {
        Ok(self.take(1)?[0])
    }
}

/// Values with a canonical, exact, self-delimiting byte encoding.
pub trait Canonical: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader, consuming exactly the bytes
    /// [`encode`](Canonical::encode) produced.
    ///
    /// # Errors
    ///
    /// Any [`CanonError`] on truncated, corrupt or invalid bytes.
    fn decode(r: &mut CanonReader<'_>) -> Result<Self, CanonError>;

    /// The canonical encoding as an owned buffer.
    fn to_canon_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a value from a complete buffer, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Any [`CanonError`]; [`CanonError::TrailingBytes`] if the buffer
    /// is longer than one encoded value.
    fn from_canon_bytes(bytes: &[u8]) -> Result<Self, CanonError> {
        let mut r = CanonReader::new(bytes);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(CanonError::TrailingBytes);
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------

/// A 128-bit content hash — the key of the DSE flow cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContentHash(pub [u8; 16]);

impl ContentHash {
    /// Lowercase hex rendering (32 characters).
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            use fmt::Write as _;
            let _ = write!(s, "{b:02x}");
        }
        s
    }

    /// The first 8 bytes folded into a `u64` — used to derive
    /// content-dependent seeds (e.g. the per-spec floorplan seed).
    pub fn fold_u64(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// One SplitMix64 scramble round — the finalizer of both hash lanes.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit prime, the multiplier of both hash lanes.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The running state of [`content_hash`]: its two lanes and the count
/// of bytes fed so far.
///
/// The second lane mixes each byte with its position in the whole
/// input, which is the running count, so feeding pieces one after
/// another gives the hash of their concatenation. A caller that keys
/// many values under one common prefix hashes the prefix once and
/// copies the state per value (the DSE shard does this for its
/// candidate keys).
#[derive(Debug, Clone, Copy)]
pub struct ContentHasher {
    a: u64,
    b: u64,
    len: u64,
}

impl Default for ContentHasher {
    fn default() -> ContentHasher {
        ContentHasher::new()
    }
}

impl ContentHasher {
    /// The state of an empty input.
    pub const fn new() -> ContentHasher {
        ContentHasher {
            a: 0xCBF2_9CE4_8422_2325,
            b: 0x9AE1_6A3B_2F90_404F,
            len: 0,
        }
    }

    /// The state of [`hash_parts`] after its tag and part count, before
    /// the first part.
    pub fn tagged(tag: &str, parts: usize) -> ContentHasher {
        let mut h = ContentHasher::new();
        h.part(tag.as_bytes());
        h.write(&(parts as u64).to_le_bytes());
        h
    }

    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        let (mut a, mut b, mut i) = (self.a, self.b, self.len);
        for &byte in bytes {
            a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            b = (b ^ u64::from(byte).wrapping_add(i)).wrapping_mul(FNV_PRIME);
            i = i.wrapping_add(1);
        }
        *self = ContentHasher { a, b, len: i };
    }

    /// Feeds one length-prefixed part, framed as [`hash_parts`] frames
    /// each of its parts.
    pub fn part(&mut self, bytes: &[u8]) {
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes);
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> ContentHash {
        let a = mix64(self.a ^ self.len);
        let b = mix64(self.b.rotate_left(32) ^ a);
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&a.to_le_bytes());
        out[8..].copy_from_slice(&b.to_le_bytes());
        ContentHash(out)
    }
}

/// Hashes a byte string to a 128-bit [`ContentHash`].
///
/// Two independent FNV-1a-style 64-bit lanes (different offset bases
/// and a position-mixed second lane) with SplitMix64 finalization. Not
/// cryptographic — the store is a cache keyed by trusted local inputs —
/// but collision-safe at the scale the DSE service targets (birthday
/// bound ≈ 2⁶⁴ entries).
pub fn content_hash(bytes: &[u8]) -> ContentHash {
    let mut h = ContentHasher::new();
    h.write(bytes);
    h.finish()
}

/// Hashes a tagged sequence of parts, each length-prefixed so distinct
/// part boundaries can never collide by concatenation.
pub fn hash_parts(tag: &str, parts: &[&[u8]]) -> ContentHash {
    let mut h = ContentHasher::tagged(tag, parts.len());
    for p in parts {
        h.part(p);
    }
    h.finish()
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

impl Canonical for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<u8, CanonError> {
        r.take_u8()
    }
}

impl Canonical for u16 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<u16, CanonError> {
        Ok(u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes")))
    }
}

impl Canonical for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<u32, CanonError> {
        Ok(u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes")))
    }
}

impl Canonical for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<u64, CanonError> {
        Ok(u64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes")))
    }
}

impl Canonical for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<usize, CanonError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| CanonError::Invalid(format!("usize overflow: {v}")))
    }
}

impl Canonical for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<f64, CanonError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Canonical for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<bool, CanonError> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CanonError::BadTag { what: "bool", tag }),
        }
    }
}

impl Canonical for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<String, CanonError> {
        let len = usize::decode(r)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CanonError::Invalid(format!("invalid utf-8 string: {e}")))
    }
}

impl<T: Canonical> Canonical for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<Option<T>, CanonError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CanonError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: Canonical> Canonical for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<Vec<T>, CanonError> {
        let len = usize::decode(r)?;
        // Guard allocation against corrupt length prefixes: trust the
        // remaining byte count, not the prefix.
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Canonical, B: Canonical> Canonical for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<(A, B), CanonError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<K: Canonical + Ord, V: Canonical> Canonical for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<BTreeMap<K, V>, CanonError> {
        let len = usize::decode(r)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Unit impls
// ---------------------------------------------------------------------

macro_rules! canon_exact_unit {
    ($($t:ident),*) => {$(
        impl Canonical for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            fn decode(r: &mut CanonReader<'_>) -> Result<$t, CanonError> {
                Ok($t(u64::decode(r)?))
            }
        }
    )*};
}

macro_rules! canon_float_unit {
    ($($t:ident),*) => {$(
        impl Canonical for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            fn decode(r: &mut CanonReader<'_>) -> Result<$t, CanonError> {
                Ok($t(f64::decode(r)?))
            }
        }
    )*};
}

canon_exact_unit!(Hertz, BitsPerSecond, Picoseconds);
canon_float_unit!(Micrometers, SquareMicrometers, MilliWatts, PicoJoules);

// ---------------------------------------------------------------------
// Spec-type impls
// ---------------------------------------------------------------------

macro_rules! canon_index_newtype {
    ($($t:ident),*) => {$(
        impl Canonical for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            fn decode(r: &mut CanonReader<'_>) -> Result<$t, CanonError> {
                Ok($t(usize::decode(r)?))
            }
        }
    )*};
}

canon_index_newtype!(CoreId, IslandId, FlowId);

impl Canonical for CoreRole {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            CoreRole::Master => 0,
            CoreRole::Slave => 1,
            CoreRole::MasterSlave => 2,
        });
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<CoreRole, CanonError> {
        match r.take_u8()? {
            0 => Ok(CoreRole::Master),
            1 => Ok(CoreRole::Slave),
            2 => Ok(CoreRole::MasterSlave),
            tag => Err(CanonError::BadTag {
                what: "CoreRole",
                tag,
            }),
        }
    }
}

impl Canonical for SocketProtocol {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            SocketProtocol::Ocp => 0,
            SocketProtocol::Axi => 1,
            SocketProtocol::Ahb => 2,
            SocketProtocol::Wishbone => 3,
            SocketProtocol::Opb => 4,
            SocketProtocol::Plb => 5,
        });
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<SocketProtocol, CanonError> {
        match r.take_u8()? {
            0 => Ok(SocketProtocol::Ocp),
            1 => Ok(SocketProtocol::Axi),
            2 => Ok(SocketProtocol::Ahb),
            3 => Ok(SocketProtocol::Wishbone),
            4 => Ok(SocketProtocol::Opb),
            5 => Ok(SocketProtocol::Plb),
            tag => Err(CanonError::BadTag {
                what: "SocketProtocol",
                tag,
            }),
        }
    }
}

impl Canonical for TransactionKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TransactionKind::Read => out.push(0),
            TransactionKind::Write => out.push(1),
            TransactionKind::BurstRead(n) => {
                out.push(2);
                n.encode(out);
            }
            TransactionKind::BurstWrite(n) => {
                out.push(3);
                n.encode(out);
            }
            TransactionKind::Stream => out.push(4),
        }
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<TransactionKind, CanonError> {
        match r.take_u8()? {
            0 => Ok(TransactionKind::Read),
            1 => Ok(TransactionKind::Write),
            2 => Ok(TransactionKind::BurstRead(u16::decode(r)?)),
            3 => Ok(TransactionKind::BurstWrite(u16::decode(r)?)),
            4 => Ok(TransactionKind::Stream),
            tag => Err(CanonError::BadTag {
                what: "TransactionKind",
                tag,
            }),
        }
    }
}

impl Canonical for MessageClass {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            MessageClass::Request => 0,
            MessageClass::Response => 1,
        });
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<MessageClass, CanonError> {
        match r.take_u8()? {
            0 => Ok(MessageClass::Request),
            1 => Ok(MessageClass::Response),
            tag => Err(CanonError::BadTag {
                what: "MessageClass",
                tag,
            }),
        }
    }
}

impl Canonical for QosClass {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            QosClass::GuaranteedThroughput => 0,
            QosClass::BestEffort => 1,
        });
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<QosClass, CanonError> {
        match r.take_u8()? {
            0 => Ok(QosClass::GuaranteedThroughput),
            1 => Ok(QosClass::BestEffort),
            tag => Err(CanonError::BadTag {
                what: "QosClass",
                tag,
            }),
        }
    }
}

impl Canonical for TrafficShape {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TrafficShape::Constant => out.push(0),
            TrafficShape::Poisson => out.push(1),
            TrafficShape::Bursty { mean_burst_len } => {
                out.push(2);
                mean_burst_len.encode(out);
            }
        }
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<TrafficShape, CanonError> {
        match r.take_u8()? {
            0 => Ok(TrafficShape::Constant),
            1 => Ok(TrafficShape::Poisson),
            2 => Ok(TrafficShape::Bursty {
                mean_burst_len: u32::decode(r)?,
            }),
            tag => Err(CanonError::BadTag {
                what: "TrafficShape",
                tag,
            }),
        }
    }
}

impl Canonical for Core {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.role.encode(out);
        self.protocol.encode(out);
        self.clock.encode(out);
        self.island.encode(out);
        self.width.encode(out);
        self.height.encode(out);
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<Core, CanonError> {
        Ok(Core {
            name: String::decode(r)?,
            role: CoreRole::decode(r)?,
            protocol: SocketProtocol::decode(r)?,
            clock: Hertz::decode(r)?,
            island: IslandId::decode(r)?,
            width: Micrometers::decode(r)?,
            height: Micrometers::decode(r)?,
        })
    }
}

impl Canonical for TrafficFlow {
    fn encode(&self, out: &mut Vec<u8>) {
        self.src.encode(out);
        self.dst.encode(out);
        self.bandwidth.encode(out);
        self.latency.encode(out);
        self.qos.encode(out);
        self.kind.encode(out);
        self.class.encode(out);
        self.shape.encode(out);
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<TrafficFlow, CanonError> {
        Ok(TrafficFlow {
            src: CoreId::decode(r)?,
            dst: CoreId::decode(r)?,
            bandwidth: BitsPerSecond::decode(r)?,
            latency: Option::<Picoseconds>::decode(r)?,
            qos: QosClass::decode(r)?,
            kind: TransactionKind::decode(r)?,
            class: MessageClass::decode(r)?,
            shape: TrafficShape::decode(r)?,
        })
    }
}

impl Canonical for AppSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name().to_string().encode(out);
        (self.cores().len() as u64).encode(out);
        for c in self.cores() {
            c.encode(out);
        }
        (self.flows().len() as u64).encode(out);
        for f in self.flows() {
            f.encode(out);
        }
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<AppSpec, CanonError> {
        let name = String::decode(r)?;
        let mut b = AppSpec::builder(name);
        let cores = usize::decode(r)?;
        for _ in 0..cores {
            b.add_core(Core::decode(r)?);
        }
        let flows = usize::decode(r)?;
        for _ in 0..flows {
            b.add_flow(TrafficFlow::decode(r)?);
        }
        b.build()
            .map_err(|e| CanonError::Invalid(format!("decoded AppSpec is invalid: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn round_trip<T: Canonical + PartialEq + fmt::Debug>(v: &T) {
        let bytes = v.to_canon_bytes();
        let back = T::from_canon_bytes(&bytes).expect("round trip decodes");
        assert_eq!(&back, v);
        // Re-encoding the decoded value is byte-identical: canonical.
        assert_eq!(back.to_canon_bytes(), bytes);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&u64::MAX);
        round_trip(&123_456_789usize);
        round_trip(&1.5f64);
        round_trip(&f64::NEG_INFINITY);
        round_trip(&true);
        round_trip(&"héllo wörld".to_string());
        round_trip(&Some(42u32));
        round_trip(&Option::<u32>::None);
        round_trip(&vec![1u64, 2, 3]);
        round_trip(&(7u32, "x".to_string()));
        let mut m = BTreeMap::new();
        m.insert(3u64, 4.5f64);
        m.insert(1u64, -0.0f64);
        round_trip(&m);
    }

    #[test]
    fn f64_encoding_is_bit_exact() {
        // -0.0 and 0.0 compare equal but must encode differently: the
        // store contract is bit-identity, not semantic equality.
        assert_ne!((-0.0f64).to_canon_bytes(), 0.0f64.to_canon_bytes());
        let nan = f64::from_bits(0x7FF8_0000_0000_0001);
        let back = f64::from_canon_bytes(&nan.to_canon_bytes()).expect("decodes");
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn spec_types_round_trip() {
        round_trip(&Hertz::from_mhz(650));
        round_trip(&Micrometers(123.25));
        round_trip(&CoreId(7));
        for role in [CoreRole::Master, CoreRole::Slave, CoreRole::MasterSlave] {
            round_trip(&role);
        }
        round_trip(&TransactionKind::BurstRead(16));
        round_trip(&TrafficShape::Bursty { mean_burst_len: 8 });
    }

    #[test]
    fn app_specs_round_trip_exactly() {
        for spec in [
            presets::tiny_quad(),
            presets::mobile_multimedia_soc(),
            presets::faust_telecom(),
            presets::bone_mpsoc(),
        ] {
            let bytes = spec.to_canon_bytes();
            let back = AppSpec::from_canon_bytes(&bytes).expect("valid spec decodes");
            assert_eq!(back.to_canon_bytes(), bytes);
            assert_eq!(back.name(), spec.name());
            assert_eq!(back.cores(), spec.cores());
            assert_eq!(back.flows(), spec.flows());
        }
    }

    #[test]
    fn truncation_and_corruption_are_decode_errors() {
        let spec = presets::tiny_quad();
        let bytes = spec.to_canon_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                AppSpec::from_canon_bytes(&bytes[..cut]).is_err(),
                "truncated at {cut} must not decode"
            );
        }
        assert_eq!(
            bool::from_canon_bytes(&[7]),
            Err(CanonError::BadTag {
                what: "bool",
                tag: 7
            })
        );
        assert_eq!(
            u64::from_canon_bytes(&[0; 16]),
            Err(CanonError::TrailingBytes)
        );
    }

    #[test]
    fn content_hash_is_stable_and_sensitive() {
        let h1 = content_hash(b"nocsilk");
        assert_eq!(h1, content_hash(b"nocsilk"), "pure function");
        assert_ne!(h1, content_hash(b"nocsilK"));
        assert_ne!(content_hash(b""), content_hash(b"\0"));
        assert_eq!(h1.hex().len(), 32);
        // Part boundaries matter: ("ab","c") != ("a","bc").
        assert_ne!(
            hash_parts("t", &[b"ab", b"c"]),
            hash_parts("t", &[b"a", b"bc"])
        );
        assert_ne!(hash_parts("t1", &[b"x"]), hash_parts("t2", &[b"x"]));
    }

    #[test]
    fn a_fresh_hasher_is_the_hash_of_no_bytes() {
        assert_eq!(ContentHasher::new().finish(), content_hash(b""));
        assert_eq!(ContentHasher::default().finish(), content_hash(b""));
        let mut h = ContentHasher::new();
        h.write(b"");
        assert_eq!(h.finish(), content_hash(b""));
    }

    #[test]
    fn finish_leaves_the_hasher_able_to_continue() {
        let mut h = ContentHasher::new();
        h.write(b"prefix");
        let early = h.finish();
        assert_eq!(h.finish(), early, "finish is pure");
        assert_eq!(early, content_hash(b"prefix"));
        h.write(b"-suffix");
        assert_eq!(h.finish(), content_hash(b"prefix-suffix"));
    }

    #[test]
    fn a_part_is_its_length_then_its_bytes() {
        let mut framed = ContentHasher::new();
        framed.part(b"abc");
        let mut by_hand = ContentHasher::new();
        by_hand.write(&3u64.to_le_bytes());
        by_hand.write(b"abc");
        assert_eq!(framed.finish(), by_hand.finish());
        let mut whole = 3u64.to_le_bytes().to_vec();
        whole.extend_from_slice(b"abc");
        assert_eq!(framed.finish(), content_hash(&whole));
    }

    #[test]
    fn the_part_count_and_empty_parts_are_hashed() {
        assert_ne!(hash_parts("t", &[]), hash_parts("t", &[b""]));
        assert_ne!(hash_parts("t", &[b"x"]), hash_parts("t", &[b"x", b""]));
        assert_ne!(hash_parts("t", &[b"", b"x"]), hash_parts("t", &[b"x", b""]));
        // The tag is framed like a part: it cannot run into the first.
        assert_ne!(hash_parts("ab", &[b"c"]), hash_parts("a", &[b"bc"]));
        let mut h = ContentHasher::tagged("t", 2);
        h.part(b"x");
        h.part(b"");
        assert_eq!(h.finish(), hash_parts("t", &[b"x", b""]));
        // A prefix declared with the wrong count does not match.
        let mut h = ContentHasher::tagged("t", 1);
        h.part(b"x");
        h.part(b"");
        assert_ne!(h.finish(), hash_parts("t", &[b"x", b""]));
    }

    #[test]
    fn a_copied_prefix_state_extends_independently() {
        let mut prefix = ContentHasher::tagged("cand", 3);
        prefix.part(b"run");
        let mut a = prefix;
        a.part(b"spec-a");
        a.part(b"tail");
        let mut b = prefix;
        b.part(b"spec-b");
        b.part(b"tail");
        assert_eq!(
            a.finish(),
            hash_parts("cand", &[b"run", b"spec-a", b"tail"])
        );
        assert_eq!(
            b.finish(),
            hash_parts("cand", &[b"run", b"spec-b", b"tail"])
        );
        // Extending the copies left the prefix untouched.
        let mut again = prefix;
        again.part(b"spec-a");
        again.part(b"tail");
        assert_eq!(again.finish(), a.finish());
    }

    #[test]
    fn hex_display_and_fold_render_the_hash_bytes() {
        let mut bytes = [0u8; 16];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i as u8) * 17;
        }
        let h = ContentHash(bytes);
        assert_eq!(h.hex(), "00112233445566778899aabbccddeeff");
        assert_eq!(h.to_string(), h.hex());
        assert_eq!(h.fold_u64(), 0x7766_5544_3322_1100);
    }

    #[test]
    fn spec_hash_tracks_content() {
        let a = presets::tiny_quad();
        let b = presets::tiny_quad();
        assert_eq!(
            content_hash(&a.to_canon_bytes()),
            content_hash(&b.to_canon_bytes())
        );
        let c = presets::mobile_multimedia_soc();
        assert_ne!(
            content_hash(&a.to_canon_bytes()),
            content_hash(&c.to_canon_bytes())
        );
    }
}
