//! Deterministic little-endian binary serialization.
//!
//! Every payload that crosses a rank boundary or is written to storage goes
//! through these traits, so file layouts and message formats are explicit
//! and stable — the same property DIY gets from writing raw C structs, but
//! without `unsafe` transmutes.

use geometry::{Aabb, Vec3};

/// Serialize `self` onto the end of `buf` in little-endian byte order.
pub trait Encode {
    fn encode(&self, buf: &mut Vec<u8>);

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }
}

/// Deserialize a value from a [`Reader`].
pub trait Decode: Sized {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Convenience: decode a value from the start of `bytes`.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        Self::decode(&mut r)
    }
}

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes remained than the value requires.
    UnexpectedEnd { needed: usize, remaining: usize },
    /// A length prefix or discriminant was out of range.
    Invalid(&'static str),
    /// An index stored in the value points past the array it indexes.
    OutOfRange {
        what: &'static str,
        index: u64,
        len: u64,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEnd { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
            CodecError::OutOfRange { what, index, len } => {
                write!(f, "{what} {index} out of range (length {len})")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A cursor over a byte slice for decoding. A clone reads on from the
/// same position without moving the original.
#[derive(Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The next `n` bytes, for callers that decode arrays in bulk.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEnd {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

macro_rules! impl_prim {
    ($t:ty) => {
        impl Encode for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                const N: usize = std::mem::size_of::<$t>();
                let b = r.take(N)?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("length checked")))
            }
        }
    };
}

impl_prim!(u8);
impl_prim!(u16);
impl_prim!(u32);
impl_prim!(u64);
impl_prim!(i8);
impl_prim!(i16);
impl_prim!(i32);
impl_prim!(i64);
impl_prim!(f32);
impl_prim!(f64);

impl Encode for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| CodecError::Invalid("usize overflow"))
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool discriminant")),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = u64::decode(r)? as usize;
        // Guard against corrupted length prefixes: each element takes at
        // least one byte in every encoding used here.
        if n > r.remaining() && std::mem::size_of::<T>() > 0 {
            return Err(CodecError::Invalid("vec length exceeds remaining bytes"));
        }
        let mut v = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(CodecError::Invalid("option discriminant")),
        }
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = u64::decode(r)? as usize;
        let b = r.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError::Invalid("utf8"))
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encode(&self, buf: &mut Vec<u8>) {
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode + Copy + Default, const N: usize> Decode for [T; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::decode(r)?;
        }
        Ok(out)
    }
}

impl Encode for Vec3 {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.x.encode(buf);
        self.y.encode(buf);
        self.z.encode(buf);
    }
}

impl Decode for Vec3 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Vec3::new(f64::decode(r)?, f64::decode(r)?, f64::decode(r)?))
    }
}

impl Encode for Aabb {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.min.encode(buf);
        self.max.encode(buf);
    }
}

impl Decode for Aabb {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let min = Vec3::decode(r)?;
        let max = Vec3::decode(r)?;
        // `Aabb::new` panics on these; bytes are not trusted
        if !(min.x <= max.x && min.y <= max.y && min.z <= max.z) {
            return Err(CodecError::Invalid("aabb min exceeds max"));
        }
        Ok(Aabb::new(min, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX - 1);
        roundtrip(u64::MAX / 3);
        roundtrip(-123i32);
        roundtrip(i64::MIN);
        roundtrip(std::f64::consts::PI);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(true);
        roundtrip(false);
        roundtrip(42usize);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(7u8));
        roundtrip(Option::<u8>::None);
        roundtrip("hello world ✨".to_string());
        roundtrip((1u32, 2.5f64));
        roundtrip((1u8, 2u16, 3u32));
        roundtrip([1.0f64, 2.0, 3.0]);
        roundtrip(vec![Some((1u32, vec![2u8, 3])), None]);
    }

    #[test]
    fn geometry_roundtrip() {
        roundtrip(Vec3::new(1.5, -2.25, 1e-300));
        roundtrip(Aabb::cube(8.0));
    }

    #[test]
    fn inverted_or_nan_aabb_is_an_error() {
        for max in [Vec3::new(1.0, -1.0, 1.0), Vec3::new(1.0, 1.0, f64::NAN)] {
            let mut bytes = Vec3::ZERO.to_bytes();
            max.encode(&mut bytes);
            assert!(matches!(
                Aabb::from_bytes(&bytes),
                Err(CodecError::Invalid(_))
            ));
        }
    }

    #[test]
    fn encoding_is_little_endian_and_stable() {
        assert_eq!(0x0102_0304u32.to_bytes(), vec![4, 3, 2, 1]);
        assert_eq!(vec![1u8].to_bytes(), vec![1, 0, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = 12345u64.to_bytes();
        assert!(matches!(
            u64::from_bytes(&bytes[..4]),
            Err(CodecError::UnexpectedEnd { .. })
        ));
    }

    #[test]
    fn corrupt_length_prefix_errors() {
        // Claims 2^40 elements but has none.
        let mut bytes = Vec::new();
        (1u64 << 40).encode(&mut bytes);
        assert!(Vec::<u32>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn bad_discriminants_error() {
        assert!(bool::from_bytes(&[2]).is_err());
        assert!(Option::<u8>::from_bytes(&[9]).is_err());
    }

    #[test]
    fn sequential_decode_consumes_exactly() {
        let mut buf = Vec::new();
        1u32.encode(&mut buf);
        2.5f64.encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(u32::decode(&mut r).unwrap(), 1);
        assert_eq!(f64::decode(&mut r).unwrap(), 2.5);
        assert!(r.is_empty());
    }
}
