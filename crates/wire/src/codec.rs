//! Primitive byte-level encoders and the bounds-checked `Cursor` reader.
//!
//! Everything is little-endian and hand-rolled on purpose: the shard
//! boundary must not depend on `serde` layouts or platform byte order, and
//! the decoder must be auditable for the "never panic, never over-read"
//! property the adversarial test-suite pins down.
//!
//! Floats cross the wire as raw IEEE-754 bit patterns
//! ([`f64::to_bits`]/[`f64::from_bits`]) so results are byte-identical on
//! both sides of a socket — including NaN payloads and signed zeros.

use crate::error::WireError;
use mswj_types::{FieldType, Value};

/// Appends a `u8`.
pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a `u16` little-endian.
pub(crate) fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` little-endian.
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `i64` little-endian (two's complement).
pub(crate) fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its raw bit pattern (bit-exact, NaN-preserving).
pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a `bool` as one byte (`0`/`1`).
pub(crate) fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

/// Appends a `usize` widened to `u64` (no truncation on any platform).
pub(crate) fn put_len(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

/// Appends a length-prefixed UTF-8 string.
pub(crate) fn put_str(buf: &mut Vec<u8>, v: &str) {
    put_len(buf, v.len());
    buf.extend_from_slice(v.as_bytes());
}

/// A bounds-checked forward reader over one complete frame payload.
///
/// Every read either returns the decoded value or a [`WireError`]; the
/// cursor can never advance past the end of the slice, and collection
/// lengths are validated against the remaining bytes *before* any
/// allocation so a hostile length prefix cannot trigger an out-of-memory.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16` little-endian.
    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32` little-endian.
    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64` little-endian.
    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    /// Reads an `i64` little-endian.
    pub(crate) fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }

    /// Reads an `f64` from its raw bit pattern.
    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`; any byte other than `0`/`1` is corrupt.
    pub(crate) fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Corrupt(format!(
                "invalid bool byte {other:#04x}"
            ))),
        }
    }

    /// Reads a collection length, validating it against the bytes that are
    /// actually left (`min_elem_bytes` per element) before the caller
    /// allocates.
    pub(crate) fn len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let raw = self.u64()?;
        let len = usize::try_from(raw)
            .map_err(|_| WireError::Corrupt(format!("length {raw} overflows usize")))?;
        let floor = len.saturating_mul(min_elem_bytes.max(1));
        if floor > self.remaining() {
            return Err(WireError::Corrupt(format!(
                "declared length {len} needs at least {floor} bytes, only {} remain",
                self.remaining()
            )));
        }
        Ok(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self) -> Result<String, WireError> {
        let len = self.len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Corrupt("string payload is not valid UTF-8".into()))
    }

    /// Asserts the whole payload was consumed — trailing bytes mean the
    /// peer's encoder and our decoder disagree, which is corruption.
    pub(crate) fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Corrupt(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

const VALUE_INT: u8 = 0;
const VALUE_FLOAT: u8 = 1;
const VALUE_STR: u8 = 2;
const VALUE_BOOL: u8 = 3;
const VALUE_NULL: u8 = 4;

/// Encodes one tuple attribute value (tagged union).
pub(crate) fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            put_u8(buf, VALUE_INT);
            put_i64(buf, *i);
        }
        Value::Float(x) => {
            put_u8(buf, VALUE_FLOAT);
            put_f64(buf, *x);
        }
        Value::Str(s) => {
            put_u8(buf, VALUE_STR);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            put_u8(buf, VALUE_BOOL);
            put_bool(buf, *b);
        }
        Value::Null => put_u8(buf, VALUE_NULL),
    }
}

/// Decodes one tuple attribute value.
pub(crate) fn get_value(c: &mut Cursor<'_>) -> Result<Value, WireError> {
    match c.u8()? {
        VALUE_INT => Ok(Value::Int(c.i64()?)),
        VALUE_FLOAT => Ok(Value::Float(c.f64()?)),
        VALUE_STR => Ok(Value::Str(c.str()?)),
        VALUE_BOOL => Ok(Value::Bool(c.bool()?)),
        VALUE_NULL => Ok(Value::Null),
        tag => Err(WireError::Corrupt(format!("unknown value tag {tag:#04x}"))),
    }
}

/// Encodes a schema field type as one byte.
pub(crate) fn put_field_type(buf: &mut Vec<u8>, t: FieldType) {
    let tag = match t {
        FieldType::Int => VALUE_INT,
        FieldType::Float => VALUE_FLOAT,
        FieldType::Str => VALUE_STR,
        FieldType::Bool => VALUE_BOOL,
        FieldType::Null => VALUE_NULL,
    };
    put_u8(buf, tag);
}

/// Decodes a schema field type.
pub(crate) fn get_field_type(c: &mut Cursor<'_>) -> Result<FieldType, WireError> {
    match c.u8()? {
        VALUE_INT => Ok(FieldType::Int),
        VALUE_FLOAT => Ok(FieldType::Float),
        VALUE_STR => Ok(FieldType::Str),
        VALUE_BOOL => Ok(FieldType::Bool),
        VALUE_NULL => Ok(FieldType::Null),
        tag => Err(WireError::Corrupt(format!(
            "unknown field-type tag {tag:#04x}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_i64(&mut buf, -42);
        put_f64(&mut buf, -0.0);
        put_bool(&mut buf, true);
        put_str(&mut buf, "héllo");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8().unwrap(), 0xAB);
        assert_eq!(c.u16().unwrap(), 0xBEEF);
        assert_eq!(c.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64().unwrap(), u64::MAX - 1);
        assert_eq!(c.i64().unwrap(), -42);
        assert_eq!(c.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(c.bool().unwrap());
        assert_eq!(c.str().unwrap(), "héllo");
        c.finish().unwrap();
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let weird = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let mut buf = Vec::new();
        put_f64(&mut buf, weird);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn truncated_reads_error_without_panicking() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 7);
        for cut in 0..buf.len() {
            let mut c = Cursor::new(&buf[..cut]);
            assert!(matches!(c.u64(), Err(WireError::Truncated { .. })));
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX); // absurd element count
        let mut c = Cursor::new(&buf);
        assert!(matches!(c.len(1), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn invalid_utf8_and_bool_bytes_are_corrupt() {
        let mut buf = Vec::new();
        put_len(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            Cursor::new(&buf).str(),
            Err(WireError::Corrupt(_))
        ));
        assert!(matches!(
            Cursor::new(&[7u8]).bool(),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let buf = [1u8, 2, 3];
        let mut c = Cursor::new(&buf);
        c.u8().unwrap();
        assert!(matches!(c.finish(), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn values_roundtrip() {
        let values = vec![
            Value::Int(i64::MIN),
            Value::Float(std::f64::consts::PI),
            Value::Str("a₁".into()),
            Value::Bool(false),
            Value::Null,
        ];
        let mut buf = Vec::new();
        for v in &values {
            put_value(&mut buf, v);
        }
        let mut c = Cursor::new(&buf);
        for v in &values {
            assert_eq!(&get_value(&mut c).unwrap(), v);
        }
        c.finish().unwrap();
    }
}
