//! Warm-state snapshot plumbing: a tiny, dependency-free binary codec
//! plus the [`Snapshot`] trait implemented by every table that
//! `functional_warm` trains.
//!
//! ## Design rules
//!
//! * **Canonical bytes.** Two states are equal iff their serialized
//!   bytes are equal; everything is written little-endian in a fixed
//!   field order. The byte buffer is the equality witness used by the paranoid
//!   restored-vs-replayed checks in `eole-core`.
//! * **Restore into an existing value.** `restore` mutates a value that
//!   was built from the *same configuration*; pure-configuration fields
//!   (geometries, FPC denominators, capacities) are never serialized.
//!   Any shape mismatch (table length, enum variant, marker) is a typed
//!   [`SnapError`] — callers treat it as a corrupt checkpoint and fall
//!   back to functional replay, never a panic.
//! * **No versioning here.** Format evolution is handled one level up by
//!   the `eole-warmstate/vN` payload marker; the codec itself is
//!   deliberately dumb.

/// Typed decode error: the buffer does not describe a value compatible
/// with the one being restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapError {
    /// Static description of the field or marker that failed.
    pub context: &'static str,
}

impl SnapError {
    /// Builds an error tagged with the failing field.
    #[must_use]
    pub fn new(context: &'static str) -> Self {
        SnapError { context }
    }
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot decode error: {}", self.context)
    }
}

impl std::error::Error for SnapError {}

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    // lint:allow(hot-alloc) checkpoint capture is a cold, per-interval path
    #[must_use]
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Consumes the writer, returning the serialized bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes an `i8` as its two's-complement byte.
    pub fn put_i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    /// Writes a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64` little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (the repo targets 64-bit hosts; the
    /// reader rejects values that do not round-trip).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a short ASCII marker, length-prefixed, used to label
    /// sections so a truncated or misaligned buffer fails fast.
    pub fn put_marker(&mut self, m: &'static str) {
        debug_assert!(m.len() <= u8::MAX as usize);
        self.buf.push(m.len() as u8);
        self.buf.extend_from_slice(m.as_bytes());
    }
}

/// Cursor over a serialized snapshot.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps a byte slice.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the whole buffer was consumed — trailing garbage is
    /// corruption, not padding.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] if bytes remain.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::new("trailing bytes after snapshot"))
        }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::new(context));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a truncated buffer.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1, "truncated u8")?[0])
    }

    /// Reads a bool; any byte other than 0/1 is corruption.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncation or a non-boolean byte.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::new("non-boolean byte")),
        }
    }

    /// Reads an `i8`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a truncated buffer.
    pub fn get_i8(&mut self) -> Result<i8, SnapError> {
        Ok(self.get_u8()? as i8)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a truncated buffer.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let s = self.take(4, "truncated u32")?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a truncated buffer.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let s = self.take(8, "truncated u64")?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a truncated buffer.
    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        let s = self.take(8, "truncated i64")?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(i64::from_le_bytes(b))
    }

    /// Reads a `usize` written by [`SnapWriter::put_usize`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncation or a value that does not fit
    /// the host `usize`.
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.get_u64()?).map_err(|_| SnapError::new("usize overflow"))
    }

    /// Consumes a marker written by [`SnapWriter::put_marker`] and
    /// checks it matches.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncation or a marker mismatch.
    pub fn expect_marker(&mut self, m: &'static str) -> Result<(), SnapError> {
        let len = self.get_u8()? as usize;
        if len != m.len() {
            return Err(SnapError::new("marker length mismatch"));
        }
        let s = self.take(len, "truncated marker")?;
        if s == m.as_bytes() {
            Ok(())
        } else {
            Err(SnapError::new("marker mismatch"))
        }
    }
}

/// Bit-exact state capture for a warm table.
///
/// `snapshot` appends the value's dynamic state; `restore` overwrites
/// the same state in a value built from the same configuration. The
/// contract — checked by the warm-state proptests in `eole-core` and by
/// the interval harness under `EOLE_PARANOID=1` — is that
/// restore-then-snapshot reproduces the exact bytes, and that a restored
/// table is behaviorally indistinguishable from the one captured.
pub trait Snapshot {
    /// Appends this value's dynamic state to `w`.
    fn snapshot(&self, w: &mut SnapWriter);

    /// Overwrites this value's dynamic state from `r`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] if the buffer is truncated or describes a
    /// value of a different shape (table sizes, enum variant).
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_markers() {
        let mut w = SnapWriter::new();
        w.put_marker("t");
        w.put_u8(7);
        w.put_bool(true);
        w.put_i8(-3);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_usize(12345);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.expect_marker("t").unwrap();
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_i8().unwrap(), -3);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_usize().unwrap(), 12345);
        r.finish().unwrap();
    }

    #[test]
    fn rejects_truncation_trailing_garbage_and_bad_markers() {
        let mut w = SnapWriter::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..4]);
        assert!(r.get_u64().is_err());

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 1);
        assert!(r.finish().is_err());

        let mut w = SnapWriter::new();
        w.put_marker("abc");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.expect_marker("abd").is_err());

        let mut r = SnapReader::new(&[2]);
        assert!(r.get_bool().is_err());
    }
}
