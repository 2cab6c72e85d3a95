//! Warm-state snapshot plumbing: a tiny, dependency-free binary codec
//! plus the [`Snapshot`] trait implemented by every table that
//! `functional_warm` trains.
//!
//! ## One field list per table
//!
//! A table lists its dynamic state once, in [`Snapshot::snap`], against a
//! [`Snap`] cursor. A writing cursor appends each field it is handed; a
//! reading cursor reads the field back and assigns it. Capture and
//! restore are the same function run in the two directions, so their
//! field orders cannot drift apart.
//!
//! * [`Snap::field`] carries a plain field.
//! * [`Snap::bounded`] carries a counter with a legal range; a reading
//!   cursor rejects a value outside it, so a restored table never holds
//!   a counter its `update` cannot step.
//! * [`Snap::shape`] carries a configuration fact (a table length, a
//!   variant tag, whether an optional table exists): a writing cursor
//!   writes it, a reading cursor checks it against the live value.
//! * Work only a restore does (clearing scratch, mapping a sentinel)
//!   sits behind [`Snap::reading`].
//!
//! ## Design rules
//!
//! * **Canonical bytes.** Two states are equal iff their serialized
//!   bytes are equal; everything is written little-endian in a fixed
//!   field order. The byte buffer is the equality witness used by the paranoid
//!   restored-vs-replayed checks in `eole-core`.
//! * **Restore into an existing value.** A reading cursor mutates a value
//!   that was built from the *same configuration*; pure-configuration fields
//!   (geometries, FPC denominators, capacities) are never serialized.
//!   Any shape mismatch (table length, enum variant, marker) or
//!   out-of-range counter is a typed [`SnapError`] — callers treat it as a
//!   corrupt checkpoint and fall back to functional replay, never a panic.
//!   A writing cursor never fails.
//! * **No versioning here.** Format evolution is handled one level up by
//!   the `eole-warmstate/vN` payload marker, which any change to a
//!   table's field list must bump; the codec itself is deliberately dumb.

use std::ops::RangeBounds;

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

/// A scalar with a fixed little-endian encoding.
pub trait Field: Copy + PartialOrd {
    /// Appends the encoding.
    fn put(self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `buf` and advances it.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncation or a byte pattern no value
    /// encodes.
    fn take(buf: &mut &[u8]) -> Result<Self, SnapError>;
}

macro_rules! le_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            #[inline]
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn take(buf: &mut &[u8]) -> Result<Self, SnapError> {
                let (head, rest) = buf
                    .split_first_chunk()
                    .ok_or(SnapError::new(concat!("truncated ", stringify!($t))))?;
                *buf = rest;
                Ok(<$t>::from_le_bytes(*head))
            }
        }
    )*};
}

le_field!(u8, i8, u32, u64, i64);

/// One byte, 0 or 1.
impl Field for bool {
    #[inline]
    fn put(self, out: &mut Vec<u8>) {
        out.push(u8::from(self));
    }

    #[inline]
    fn take(buf: &mut &[u8]) -> Result<Self, SnapError> {
        match u8::take(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::new("non-boolean byte")),
        }
    }
}

/// Eight bytes, as a `u64` (the repo targets 64-bit hosts; a value that
/// does not fit the host `usize` is rejected).
impl Field for usize {
    #[inline]
    fn put(self, out: &mut Vec<u8>) {
        (self as u64).put(out);
    }

    #[inline]
    fn take(buf: &mut &[u8]) -> Result<Self, SnapError> {
        usize::try_from(u64::take(buf)?).map_err(|_| SnapError::new("usize overflow"))
    }
}

/// The two directions a [`Snap`] runs in.
#[derive(Debug)]
enum Dir<'a> {
    /// Appends to the bytes written so far.
    Write(&'a mut Vec<u8>),
    /// The bytes not yet read.
    Read(&'a [u8]),
}

/// A two-way cursor over a snapshot: it either writes each field it is
/// handed or reads the field back and assigns it.
#[derive(Debug)]
pub struct Snap<'a> {
    dir: Dir<'a>,
}

impl<'a> Snap<'a> {
    /// Runs `list` over a writing cursor and returns what it wrote.
    ///
    /// # Panics
    ///
    /// If `list` fails, which it cannot do while writing (every check
    /// runs only when reading).
    #[must_use]
    pub fn write(list: impl FnOnce(&mut Snap<'_>) -> Result<(), SnapError>) -> Vec<u8> {
        let mut out = Vec::new();
        list(&mut Snap { dir: Dir::Write(&mut out) }).expect("writing a snapshot never fails");
        out
    }

    /// A reading cursor over `bytes`, for a caller that reads only a
    /// prefix; [`Snap::read`] reads a whole snapshot.
    #[must_use]
    pub fn reader(bytes: &'a [u8]) -> Self {
        Snap { dir: Dir::Read(bytes) }
    }

    /// Runs `list` over a reading cursor on `bytes`, which it must
    /// consume exactly — trailing bytes are corruption, not padding.
    ///
    /// # Errors
    ///
    /// The first [`SnapError`] `list` returns, or one for trailing bytes.
    pub fn read(
        bytes: &'a [u8],
        list: impl FnOnce(&mut Snap<'a>) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let mut s = Snap::reader(bytes);
        list(&mut s)?;
        match s.dir {
            Dir::Read([]) => Ok(()),
            _ => Err(SnapError::new("trailing bytes after snapshot")),
        }
    }

    /// Whether this cursor restores (reads) rather than captures.
    #[inline]
    #[must_use]
    pub fn reading(&self) -> bool {
        matches!(self.dir, Dir::Read(_))
    }

    /// Writes `*v`, or reads a value into it.
    ///
    /// # Errors
    ///
    /// Reading: [`SnapError`] on truncation or an invalid encoding.
    #[inline]
    pub fn field<T: Field>(&mut self, v: &mut T) -> Result<(), SnapError> {
        match &mut self.dir {
            Dir::Write(out) => v.put(out),
            Dir::Read(buf) => *v = T::take(buf)?,
        }
        Ok(())
    }

    /// [`Snap::field`] for a value that must lie in `range`.
    ///
    /// # Errors
    ///
    /// Reading: as [`Snap::field`], or `context` for a value outside
    /// `range` (`*v` is then left unchanged).
    #[inline]
    pub fn bounded<T: Field>(
        &mut self,
        v: &mut T,
        range: impl RangeBounds<T>,
        context: &'static str,
    ) -> Result<(), SnapError> {
        match &mut self.dir {
            Dir::Write(out) => {
                debug_assert!(range.contains(&*v), "{context} while writing");
                v.put(out);
            }
            Dir::Read(buf) => {
                let got = T::take(buf)?;
                if !range.contains(&got) {
                    return Err(SnapError::new(context));
                }
                *v = got;
            }
        }
        Ok(())
    }

    /// Writes the configuration fact `v`, or reads one and checks that it
    /// equals `v`.
    ///
    /// # Errors
    ///
    /// Reading: as [`Snap::field`], or `context` on a mismatch.
    #[inline]
    pub fn shape<T: Field>(&mut self, v: T, context: &'static str) -> Result<(), SnapError> {
        let mut got = v;
        self.field(&mut got)?;
        if got == v {
            Ok(())
        } else {
            Err(SnapError::new(context))
        }
    }

    /// A presence flag, then `list` over the value when there is one.
    /// Reading sets `*v` to `None` or to a default that `list` fills.
    ///
    /// # Errors
    ///
    /// As [`Snap::field`], or whatever `list` returns.
    pub fn option<T: Default>(
        &mut self,
        v: &mut Option<T>,
        list: impl FnOnce(&mut Self, &mut T) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let mut present = v.is_some();
        self.field(&mut present)?;
        if self.reading() {
            *v = present.then(T::default);
        }
        match v {
            Some(t) => list(self, t),
            None => Ok(()),
        }
    }

    /// A short, length-prefixed ASCII marker that labels a section, so a
    /// truncated or misaligned buffer fails fast.
    ///
    /// # Errors
    ///
    /// Reading: [`SnapError`] on truncation or a marker mismatch.
    pub fn marker(&mut self, m: &'static str) -> Result<(), SnapError> {
        let len = u8::try_from(m.len()).map_err(|_| SnapError::new("marker too long"))?;
        self.shape(len, "marker length mismatch")?;
        match &mut self.dir {
            Dir::Write(out) => out.extend_from_slice(m.as_bytes()),
            Dir::Read(buf) => {
                let (got, rest) =
                    buf.split_at_checked(m.len()).ok_or(SnapError::new("truncated marker"))?;
                if got != m.as_bytes() {
                    return Err(SnapError::new("marker mismatch"));
                }
                *buf = rest;
            }
        }
        Ok(())
    }
}

/// Bit-exact state capture for a warm table.
///
/// `snap` lists the value's dynamic state once; run over a writing
/// cursor it captures, over a reading cursor it overwrites the same state
/// in a value built from the same configuration. The contract — checked
/// by the warm-state proptests in `eole-core` and by the interval harness
/// under `EOLE_PARANOID=1` — is that restore-then-snapshot reproduces the
/// exact bytes, and that a restored table is behaviorally
/// indistinguishable from the one captured.
pub trait Snapshot {
    /// Writes or reads this value's dynamic state through `s`.
    ///
    /// # Errors
    ///
    /// Reading: [`SnapError`] if the buffer is truncated, describes a
    /// value of a different shape (table sizes, enum variant) or holds a
    /// counter outside its range.
    fn snap(&mut self, s: &mut Snap<'_>) -> Result<(), SnapError>;

    /// This value's snapshot bytes.
    fn snapshot_bytes(&mut self) -> Vec<u8> {
        Snap::write(|s| self.snap(s))
    }

    /// Overwrites this value's dynamic state from `bytes`, which must
    /// hold exactly one snapshot of it.
    ///
    /// # Errors
    ///
    /// As [`Snapshot::snap`], or [`SnapError`] for trailing bytes.
    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        Snap::read(bytes, |s| self.snap(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field kind, in one list run both ways.
    #[derive(Debug, Default, PartialEq)]
    struct All {
        a: u8,
        b: bool,
        c: i8,
        d: u32,
        e: u64,
        f: i64,
        g: usize,
        h: Option<(u64, i8)>,
    }

    impl Snapshot for All {
        fn snap(&mut self, s: &mut Snap<'_>) -> Result<(), SnapError> {
            s.marker("t")?;
            s.field(&mut self.a)?;
            s.field(&mut self.b)?;
            s.bounded(&mut self.c, -4..=3, "c out of range")?;
            s.field(&mut self.d)?;
            s.field(&mut self.e)?;
            s.field(&mut self.f)?;
            s.shape(self.g, "g mismatch")?;
            s.option(&mut self.h, |s, (x, y)| {
                s.field(x)?;
                s.field(y)
            })
        }
    }

    fn sample() -> All {
        All {
            a: 7,
            b: true,
            c: -3,
            d: 0xdead_beef,
            e: u64::MAX - 1,
            f: -42,
            g: 12345,
            h: Some((9, -1)),
        }
    }

    #[test]
    fn round_trips_scalars_and_markers() {
        let bytes = sample().snapshot_bytes();
        assert_eq!(&bytes[..2], &[1, b't']);
        assert_eq!(bytes.len(), 2 + 1 + 1 + 1 + 4 + 8 + 8 + 8 + 1 + 8 + 1);
        let mut back = All { g: 12345, ..All::default() };
        back.restore_bytes(&bytes).unwrap();
        assert_eq!(back, sample());

        let none = All { h: None, ..sample() }.snapshot_bytes();
        let mut back = sample();
        back.restore_bytes(&none).unwrap();
        assert_eq!(back.h, None);
    }

    #[test]
    fn rejects_truncation_trailing_garbage_and_bad_markers() {
        let bytes = sample().snapshot_bytes();
        for cut in 0..bytes.len() {
            assert!(sample().restore_bytes(&bytes[..cut]).is_err(), "truncated at {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(sample().restore_bytes(&long).is_err());

        let mut other = All { g: 1, ..sample() };
        assert_eq!(other.restore_bytes(&bytes), Err(SnapError::new("g mismatch")));

        let mut bad = bytes.clone();
        bad[4] = 4; // c, one past its range
        assert_eq!(sample().restore_bytes(&bad), Err(SnapError::new("c out of range")));
        bad[4] = 0;
        bad[3] = 2; // b, not a boolean byte
        assert_eq!(sample().restore_bytes(&bad), Err(SnapError::new("non-boolean byte")));

        let mut bad = bytes;
        bad[1] = b'u';
        assert_eq!(sample().restore_bytes(&bad), Err(SnapError::new("marker mismatch")));
    }
}
