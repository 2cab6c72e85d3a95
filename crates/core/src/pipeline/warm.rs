//! Warm-state checkpoints: a serializable snapshot of everything
//! [`Simulator::functional_warm`] trains.
//!
//! A [`WarmState`] captures the long-lived microarchitectural state that a
//! functional replay of the committed prefix reconstructs — TAGE/BTB/RAS,
//! the value predictor (including its RNG stream positions), the whole
//! cache/DRAM/MSHR hierarchy with its cumulative counters, and the handful
//! of scalar fields the replay advances (`cursor`, the functional clock,
//! the fetch-line filter).
//! Restoring it into a freshly constructed [`Simulator`] is **bit-identical**
//! to replaying the same prefix from zero: every other simulator field is
//! untouched by `functional_warm`, so construction defaults already match.
//!
//! The payload is a canonical little-endian byte string (see
//! [`eole_predictors::snapshot`]): fixed field order, length-prefixed
//! tables, no padding. Byte equality of two `WarmState`s therefore *is*
//! state equality, which is what the paranoid interval checks and the
//! `checkpoint_restore_equals_prefix_replay` proptest assert.
//!
//! Versioning: the leading marker is [`WARMSTATE_FORMAT`]. Any change to
//! the field layout of any snapshotted component must bump the `vN` suffix
//! (see `PERF.md` §checkpointed-warmup) — stores key checkpoints by this
//! string, so a bump simply makes old cached checkpoints miss and be
//! rebuilt by a functional sweep, never misdecoded.

use eole_predictors::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};

use super::state::Simulator;

/// Format marker (and store payload kind) for serialized warm state.
pub const WARMSTATE_FORMAT: &str = "eole-warmstate/v2";

/// An opaque, store-cacheable checkpoint of a simulator's warm state.
///
/// Equality is byte equality of the canonical payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarmState {
    bytes: Vec<u8>,
}

impl WarmState {
    /// The canonical serialized payload (starts with [`WARMSTATE_FORMAT`]).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the checkpoint, yielding the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the payload is empty (never the case for a valid
    /// checkpoint — the marker alone is non-empty).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Wraps bytes received from a store, checking the format marker.
    ///
    /// This validates only the *kind* of payload; structural validation
    /// happens in [`Simulator::restore_warm`], against the live
    /// configuration's table shapes.
    ///
    /// # Errors
    ///
    /// [`SnapError`] if the payload does not start with
    /// [`WARMSTATE_FORMAT`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(&bytes);
        r.expect_marker(WARMSTATE_FORMAT)?;
        Ok(WarmState { bytes })
    }

    /// The trace position (µ-op index) this checkpoint was captured at,
    /// without deserializing the rest of the payload.
    ///
    /// # Errors
    ///
    /// [`SnapError`] if the payload is truncated before the cursor field.
    pub fn position(&self) -> Result<u64, SnapError> {
        let mut r = SnapReader::new(&self.bytes);
        r.expect_marker(WARMSTATE_FORMAT)?;
        r.get_u64()
    }
}

impl Simulator<'_> {
    /// Captures the warm state at the current trace position.
    ///
    /// Must be called with the speculative VP window drained — i.e. after
    /// [`Simulator::functional_warm`] / construction, not mid-detailed-run.
    /// (`functional_warm` drains the window one query/train pair at a
    /// time, so this always holds on the chained-sweep path.)
    pub fn capture_warm(&self) -> WarmState {
        let mut w = SnapWriter::new();
        w.put_marker(WARMSTATE_FORMAT);
        w.put_usize(self.cursor);
        w.put_u64(self.cycle);
        w.put_u64(self.last_commit_cycle);
        w.put_u64(self.last_fetch_line);
        self.tage.snapshot(&mut w);
        self.btb.snapshot(&mut w);
        self.ras.snapshot(&mut w);
        match &self.vp {
            None => w.put_bool(false),
            Some(vp) => {
                w.put_bool(true);
                vp.snapshot(&mut w);
            }
        }
        self.mem.snapshot(&mut w);
        WarmState { bytes: w.into_bytes() }
    }

    /// Restores warm state captured by [`Simulator::capture_warm`],
    /// overwriting every field `functional_warm` trains. After a
    /// successful restore this simulator is bit-identical to one that
    /// functionally replayed the prefix `[0, position)` from construction
    /// — provided `self` was built with the same configuration over the
    /// same trace and has not started detailed simulation.
    ///
    /// # Errors
    ///
    /// [`SnapError`] if the payload is truncated, structurally invalid,
    /// or shaped for a different configuration (table sizes, predictor
    /// kind, prefetcher presence). **On error the simulator may be left
    /// partially restored — discard it and rebuild the checkpoint.**
    pub fn restore_warm(&mut self, warm: &WarmState) -> Result<(), SnapError> {
        let mut r = SnapReader::new(warm.as_bytes());
        r.expect_marker(WARMSTATE_FORMAT)?;
        let cursor = r.get_usize()?;
        if cursor > self.trace.len() {
            return Err(SnapError::new("warm cursor past end of trace"));
        }
        self.cursor = cursor;
        self.cycle = r.get_u64()?;
        self.last_commit_cycle = r.get_u64()?;
        self.last_fetch_line = r.get_u64()?;
        self.tage.restore(&mut r)?;
        self.btb.restore(&mut r)?;
        self.ras.restore(&mut r)?;
        let has_vp = r.get_bool()?;
        match (&mut self.vp, has_vp) {
            (Some(vp), true) => vp.restore(&mut r)?,
            (None, false) => {}
            _ => return Err(SnapError::new("vp presence mismatch")),
        }
        self.mem.restore(&mut r)?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bytes_rejects_wrong_marker() {
        let mut w = SnapWriter::new();
        w.put_marker("eole-result/v2");
        assert!(WarmState::from_bytes(w.into_bytes()).is_err());
        assert!(WarmState::from_bytes(Vec::new()).is_err());
    }

    #[test]
    fn position_reads_cursor_without_full_decode() {
        let mut w = SnapWriter::new();
        w.put_marker(WARMSTATE_FORMAT);
        w.put_usize(12_345);
        w.put_u8(0xff); // trailing garbage a full decode would reject
        let warm = WarmState::from_bytes(w.into_bytes()).expect("marker ok");
        assert_eq!(warm.position().expect("cursor present"), 12_345);
    }
}
