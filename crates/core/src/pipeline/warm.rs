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

use eole_predictors::snapshot::{Snap, SnapError, Snapshot};

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

/// The checkpoint head every reader and writer shares: the format
/// marker, then the trace position, which must not pass `max`.
fn head(s: &mut Snap<'_>, cursor: &mut usize, max: usize) -> Result<(), SnapError> {
    s.marker(WARMSTATE_FORMAT)?;
    s.bounded(cursor, ..=max, "warm cursor past end of trace")
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

    /// Wraps bytes received from a store, checking the head (the format
    /// marker and the position).
    ///
    /// This validates only the *kind* of payload; structural validation
    /// happens in [`Simulator::restore_warm`], against the live
    /// configuration's table shapes.
    ///
    /// # Errors
    ///
    /// [`SnapError`] if the payload does not start with
    /// [`WARMSTATE_FORMAT`] and a position.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapError> {
        let warm = WarmState { bytes };
        warm.position()?;
        Ok(warm)
    }

    /// The trace position (µ-op index) this checkpoint was captured at,
    /// without deserializing the rest of the payload.
    ///
    /// # Errors
    ///
    /// [`SnapError`] if the payload is truncated before the cursor field.
    pub fn position(&self) -> Result<u64, SnapError> {
        let mut cursor = 0;
        head(&mut Snap::reader(&self.bytes), &mut cursor, usize::MAX)?;
        Ok(cursor as u64)
    }
}

impl Simulator<'_> {
    /// Captures the warm state at the current trace position.
    ///
    /// Must be called with the speculative VP window drained — i.e. after
    /// [`Simulator::functional_warm`] / construction, not mid-detailed-run.
    /// (`functional_warm` drains the window one query/train pair at a
    /// time, so this always holds on the chained-sweep path.)
    pub fn capture_warm(&mut self) -> WarmState {
        WarmState { bytes: Snap::write(|s| self.snap_warm(s)) }
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
        Snap::read(warm.as_bytes(), |s| self.snap_warm(s))
    }

    /// The checkpoint's one field list: the head, the scalars the replay
    /// advances, then every trained table.
    fn snap_warm(&mut self, s: &mut Snap<'_>) -> Result<(), SnapError> {
        head(s, &mut self.cursor, self.trace.len())?;
        s.field(&mut self.cycle)?;
        s.field(&mut self.last_commit_cycle)?;
        s.field(&mut self.last_fetch_line)?;
        self.tage.snap(s)?;
        self.btb.snap(s)?;
        self.ras.snap(s)?;
        s.shape(self.vp.is_some(), "vp presence mismatch")?;
        if let Some(vp) = &mut self.vp {
            vp.snap(s)?;
        }
        self.mem.snap(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bytes_rejects_wrong_marker() {
        let bytes = Snap::write(|s| s.marker("eole-result/v2"));
        assert!(WarmState::from_bytes(bytes).is_err());
        assert!(WarmState::from_bytes(Vec::new()).is_err());
    }

    #[test]
    fn position_reads_cursor_without_full_decode() {
        let bytes = Snap::write(|s| {
            head(s, &mut 12_345, usize::MAX)?;
            s.field(&mut 0xffu8) // trailing garbage a full decode would reject
        });
        let warm = WarmState::from_bytes(bytes).expect("head ok");
        assert_eq!(warm.position().expect("cursor present"), 12_345);
    }
}
