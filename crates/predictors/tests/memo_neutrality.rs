//! The history-fold memo is derived state: a predictor restored from a
//! snapshot into a fresh instance (empty memo) must be indistinguishable
//! from the one that wrote the snapshot (warm memo) — same snapshot bytes,
//! same predictions afterwards, and for D-VTAGE, `==`.
//!
//! The snapshot bytes themselves are pinned too: a round trip passes for
//! any self-consistent layout, so [`snapshot_bytes_are_pinned`] holds
//! golden digests of each predictor's bytes after `TRAIN` µ-ops. A change
//! to them means stored checkpoints would restore into the wrong fields:
//! legal only together with a `WARMSTATE_FORMAT` bump.

use eole_predictors::branch::{BranchPrediction, DirectionPredictor, Tage};
use eole_predictors::history::BranchHistory;
use eole_predictors::rng::SimRng;
use eole_predictors::snapshot::{SnapReader, SnapWriter, Snapshot};
use eole_predictors::value::{DVtage, ValuePrediction, ValuePredictor, Vtage, VtageTwoDeltaStride};

/// µ-ops trained before the snapshot.
const TRAIN: usize = 20_000;
/// predict/train pairs compared after the restore.
const AFTER: usize = 1_000;

/// A fixed branch log plus a µ-op stream `(pc, history position, value,
/// taken)` whose values mix strides with history-correlated patterns, so
/// tagged components allocate, hit and age.
fn stream() -> (BranchHistory, Vec<(u64, usize, u64, bool)>) {
    let mut rng = SimRng::new(0x5eed);
    let n = TRAIN + AFTER;
    let outcomes: Vec<bool> = (0..n / 3 + 1).map(|i| i % 7 < 3 || rng.one_in(5)).collect();
    let hist = BranchHistory::from_outcomes(&outcomes);
    let ops = (0..n)
        .map(|i| {
            let pos = i / 3;
            let pc = 0x1000 + 4 * (i % 11) as u64;
            let recent = pos > 0 && outcomes[pos - 1];
            let value = match i % 3 {
                0 => 8 * i as u64,
                1 if recent => 7,
                1 => 9,
                _ => rng.below(4),
            };
            (pc, pos, value, outcomes[pos])
        })
        .collect();
    (hist, ops)
}

fn snapshot_bytes(p: &impl Snapshot) -> Vec<u8> {
    let mut w = SnapWriter::new();
    p.snapshot(&mut w);
    w.into_bytes()
}

fn restored<P: Snapshot>(mut fresh: P, bytes: &[u8]) -> P {
    let mut r = SnapReader::new(bytes);
    fresh.restore(&mut r).expect("restore");
    r.finish().expect("whole snapshot consumed");
    fresh
}

/// Trains `make()` over the first `TRAIN` µ-ops, restores its snapshot
/// into a second `make()`, and checks the two agree from then on.
/// Returns both, for further comparison.
fn check_value_predictor<P: ValuePredictor + Snapshot>(make: impl Fn() -> P) -> (P, P) {
    let (hist, ops) = stream();
    let mut warm = make();
    for &(pc, pos, value, _) in &ops[..TRAIN] {
        let _ = warm.predict(pc, hist.view(pos));
        warm.train(pc, hist.view(pos), value);
    }
    let bytes = snapshot_bytes(&warm);
    let mut cold = restored(make(), &bytes);
    assert_eq!(
        snapshot_bytes(&cold),
        bytes,
        "{}: restored snapshot bytes differ",
        warm.name()
    );
    for (i, &(pc, pos, value, _)) in ops[TRAIN..].iter().enumerate() {
        let a: Option<ValuePrediction> = warm.predict(pc, hist.view(pos));
        let b = cold.predict(pc, hist.view(pos));
        assert_eq!(a, b, "{}: prediction {i} after restore", warm.name());
        warm.train(pc, hist.view(pos), value);
        cold.train(pc, hist.view(pos), value);
    }
    assert_eq!(
        snapshot_bytes(&warm),
        snapshot_bytes(&cold),
        "{}: state diverged",
        warm.name()
    );
    (warm, cold)
}

#[test]
fn vtage_restore_is_memo_neutral() {
    check_value_predictor(|| Vtage::paper(11));
}

#[test]
fn hybrid_restore_is_memo_neutral() {
    check_value_predictor(|| VtageTwoDeltaStride::paper(12));
}

#[test]
fn dvtage_restore_is_memo_neutral_and_equal() {
    let make = || DVtage::paper(4, 4, 13);
    let (hist, ops) = stream();
    // Equality ignores the memo: a warm-memo instance equals a fresh one
    // with the same tables.
    let mut warm = make();
    let _ = warm.predict(ops[0].0, hist.view(ops[0].1));
    assert!(warm == make());
    let (warm, cold) = check_value_predictor(make);
    assert!(warm == cold);
}

#[test]
fn tage_restore_is_memo_neutral() {
    let (hist, ops) = stream();
    let mut warm = Tage::paper(14);
    for &(pc, pos, _, taken) in &ops[..TRAIN] {
        let _ = warm.predict(pc, hist.view(pos));
        warm.update(pc, hist.view(pos), taken);
    }
    let bytes = snapshot_bytes(&warm);
    let mut cold = restored(Tage::paper(14), &bytes);
    assert_eq!(snapshot_bytes(&cold), bytes);
    for (i, &(pc, pos, _, taken)) in ops[TRAIN..].iter().enumerate() {
        let a: BranchPrediction = warm.predict(pc, hist.view(pos));
        assert_eq!(
            a,
            cold.predict(pc, hist.view(pos)),
            "prediction {i} after restore"
        );
        warm.update(pc, hist.view(pos), taken);
        cold.update(pc, hist.view(pos), taken);
    }
    assert_eq!(snapshot_bytes(&warm), snapshot_bytes(&cold));
}

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Digest of a value predictor's snapshot after the first `TRAIN` µ-ops.
fn trained_value_digest(mut p: impl ValuePredictor + Snapshot) -> u64 {
    let (hist, ops) = stream();
    for &(pc, pos, value, _) in &ops[..TRAIN] {
        let _ = p.predict(pc, hist.view(pos));
        p.train(pc, hist.view(pos), value);
    }
    fnv1a(&snapshot_bytes(&p))
}

#[test]
fn snapshot_bytes_are_pinned() {
    let (hist, ops) = stream();
    let mut tage = Tage::paper(14);
    for &(pc, pos, _, taken) in &ops[..TRAIN] {
        let _ = tage.predict(pc, hist.view(pos));
        tage.update(pc, hist.view(pos), taken);
    }
    let got = [
        ("VTAGE", trained_value_digest(Vtage::paper(11))),
        ("VTAGE-2DStride", trained_value_digest(VtageTwoDeltaStride::paper(12))),
        ("D-VTAGE", trained_value_digest(DVtage::paper(4, 4, 13))),
        ("TAGE", fnv1a(&snapshot_bytes(&tage))),
    ];
    let want = [
        ("VTAGE", 0xb1de_7054_d99b_ab0c),
        ("VTAGE-2DStride", 0x8d9c_7c3f_5706_475f),
        ("D-VTAGE", 0x32b0_d8c0_5039_32f5),
        ("TAGE", 0x09c3_57b6_0fc9_99a4),
    ];
    for ((name, g), (_, w)) in got.iter().zip(want) {
        assert_eq!(*g, w, "{name}: snapshot digest {g:#018x}, pinned {w:#018x}");
    }
}
