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
use eole_predictors::snapshot::Snapshot;
use eole_predictors::value::{
    DVtage, InFlight, ValuePrediction, ValuePredictor, Vtage, VtageTwoDeltaStride,
};

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

/// Trains `make()` over the first `TRAIN` µ-ops, restores its snapshot
/// into a second `make()`, and checks the two agree from then on.
/// Returns both, for further comparison.
fn check_value_predictor<P: ValuePredictor + Snapshot>(make: impl Fn() -> P) -> (P, P) {
    let (hist, ops) = stream();
    let mut warm = make();
    for &(pc, pos, value, _) in &ops[..TRAIN] {
        let _ = warm.predict(pc, hist.view(pos), InFlight::default());
        warm.train(pc, hist.view(pos), value);
    }
    let bytes = warm.snapshot_bytes();
    let mut cold = make();
    cold.restore_bytes(&bytes).expect("restore");
    assert_eq!(
        cold.snapshot_bytes(),
        bytes,
        "{}: restored snapshot bytes differ",
        warm.name()
    );
    for (i, &(pc, pos, value, _)) in ops[TRAIN..].iter().enumerate() {
        let a: Option<ValuePrediction> = warm.predict(pc, hist.view(pos), InFlight::default());
        let b = cold.predict(pc, hist.view(pos), InFlight::default());
        assert_eq!(a, b, "{}: prediction {i} after restore", warm.name());
        warm.train(pc, hist.view(pos), value);
        cold.train(pc, hist.view(pos), value);
    }
    assert_eq!(
        warm.snapshot_bytes(),
        cold.snapshot_bytes(),
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
    let _ = warm.predict(ops[0].0, hist.view(ops[0].1), InFlight::default());
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
    let bytes = warm.snapshot_bytes();
    let mut cold = Tage::paper(14);
    cold.restore_bytes(&bytes).expect("restore");
    assert_eq!(cold.snapshot_bytes(), bytes);
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
    assert_eq!(warm.snapshot_bytes(), cold.snapshot_bytes());
}

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Digest of a value predictor's snapshot after the first `TRAIN` µ-ops.
fn trained_value_digest(mut p: impl ValuePredictor + Snapshot) -> u64 {
    let (hist, ops) = stream();
    for &(pc, pos, value, _) in &ops[..TRAIN] {
        let _ = p.predict(pc, hist.view(pos), InFlight::default());
        p.train(pc, hist.view(pos), value);
    }
    fnv1a(&p.snapshot_bytes())
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
        ("TAGE", fnv1a(&tage.snapshot_bytes())),
    ];
    let want = [
        ("VTAGE", 0xb1de_7054_d99b_ab0c),
        ("VTAGE-2DStride", 0x509f_cd01_8637_09b8),
        ("D-VTAGE", 0x32b0_d8c0_5039_32f5),
        ("TAGE", 0x09c3_57b6_0fc9_99a4),
    ];
    for ((name, g), (_, w)) in got.iter().zip(want) {
        assert_eq!(*g, w, "{name}: snapshot digest {g:#018x}, pinned {w:#018x}");
    }
}

/// The little-endian `u64` length prefix at `bytes[at..]`, as a count.
fn len_at(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes")) as usize
}

/// The offset of the first valid entry of the first tagged component,
/// whose table (length prefix, then `entry`-byte entries led by the valid
/// byte) starts at `at`.
fn first_valid_entry(bytes: &[u8], at: usize, entry: usize) -> usize {
    let rows = len_at(bytes, at);
    (0..rows).map(|r| at + 8 + r * entry).find(|&e| bytes[e] == 1).expect("a valid entry")
}

/// Sets each byte at `offsets` to each value in `bad` in turn and checks
/// that `make()` refuses to restore the result with the error `context`
/// names, while the unchanged bytes restore.
fn rejects_each<P: Snapshot>(
    make: impl Fn() -> P,
    bytes: &[u8],
    offsets: &[(&str, usize, &[u8])],
) {
    make().restore_bytes(bytes).expect("the unchanged bytes restore");
    for &(context, at, bad) in offsets {
        for &b in bad {
            let mut flipped = bytes.to_vec();
            flipped[at] = b;
            let err = make().restore_bytes(&flipped).expect_err(context);
            assert_eq!(err.context, context, "byte {at} set to {b:#04x}");
        }
    }
}

/// Every bounded counter of the TAGE family goes through a bounded read:
/// a value its `update` cannot step (TAGE's `ctr` outside −4..=3, `conf`,
/// `base_conf` and every `useful` outside 0..=3) is a restore error, not
/// an overflow panic in the next update.
#[test]
fn restore_rejects_out_of_range_counters() {
    let (hist, ops) = stream();
    let mut tage = Tage::paper(3);
    for &(pc, pos, _, taken) in &ops[..TRAIN] {
        let _ = tage.predict(pc, hist.view(pos));
        tage.update(pc, hist.view(pos), taken);
    }
    // Bimodal (length, counters), base_conf (length, counters), the
    // component count, then per component: length, then entries of
    // valid, tag (4), ctr, useful, conf.
    let bytes = tage.snapshot_bytes();
    let base_conf = 8 + len_at(&bytes, 0);
    let comps = base_conf + 8 + len_at(&bytes, base_conf);
    let e = first_valid_entry(&bytes, comps + 8, 8);
    let ctr: &[u8] = &[4, 0x7f, 0x80, 0xfb];
    let two_bits: &[u8] = &[4, 0xff];
    rejects_each(
        || Tage::paper(3),
        &bytes,
        &[
            ("tage base_conf out of range", base_conf + 8, two_bits),
            ("tage ctr out of range", e + 5, ctr),
            ("tage useful out of range", e + 6, two_bits),
            ("tage conf out of range", e + 7, two_bits),
        ],
    );

    let train = |p: &mut dyn ValuePredictor| {
        for &(pc, pos, value, _) in &ops[..TRAIN] {
            let _ = p.predict(pc, hist.view(pos), InFlight::default());
            p.train(pc, hist.view(pos), value);
        }
    };
    // VTAGE: base (length, entries of value (8) and FPC level), the
    // component count, then per component: length, then entries of
    // valid, tag (4), value (8), FPC level, useful.
    let mut vtage = Vtage::paper(11);
    train(&mut vtage);
    let bytes = vtage.snapshot_bytes();
    let comps = 8 + 9 * len_at(&bytes, 0);
    let e = first_valid_entry(&bytes, comps + 8, 15);
    rejects_each(|| Vtage::paper(11), &bytes, &[("vtage useful out of range", e + 14, two_bits)]);

    // D-VTAGE: the LVT (length, values), base (length, entries of delta
    // (8) and FPC level), the component count, then per component: the
    // metadata (length, entries of valid, tag (4), useful), then slots.
    let mut dvtage = DVtage::paper(4, 4, 13);
    train(&mut dvtage);
    let bytes = dvtage.snapshot_bytes();
    let base = 8 + 8 * len_at(&bytes, 0);
    let comps = base + 8 + 9 * len_at(&bytes, base);
    let e = first_valid_entry(&bytes, comps + 8, 6);
    rejects_each(|| DVtage::paper(4, 4, 13), &bytes, &[("dvtage useful out of range", e + 5, two_bits)]);
}
