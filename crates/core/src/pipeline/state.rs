//! Shared simulator state: [`PreparedTrace`], [`SimError`], the
//! [`Simulator`] struct itself, the in-flight µ-op bookkeeping records, and
//! the cycle loop that sequences the stage modules.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use eole_isa::{Inst, InstClass, Program, RegClass, Trace, WordHashMap};
use eole_mem::hierarchy::MemoryHierarchy;
use eole_predictors::branch::{Btb, ReturnStack, Tage, TageKeys};
use eole_predictors::history::BranchHistory;
use eole_predictors::storesets::StoreSets;
use eole_predictors::value::{
    AnyValuePredictor, BlockParams, BlockVp, DVtage, DVtageConfig, Fcm, LastValue,
    StridePredictor, TwoDeltaStride, VpKeySchema, VpKeys, Vtage, VtageTwoDeltaStride,
};

use super::wakeup::Waiters;
use super::window::SeqRing;
use crate::config::{ConfigError, CoreConfig, ValuePredictorKind, VpConfig};
use crate::prf::{PhysReg, Prf, NOT_READY};
use crate::stats::SimStats;

/// A dynamic trace plus the precomputed branch-history log, shareable
/// across many simulator instances (one per configuration).
#[derive(Clone, Debug)]
pub struct PreparedTrace {
    /// The program's static instructions, indexed by a µ-op's pc.
    text: Vec<Inst>,
    insts: Vec<eole_isa::DynInst>,
    /// Pc of the µ-op after the last record ([`PreparedTrace::next_pc`]).
    end_pc: u32,
    pub(super) history: BranchHistory,
    /// Every conditional branch's TAGE keys, by branch ordinal: built by
    /// the first simulator over this trace ([`PreparedTrace::tage_keys`]),
    /// then shared by every configuration and thread.
    tage_keys: OnceLock<Vec<TageKeys>>,
    /// Every µ-op's value-predictor keys, one table per key schema
    /// ([`PreparedTrace::vp_keys`]), each built by the first simulator
    /// that needs it and shared by every later one.
    vp_keys: VpKeyTables,
}

/// The per-schema value-predictor key tables of one trace.
#[derive(Debug, Default)]
struct VpKeyTables(Mutex<Vec<(VpKeySchema, Arc<VpKeyTable>)>>);

/// How many µ-ops ahead of the one it predicts fetch loads VP keys
/// ([`VpKeyTable::touch`]). A repeated key sits where it was first seen,
/// so reading it only when it is needed stalls on a cache miss that a
/// flat table, read in trace order, never took; loading it early lets the
/// miss overlap the work in between (PERF.md "Trace memory").
pub(super) const KEY_TOUCH_AHEAD: usize = 48;

/// One trace's value-predictor keys under one key schema, stored once per
/// distinct key: (pc, branch-history) contexts recur, so a trace visits
/// far fewer distinct keys than it has µ-ops, and each µ-op holds a
/// 4-byte index into them instead of its own 24-byte copy.
#[derive(Debug)]
pub(super) struct VpKeyTable {
    /// Per trace index, the position of the µ-op's keys in `distinct`.
    index: Box<[u32]>,
    /// Every distinct key of the trace once, in order of first use.
    distinct: Box<[VpKeys]>,
}

impl VpKeyTable {
    /// Derives every µ-op's keys with `vp` (zeros for µ-ops that are not
    /// VP-eligible) and keeps each distinct key once; the map that finds
    /// repeats is dropped on return.
    // lint:allow(hot-alloc) cold path: built once per trace and schema, inside the first `Simulator::new` that needs it, before any measured loop
    fn build(trace: &PreparedTrace, vp: &mut BlockVp) -> Self {
        let mut position: WordHashMap<VpKeys, u32> = WordHashMap::default();
        let mut distinct = Vec::new();
        let index = trace
            .insts
            .iter()
            .map(|di| {
                let eligible = trace.text[di.pc as usize].is_vp_eligible();
                let view = trace.history.view(di.bhist_pos as usize);
                let keys = if eligible { vp.keys(pck(di.pc), view) } else { None };
                let keys = keys.unwrap_or_default();
                *position.entry(keys).or_insert_with(|| {
                    let slot = u32::try_from(distinct.len()).expect("< 2^32 µ-ops"); // lint:allow(error-typing) a trace's history positions are u32 already
                    distinct.push(keys);
                    slot
                })
            })
            .collect();
        VpKeyTable { index, distinct: distinct.into_boxed_slice() }
    }

    /// The keys of the µ-op at trace index `idx`.
    #[inline]
    fn get(&self, idx: usize) -> VpKeys {
        self.distinct[self.index[idx] as usize]
    }

    /// Loads the keys of the µ-op at trace index `idx`, if the trace has
    /// one, into the cache (all six words: a key may straddle two lines).
    #[inline]
    pub(super) fn touch(&self, idx: usize) {
        if let Some(&slot) = self.index.get(idx) {
            std::hint::black_box(self.distinct[slot as usize]);
        }
    }
}

// lint:allow(hot-alloc) cold path: copies the list of shared tables, not the tables, when a trace is cloned
impl Clone for VpKeyTables {
    fn clone(&self) -> Self {
        VpKeyTables(Mutex::new(lock_clean(&self.0).clone()))
    }
}

/// Poisoning-proof lock: the key-table list is only ever changed by a
/// complete push, so a panic elsewhere never leaves it inconsistent.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl PreparedTrace {
    /// Prepares a raw trace for timing simulation.
    pub fn new(trace: Trace) -> Self {
        let history = BranchHistory::from_outcomes(&trace.branch_outcomes);
        PreparedTrace {
            text: trace.text,
            insts: trace.insts,
            end_pc: trace.end_pc,
            history,
            tage_keys: OnceLock::new(),
            vp_keys: VpKeyTables::default(),
        }
    }

    /// The value-predictor keys of every µ-op under `vp`'s key schema,
    /// by trace index (zeros for µ-ops that are not VP-eligible), as a
    /// [`VpKeyTable`]: 4 bytes per µ-op plus 24 per distinct key; `None`
    /// if `vp`'s predictor hashes no history. Built with `vp` on the first
    /// call for a schema and served to every later one: the keys are a
    /// pure function of the trace and the schema, so configurations whose
    /// predictors share a schema (the hybrid's VTAGE and VTAGE alone, any
    /// seed) share one table. Building holds the trace's table lock.
    /// `EOLE_PARANOID` re-derives each key at use ([`vp_keys_at`]).
    pub(super) fn vp_keys(&self, vp: &mut BlockVp) -> Option<Arc<VpKeyTable>> {
        let schema = vp.key_schema()?;
        let mut tables = lock_clean(&self.vp_keys.0);
        if let Some((_, table)) = tables.iter().find(|(s, _)| *s == schema) {
            return Some(Arc::clone(table));
        }
        let table = Arc::new(VpKeyTable::build(self, vp));
        tables.push((schema, Arc::clone(&table)));
        Some(table)
    }

    /// The TAGE keys of every conditional branch, indexed by branch
    /// ordinal (a conditional branch's `bhist_pos`), 48 bytes each. Built
    /// with `tage` on the first call and served to every later one: the
    /// keys are a pure function of the trace and TAGE's geometry, and
    /// every simulator builds the same geometry (`Tage::paper`, whose seed
    /// drives only the allocation RNG). `EOLE_PARANOID` re-derives each
    /// key at use ([`Simulator::branch_keys`]).
    // lint:allow(hot-alloc) cold path: built once per trace, inside the first `Simulator::new`, before any measured loop
    pub(super) fn tage_keys(&self, tage: &mut Tage) -> &[TageKeys] {
        self.tage_keys.get_or_init(|| {
            let mut keys = Vec::with_capacity(self.history.len());
            for di in self.insts.iter().filter(|di| di.class() == InstClass::Branch) {
                assert_eq!(di.bhist_pos as usize, keys.len(), "a branch's bhist_pos is its ordinal");
                keys.push(tage.keys(pck(di.pc), self.history.view(di.bhist_pos as usize)));
            }
            keys
        })
    }

    /// Number of µ-ops.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// The precomputed correct-path branch-outcome log (predictors index
    /// it by each µ-op's `bhist_pos`; offline evaluation replays it).
    pub fn history(&self) -> &BranchHistory {
        &self.history
    }

    /// True if the trace holds no µ-ops.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The µ-ops.
    pub fn insts(&self) -> &[eole_isa::DynInst] {
        &self.insts
    }

    /// Pc of the µ-op after the one at trace index `idx`
    /// ([`eole_isa::next_pc`], the rule [`Trace::next_pc`] follows).
    #[inline]
    pub fn next_pc(&self, idx: usize) -> u32 {
        eole_isa::next_pc(&self.insts, self.end_pc, idx)
    }

    /// The static instructions every µ-op's pc indexes.
    pub fn text(&self) -> &[Inst] {
        &self.text
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The pipeline stopped retiring (internal invariant broken).
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Instructions committed up to that point.
        committed: u64,
    },
    /// Configuration rejected by [`CoreConfig::validate`] (or a shape
    /// the PRF/predictor constructors refuse) — typed, not a panic.
    BadConfig(ConfigError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { cycle, committed } => {
                write!(f, "pipeline deadlock at cycle {cycle} after {committed} commits")
            }
            SimError::BadConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// How a value becomes available to the Early Execution block's operand
/// sources (paper §3.2: immediate, local bypass, or the value predictor —
/// never the PRF).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Avail {
    /// Producer's *used prediction* travels with the rename group.
    Pred,
    /// Early-executed in EE stage 1.
    Ee1,
    /// Early-executed in EE stage 2 (2-deep EE only).
    Ee2,
    /// Result only exists in the PRF / OoO engine: not EE-consumable.
    No,
}

#[derive(Clone, Copy, Debug)]
pub(super) struct Writer {
    pub(super) renamed_cycle: u64,
    pub(super) avail: Avail,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct SrcReg {
    pub(super) class: RegClass,
    pub(super) preg: PhysReg,
}

#[derive(Clone, Copy, Debug)]
pub(super) struct DstReg {
    pub(super) arch_flat: u8,
    pub(super) class: RegClass,
    pub(super) new: PhysReg,
    pub(super) old: PhysReg,
}

#[derive(Clone, Copy, Debug)]
pub(super) struct FrontUop {
    pub(super) trace_idx: usize,
    pub(super) seq: u64,
    pub(super) at_rename: u64,
    pub(super) vp_queried: bool,
    pub(super) pred_some: bool,
    pub(super) pred_used: bool,
    pub(super) pred_correct: bool,
    /// FPC level of the prediction at fetch (0–7; meaningful iff
    /// `pred_some`).
    pub(super) pred_level: u8,
    /// Whether the predicted value matched the trace result — tracked
    /// for *every* prediction, not just used ones, so per-confidence-
    /// level accuracy is observable.
    pub(super) pred_value_correct: bool,
    /// Very-high-confidence conditional branch (storage-free TAGE conf).
    pub(super) hc: bool,
    /// Fetch stalls until this µ-op resolves (mispredicted control).
    pub(super) awaited: bool,
    /// Mispredicted indirect/return (for stats).
    pub(super) ind_mispredict: bool,
}

#[derive(Clone, Copy, Debug)]
pub(super) struct RobEntry {
    pub(super) seq: u64,
    pub(super) trace_idx: usize,
    pub(super) dispatch_cycle: u64,
    pub(super) class: InstClass,
    pub(super) dst: Option<DstReg>,
    pub(super) srcs: [Option<SrcReg>; 2],
    pub(super) done_cycle: u64,
    /// LQ/SQ slot id (loads/stores only) — cached at dispatch so issue,
    /// commit, and squash never search the queues.
    pub(super) lsq_slot: u64,
    pub(super) ee: bool,
    pub(super) le_alu: bool,
    pub(super) le_branch: bool,
    pub(super) vp_eligible: bool,
    pub(super) vp_queried: bool,
    pub(super) pred_some: bool,
    pub(super) pred_used: bool,
    pub(super) pred_correct: bool,
    pub(super) pred_level: u8,
    pub(super) pred_value_correct: bool,
    pub(super) hc: bool,
    pub(super) awaited: bool,
    pub(super) ind_mispredict: bool,
}

impl RobEntry {
    /// Inert slab filler for the pre-sized ROB ring (never observed:
    /// `SeqRing` only exposes live slots).
    pub(super) fn vacant() -> Self {
        RobEntry {
            seq: 0,
            trace_idx: 0,
            dispatch_cycle: 0,
            class: InstClass::IntAlu,
            dst: None,
            srcs: [None, None],
            done_cycle: NOT_READY,
            lsq_slot: 0,
            ee: false,
            le_alu: false,
            le_branch: false,
            vp_eligible: false,
            vp_queried: false,
            pred_some: false,
            pred_used: false,
            pred_correct: false,
            pred_level: 0,
            pred_value_correct: false,
            hc: false,
            awaited: false,
            ind_mispredict: false,
        }
    }
}

/// One queued issue-queue entry: the µ-op's sequence number plus a cached
/// wakeup bound.
///
/// Only µ-ops whose sources all have a *known* readiness cycle are
/// queued. One with a source still `NOT_READY` (its producer has not
/// issued) is parked on that register in [`Waiters`] and costs nothing
/// per cycle until the producer's issue wakes it back into the queue.
/// `wake` is the first cycle the sources are all readable (0 for a fresh
/// or functional-unit-blocked entry), so the issue loop skips the operand
/// check while `wake > now` without ever issuing late: a physical
/// register's `ready_at` only transitions `NOT_READY → final cycle` while
/// a reader sits in the IQ (`Prf::set_ready_min` at dispatch precedes the
/// reader's rename; the later write at issue takes the minimum and cannot
/// lower a known value further).
#[derive(Clone, Copy, Debug)]
pub(super) struct IqEntry {
    pub(super) seq: u64,
    pub(super) wake: u64,
}

#[derive(Clone, Copy, Debug)]
pub(super) struct LoadEntry {
    pub(super) seq: u64,
    pub(super) addr: u64,
    pub(super) size: u8,
    /// Store-set dependence: `(store seq, SQ slot id)` of the last
    /// fetched store of this load's store set, for O(1) lookup at issue.
    pub(super) dep_store: Option<(u64, u64)>,
    pub(super) issued_at: u64,
}

impl LoadEntry {
    pub(super) fn vacant() -> Self {
        LoadEntry { seq: 0, addr: 0, size: 0, dep_store: None, issued_at: NOT_READY }
    }
}

#[derive(Clone, Copy, Debug)]
pub(super) struct StoreEntry {
    pub(super) seq: u64,
    pub(super) addr: u64,
    pub(super) size: u8,
    pub(super) issued_at: u64,
}

impl StoreEntry {
    pub(super) fn vacant() -> Self {
        StoreEntry { seq: 0, addr: 0, size: 0, issued_at: NOT_READY }
    }
}

pub(super) fn overlap(a_addr: u64, a_size: u8, b_addr: u64, b_size: u8) -> bool {
    a_addr < b_addr + b_size as u64 && b_addr < a_addr + a_size as u64
}

pub(super) fn contains(
    outer_addr: u64,
    outer_size: u8,
    inner_addr: u64,
    inner_size: u8,
) -> bool {
    outer_addr <= inner_addr
        && inner_addr + inner_size as u64 <= outer_addr + outer_size as u64
}

/// Whether a dispatched µ-op takes an issue-queue entry: everything but
/// early-executed µ-ops, late-executed ALU µ-ops and branches, and
/// direct jumps and calls (resolved in the front end).
pub(super) fn issues_from_iq(ee: bool, le_alu: bool, le_branch: bool, class: InstClass) -> bool {
    !(ee || le_alu || le_branch || matches!(class, InstClass::Jump | InstClass::Call))
}

pub(super) fn pck(pc: impl Into<u32>) -> u64 {
    Program::inst_addr(pc)
}

/// Builds the block-based VP subsystem the pipeline talks to: the
/// configured predictor, held by value as an enum (the fetch path queries
/// it every cycle, and static dispatch keeps that query free of the
/// `Box<dyn>` pointer chase), plus the speculative window, pre-sized to
/// the pipeline's maximum in-flight µ-op count so steady-state
/// registration never allocates, and its per-static-µ-op index, sized to
/// the trace text's `static_uops` instructions.
fn make_block_vp(vp: &VpConfig, window_hint: usize, static_uops: usize) -> BlockVp {
    let params = BlockParams {
        block_size: vp.block_size,
        banks: vp.banks,
        spec_window: vp.spec_window,
    };
    BlockVp::new(make_value_predictor(vp), params, window_hint, static_uops)
}

/// The configured value predictor.
fn make_value_predictor(vp: &VpConfig) -> AnyValuePredictor {
    let seed = vp.seed;
    match vp.kind {
        ValuePredictorKind::VtageTwoDeltaStride => VtageTwoDeltaStride::paper(seed).into(),
        ValuePredictorKind::Vtage => Vtage::paper(seed).into(),
        ValuePredictorKind::TwoDeltaStride => TwoDeltaStride::paper(seed).into(),
        ValuePredictorKind::Stride => StridePredictor::new(8192, seed).into(),
        ValuePredictorKind::LastValue => LastValue::new(8192, seed).into(),
        ValuePredictorKind::Fcm => Fcm::new(8192, 8192, seed).into(),
        ValuePredictorKind::DVtage => {
            DVtage::new(DVtageConfig::paper(vp.block_size, vp.banks), seed).into()
        }
    }
}

/// The value-predictor keys of the µ-op at trace index `idx` (which must
/// be VP-eligible), from its key table `table` ([`PreparedTrace::vp_keys`]),
/// or `None` without one. Under `EOLE_PARANOID` they are re-derived with
/// `vp` and compared; a mismatch panics naming the trace index.
#[inline]
pub(super) fn vp_keys_at(
    table: Option<&VpKeyTable>,
    vp: &mut BlockVp,
    trace: &PreparedTrace,
    idx: usize,
) -> Option<VpKeys> {
    let keys = table?.get(idx);
    if crate::paranoid() {
        let di = &trace.insts()[idx];
        let fresh = vp.keys(pck(di.pc), trace.history.view(di.bhist_pos as usize));
        if fresh != Some(keys) {
            panic!( // lint:allow(error-typing) EOLE_PARANOID is a crash-on-divergence debug mode
                "VP keys of trace index {idx} (pc {:#x}): table {keys:x?}, derived {fresh:x?}",
                di.pc
            );
        }
    }
    Some(keys)
}

/// Reusable per-cycle scratch buffers: cleared at the top of the stage
/// that owns them, never reallocated — `step()` performs no steady-state
/// heap allocation (enforced by `tests/zero_alloc.rs`).
#[derive(Debug)]
pub(super) struct Scratch {
    /// EE/prediction PRF writes per (bank, class) this dispatch group.
    pub(super) ee_writes: Vec<[usize; 2]>,
    /// LE/VT read ports consumed per (bank, class) this commit group.
    pub(super) port_reads: Vec<[usize; 2]>,
    /// The issue queue's other half: `do_issue` reads `Simulator::iq`
    /// and writes the entries it keeps here, then swaps the two.
    pub(super) iq_spare: Vec<IqEntry>,
    /// µ-ops woken by this cycle's issues, oldest last, merged into the
    /// issue scan in age order.
    pub(super) woken: Vec<IqEntry>,
}

impl Scratch {
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    fn new(prf_banks: usize, iq_entries: usize) -> Self {
        Scratch {
            ee_writes: vec![[0usize; 2]; prf_banks],
            port_reads: vec![[0usize; 2]; prf_banks],
            iq_spare: Vec::with_capacity(iq_entries),
            woken: Vec::with_capacity(iq_entries),
        }
    }
}

/// The cycle-level simulator for one core configuration over one trace.
pub struct Simulator<'t> {
    pub(super) trace: &'t PreparedTrace,
    /// The trace's static instructions ([`PreparedTrace::text`]).
    pub(super) text: &'t [Inst],
    pub(super) config: CoreConfig,
    pub(super) cycle: u64,
    pub(super) cursor: usize,
    pub(super) next_seq: u64,
    pub(super) total_committed: u64,
    pub(super) last_commit_cycle: u64,

    // Front end.
    pub(super) fetch_stall_until: u64,
    pub(super) pending_redirect: Option<u64>,
    pub(super) last_fetch_line: u64,
    pub(super) front_q: VecDeque<FrontUop>,
    pub(super) front_cap: usize,
    pub(super) tage: Tage,
    /// The trace's TAGE key table ([`PreparedTrace::tage_keys`]).
    pub(super) tage_keys: &'t [TageKeys],
    pub(super) btb: Btb,
    pub(super) ras: ReturnStack,
    pub(super) vp: Option<BlockVp>,
    /// The trace's key table for `vp`'s schema ([`PreparedTrace::vp_keys`]).
    pub(super) vp_keys: Option<Arc<VpKeyTable>>,

    // Rename.
    pub(super) spec_rat: [PhysReg; 64],
    pub(super) commit_rat: [PhysReg; 64],
    pub(super) prf: Prf,
    pub(super) writer_info: [Option<Writer>; 64],
    pub(super) prev_group_cycle: u64,

    // Window: flat, pre-sized rings — allocated once at construction.
    // ROB slot ids coincide with sequence numbers (see `squash_from`);
    // LQ/SQ slot ids are cached in `RobEntry::lsq_slot`.
    pub(super) rob: SeqRing<RobEntry>,
    /// Queued IQ entries, oldest first. IQ occupancy is `iq.len()` plus
    /// the µ-ops parked in `waiters`.
    pub(super) iq: Vec<IqEntry>,
    pub(super) waiters: Waiters,
    pub(super) lq: SeqRing<LoadEntry>,
    pub(super) sq: SeqRing<StoreEntry>,
    pub(super) store_sets: StoreSets,
    pub(super) lfst: Vec<Option<(u64, u64)>>,

    // Execute.
    pub(super) muldiv_busy: Vec<u64>,
    pub(super) fpmuldiv_busy: Vec<u64>,
    pub(super) mem: MemoryHierarchy,

    pub(super) scratch: Scratch,
    /// True when the previous [`Simulator::step`] performed no action —
    /// the precondition for event-driven fast-forwarding in `run`.
    pub(super) idle: bool,
    /// Hard commit ceiling (`u64::MAX` = none): [`Simulator::do_commit`]
    /// never retires the µ-op that would push `total_committed` past it.
    /// Set only inside [`Simulator::run_exact`], so the overshooting
    /// [`Simulator::run`] semantics the golden fingerprints pin are
    /// untouched.
    pub(super) commit_limit: u64,
    pub(super) stats: SimStats,
}

impl<'t> Simulator<'t> {
    /// Builds a simulator over a prepared trace.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] if the configuration is inconsistent.
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(trace: &'t PreparedTrace, config: CoreConfig) -> Result<Self, SimError> {
        config.validate().map_err(SimError::BadConfig)?;
        let mut spec_rat = [0 as PhysReg; 64];
        for (i, r) in spec_rat.iter_mut().enumerate() {
            *r = (i % 32) as PhysReg;
        }
        let store_sets = StoreSets::paper();
        let lfst = vec![None; store_sets.num_ssids() as usize];
        let front_cap = config.fetch_width * (config.frontend_depth as usize + 4);
        let mut tage = Tage::paper(config.branch_seed);
        let tage_keys = trace.tage_keys(&mut tage);
        let window_hint = front_cap + config.rob_entries;
        let mut vp =
            config.vp.as_ref().map(|v| make_block_vp(v, window_hint, trace.text().len()));
        let vp_keys = vp.as_mut().and_then(|vp| trace.vp_keys(vp));
        Ok(Simulator {
            cycle: 0,
            cursor: 0,
            next_seq: 0,
            total_committed: 0,
            last_commit_cycle: 0,
            fetch_stall_until: 0,
            pending_redirect: None,
            last_fetch_line: u64::MAX,
            front_q: VecDeque::with_capacity(front_cap),
            front_cap,
            tage,
            tage_keys,
            btb: Btb::paper(),
            ras: ReturnStack::paper(),
            vp,
            vp_keys,
            spec_rat,
            commit_rat: spec_rat,
            prf: Prf::try_new(config.int_prf, config.fp_prf, config.prf_banks)
                .map_err(SimError::BadConfig)?,
            writer_info: [None; 64],
            prev_group_cycle: u64::MAX,
            rob: SeqRing::new(config.rob_entries, RobEntry::vacant()),
            iq: Vec::with_capacity(config.iq_entries),
            waiters: Waiters::new(config.int_prf, config.fp_prf, config.rob_entries),
            lq: SeqRing::new(config.lq_entries, LoadEntry::vacant()),
            sq: SeqRing::new(config.sq_entries, StoreEntry::vacant()),
            store_sets,
            lfst,
            muldiv_busy: vec![0; config.fu.int_muldiv],
            fpmuldiv_busy: vec![0; config.fu.fp_muldiv],
            mem: MemoryHierarchy::new(&config.mem),
            scratch: Scratch::new(config.prf_banks, config.iq_entries),
            idle: false,
            commit_limit: u64::MAX,
            stats: SimStats::default(),
            text: trace.text(),
            trace,
            config,
        })
    }

    /// Functionally replays trace µ-ops `[cursor, upto)` through the
    /// long-lived microarchitectural state — predictor tables and cache
    /// hierarchy — without cycle-level pipeline simulation, then leaves
    /// the fetch cursor at `upto`.
    ///
    /// The replay is in commit order with architectural outcomes, which
    /// reconstructs everything that is a pure function of the committed
    /// prefix *exactly*: TAGE is trained with the same `(pc, history,
    /// taken)` triples a detailed run trains it with at commit, the value
    /// predictor sees the same in-order query/train pairs its backend
    /// sees at fetch/commit (speculative-window depth effects are
    /// transient and settle during the caller's detailed warmup window),
    /// and the return stack replays its call/return pushes and pops.
    /// Cache and DRAM state is approximate — tags are touched in trace
    /// order at a synthetic clock rather than out-of-order issue order —
    /// which is what the interval cycle-error budget covers (`PERF.md`).
    ///
    /// The pipeline clock advances monotonically past every modeled
    /// access so the hierarchy never observes time running backwards; a
    /// subsequent [`Simulator::run`] simply continues from that cycle.
    pub fn functional_warm(&mut self, upto: usize) {
        let upto = upto.min(self.trace.len());
        let mut cycle = self.cycle;
        // Throwaway sequence numbers for the query/train pairs: each pair
        // drains the speculative window before the next, and `next_seq`
        // itself must stay untouched (ROB slots are seq-addressed from
        // the ring's base).
        let mut seq = 0u64;
        while self.cursor < upto {
            let di = &self.trace.insts()[self.cursor];
            let view = self.trace.history.view(di.bhist_pos as usize);
            // I-cache: one touch per line transition, as fetch does.
            let line = pck(di.pc) & !63;
            if line != self.last_fetch_line {
                self.last_fetch_line = line;
                cycle = cycle.max(self.mem.fetch(line, cycle));
            }
            // Value predictor: the same in-order query/train pair the
            // detailed machine issues at fetch and commit.
            let inst = &self.text[di.pc as usize];
            if let Some(vp) = self.vp.as_mut() {
                if inst.is_vp_eligible() {
                    let keys = vp_keys_at(self.vp_keys.as_deref(), vp, self.trace, self.cursor);
                    let q = vp.predict(cycle, seq, pck(di.pc), view, keys.as_ref());
                    if q.accepted {
                        vp.commit(seq, pck(di.pc), view, keys.as_ref(), di.result);
                    }
                    seq += 1;
                }
            }
            // Control predictors: predict-then-train mirrors the fetch /
            // pre-commit split of the detailed machine.
            let cls = di.class();
            match cls {
                InstClass::Branch => {
                    let keys = self.branch_keys(di);
                    let pred = self.tage.predict_keyed(pck(di.pc), keys);
                    if pred.taken {
                        self.btb.insert(pck(di.pc), inst.imm as u32);
                    }
                    self.tage.update_keyed(pck(di.pc), keys, di.taken);
                }
                InstClass::Jump | InstClass::Call => {
                    self.btb.insert(pck(di.pc), self.trace.next_pc(self.cursor));
                    if cls == InstClass::Call {
                        self.ras.push(u32::from(di.pc) + 1);
                    }
                }
                InstClass::Return => {
                    self.ras.pop();
                }
                InstClass::JumpIndirect | InstClass::CallIndirect => {
                    self.btb.insert(pck(di.pc), self.trace.next_pc(self.cursor));
                    if cls == InstClass::CallIndirect {
                        self.ras.push(u32::from(di.pc) + 1);
                    }
                }
                InstClass::Load => {
                    cycle = cycle.max(self.mem.load(pck(di.pc), di.addr, cycle));
                }
                InstClass::Store => {
                    self.mem.store(pck(di.pc), di.addr, cycle);
                }
                _ => {}
            }
            self.cursor += 1;
            cycle += 1;
        }
        self.cycle = cycle;
        // The replay clock can advance far past the deadlock watchdog's
        // window; re-arm it so the first detailed commit isn't declared
        // overdue.
        self.last_commit_cycle = cycle;
    }

    /// The TAGE keys of the conditional branch `di`, from the trace's key
    /// table. Under `EOLE_PARANOID` they are re-derived from the history
    /// and compared; a mismatch panics naming the branch ordinal.
    #[inline]
    pub(super) fn branch_keys(&mut self, di: &eole_isa::DynInst) -> &'t TageKeys {
        let ordinal = di.bhist_pos as usize;
        let keys = &self.tage_keys[ordinal];
        if crate::paranoid() {
            let fresh = self.tage.keys(pck(di.pc), self.trace.history.view(ordinal));
            if fresh != *keys {
                panic!( // lint:allow(error-typing) EOLE_PARANOID is a crash-on-divergence debug mode
                    "TAGE keys of branch ordinal {ordinal} (pc {:#x}): table {keys:x?}, derived {fresh:x?}",
                    di.pc
                );
            }
        }
        keys
    }

    /// Trace index of the next µ-op to fetch (equals the number of
    /// committed µ-ops whenever the pipeline is drained; commit order is
    /// trace order).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// The active configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Total µ-ops committed since construction (not reset by
    /// [`Simulator::begin_measurement`]).
    pub fn committed_total(&self) -> u64 {
        self.total_committed
    }

    /// True once every trace µ-op has committed.
    pub fn finished(&self) -> bool {
        self.cursor >= self.trace.len() && self.front_q.is_empty() && self.rob.is_empty()
    }

    /// Snapshot of the counters (memory counters are cumulative).
    /// `SimStats` is `Copy`: the snapshot is a plain bitwise copy, no
    /// heap traffic.
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats;
        s.mem = self.mem.stats();
        s
    }

    /// Zeroes the pipeline counters — call at the end of warmup so the
    /// measurement window starts clean (predictor/cache state is kept).
    pub fn begin_measurement(&mut self) {
        self.stats.reset();
    }

    /// Runs until `insts` more µ-ops commit, the trace drains, or the
    /// deadlock watchdog fires.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if no commit happens for 100k cycles.
    pub fn run(&mut self, insts: u64) -> Result<(), SimError> {
        let target = self.total_committed.saturating_add(insts);
        while self.total_committed < target && !self.finished() {
            self.step();
            if self.idle {
                // Nothing moved this cycle: jump to the next timed event
                // instead of burning a full pipeline scan per idle cycle
                // (memory-bound workloads spend most cycles exactly here).
                self.fast_forward();
            }
            if self.cycle - self.last_commit_cycle > 100_000 {
                return Err(SimError::Deadlock {
                    cycle: self.cycle,
                    committed: self.total_committed,
                });
            }
        }
        Ok(())
    }

    /// Like [`Simulator::run`], but commits **exactly** `insts` more
    /// µ-ops (or fewer if the trace drains): the final commit group is
    /// cut at the target instead of overshooting up to `commit_width - 1`
    /// µ-ops past it. Interval-parallel simulation is built on this —
    /// exact boundaries are what make per-interval committed counts add
    /// up to the serial count bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if no commit happens for 100k cycles.
    pub fn run_exact(&mut self, insts: u64) -> Result<(), SimError> {
        self.commit_limit = self.total_committed.saturating_add(insts);
        let out = self.run(insts);
        debug_assert!(out.is_err() || self.finished() || self.total_committed == self.commit_limit);
        self.commit_limit = u64::MAX;
        out
    }

    /// Advances the pipeline by one cycle.
    pub fn step(&mut self) {
        let committed_before = self.stats.committed;
        let fetched_before = self.stats.fetched;
        let mut quiet = false;
        let squashed = self.do_commit();
        if !squashed {
            let (violated, issued) = self.do_issue();
            if crate::paranoid() {
                self.check_wakeup();
            }
            if !violated {
                let dispatched = self.do_dispatch();
                self.do_fetch();
                quiet = issued == 0 && dispatched == 0;
            }
        }
        self.idle = quiet
            && self.stats.committed == committed_before
            && self.stats.fetched == fetched_before;
        self.cycle += 1;
        self.stats.cycles += 1;
    }

    /// Max `ready_at` over the µ-op's register sources, or the first
    /// source whose readiness is still unknown (its producer has not
    /// issued). THE readiness scan: issue (`do_issue` and the wakeup of
    /// parked µ-ops), `levt_complete` (LE pre-commit), and `next_event`
    /// (fast-forward) all share it, so a change to operand-readiness
    /// semantics cannot silently diverge between the stepping and
    /// skipping paths.
    #[inline]
    pub(super) fn src_readiness(&self, e: &RobEntry) -> Result<u64, SrcReg> {
        let mut t = 0u64;
        for s in e.srcs.iter().flatten() {
            let r = self.prf.ready_at(s.class, s.preg);
            if r == NOT_READY {
                return Err(*s);
            }
            t = t.max(r);
        }
        Ok(t)
    }

    /// The earliest future cycle at which any stage could act again,
    /// valid immediately after an idle [`Simulator::step`] (one that
    /// committed, issued, dispatched, fetched, and squashed nothing).
    ///
    /// During idle cycles no `Prf::set_ready_min` runs and no queue
    /// changes, so every unblock time is already written down somewhere:
    ///
    /// * the ROB head completes at `done + levt_depth` (LE µ-ops: at
    ///   `dispatch + levt_depth` once their sources — produced by already
    ///   committed µ-ops, hence with known readiness — are readable);
    /// * an IQ entry with a known wake bound issues no earlier than it;
    ///   every queued entry has one, or `wake == 0` when it is ready but
    ///   blocked on a functional unit; a µ-op parked on an *unissued*
    ///   producer cannot move before one of the other events fires first,
    ///   so it contributes nothing;
    /// * a ready entry blocked on an unpipelined divider waits for the
    ///   unit's busy-until cycle;
    /// * fetch resumes at `fetch_stall_until`; the front-queue head
    ///   reaches rename at `at_rename`.
    ///
    /// Returns `None` when no timed event exists (a genuine deadlock —
    /// the caller keeps stepping and the watchdog fires as usual).
    fn next_event(&self) -> Option<u64> {
        // `step` already advanced the clock past the idle cycle: `pre` is
        // the cycle that proved idle, `self.cycle` the next one simulated.
        // Every event strictly later than `pre` is still pending — a value
        // equal to `self.cycle` simply means "no skip".
        let pre = self.cycle - 1;
        let mut ev = u64::MAX;
        // Commit: the ROB head's completion.
        if let Some(e) = self.rob.front() {
            if e.le_alu || e.le_branch {
                if let Ok(ready) = self.src_readiness(e) {
                    let t = ready.max(e.dispatch_cycle + self.config.levt_depth());
                    if t > pre {
                        ev = ev.min(t);
                    }
                }
            } else if e.done_cycle != crate::prf::NOT_READY {
                let t = e.done_cycle + self.config.levt_depth();
                if t > pre {
                    ev = ev.min(t);
                }
            }
        }
        // Issue: known wakeups, and FU frees for ready-but-blocked entries.
        let mut fu_blocked = false;
        for entry in &self.iq {
            if entry.wake > pre {
                ev = ev.min(entry.wake);
            } else {
                debug_assert_eq!(entry.wake, 0, "an idle scan left seq {} unresolved", entry.seq);
                fu_blocked = true;
            }
        }
        if fu_blocked {
            for b in self.muldiv_busy.iter().chain(self.fpmuldiv_busy.iter()) {
                if *b > pre {
                    ev = ev.min(*b);
                }
            }
        }
        // Front end.
        if self.fetch_stall_until > pre {
            ev = ev.min(self.fetch_stall_until);
        }
        if let Some(fu) = self.front_q.front() {
            if fu.at_rename > pre {
                ev = ev.min(fu.at_rename);
            }
        }
        (ev != u64::MAX).then_some(ev)
    }

    /// After an idle step, jumps the clock to the next event; every
    /// skipped cycle is provably a no-op, so the cycle count (and every
    /// other observable) is identical to stepping through one by one.
    fn fast_forward(&mut self) {
        debug_assert!(self.idle);
        // Validation mode for the fast-forward machinery: instead of
        // jumping, single-step to the predicted event and panic if any
        // skipped cycle turns out not to be a no-op.
        if let Some(ev) = self.next_event() {
            if crate::paranoid() {
                while self.cycle < ev && !self.finished() {
                    let before = (self.stats.committed, self.stats.fetched, self.rob.len(), self.iq.len(), self.front_q.len());
                    let c = self.cycle;
                    self.step();
                    if !self.idle && self.cycle <= ev {
                        panic!( // lint:allow(error-typing) EOLE_PARANOID is a crash-on-divergence debug mode
                            "fast-forward would miss an event: acted at cycle {c}, predicted {ev}; before={before:?} after=({}, {}, {}, {}, {})",
                            self.stats.committed, self.stats.fetched, self.rob.len(), self.iq.len(), self.front_q.len()
                        );
                    }
                }
                return;
            }
            if ev > self.cycle {
                let skip = ev - self.cycle;
                self.cycle += skip;
                self.stats.cycles += skip;
            }
        }
    }
}

impl std::fmt::Debug for Simulator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("config", &self.config.name)
            .field("cycle", &self.cycle)
            .field("committed", &self.total_committed)
            .field("rob", &self.rob.len())
            .field("iq", &self.iq.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use eole_isa::{generate_trace, ArchReg, DynInst, Inst, IntReg, Opcode, ProgramBuilder};
    use eole_predictors::branch::DirectionPredictor;
    use eole_predictors::snapshot::Snapshot;
    use eole_predictors::value::{InFlight, ValuePredictor};
    use proptest::prelude::*;

    fn tiny_trace(iters: i64) -> Trace {
        let r = IntReg::new;
        let mut b = ProgramBuilder::new();
        b.movi(r(1), 0);
        b.movi(r(2), iters);
        let top = b.label();
        b.bind(top);
        b.addi(r(1), r(1), 1);
        b.bne(r(1), r(2), top);
        b.halt();
        generate_trace(&b.build().unwrap(), 100_000).unwrap()
    }

    #[test]
    fn prepared_trace_round_trips_the_raw_trace() {
        let raw = tiny_trace(10);
        let (raw_text, raw_insts) = (raw.text.clone(), raw.insts.clone());
        let prepared = PreparedTrace::new(raw.clone());
        assert_eq!(prepared.text(), raw_text);
        assert_eq!(prepared.len(), raw_insts.len());
        assert!(!prepared.is_empty());
        // `insts()` exposes the same µ-ops in the same order.
        assert_eq!(prepared.insts().len(), raw_insts.len());
        for (i, (a, b)) in prepared.insts().iter().zip(raw_insts.iter()).enumerate() {
            assert_eq!(a.pc, b.pc);
            assert_eq!(a.result, b.result);
            assert_eq!(prepared.next_pc(i), raw.next_pc(i));
        }
    }

    #[test]
    fn empty_trace_is_empty_and_finishes_immediately() {
        let prepared = PreparedTrace::new(Trace {
            text: Vec::new(),
            insts: Vec::new(),
            branch_outcomes: Vec::new(),
            halted: false,
            end_pc: 0,
        });
        assert_eq!(prepared.len(), 0);
        assert!(prepared.is_empty());
        assert!(prepared.insts().is_empty());
        let mut sim = Simulator::new(&prepared, CoreConfig::baseline_6_64()).unwrap();
        assert!(sim.finished());
        sim.run(u64::MAX).unwrap();
        assert_eq!(sim.committed_total(), 0);
    }

    /// Whether the synthetic streams' static pc `pc` is a conditional
    /// branch (every third pc) rather than an ALU µ-op.
    fn is_branch(pc: u8) -> bool {
        pc % 3 == 1
    }

    /// The synthetic streams' static text, one instruction per `u8` pc: a
    /// conditional branch where [`is_branch`], else a VP-eligible `Add`.
    fn synthetic_text() -> Vec<Inst> {
        let add = Inst { dst: Some(ArchReg::int(IntReg::new(1))), ..Inst::new(Opcode::Add) };
        (0..=u8::MAX).map(|pc| if is_branch(pc) { Inst::new(Opcode::Bne) } else { add }).collect()
    }

    /// A synthetic trace from `(pc, coin)` draws: the µ-op at static pc
    /// `pc` of [`synthetic_text`]. Branch pcs 0–7 are always taken, 8–15
    /// follow a period-3 pattern, the rest take `coin`.
    fn branch_stream(draws: &[(u8, bool)]) -> Trace {
        let text = synthetic_text();
        let mut insts = Vec::with_capacity(draws.len());
        let mut branch_outcomes = Vec::new();
        for &(pc, coin) in draws {
            let branch = is_branch(pc);
            let taken = branch
                && match pc {
                    0..=7 => true,
                    8..=15 => branch_outcomes.len() % 3 != 0,
                    _ => coin,
                };
            insts.push(DynInst {
                pc: u16::from(pc),
                op: text[usize::from(pc)].op,
                result: 0,
                addr: 0,
                taken,
                bhist_pos: branch_outcomes.len() as u32,
            });
            if branch {
                branch_outcomes.push(taken);
            }
        }
        Trace { text, insts, branch_outcomes, halted: false, end_pc: 0 }
    }

    /// A synthetic trace from `(pc, value)` draws: the µ-op at static pc
    /// `pc` of [`synthetic_text`]. A conditional branch is taken iff
    /// `value` is odd; an `Add` produces `value` when `pc` is even, else
    /// `value` plus the last two branch outcomes (a history-correlated
    /// result).
    fn value_stream(draws: &[(u8, u64)]) -> Trace {
        let text = synthetic_text();
        let mut insts = Vec::with_capacity(draws.len());
        let mut branch_outcomes: Vec<bool> = Vec::new();
        for &(pc, value) in draws {
            let branch = is_branch(pc);
            let taken = branch && value % 2 == 1;
            let recent = branch_outcomes.iter().rev().take(2).filter(|&&t| t).count() as u64;
            insts.push(DynInst {
                pc: u16::from(pc),
                op: text[usize::from(pc)].op,
                result: if pc % 2 == 0 { value } else { value + recent },
                addr: 0,
                taken,
                bhist_pos: branch_outcomes.len() as u32,
            });
            if branch {
                branch_outcomes.push(taken);
            }
        }
        Trace { text, insts, branch_outcomes, halted: false, end_pc: 0 }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The trace's key table holds, for every conditional branch,
        /// exactly the keys `Tage::keys` derives on the fly (from an
        /// instance of another seed: the keys do not depend on it), and
        /// the keyed predict/update the pipeline drives make the same
        /// predictions and leave the same snapshot bytes as the
        /// `DirectionPredictor` adapter.
        #[test]
        fn tage_key_table_equals_on_the_fly_keys_and_the_adapter(
            draws in proptest::collection::vec((0u8..40, any::<bool>()), 0..3000),
            seed in any::<u64>(),
        ) {
            let trace = PreparedTrace::new(branch_stream(&draws));
            let table = trace.tage_keys(&mut Tage::paper(seed));
            prop_assert_eq!(table.len(), trace.history().len());
            let (mut fly, mut keyed, mut adapter) =
                (Tage::paper(!seed), Tage::paper(seed), Tage::paper(seed));
            let branches = trace.insts().iter().filter(|di| di.class() == InstClass::Branch);
            for (ordinal, di) in branches.enumerate() {
                let (pc, view) = (pck(di.pc), trace.history().view(di.bhist_pos as usize));
                let keys = &table[ordinal];
                prop_assert_eq!(*keys, fly.keys(pc, view), "ordinal {}", ordinal);
                prop_assert_eq!(keyed.predict_keyed(pc, keys), adapter.predict(pc, view));
                keyed.update_keyed(pc, keys, di.taken);
                adapter.update(pc, view, di.taken);
            }
            prop_assert_eq!(keyed.snapshot_bytes(), adapter.snapshot_bytes());
        }

        /// For VTAGE, the hybrid and D-VTAGE at every block size, the
        /// trace's key table holds, for every VP-eligible µ-op, exactly the
        /// keys derived on the fly (by an instance of another seed), and
        /// the keyed predict/train the pipeline drives make the same
        /// predictions and leave the same snapshot bytes as the
        /// `ValuePredictor` adapter.
        #[test]
        fn vp_key_tables_equal_on_the_fly_keys_and_the_adapter(
            draws in proptest::collection::vec((0u8..48, 0u64..6), 0..2000),
            kind in prop::sample::select(vec![
                ValuePredictorKind::Vtage,
                ValuePredictorKind::VtageTwoDeltaStride,
                ValuePredictorKind::DVtage,
            ]),
            block_size in prop::sample::select(vec![1usize, 2, 4, 8]),
            banks in prop::sample::select(vec![1usize, 4]),
            seed in any::<u64>(),
        ) {
            let trace = PreparedTrace::new(value_stream(&draws));
            let vp = VpConfig { kind, seed, block_size, banks, spec_window: None };
            let mut block = make_block_vp(&vp, 64, trace.text().len());
            let table = trace.vp_keys(&mut block).expect("a keyed kind");
            prop_assert_eq!(table.index.len(), trace.len());
            let mut fly = make_value_predictor(&VpConfig { seed: !seed, ..vp.clone() });
            let (mut keyed, mut adapter) = (make_value_predictor(&vp), make_value_predictor(&vp));
            for (idx, di) in trace.insts().iter().enumerate() {
                if !trace.text()[di.pc as usize].is_vp_eligible() {
                    continue;
                }
                let (pc, view) = (pck(di.pc), trace.history().view(di.bhist_pos as usize));
                let keys = &table.get(idx);
                prop_assert_eq!(Some(*keys), fly.keys(pc, view), "trace index {}", idx);
                // A chained in-flight value on some µ-ops, for D-VTAGE.
                let last = (di.result % 3 == 0).then_some(di.result);
                let inflight = InFlight { depth: last.is_some().into(), last };
                prop_assert_eq!(
                    keyed.predict_keyed(pc, view, keys, inflight),
                    adapter.predict(pc, view, inflight)
                );
                keyed.train_keyed(pc, view, keys, di.result);
                adapter.train(pc, view, di.result);
            }
            prop_assert_eq!(keyed.snapshot_bytes(), adapter.snapshot_bytes());
        }
    }

    #[test]
    fn tage_key_table_is_built_once_and_shared() {
        let trace = PreparedTrace::new(tiny_trace(40));
        let a = Simulator::new(&trace, CoreConfig::baseline_6_64()).unwrap();
        let b = Simulator::new(&trace, CoreConfig::eole_4_64()).unwrap();
        assert_eq!(a.tage_keys.len(), 40);
        assert!(std::ptr::eq(a.tage_keys, b.tage_keys));
    }

    /// One value-predictor key table per schema: configurations whose
    /// predictors share a schema share a table, whatever their seed;
    /// history-free kinds and VP-off configurations build none.
    #[test]
    fn vp_key_tables_are_built_once_per_schema_and_shared() {
        let trace = PreparedTrace::new(tiny_trace(40));
        let table = |config: CoreConfig| Simulator::new(&trace, config).unwrap().vp_keys;
        let reseeded = |config: CoreConfig| {
            let vp = VpConfig { seed: 7, ..config.vp.clone().unwrap() };
            config.to_builder().vp(vp).build().unwrap()
        };
        let hybrid = table(CoreConfig::baseline_vp_6_64()).unwrap();
        assert_eq!(hybrid.index.len(), trace.len());
        assert!(Arc::ptr_eq(&hybrid, &table(CoreConfig::eole_4_64()).unwrap()));
        let vtage = CoreConfig::eole_4_64().to_builder().vp_kind(ValuePredictorKind::Vtage);
        assert!(Arc::ptr_eq(&hybrid, &table(vtage.build().unwrap()).unwrap()));
        let dvtage = table(CoreConfig::eole_dvtage_4_64()).unwrap();
        assert!(!Arc::ptr_eq(&hybrid, &dvtage));
        assert!(Arc::ptr_eq(&dvtage, &table(reseeded(CoreConfig::eole_dvtage_4_64())).unwrap()));
        let lvp = CoreConfig::eole_4_64().to_builder().vp_kind(ValuePredictorKind::LastValue);
        assert!(table(lvp.build().unwrap()).is_none());
        assert!(table(CoreConfig::baseline_6_64()).is_none());
        assert_eq!(lock_clean(&trace.vp_keys.0).len(), 2);
    }

    /// A loop revisits its (pc, history) contexts, so its key table holds
    /// each distinct key once, far fewer than µ-ops, in 4 bytes per µ-op
    /// plus 24 per distinct key: a flat table of 24 bytes per µ-op fails.
    #[test]
    fn vp_key_table_stores_each_distinct_key_once() {
        let trace = PreparedTrace::new(tiny_trace(2000));
        for config in [CoreConfig::baseline_vp_6_64(), CoreConfig::eole_dvtage_4_64()] {
            let table = Simulator::new(&trace, config).unwrap().vp_keys.unwrap();
            let (len, distinct) = (table.index.len(), table.distinct.len());
            assert_eq!(len, trace.len());
            assert!(distinct * 10 < len, "{distinct} distinct keys for {len} µ-ops");
            let unique: std::collections::HashSet<&VpKeys> = table.distinct.iter().collect();
            assert_eq!(unique.len(), distinct);
            let heap = std::mem::size_of_val(&*table.index) + std::mem::size_of_val(&*table.distinct);
            assert_eq!(heap, 4 * len + 24 * distinct);
        }
    }

    #[test]
    fn prepared_trace_is_cloneable_and_shareable() {
        let prepared = PreparedTrace::new(tiny_trace(50));
        let cloned = prepared.clone();
        assert_eq!(prepared.len(), cloned.len());
        // Two simulators over the same prepared trace agree exactly.
        let run = |t: &PreparedTrace| {
            let mut sim = Simulator::new(t, CoreConfig::baseline_6_64()).unwrap();
            sim.run(u64::MAX).unwrap();
            sim.stats().cycles
        };
        assert_eq!(run(&prepared), run(&cloned));
    }
}
