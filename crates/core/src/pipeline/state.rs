//! Shared simulator state: [`PreparedTrace`], [`SimError`], the
//! [`Simulator`] struct itself, the in-flight µ-op bookkeeping records, and
//! the cycle loop that sequences the stage modules.

use std::collections::VecDeque;

use eole_isa::{InstClass, Program, RegClass, Trace};
use eole_mem::hierarchy::MemoryHierarchy;
use eole_predictors::branch::{Btb, DirectionPredictor, ReturnStack, Tage};
use eole_predictors::history::BranchHistory;
use eole_predictors::storesets::StoreSets;
use eole_predictors::value::{
    AnyValuePredictor, BlockBackend, BlockParams, BlockVp, DVtage, DVtageConfig, Fcm, LastValue,
    StridePredictor, TwoDeltaStride, Vtage, VtageTwoDeltaStride,
};

use super::window::SeqRing;
use crate::config::{ConfigError, CoreConfig, ValuePredictorKind, VpConfig};
use crate::prf::{PhysReg, Prf, NOT_READY};
use crate::stats::SimStats;

/// A dynamic trace plus the precomputed branch-history log, shareable
/// across many simulator instances (one per configuration).
#[derive(Clone, Debug)]
pub struct PreparedTrace {
    insts: Vec<eole_isa::DynInst>,
    pub(super) history: BranchHistory,
}

impl PreparedTrace {
    /// Prepares a raw trace for timing simulation.
    pub fn new(trace: Trace) -> Self {
        let history = BranchHistory::from_outcomes(&trace.branch_outcomes);
        PreparedTrace { insts: trace.insts, history }
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

#[derive(Clone, Copy, Debug)]
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

/// One issue-queue entry: the µ-op's sequence number plus a cached
/// wakeup bound.
///
/// `wake` is a *sound lower bound* on the first cycle the µ-op's sources
/// can all be readable, so the issue loop skips the operand check while
/// `wake > now` without ever issuing late: a physical register's
/// `ready_at` only transitions `NOT_READY → final cycle` while a reader
/// sits in the IQ (`Prf::set_ready_min` at dispatch precedes the reader's
/// rename; the later write at issue takes the minimum and cannot lower a
/// known value further). Sources still `NOT_READY` leave `wake` at
/// `now + 1` — re-examined every cycle until the producer issues, at
/// which point the completion cycle becomes the bound.
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

pub(super) fn pck(pc: u32) -> u64 {
    Program::inst_addr(pc)
}

/// Builds a legacy per-instruction predictor as a by-value enum: the
/// fetch path queries it every cycle, and static dispatch keeps that
/// query free of the `Box<dyn>` pointer chase.
fn make_value_predictor(kind: ValuePredictorKind, seed: u64) -> AnyValuePredictor {
    match kind {
        ValuePredictorKind::VtageTwoDeltaStride => VtageTwoDeltaStride::paper(seed).into(),
        ValuePredictorKind::Vtage => Vtage::paper(seed).into(),
        ValuePredictorKind::TwoDeltaStride => TwoDeltaStride::paper(seed).into(),
        ValuePredictorKind::Stride => StridePredictor::new(8192, seed).into(),
        ValuePredictorKind::LastValue => LastValue::new(8192, seed).into(),
        ValuePredictorKind::Fcm => Fcm::new(8192, 8192, seed).into(),
        ValuePredictorKind::DVtage => unreachable!("DVtage is a native block backend"),
    }
}

/// Builds the block-based VP subsystem the pipeline talks to: the
/// configured backend (native D-VTAGE, or a legacy predictor behind the
/// block adapter) plus the speculative window, pre-sized to the
/// pipeline's maximum in-flight µ-op count so steady-state registration
/// never allocates.
fn make_block_vp(vp: &VpConfig, window_hint: usize) -> BlockVp {
    let params = BlockParams {
        block_size: vp.block_size,
        banks: vp.banks,
        spec_window: vp.spec_window,
    };
    let backend = match vp.kind {
        ValuePredictorKind::DVtage => BlockBackend::DVtage(DVtage::new(
            DVtageConfig::paper(vp.block_size, vp.banks),
            vp.seed,
        )),
        kind => BlockBackend::Legacy(make_value_predictor(kind, vp.seed)),
    };
    BlockVp::new(backend, params, window_hint)
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
}

impl Scratch {
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    fn new(prf_banks: usize) -> Self {
        Scratch {
            ee_writes: vec![[0usize; 2]; prf_banks],
            port_reads: vec![[0usize; 2]; prf_banks],
        }
    }
}

/// The cycle-level simulator for one core configuration over one trace.
pub struct Simulator<'t> {
    pub(super) trace: &'t PreparedTrace,
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
    pub(super) btb: Btb,
    pub(super) ras: ReturnStack,
    pub(super) vp: Option<BlockVp>,

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
    pub(super) iq: Vec<IqEntry>,
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
            tage: Tage::paper(config.branch_seed),
            btb: Btb::paper(),
            ras: ReturnStack::paper(),
            vp: config
                .vp
                .as_ref()
                .map(|v| make_block_vp(v, front_cap + config.rob_entries)),
            spec_rat,
            commit_rat: spec_rat,
            prf: Prf::try_new(config.int_prf, config.fp_prf, config.prf_banks)
                .map_err(SimError::BadConfig)?,
            writer_info: [None; 64],
            prev_group_cycle: u64::MAX,
            rob: SeqRing::new(config.rob_entries, RobEntry::vacant()),
            iq: Vec::with_capacity(config.iq_entries),
            lq: SeqRing::new(config.lq_entries, LoadEntry::vacant()),
            sq: SeqRing::new(config.sq_entries, StoreEntry::vacant()),
            store_sets,
            lfst,
            muldiv_busy: vec![0; config.fu.int_muldiv],
            fpmuldiv_busy: vec![0; config.fu.fp_muldiv],
            mem: MemoryHierarchy::new(&config.mem),
            scratch: Scratch::new(config.prf_banks),
            idle: false,
            commit_limit: u64::MAX,
            stats: SimStats::default(),
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
            if let Some(vp) = self.vp.as_mut() {
                if di.inst.is_vp_eligible() {
                    let q = vp.predict(cycle, seq, pck(di.pc), view);
                    if q.accepted {
                        vp.commit(seq, pck(di.pc), view, di.result);
                    }
                    seq += 1;
                }
            }
            // Control predictors: predict-then-train mirrors the fetch /
            // pre-commit split of the detailed machine.
            let cls = di.class();
            match cls {
                InstClass::Branch => {
                    let pred = self.tage.predict(pck(di.pc), view);
                    if pred.taken {
                        self.btb.insert(pck(di.pc), di.inst.imm as u32);
                    }
                    self.tage.update(pck(di.pc), view, di.taken);
                }
                InstClass::Jump | InstClass::Call => {
                    self.btb.insert(pck(di.pc), di.next_pc);
                    if cls == InstClass::Call {
                        self.ras.push(di.pc + 1);
                    }
                }
                InstClass::Return => {
                    self.ras.pop();
                }
                InstClass::JumpIndirect | InstClass::CallIndirect => {
                    self.btb.insert(pck(di.pc), di.next_pc);
                    if cls == InstClass::CallIndirect {
                        self.ras.push(di.pc + 1);
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

    /// Max `ready_at` over the µ-op's register sources, or `None` while
    /// any source's readiness is still unknown (its producer has not
    /// issued). THE readiness scan: `srcs_wake` (issue), `levt_complete`
    /// (LE pre-commit), and `next_event` (fast-forward) all share it, so
    /// a change to operand-readiness semantics cannot silently diverge
    /// between the stepping and skipping paths.
    pub(super) fn srcs_known_ready_by(&self, e: &RobEntry) -> Option<u64> {
        let mut t = 0u64;
        for s in e.srcs.iter().flatten() {
            let r = self.prf.ready_at(s.class, s.preg);
            if r == NOT_READY {
                return None;
            }
            t = t.max(r);
        }
        Some(t)
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
    ///   an entry still waiting on an *unissued* producer (wake pinned to
    ///   "next cycle" by `srcs_wake`) cannot move before one of the other
    ///   events fires first, so it contributes nothing;
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
                if let Some(ready) = self.srcs_known_ready_by(e) {
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
            if entry.wake > pre && entry.wake != pre + 1 {
                ev = ev.min(entry.wake);
            } else if entry.wake == 0 {
                fu_blocked = true;
            } else {
                // `wake == pre + 1` is ambiguous: `srcs_wake` pins entries
                // blocked on an *unissued* producer to "next cycle", and a
                // genuinely known wake can also land there. Re-read the
                // sources (unchanged during idle cycles) to tell them
                // apart: any NOT_READY source means the entry only moves
                // as a consequence of another event.
                if let Some(t) = self.srcs_known_ready_by(self.rob.slot(entry.seq)) {
                    ev = ev.min(t.max(pre + 1));
                }
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
    use eole_isa::{generate_trace, IntReg, ProgramBuilder};

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
        let raw_insts = raw.insts.clone();
        let prepared = PreparedTrace::new(raw);
        assert_eq!(prepared.len(), raw_insts.len());
        assert!(!prepared.is_empty());
        // `insts()` exposes the same µ-ops in the same order.
        assert_eq!(prepared.insts().len(), raw_insts.len());
        for (a, b) in prepared.insts().iter().zip(raw_insts.iter()) {
            assert_eq!(a.pc, b.pc);
            assert_eq!(a.result, b.result);
            assert_eq!(a.next_pc, b.next_pc);
        }
    }

    #[test]
    fn empty_trace_is_empty_and_finishes_immediately() {
        let prepared = PreparedTrace::new(Trace {
            insts: Vec::new(),
            branch_outcomes: Vec::new(),
            halted: false,
        });
        assert_eq!(prepared.len(), 0);
        assert!(prepared.is_empty());
        assert!(prepared.insts().is_empty());
        let mut sim =
            Simulator::new(&prepared, crate::config::CoreConfig::baseline_6_64()).unwrap();
        assert!(sim.finished());
        sim.run(u64::MAX).unwrap();
        assert_eq!(sim.committed_total(), 0);
    }

    #[test]
    fn prepared_trace_is_cloneable_and_shareable() {
        let prepared = PreparedTrace::new(tiny_trace(50));
        let cloned = prepared.clone();
        assert_eq!(prepared.len(), cloned.len());
        // Two simulators over the same prepared trace agree exactly.
        let run = |t: &PreparedTrace| {
            let mut sim =
                Simulator::new(t, crate::config::CoreConfig::baseline_6_64()).unwrap();
            sim.run(u64::MAX).unwrap();
            sim.stats().cycles
        };
        assert_eq!(run(&prepared), run(&cloned));
    }
}
