//! The out-of-order engine: rename/dispatch (with the EOLE designation
//! decisions and the EE/prediction write-port budget) and the issue/execute
//! stage with its functional-unit pools, load/store queues, and
//! memory-dependence speculation via store sets.
//!
//! Hot-loop invariants (see `PERF.md`): no steady-state heap allocation —
//! the per-group write budget lives in a reused scratch buffer and the IQ
//! is double-buffered — and no O(n) window searches: ROB entries are
//! addressed by sequence number, LQ/SQ entries through the slot id cached
//! in [`RobEntry::lsq_slot`]. A µ-op whose producer has not issued costs
//! no per-cycle work: it waits in `pipeline/wakeup.rs`, off the queue the
//! issue scan walks.

use eole_isa::{InstClass, RegClass};

use crate::config::latency;
use crate::prf::{PhysReg, NOT_READY};

use super::state::{
    contains, issues_from_iq, overlap, pck, Avail, DstReg, IqEntry, LoadEntry, RobEntry, Simulator,
    SrcReg, StoreEntry, Writer,
};

impl Simulator<'_> {
    // ------------------------------------------------------------------
    // Rename / Early Execution / Dispatch
    // ------------------------------------------------------------------

    /// Returns the number of µ-ops dispatched this cycle.
    pub(super) fn do_dispatch(&mut self) -> usize {
        let now = self.cycle;
        let mut dispatched = 0usize;
        // EE/prediction PRF writes per (class, bank) this dispatch group.
        for b in self.scratch.ee_writes.iter_mut() {
            *b = [0, 0];
        }
        while dispatched < self.config.rename_width {
            let Some(fu) = self.front_q.front().copied() else { break };
            if fu.at_rename > now {
                break;
            }
            let di = &self.trace.insts()[fu.trace_idx];
            let inst = &self.text[di.pc as usize];
            let cls = di.class();
            if self.rob.len() >= self.config.rob_entries {
                self.stats.stall_rob_full += 1;
                break;
            }
            if cls == InstClass::Load && self.lq.len() >= self.config.lq_entries {
                self.stats.stall_lsq_full += 1;
                break;
            }
            if cls == InstClass::Store && self.sq.len() >= self.config.sq_entries {
                self.stats.stall_lsq_full += 1;
                break;
            }
            // EOLE designations.
            let ee_kind = self.decide_early(inst, now);
            let ee = ee_kind.is_some();
            let le_alu = !ee
                && self.config.eole.late
                && fu.pred_used
                && inst.is_single_cycle_alu();
            let le_branch = self.config.eole.late && fu.hc && cls == InstClass::Branch;
            let needs_iq = issues_from_iq(ee, le_alu, le_branch, cls);
            // Parked µ-ops hold their IQ entries too.
            if needs_iq && self.iq.len() + self.waiters.len() >= self.config.iq_entries {
                self.stats.stall_iq_full += 1;
                break;
            }
            // EE/prediction write-port budget (§6.3 ablation).
            let writes_prediction = (ee || fu.pred_used) && inst.dst.is_some();
            if writes_prediction {
                if let Some(cap) = self.config.eole.ee_writes_per_bank {
                    let class = inst.dst.map(|d| d.class()).unwrap_or(RegClass::Int);
                    let bank = self.prf.peek_alloc_bank(class);
                    let ci = if class == RegClass::Int { 0 } else { 1 };
                    if self.scratch.ee_writes[bank][ci] + 1 > cap {
                        self.stats.ee_write_stalls += 1;
                        break;
                    }
                }
            }
            // Rename: sources first, then the destination.
            let mut srcs: [Option<SrcReg>; 2] = [None, None];
            for (i, src) in inst.sources().enumerate() {
                let preg = self.spec_rat[src.flat() as usize];
                srcs[i] = Some(SrcReg { class: src.class(), preg });
            }
            let dst = match inst.dst {
                Some(d) => {
                    let class = d.class();
                    match self.prf.alloc(class) {
                        Some(new) => {
                            let old = self.spec_rat[d.flat() as usize];
                            self.spec_rat[d.flat() as usize] = new;
                            Some(DstReg { arch_flat: d.flat(), class, new, old })
                        }
                        None => {
                            self.stats.stall_prf += 1;
                            break;
                        }
                    }
                }
                None => None,
            };
            if writes_prediction {
                if let Some(d) = dst {
                    let ci = if d.class == RegClass::Int { 0 } else { 1 };
                    self.scratch.ee_writes[self.prf.bank_of(d.new)][ci] += 1;
                }
            }
            self.front_q.pop_front();

            // Destination readiness + completion.
            let mut done_cycle = NOT_READY;
            if let Some(d) = dst {
                if ee || fu.pred_used || matches!(cls, InstClass::Call | InstClass::CallIndirect)
                {
                    // EE result / used prediction / statically-known link
                    // value is written to the PRF at dispatch.
                    self.prf.set_ready_min(d.class, d.new, now);
                }
            }
            if ee || matches!(cls, InstClass::Jump | InstClass::Call) {
                done_cycle = now;
            }
            // Writer availability for the EE operand rules.
            if let Some(d) = dst {
                let avail = if fu.pred_used
                    || matches!(cls, InstClass::Call | InstClass::CallIndirect)
                {
                    Avail::Pred
                } else if let Some(k) = ee_kind {
                    k
                } else {
                    Avail::No
                };
                self.writer_info[d.arch_flat as usize] =
                    Some(Writer { renamed_cycle: now, avail });
            }

            // Queue occupancy. LQ/SQ slot ids are cached in the ROB entry
            // so issue/commit/squash never search the queues.
            if needs_iq {
                self.iq.push(IqEntry { seq: fu.seq, wake: 0 });
            }
            let mut lsq_slot = 0u64;
            if cls == InstClass::Load {
                let dep_store = self
                    .store_sets
                    .ssid(pck(di.pc))
                    .and_then(|s| self.lfst[s as usize]);
                lsq_slot = self.lq.push_back(LoadEntry {
                    seq: fu.seq,
                    addr: di.addr,
                    size: di.size(),
                    dep_store,
                    issued_at: NOT_READY,
                });
            }
            if cls == InstClass::Store {
                lsq_slot = self.sq.push_back(StoreEntry {
                    seq: fu.seq,
                    addr: di.addr,
                    size: di.size(),
                    issued_at: NOT_READY,
                });
                if let Some(s) = self.store_sets.ssid(pck(di.pc)) {
                    self.lfst[s as usize] = Some((fu.seq, lsq_slot));
                }
            }

            let rob_slot = self.rob.push_back(RobEntry {
                seq: fu.seq,
                trace_idx: fu.trace_idx,
                dispatch_cycle: now,
                class: cls,
                dst,
                srcs,
                done_cycle,
                lsq_slot,
                ee,
                le_alu,
                le_branch,
                vp_eligible: inst.is_vp_eligible(),
                vp_queried: fu.vp_queried,
                pred_some: fu.pred_some,
                pred_used: fu.pred_used,
                pred_correct: fu.pred_correct,
                pred_level: fu.pred_level,
                pred_value_correct: fu.pred_value_correct,
                hc: fu.hc,
                awaited: fu.awaited,
                ind_mispredict: fu.ind_mispredict,
            });
            debug_assert_eq!(rob_slot, fu.seq, "ROB slot ids track sequence numbers");
            dispatched += 1;
        }
        if dispatched > 0 {
            self.prev_group_cycle = now;
        }
        dispatched
    }

    // ------------------------------------------------------------------
    // Issue / Execute
    // ------------------------------------------------------------------

    /// O(1) ROB access: slot ids coincide with sequence numbers (checked
    /// at dispatch), so the entry for `seq` is `rob.slot(seq)`.
    #[inline]
    fn rob_entry(&self, seq: u64) -> &RobEntry {
        self.rob.slot(seq)
    }

    /// Producer-driven wakeup: `(class, preg)` just got its readiness
    /// cycle (its producer issued), so every µ-op parked on it either
    /// re-parks on its next unready source or joins this cycle's woken
    /// set with its now-known wake cycle. The woken set stays sorted
    /// oldest-last, so `do_issue` merges it into the scan in age order.
    fn wake_waiters(&mut self, class: RegClass, preg: PhysReg) {
        while let Some(seq) = self.waiters.pop(class, preg) {
            match self.src_readiness(self.rob_entry(seq)) {
                Err(src) => self.waiters.park(seq, src),
                Ok(wake) => {
                    let woken = &mut self.scratch.woken;
                    let at = woken.partition_point(|w| w.seq > seq);
                    woken.insert(at, IqEntry { seq, wake });
                }
            }
        }
    }

    /// Decides whether the load in LQ slot `lq_slot` (program counter
    /// `pc`) can go: `None` = wait, `Some(done_cycle)` = issue now.
    fn try_load(&mut self, lq_slot: u64, pc: u64) -> Option<u64> {
        let now = self.cycle;
        let le = *self.lq.slot(lq_slot);
        // Store-set dependence: wait until the flagged store has issued.
        // The cached SQ slot makes this O(1); a store that already left
        // the queue (committed) has issued by definition.
        if let Some((dep_seq, dep_slot)) = le.dep_store {
            if self.sq.holds_slot(dep_slot) {
                let st = self.sq.slot(dep_slot);
                debug_assert_eq!(st.seq, dep_seq, "surviving dep points at its store");
                if st.seq == dep_seq && st.issued_at == NOT_READY {
                    return None;
                }
            }
        }
        // Youngest older store with a known address that overlaps decides.
        for st in self.sq.iter().rev() {
            if st.seq >= le.seq {
                continue;
            }
            if st.issued_at != NOT_READY && overlap(st.addr, st.size, le.addr, le.size) {
                return if contains(st.addr, st.size, le.addr, le.size) {
                    self.stats.sq_forwards += 1;
                    Some(now + latency::SQ_FORWARD)
                } else {
                    None // partial overlap: wait for the store to drain
                };
            }
            // Unknown address: speculate past it (store sets permitting).
        }
        Some(self.mem.load(pc, le.addr, now))
    }

    /// Returns `(violation_squash_happened, µ-ops issued)`.
    pub(super) fn do_issue(&mut self) -> (bool, usize) {
        let now = self.cycle;
        let mut issued = 0usize;
        let mut alu_used = 0usize;
        let mut fp_used = 0usize;
        let mut mul_used = 0usize;
        let mut fmul_used = 0usize;
        let mut mem_used = 0usize;
        let mut violation: Option<(u64, u64)> = None; // (load_seq, store_seq)

        // The scan reads the queue and writes the entries it keeps, in
        // order, into the spare buffer. µ-ops woken by this cycle's issues
        // merge in at their age position, so one made ready this very
        // cycle (by a zero-latency producer) can still issue in it.
        let mut queue = std::mem::take(&mut self.iq);
        let mut kept = std::mem::take(&mut self.scratch.iq_spare);
        debug_assert!(kept.is_empty() && self.scratch.woken.is_empty());
        let mut next = 0usize;
        loop {
            let IqEntry { seq, wake } =
                match (queue.get(next).copied(), self.scratch.woken.last().copied()) {
                    (Some(q), Some(w)) if w.seq < q.seq => {
                        self.scratch.woken.pop();
                        w
                    }
                    (Some(q), _) => {
                        next += 1;
                        q
                    }
                    (None, Some(w)) => {
                        self.scratch.woken.pop();
                        w
                    }
                    (None, None) => break,
                };
            macro_rules! keep {
                ($wake:expr) => {{
                    kept.push(IqEntry { seq, wake: $wake });
                    continue;
                }};
            }
            if issued >= self.config.issue_width || violation.is_some() {
                keep!(wake);
            }
            // Wakeup filter: sources provably unreadable before `wake`.
            if wake > now {
                keep!(wake);
            }
            let e = self.rob_entry(seq);
            match self.src_readiness(e) {
                // Producer not issued: park on its register until it is.
                Err(src) => {
                    self.waiters.park(seq, src);
                    continue;
                }
                Ok(t) if t > now => keep!(t),
                Ok(_) => {}
            }
            let class = e.class;
            let done = match class {
                InstClass::IntAlu
                | InstClass::Branch
                | InstClass::Return
                | InstClass::JumpIndirect
                | InstClass::CallIndirect => {
                    if alu_used >= self.config.fu.int_alu {
                        keep!(0);
                    }
                    alu_used += 1;
                    now + latency::INT_ALU
                }
                InstClass::IntMul => {
                    if mul_used >= self.config.fu.int_muldiv
                        || !self.muldiv_busy.iter().any(|b| *b <= now)
                    {
                        keep!(0);
                    }
                    mul_used += 1;
                    now + latency::INT_MUL
                }
                InstClass::IntDiv => {
                    let Some(unit) = self.muldiv_busy.iter_mut().find(|b| **b <= now) else {
                        keep!(0);
                    };
                    if mul_used >= self.config.fu.int_muldiv {
                        keep!(0);
                    }
                    mul_used += 1;
                    *unit = now + latency::INT_DIV; // unpipelined
                    now + latency::INT_DIV
                }
                InstClass::FpAlu => {
                    if fp_used >= self.config.fu.fp_alu {
                        keep!(0);
                    }
                    fp_used += 1;
                    now + latency::FP_ALU
                }
                InstClass::FpMul => {
                    if fmul_used >= self.config.fu.fp_muldiv
                        || !self.fpmuldiv_busy.iter().any(|b| *b <= now)
                    {
                        keep!(0);
                    }
                    fmul_used += 1;
                    now + latency::FP_MUL
                }
                InstClass::FpDiv => {
                    let Some(unit) = self.fpmuldiv_busy.iter_mut().find(|b| **b <= now)
                    else {
                        keep!(0);
                    };
                    if fmul_used >= self.config.fu.fp_muldiv {
                        keep!(0);
                    }
                    fmul_used += 1;
                    *unit = now + latency::FP_DIV;
                    now + latency::FP_DIV
                }
                InstClass::Load => {
                    if mem_used >= self.config.fu.mem_ports {
                        keep!(0);
                    }
                    let lq_slot = e.lsq_slot;
                    let pc = pck(self.trace.insts()[e.trace_idx].pc);
                    match self.try_load(lq_slot, pc) {
                        Some(done) => {
                            mem_used += 1;
                            self.lq.slot_mut(lq_slot).issued_at = now;
                            done
                        }
                        None => {
                            keep!(0);
                        }
                    }
                }
                InstClass::Store => {
                    if mem_used >= self.config.fu.mem_ports {
                        keep!(0);
                    }
                    mem_used += 1;
                    let sq_slot = e.lsq_slot;
                    let st_tidx = e.trace_idx;
                    let (st_addr, st_size, st_seq) = {
                        let st = self.sq.slot_mut(sq_slot);
                        st.issued_at = now;
                        (st.addr, st.size, st.seq)
                    };
                    debug_assert_eq!(st_seq, seq);
                    // The store's address is now known: detect any younger
                    // load that already executed against the same bytes.
                    let mut bad: Option<u64> = None;
                    for l in self.lq.iter() {
                        if l.seq > st_seq
                            && l.issued_at != NOT_READY
                            && l.issued_at <= now
                            && overlap(st_addr, st_size, l.addr, l.size)
                        {
                            bad = Some(bad.map_or(l.seq, |b: u64| b.min(l.seq)));
                        }
                    }
                    if let Some(load_seq) = bad {
                        violation = Some((load_seq, st_seq));
                    }
                    // Release the LFST entry if we are still its tail.
                    if let Some(s) = self
                        .store_sets
                        .ssid(pck(self.trace.insts()[st_tidx].pc))
                    {
                        if self.lfst[s as usize].is_some_and(|(fs, _)| fs == st_seq) {
                            self.lfst[s as usize] = None;
                        }
                    }
                    now + latency::INT_ALU // address generation
                }
                InstClass::Jump | InstClass::Call | InstClass::Halt => {
                    unreachable!("{class:?} never enters the IQ")
                }
            };
            issued += 1;
            let (dst, awaited) = {
                let e = self.rob.slot_mut(seq);
                e.done_cycle = done;
                (e.dst, e.awaited)
            };
            if let Some(d) = dst {
                self.prf.set_ready_min(d.class, d.new, done);
                self.wake_waiters(d.class, d.new);
            }
            if awaited && self.pending_redirect == Some(seq) {
                // Mispredicted control µ-op resolves at `done`: fetch
                // restarts on the correct path then.
                self.pending_redirect = None;
                self.fetch_stall_until = done;
                self.last_fetch_line = u64::MAX;
            }
        }
        queue.clear();
        self.scratch.iq_spare = queue;
        self.iq = kept;

        if let Some((load_seq, store_seq)) = violation {
            // Both µ-ops are still in flight: O(1) ROB lookups recover
            // their program counters for store-set training.
            let load_pc = pck(self.trace.insts()[self.rob_entry(load_seq).trace_idx].pc);
            let store_pc = pck(self.trace.insts()[self.rob_entry(store_seq).trace_idx].pc);
            self.store_sets.on_violation(load_pc, store_pc);
            self.stats.memory_order_squashes += 1;
            self.squash_from(load_seq);
            self.fetch_stall_until = now + 1;
            return (true, issued);
        }
        (false, issued)
    }

    /// `EOLE_PARANOID` cross-check of the wakeup rule, run after every
    /// `do_issue`: each parked µ-op waits on one of its own sources whose
    /// register is still `NOT_READY`, and every dispatched-but-unissued IQ
    /// µ-op in the ROB is either queued or parked, exactly once — so
    /// queued + parked equals IQ occupancy. Panics naming the seq.
    pub(super) fn check_wakeup(&self) {
        fn fail(seq: u64, cycle: u64, what: std::fmt::Arguments<'_>) -> ! {
            panic!("wakeup: seq {seq} {what} at cycle {cycle}") // lint:allow(error-typing) EOLE_PARANOID is a crash-on-divergence debug mode
        }
        let in_iq = |seq: u64| {
            self.rob.holds_slot(seq) && {
                let e = self.rob_entry(seq);
                e.done_cycle == NOT_READY && issues_from_iq(e.ee, e.le_alu, e.le_branch, e.class)
            }
        };
        let mut parked = 0usize;
        for (class, preg, seq) in self.waiters.iter() {
            parked += 1;
            let reader = in_iq(seq) && self.rob_entry(seq).srcs.contains(&Some(SrcReg { class, preg }));
            let ready_at = self.prf.ready_at(class, preg);
            if !reader || ready_at != NOT_READY {
                let why = format_args!("unissued reader {reader}, ready_at {ready_at}");
                fail(seq, self.cycle, format_args!("parked on {class:?} p{preg} ({why})"));
            }
        }
        if let Some(q) = self.iq.iter().find(|q| !in_iq(q.seq)) {
            fail(q.seq, self.cycle, format_args!("is queued but is no unissued IQ µ-op"));
        }
        let mut occupancy = 0usize;
        for e in self.rob.iter().filter(|e| in_iq(e.seq)) {
            occupancy += 1;
            let queued = self.iq.iter().filter(|q| q.seq == e.seq).count();
            let parked = usize::from(self.waiters.parked_on(e.seq).is_some());
            if queued + parked != 1 {
                fail(e.seq, self.cycle, format_args!("is queued {queued}× and parked {parked}×"));
            }
        }
        if parked != self.waiters.len() || self.iq.len() + parked != occupancy {
            panic!( // lint:allow(error-typing) EOLE_PARANOID is a crash-on-divergence debug mode
                "wakeup: {} queued + {parked} parked (count {}) != IQ occupancy {occupancy} at cycle {}",
                self.iq.len(),
                self.waiters.len(),
                self.cycle
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::state::RobEntry;
    use super::super::{PreparedTrace, Simulator};
    use crate::config::{latency, CoreConfig};
    use crate::prf::NOT_READY;
    use eole_isa::{generate_trace, IntReg, ProgramBuilder, RegClass};

    fn r(i: u8) -> IntReg {
        IntReg::new(i)
    }

    /// Per-cycle view of one in-flight µ-op, sampled after each step.
    #[derive(Clone, Copy, Debug)]
    struct Seen {
        cycle: u64,
        entry: RobEntry,
        parked_on: Option<u16>,
        queued: bool,
    }

    /// Single-steps (no fast-forward) until every µ-op in `seqs` has
    /// issued, returning each one's per-cycle history from dispatch to
    /// issue.
    fn trace_until_issued(sim: &mut Simulator<'_>, seqs: &[u64]) -> Vec<Vec<Seen>> {
        let mut hist = vec![Vec::new(); seqs.len()];
        let issued = |s: &Seen| s.entry.done_cycle != NOT_READY;
        while hist.iter().any(|h| !h.last().is_some_and(issued)) {
            let cycle = sim.cycle();
            sim.step();
            sim.check_wakeup();
            for (h, &seq) in hist.iter_mut().zip(seqs) {
                if h.last().is_some_and(issued) || !sim.rob.holds_slot(seq) {
                    continue;
                }
                h.push(Seen {
                    cycle,
                    entry: *sim.rob.slot(seq),
                    parked_on: sim.waiters.parked_on(seq).map(|(class, preg)| {
                        assert_eq!(class, RegClass::Int);
                        preg
                    }),
                    queued: sim.iq.iter().any(|q| q.seq == seq),
                });
            }
            assert!(sim.cycle() < 100_000, "µ-ops never issued");
        }
        hist
    }

    /// The cycle a µ-op issued in, from its history.
    fn issue_cycle(h: &[Seen]) -> u64 {
        h.last().unwrap().cycle
    }

    /// The µ-op's ROB entry as it issued (it may have committed since).
    fn at_issue(h: &[Seen]) -> RobEntry {
        h.last().unwrap().entry
    }

    /// A program whose pointer load misses all the way to DRAM; no
    /// branches, so sequence numbers equal trace indices.
    fn program(body: impl FnOnce(&mut ProgramBuilder, IntReg)) -> PreparedTrace {
        let mut b = ProgramBuilder::new();
        let buf = b.alloc_zeroed(4096);
        b.movi(r(1), buf as i64);
        body(&mut b, r(1));
        b.halt();
        PreparedTrace::new(generate_trace(&b.build().unwrap(), 1_000).unwrap())
    }

    #[test]
    fn consumer_of_a_dram_miss_issues_exactly_when_the_load_completes() {
        let trace = program(|b, base| {
            b.movi(r(6), 1); // seq 1
            b.div(r(7), base, r(6)); // seq 2: the same base, 25 cycles later
            b.ld(r(5), r(7), 0); // seq 3: cold line
            b.addi(r(2), r(5), 1); // seq 4: its consumer
        });
        let mut sim = Simulator::new(&trace, CoreConfig::baseline_6_64()).unwrap();
        let hist = trace_until_issued(&mut sim, &[3, 4]);
        let load = at_issue(&hist[0]);
        assert!(load.done_cycle > issue_cycle(&hist[0]) + 100, "the load misses to DRAM");
        assert_eq!(issue_cycle(&hist[1]), load.done_cycle, "issued at the load's done_cycle");
        // Dispatched into the queue, the consumer's first scan parks it on
        // the load's register, off the queue the issue scan walks, until
        // the load issues; then it waits in the queue for the known cycle.
        assert!(hist[1][0].queued);
        let load_dst = load.dst.unwrap().new;
        let (parked, queued) = hist[1][1..]
            .split_at(hist[1][1..].partition_point(|s| s.cycle < issue_cycle(&hist[0])));
        assert!(parked.len() > 20, "parked while the load waits on its base");
        assert!(parked.iter().all(|s| s.parked_on == Some(load_dst) && !s.queued));
        assert!(queued[..queued.len() - 1].iter().all(|s| s.queued && s.parked_on.is_none()));
    }

    #[test]
    fn two_source_uop_reparks_on_its_second_unready_source() {
        let trace = program(|b, base| {
            b.ld(r(5), base, 0); // seq 1: DRAM miss
            b.addi(r(2), r(5), 1); // seq 2: first source, issues at the miss's done
            b.mul(r(3), r(2), r(2)); // seq 3: second source, issues one cycle later
            b.add(r(4), r(2), r(3)); // seq 4: waits on both
        });
        let mut sim = Simulator::new(&trace, CoreConfig::baseline_6_64()).unwrap();
        let hist = trace_until_issued(&mut sim, &[2, 3, 4]);
        let [first, second] = at_issue(&hist[2]).srcs.map(|s| s.unwrap().preg);
        assert_eq!(first, at_issue(&hist[0]).dst.unwrap().new);
        assert_eq!(second, at_issue(&hist[1]).dst.unwrap().new);
        let mut parked: Vec<u16> = hist[2].iter().filter_map(|s| s.parked_on).collect();
        parked.dedup();
        assert_eq!(parked, vec![first, second], "parked on the first source, then the second");
        // The first producer's issue moves the consumer to the second
        // producer's list; that one's issue queues it, and it issues as
        // soon as the multiply completes.
        let repark = hist[2].iter().find(|s| s.parked_on == Some(second)).unwrap().cycle;
        assert_eq!(repark, issue_cycle(&hist[0]));
        assert_eq!(issue_cycle(&hist[1]), issue_cycle(&hist[0]) + latency::INT_ALU);
        assert_eq!(issue_cycle(&hist[2]), issue_cycle(&hist[1]) + latency::INT_MUL);
    }
}
