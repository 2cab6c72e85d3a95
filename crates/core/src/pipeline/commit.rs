//! In-order commit (gated by the LE/VT stage in front of it) and squash
//! recovery: cursor rewind plus a youngest-first ROB walk that undoes
//! renaming, with every window structure purged of squashed sequence
//! numbers.

use eole_isa::InstClass;

use super::state::{pck, Simulator};

impl Simulator<'_> {
    /// Returns true if a value-misprediction squash happened.
    pub(super) fn do_commit(&mut self) -> bool {
        let now = self.cycle;
        let mut committed = 0usize;
        // LE/VT read ports consumed per (bank, class) this cycle — a
        // reused scratch buffer, cleared here, incremented in place (with
        // rollback when a µ-op does not fit) instead of cloned per µ-op.
        let port_cap = self.config.eole.levt_read_ports_per_bank;
        if port_cap.is_some() {
            for b in self.scratch.port_reads.iter_mut() {
                *b = [0, 0];
            }
        }
        while committed < self.config.commit_width {
            // Exact-boundary mode (`run_exact`): cut the commit group at
            // the ceiling instead of overshooting past it. `u64::MAX`
            // (the `run` path) never triggers.
            if self.total_committed >= self.commit_limit {
                break;
            }
            let Some(e) = self.rob.front() else { break };
            if !self.levt_complete(e, now) {
                break;
            }
            // LE/VT read-port budget (Fig. 11).
            if let Some(cap) = port_cap {
                let (needed, n) = self.levt_reads(self.rob.front().expect("checked above")); // lint:allow(error-typing) re-borrow of the entry checked at loop top (borrowck)
                let mut fits = true;
                for (bank, ci) in &needed[..n] {
                    self.scratch.port_reads[*bank][*ci] += 1;
                    if self.scratch.port_reads[*bank][*ci] > cap {
                        fits = false;
                    }
                }
                if !fits {
                    // Roll the trial increments back: the group keeps the
                    // ports it already granted, nothing more.
                    for (bank, ci) in &needed[..n] {
                        self.scratch.port_reads[*bank][*ci] -= 1;
                    }
                    self.stats.levt_port_stalls += 1;
                    // Forward progress: if even an empty group cannot fit
                    // this µ-op (its own reads exceed the per-bank budget),
                    // the hardware would serialize the reads over extra
                    // cycles; commit it alone and end the group.
                    if committed == 0 {
                        for b in self.scratch.port_reads.iter_mut() {
                            b[0] = cap;
                            b[1] = cap;
                        }
                    } else {
                        break;
                    }
                }
            }

            // ---- the µ-op commits -------------------------------------
            let e = self.rob.pop_front().expect("checked above"); // lint:allow(error-typing) non-empty: the same entry was front() at loop top
            committed += 1;
            self.total_committed += 1;
            self.last_commit_cycle = now;
            self.stats.committed += 1;

            // LE accounting, branch resolution/training (late.rs).
            self.levt_resolve_control(&e, now);

            // Memory retirement.
            if e.class == InstClass::Store {
                debug_assert_eq!(self.sq.front().map(|s| s.seq), Some(e.seq));
                self.sq.pop_front();
                let di = &self.trace.insts()[e.trace_idx];
                self.mem.store(pck(di.pc), di.addr, now);
            }
            if e.class == InstClass::Load {
                debug_assert_eq!(self.lq.front().map(|l| l.seq), Some(e.seq));
                self.lq.pop_front();
            }

            // Value-predictor training (late.rs).
            self.levt_train(&e);

            // Architectural rename state.
            if let Some(d) = e.dst {
                self.commit_rat[d.arch_flat as usize] = d.new;
                self.prf.free(d.class, d.old);
            }

            // Validation: a wrong used prediction squashes everything
            // younger (§3.1: squash, not selective replay).
            if self.levt_validate(&e) {
                // Squash-cost accounting, split by stage depth: refetching
                // traverses the whole front end plus the LE/VT stage that
                // delayed discovery, and everything younger in the window
                // (the new ROB head is the oldest discarded µ-op) is work
                // thrown away.
                self.stats.vp_squash_cycles_frontend += self.config.frontend_depth;
                self.stats.vp_squash_cycles_levt += self.config.levt_depth();
                if let Some(oldest) = self.rob.front() {
                    self.stats.vp_squash_cycles_window +=
                        now.saturating_sub(oldest.dispatch_cycle);
                }
                self.squash_after(e.seq);
                self.fetch_stall_until = now + 1;
                return true;
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    /// Squashes every µ-op younger than `seq` (exclusive).
    pub(super) fn squash_after(&mut self, seq: u64) {
        self.squash_from(seq + 1);
    }

    /// Squashes every µ-op with sequence ≥ `first_bad` and rewinds the
    /// trace cursor so they refetch.
    pub(super) fn squash_from(&mut self, first_bad: u64) {
        let mut min_trace_idx: Option<usize> = None;
        // Registered VP instances among the discarded µ-ops.
        let mut vp_dropped = 0usize;
        // Front-end queue (not yet renamed).
        while let Some(back) = self.front_q.back() {
            if back.seq < first_bad {
                break;
            }
            let fu = self.front_q.pop_back().expect("non-empty"); // lint:allow(error-typing) while-let guard proves the queue is non-empty
            min_trace_idx =
                Some(min_trace_idx.map_or(fu.trace_idx, |m| m.min(fu.trace_idx)));
            vp_dropped += usize::from(fu.vp_queried);
            self.stats.squashed += 1;
        }
        // ROB walk, youngest first: undo renaming.
        while let Some(back) = self.rob.back() {
            if back.seq < first_bad {
                break;
            }
            let e = self.rob.pop_back().expect("non-empty"); // lint:allow(error-typing) while-let guard proves the queue is non-empty
            min_trace_idx = Some(min_trace_idx.map_or(e.trace_idx, |m| m.min(e.trace_idx)));
            vp_dropped += usize::from(e.vp_queried);
            // A parked µ-op leaves its register's waiter list; a queued one
            // leaves the IQ below.
            self.waiters.unpark(e.seq);
            if let Some(d) = e.dst {
                self.spec_rat[d.arch_flat as usize] = d.old;
                self.prf.free(d.class, d.new);
            }
            self.stats.squashed += 1;
        }
        // One notification rolls the whole VP speculative window back to
        // the cut: every in-flight (queried) instance with seq ≥
        // `first_bad` is dropped youngest-first — exactly the µ-ops the
        // two walks above discarded.
        if let Some(vp) = self.vp.as_mut() {
            vp.squash(first_bad, vp_dropped, self.trace);
        }
        self.iq.retain(|e| e.seq < first_bad);
        while self.lq.back().is_some_and(|l| l.seq >= first_bad) {
            self.lq.pop_back();
        }
        while self.sq.back().is_some_and(|s| s.seq >= first_bad) {
            self.sq.pop_back();
        }
        for slot in &mut self.lfst {
            if slot.is_some_and(|(s, _)| s >= first_bad) {
                *slot = None;
            }
        }
        if self.pending_redirect.is_some_and(|s| s >= first_bad) {
            self.pending_redirect = None;
        }
        if let Some(idx) = min_trace_idx {
            self.cursor = idx;
        }
        // Every structure has been purged of seqs >= first_bad, so sequence
        // numbers can be reused. Rewinding `next_seq` in lock-step with the
        // ROB's popped tail keeps slot ids and sequence numbers aligned —
        // the invariant behind the O(1) `rob.slot(seq)` lookup.
        debug_assert!(
            self.rob.is_empty() || self.rob.next_slot() <= first_bad,
            "ROB tail never outlives the squash cut"
        );
        self.next_seq = first_bad;
        self.writer_info = [None; 64];
        self.prev_group_cycle = u64::MAX;
        self.last_fetch_line = u64::MAX;
        self.prf.reset_cursors();
    }
}

#[cfg(test)]
mod tests {
    use super::super::{PreparedTrace, Simulator};
    use crate::config::CoreConfig;
    use eole_isa::{generate_trace, IntReg, ProgramBuilder};

    fn r(i: u8) -> IntReg {
        IntReg::new(i)
    }

    /// A looped serial multiply chain: 3-cycle latency per µ-op with a true
    /// dependency through the whole program, inside a tight loop so the
    /// I-cache warms after one iteration — fetch then outruns commit and
    /// the ROB reliably fills.
    fn serial_chain(iters: i64) -> PreparedTrace {
        let mut b = ProgramBuilder::new();
        b.movi(r(1), 3);
        b.movi(r(2), 0);
        b.movi(r(3), iters);
        let top = b.label();
        b.bind(top);
        for _ in 0..8 {
            b.mul(r(1), r(1), r(1));
        }
        b.addi(r(2), r(2), 1);
        b.bne(r(2), r(3), top);
        b.halt();
        PreparedTrace::new(generate_trace(&b.build().unwrap(), 100_000).unwrap())
    }

    /// Steps until at least `n` µ-ops sit in the ROB (panics if the trace
    /// drains first — the window never filled).
    fn fill_rob(sim: &mut Simulator<'_>, n: usize) {
        while sim.rob.len() < n {
            sim.step();
            assert!(
                !sim.finished() && sim.cycle() < 1_000_000,
                "ROB never reached {n} entries"
            );
        }
    }

    /// `squash_from` must restore the simulator to a state from which the
    /// whole trace still commits: cursor rewound, window structures purged,
    /// sequence numbers reusable.
    #[test]
    fn mid_flight_squash_still_commits_everything() {
        let trace = serial_chain(40);
        let mut sim = Simulator::new(&trace, CoreConfig::baseline_6_64()).unwrap();
        fill_rob(&mut sim, 16);
        let committed_before = sim.total_committed;
        sim.squash_from(committed_before);
        assert!(sim.rob.is_empty());
        assert!(sim.front_q.is_empty());
        assert!(sim.iq.is_empty());
        assert!(sim.lq.is_empty());
        assert!(sim.sq.is_empty());
        assert_eq!(sim.next_seq, committed_before, "seqs restart after the last commit");
        assert_eq!(sim.pending_redirect, None);
        // The machine restarts from the rewound cursor and finishes.
        sim.run(u64::MAX).unwrap();
        assert!(sim.finished());
        assert_eq!(sim.committed_total(), trace.len() as u64);
    }

    /// A partial squash keeps the older half of the window and purges only
    /// sequence numbers at or above the cut.
    #[test]
    fn partial_squash_keeps_older_uops_and_reuses_seqs() {
        let trace = serial_chain(60);
        let mut sim = Simulator::new(&trace, CoreConfig::baseline_6_64()).unwrap();
        fill_rob(&mut sim, 24);
        let mid = sim.rob[sim.rob.len() / 2].seq;
        let older: Vec<u64> = sim.rob.iter().map(|e| e.seq).filter(|s| *s < mid).collect();
        sim.squash_from(mid);
        assert!(sim.rob.iter().all(|e| e.seq < mid), "no squashed seq survives");
        assert_eq!(
            sim.rob.iter().map(|e| e.seq).collect::<Vec<_>>(),
            older,
            "older µ-ops keep their order"
        );
        assert!(sim.iq.iter().all(|e| e.seq < mid));
        assert_eq!(sim.next_seq, mid, "seq numbers restart at the cut");
        assert!(sim.stats.squashed > 0, "squashed µ-ops are counted");
        sim.run(u64::MAX).unwrap();
        assert!(sim.finished());
        assert_eq!(sim.committed_total(), trace.len() as u64);
    }

    /// Squashing must return every speculatively-allocated physical
    /// register: after a full squash the PRF free count matches a fresh
    /// simulator's.
    #[test]
    fn squash_frees_speculative_registers() {
        let trace = serial_chain(40);
        let fresh = Simulator::new(&trace, CoreConfig::baseline_6_64()).unwrap();
        let fresh_free = fresh.prf.free_count(eole_isa::RegClass::Int);
        let mut sim = Simulator::new(&trace, CoreConfig::baseline_6_64()).unwrap();
        fill_rob(&mut sim, 16);
        sim.squash_from(sim.total_committed);
        // Committing is net-zero on the free pool (alloc new, free old) and
        // so is a squash (alloc new, free new), so after a full squash the
        // free count must match a fresh simulator's exactly — anything less
        // is a leaked physical register.
        let now_free = sim.prf.free_count(eole_isa::RegClass::Int);
        assert_eq!(now_free, fresh_free, "squash must not leak physical registers");
        sim.run(u64::MAX).unwrap();
        assert!(sim.finished());
    }

    /// A squash unlinks every squashed µ-op from its register's waiter
    /// list: a full squash leaves no waiter anywhere, a partial one only
    /// waiters older than the cut.
    #[test]
    fn squash_leaves_no_waiter_behind() {
        let trace = serial_chain(60);
        let mut sim = Simulator::new(&trace, CoreConfig::baseline_6_64()).unwrap();
        fill_rob(&mut sim, 24);
        assert!(sim.waiters.len() > 8, "the multiply chain parks its consumers");
        let mid = sim.rob[sim.rob.len() / 2].seq;
        sim.squash_from(mid);
        sim.check_wakeup();
        assert!(sim.waiters.iter().all(|(_, _, seq)| seq < mid));
        fill_rob(&mut sim, 16);
        sim.squash_from(sim.total_committed);
        sim.check_wakeup();
        assert_eq!(sim.waiters.len(), 0);
        assert_eq!(sim.waiters.iter().count(), 0, "no waiter on any register");
        sim.run(u64::MAX).unwrap();
        assert!(sim.finished());
    }

    /// A register freed by a squash and reallocated to a younger producer
    /// collects (and, at that producer's issue, wakes) only the new
    /// producer's consumers — never the squashed reader that once waited
    /// on it.
    #[test]
    fn reallocated_register_wakes_only_its_new_producers_consumers() {
        use crate::prf::NOT_READY;
        let trace = serial_chain(60);
        let mut sim = Simulator::new(&trace, CoreConfig::baseline_6_64()).unwrap();
        fill_rob(&mut sim, 24);
        // Squash from the producer of a register a consumer is parked on:
        // both go, and the register returns to the free list.
        let half = sim.rob[sim.rob.len() / 2].seq;
        let (class, preg, cut) = sim
            .waiters
            .iter()
            .find_map(|(class, preg, _)| {
                let producer = sim.rob.iter().find(|e| e.dst.is_some_and(|d| d.new == preg))?;
                (producer.seq > half).then_some((class, preg, producer.seq))
            })
            .expect("a parked consumer of a squashable producer");
        sim.squash_from(cut);
        sim.check_wakeup();
        assert!(sim.waiters.iter().all(|(c, p, _)| (c, p) != (class, preg)));
        // Step until the register is reallocated and read by a parked µ-op.
        let producer = loop {
            sim.step();
            sim.check_wakeup();
            assert!(sim.cycle() < 100_000, "register never reallocated");
            let producer = sim.rob.iter().find(|e| e.dst.is_some_and(|d| d.new == preg));
            if let Some(p) = producer {
                if sim.waiters.iter().any(|(c, q, _)| (c, q) == (class, preg)) {
                    break p.seq;
                }
            }
        };
        assert_ne!(producer, cut, "the register went to a different µ-op");
        let waiting: Vec<u64> = sim
            .waiters
            .iter()
            .filter(|&(c, q, _)| (c, q) == (class, preg))
            .map(|(_, _, seq)| seq)
            .collect();
        for &seq in &waiting {
            assert!(seq > producer, "seq {seq} is younger than the new producer {producer}");
            assert!(sim.rob.slot(seq).srcs.iter().flatten().any(|s| s.preg == preg));
        }
        // The producer's issue wakes exactly those µ-ops.
        while sim.rob.slot(producer).done_cycle == NOT_READY {
            assert!(sim.waiters.iter().any(|(c, q, _)| (c, q) == (class, preg)));
            sim.step();
            sim.check_wakeup();
        }
        assert!(sim.waiters.iter().all(|(c, q, _)| (c, q) != (class, preg)));
        for seq in waiting {
            assert!(
                sim.iq.iter().any(|q| q.seq == seq) || sim.waiters.parked_on(seq).is_some(),
                "woken seq {seq} went back to the queue or on to another register"
            );
        }
        sim.run(u64::MAX).unwrap();
        assert!(sim.finished());
        assert_eq!(sim.committed_total(), trace.len() as u64);
    }
}
