//! Front end: trace-driven fetch with I-cache timing, branch prediction
//! (TAGE + BTB + RAS), and the block-granular value-predictor query at
//! fetch time (§4.2 / BeBoP): the predictor is read once per (cycle,
//! fetch block) and each VP-eligible µ-op registers an in-flight
//! instance in the speculative window — unless the window is full, in
//! which case the µ-op simply travels unpredicted.

use eole_isa::InstClass;
use eole_predictors::branch::BranchConfidence;

use super::state::{pck, FrontUop, Simulator};
use super::vp_stream::Forecast;

impl Simulator<'_> {
    pub(super) fn do_fetch(&mut self) {
        if self.pending_redirect.is_some() || self.cycle < self.fetch_stall_until {
            return;
        }
        let mut taken = 0usize;
        for _ in 0..self.config.fetch_width {
            if self.cursor >= self.trace.len() || self.front_q.len() >= self.front_cap {
                return;
            }
            let di = &self.trace.insts()[self.cursor];
            // I-cache: access once per line transition.
            let line = pck(di.pc) & !63;
            if line != self.last_fetch_line {
                let done = self.mem.fetch(line, self.cycle);
                self.last_fetch_line = line;
                let hit_latency = 1;
                if done > self.cycle + hit_latency {
                    self.fetch_stall_until = done;
                    return; // µ-op not consumed; refetch hits the line.
                }
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let mut fu = FrontUop {
                trace_idx: self.cursor,
                seq,
                at_rename: self.cycle + self.config.frontend_depth,
                vp_queried: false,
                pred_ordinal: 0,
                pred_pending: false,
                pred_some: false,
                pred_used: false,
                pred_correct: false,
                pred_level: 0,
                pred_value_correct: false,
                hc: false,
                awaited: false,
                ind_mispredict: false,
            };
            let inst = &self.text[di.pc as usize];
            // Value prediction at fetch (§4.2), block-granular (BeBoP):
            // the query goes down the command stream, and rename reads
            // its outcome.
            if let Some(vp) = self.vp.as_mut() {
                if inst.is_vp_eligible() {
                    let uop = (seq, pck(di.pc), self.cursor);
                    let (admission, forecast) = vp.predict(self.cycle, uop, di.result, self.trace);
                    if admission.new_block {
                        self.stats.vp_block_reads += 1;
                    }
                    match forecast {
                        Forecast::Ready(outcome) => fu.take_outcome(outcome),
                        Forecast::Pending(ordinal) => {
                            fu.pred_pending = true;
                            fu.pred_ordinal = ordinal;
                        }
                    }
                    // Only accepted queries registered an in-flight
                    // instance, so only they are trained at commit or
                    // dropped at squash.
                    fu.vp_queried = admission.accepted;
                    if !admission.accepted {
                        self.stats.vp_window_rejects += 1;
                    }
                }
            }
            // Control prediction.
            let cls = di.class();
            match cls {
                InstClass::Branch => {
                    let keys = self.branch_keys(di);
                    let pred = self.tage.predict_keyed(pck(di.pc), keys);
                    fu.hc = pred.confidence == BranchConfidence::VeryHigh;
                    if pred.taken {
                        if self.btb.lookup(pck(di.pc)).is_none() {
                            // Direct target resolved at decode: short bubble.
                            self.stats.btb_miss_bubbles += 1;
                            self.fetch_stall_until = self.cycle + self.config.btb_miss_bubble;
                        }
                        self.btb.insert(pck(di.pc), inst.imm as u32);
                    }
                    if pred.taken != di.taken {
                        fu.awaited = true;
                    }
                    if di.taken {
                        taken += 1;
                    }
                }
                InstClass::Jump | InstClass::Call => {
                    if self.btb.lookup(pck(di.pc)).is_none() {
                        self.stats.btb_miss_bubbles += 1;
                        self.fetch_stall_until = self.cycle + self.config.btb_miss_bubble;
                    }
                    self.btb.insert(pck(di.pc), self.trace.next_pc(self.cursor));
                    if cls == InstClass::Call {
                        self.ras.push(u32::from(di.pc) + 1);
                    }
                    taken += 1;
                }
                InstClass::Return => {
                    let predicted = self.ras.pop();
                    if predicted != Some(self.trace.next_pc(self.cursor)) {
                        fu.awaited = true;
                        fu.ind_mispredict = true;
                    }
                    taken += 1;
                }
                InstClass::JumpIndirect | InstClass::CallIndirect => {
                    let predicted = self.btb.lookup(pck(di.pc));
                    let next_pc = self.trace.next_pc(self.cursor);
                    self.btb.insert(pck(di.pc), next_pc);
                    if cls == InstClass::CallIndirect {
                        self.ras.push(u32::from(di.pc) + 1);
                    }
                    if predicted != Some(next_pc) {
                        fu.awaited = true;
                        fu.ind_mispredict = true;
                    }
                    taken += 1;
                }
                _ => {}
            }
            self.stats.fetched += 1;
            self.cursor += 1;
            let awaited = fu.awaited;
            if awaited {
                self.pending_redirect = Some(seq);
            }
            self.front_q.push_back(fu);
            if awaited || taken >= self.config.max_taken_per_cycle {
                return;
            }
            if self.cycle < self.fetch_stall_until {
                return; // BTB bubble cuts the fetch group.
            }
        }
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

    /// Fetch-to-commit depth calibration: the first independent µ-op must
    /// retire after roughly the front-end depth plus rename/commit and the
    /// LE/VT stage — the paper's "fetch-to-commit latency of 19 cycles
    /// (+1 with VP)".
    #[test]
    fn pipeline_depth_matches_the_paper() {
        let mut b = ProgramBuilder::new();
        for i in 0..32 {
            b.movi(r((i % 8) as u8 + 1), i as i64);
        }
        b.halt();
        let trace = PreparedTrace::new(generate_trace(&b.build().unwrap(), 100).unwrap());
        let first_commit = |config: CoreConfig| {
            let mut sim = Simulator::new(&trace, config).unwrap();
            while sim.committed_total() == 0 {
                sim.step();
                assert!(sim.cycle() < 1000, "first commit never happened");
            }
            sim.cycle()
        };
        // The very first fetch pays one cold I-cache fill (~L2+DRAM),
        // then the µ-op flows through the 15-cycle front end to commit.
        let base = first_commit(CoreConfig::baseline_6_64());
        assert!(
            (140..=200).contains(&base),
            "cold fill + pipeline depth = {base} cycles"
        );
        // Adding VP adds exactly the one-cycle LE/VT stage.
        let vp = first_commit(CoreConfig::baseline_vp_6_64());
        assert_eq!(vp, base + 1, "the LE/VT stage is one cycle deep");
    }

    /// A hard-to-predict branch must cost roughly the pipeline refill
    /// (≥ 20 cycles per the paper) compared to a predictable one.
    #[test]
    fn branch_misprediction_penalty_is_a_pipeline_refill() {
        let build = |entropy: bool| {
            let mut b = ProgramBuilder::new();
            let (seed, t, i, n) = (r(1), r(2), r(3), r(4));
            b.movi(seed, 0x1357_9bdf);
            b.movi(i, 0);
            b.movi(n, 3_000);
            let top = b.label();
            b.bind(top);
            b.shli(t, seed, 13);
            b.xor(seed, seed, t);
            b.shri(t, seed, 7);
            b.xor(seed, seed, t);
            b.shli(t, seed, 17);
            b.xor(seed, seed, t);
            // Branch over *nothing*: taken and not-taken paths commit the
            // identical µ-op stream, so cycle deltas are pure penalty.
            let skip = b.label();
            if entropy {
                b.andi(t, seed, 1); // coin flip
            } else {
                b.andi(t, seed, 0); // always 0: perfectly predictable
            }
            b.beq_imm(t, 1, skip);
            b.bind(skip);
            b.addi(i, i, 1);
            b.blt(i, n, top);
            b.halt();
            PreparedTrace::new(generate_trace(&b.build().unwrap(), 200_000).unwrap())
        };
        let run = |trace: &PreparedTrace| {
            let mut sim = Simulator::new(trace, CoreConfig::baseline_6_64()).unwrap();
            sim.run(u64::MAX).unwrap();
            (sim.stats().cycles, sim.stats().branch_mispredicts, sim.stats().committed)
        };
        let noisy = build(true);
        let calm = build(false);
        let (noisy_cycles, mis, noisy_committed) = run(&noisy);
        let (calm_cycles, calm_mis, calm_committed) = run(&calm);
        assert!(mis > 500, "coin-flip branch must mispredict often: {mis}");
        assert!(calm_mis < 50, "biased branch must not: {calm_mis}");
        // Charge the cycle difference to the mispredictions (the two
        // programs commit the identical µ-op count by construction).
        assert_eq!(noisy_committed, calm_committed);
        let penalty = (noisy_cycles - calm_cycles) as f64 / mis as f64;
        assert!(
            (12.0..40.0).contains(&penalty),
            "per-misprediction penalty ≈ refill: {penalty:.1} cycles"
        );
    }

    /// Cold instruction fetch must stall on I-cache misses (long straight-
    /// line code marches through new lines).
    #[test]
    fn icache_misses_stall_fetch() {
        let mut b = ProgramBuilder::new();
        // 4K straight-line µ-ops = 256 I-cache lines, all cold.
        for i in 0..4096 {
            b.movi(r((i % 8) as u8 + 1), i as i64);
        }
        b.halt();
        let trace = PreparedTrace::new(generate_trace(&b.build().unwrap(), 10_000).unwrap());
        let mut sim = Simulator::new(&trace, CoreConfig::baseline_6_64()).unwrap();
        sim.run(u64::MAX).unwrap();
        let s = sim.stats();
        assert!(s.mem.l1i.misses >= 200, "cold code must miss: {}", s.mem.l1i.misses);
        // Straight-line prefetch-free fetch gates IPC well below width.
        assert!(s.ipc() < 6.0);
    }

    /// Taken branches that miss the BTB charge the decode-redirect bubble.
    #[test]
    fn btb_misses_cost_bubbles_once() {
        let mut b = ProgramBuilder::new();
        let (i, n) = (r(1), r(2));
        b.movi(i, 0);
        b.movi(n, 500);
        let top = b.label();
        b.bind(top);
        b.addi(i, i, 1);
        b.blt(i, n, top); // same branch every time: one cold BTB miss
        b.halt();
        let trace = PreparedTrace::new(generate_trace(&b.build().unwrap(), 10_000).unwrap());
        let mut sim = Simulator::new(&trace, CoreConfig::baseline_6_64()).unwrap();
        sim.run(u64::MAX).unwrap();
        let s = sim.stats();
        assert!(
            s.btb_miss_bubbles <= 5,
            "a single hot branch trains the BTB once: {}",
            s.btb_miss_bubbles
        );
    }
}
