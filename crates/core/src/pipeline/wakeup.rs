//! Producer-driven issue wakeup: the waiter lists that park IQ µ-ops on
//! an unready source register instead of re-polling them every cycle.
//!
//! Hardware broadcasts a producer's destination tag when it issues; the
//! model does the same. When the issue scan finds a source still
//! `NOT_READY`, the µ-op leaves the issue queue and is linked into that
//! physical register's waiter list. The producer's issue (the only event
//! that can make such a register ready while a reader waits — see
//! `PERF.md`, "Event-driven issue wakeup") pops the list, and each waiter
//! either re-parks on its next unready source or returns to the queue
//! with its now-known wake cycle.
//!
//! Storage is intrusive and allocated once: one list head per
//! `(class, preg)`, and one doubly-linked [`Link`] per ROB slot. The ROB
//! holds at most `rob_entries` consecutive sequence numbers, so
//! `seq % rob_entries` names a live µ-op's link uniquely; the back link
//! makes squash unlinking O(1).

use eole_isa::RegClass;

use super::state::SrcReg;

/// End-of-list / not-linked marker.
const NIL: u64 = u64::MAX;

/// One parked µ-op's place in its register's list.
#[derive(Clone, Copy, Debug)]
struct Link {
    prev: u64,
    next: u64,
    /// Register key (see [`Waiters::key`]) the µ-op waits on, `NIL` when
    /// it is not parked.
    key: u64,
}

const UNLINKED: Link = Link { prev: NIL, next: NIL, key: NIL };

/// Per-register lists of IQ µ-ops waiting on an unissued producer.
#[derive(Debug)]
pub(super) struct Waiters {
    /// First parked seq per register key (`NIL` = nobody waits).
    head: Box<[u64]>,
    /// Per ROB slot (`seq % links.len()`).
    links: Box<[Link]>,
    /// Key offset of the FP register file (= the INT file's size).
    fp_base: usize,
    parked: usize,
}

impl Waiters {
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub(super) fn new(int_prf: usize, fp_prf: usize, rob_entries: usize) -> Self {
        Waiters {
            head: vec![NIL; int_prf + fp_prf].into_boxed_slice(),
            links: vec![UNLINKED; rob_entries].into_boxed_slice(),
            fp_base: int_prf,
            parked: 0,
        }
    }

    #[inline]
    fn key(&self, class: RegClass, preg: u16) -> usize {
        match class {
            RegClass::Int => preg as usize,
            RegClass::Fp => self.fp_base + preg as usize,
        }
    }

    fn reg(&self, key: usize) -> (RegClass, u16) {
        if key < self.fp_base {
            (RegClass::Int, key as u16)
        } else {
            (RegClass::Fp, (key - self.fp_base) as u16)
        }
    }

    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq % self.links.len() as u64) as usize
    }

    /// Number of parked µ-ops (they still occupy IQ entries).
    #[inline]
    pub(super) fn len(&self) -> usize {
        self.parked
    }

    /// Parks `seq` on register `src` (pushed at the list head).
    #[inline]
    pub(super) fn park(&mut self, seq: u64, src: SrcReg) {
        let key = self.key(src.class, src.preg);
        let slot = self.slot(seq);
        debug_assert_eq!(self.links[slot].key, NIL, "seq {seq} parked twice");
        let old = self.head[key];
        if old != NIL {
            let o = self.slot(old);
            self.links[o].prev = seq;
        }
        self.links[slot] = Link { prev: NIL, next: old, key: key as u64 };
        self.head[key] = seq;
        self.parked += 1;
    }

    /// Detaches and returns one µ-op waiting on `(class, preg)`, if any.
    /// Callers drain the list with `while let`; re-parking a popped µ-op
    /// on another register is safe mid-drain.
    #[inline]
    pub(super) fn pop(&mut self, class: RegClass, preg: u16) -> Option<u64> {
        let key = self.key(class, preg);
        let seq = self.head[key];
        if seq == NIL {
            return None;
        }
        let slot = self.slot(seq);
        let next = self.links[slot].next;
        if next != NIL {
            let n = self.slot(next);
            self.links[n].prev = NIL;
        }
        self.head[key] = next;
        self.links[slot] = UNLINKED;
        self.parked -= 1;
        Some(seq)
    }

    /// Unlinks `seq` if it is parked (squash recovery); a no-op otherwise.
    #[inline]
    pub(super) fn unpark(&mut self, seq: u64) {
        let slot = self.slot(seq);
        let Link { prev, next, key } = self.links[slot];
        if key == NIL {
            return;
        }
        if prev == NIL {
            self.head[key as usize] = next;
        } else {
            let p = self.slot(prev);
            self.links[p].next = next;
        }
        if next != NIL {
            let n = self.slot(next);
            self.links[n].prev = prev;
        }
        self.links[slot] = UNLINKED;
        self.parked -= 1;
    }

    /// Every `(class, preg, seq)` currently parked, list by list — for the
    /// paranoid cross-check and tests, never the hot path.
    pub(super) fn iter(&self) -> impl Iterator<Item = (RegClass, u16, u64)> + '_ {
        self.head.iter().enumerate().flat_map(move |(key, &first)| {
            let (class, preg) = self.reg(key);
            std::iter::successors((first != NIL).then_some(first), move |&seq| {
                let next = self.links[self.slot(seq)].next;
                (next != NIL).then_some(next)
            })
            .map(move |seq| (class, preg, seq))
        })
    }

    /// The register `seq` is parked on, if any.
    pub(super) fn parked_on(&self, seq: u64) -> Option<(RegClass, u16)> {
        let key = self.links[self.slot(seq)].key;
        (key != NIL).then(|| self.reg(key as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(preg: u16) -> SrcReg {
        SrcReg { class: RegClass::Int, preg }
    }

    fn fp(preg: u16) -> SrcReg {
        SrcReg { class: RegClass::Fp, preg }
    }

    fn drain(w: &mut Waiters, class: RegClass, preg: u16) -> Vec<u64> {
        std::iter::from_fn(|| w.pop(class, preg)).collect()
    }

    #[test]
    fn pop_drains_one_register_only() {
        let mut w = Waiters::new(64, 64, 8);
        w.park(1, int(40));
        w.park(2, fp(40));
        w.park(3, int(40));
        assert_eq!(w.len(), 3);
        let mut got = drain(&mut w, RegClass::Int, 40);
        got.sort_unstable();
        assert_eq!(got, vec![1, 3]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.parked_on(2), Some((RegClass::Fp, 40)));
        assert_eq!(w.parked_on(1), None);
        assert_eq!(drain(&mut w, RegClass::Fp, 40), vec![2]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn unpark_removes_head_middle_and_tail() {
        let mut w = Waiters::new(64, 64, 8);
        for seq in 10..14 {
            w.park(seq, int(33));
        }
        w.unpark(13); // head (pushed last)
        w.unpark(11); // middle
        w.unpark(10); // tail
        w.unpark(10); // not parked: no-op
        assert_eq!(w.len(), 1);
        assert_eq!(drain(&mut w, RegClass::Int, 33), vec![12]);
        assert_eq!(w.iter().count(), 0);
    }

    #[test]
    fn links_are_reused_by_later_seqs_in_the_same_slot() {
        let mut w = Waiters::new(64, 64, 4);
        w.park(1, int(50));
        assert_eq!(w.pop(RegClass::Int, 50), Some(1));
        // Seq 5 maps to the same link slot as seq 1.
        w.park(5, fp(63));
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![(RegClass::Fp, 63, 5)]);
    }
}
