//! The EOLE pipeline model: a trace-driven, cycle-level superscalar with
//! value prediction, Early Execution beside Rename, and a Late Execution /
//! Validation / Training (LE/VT) stage before Commit.
//!
//! Stage order per simulated cycle (reverse pipeline order, standard for
//! cycle-by-cycle models): **commit+LE/VT → issue/execute → rename/dispatch
//! (incl. Early Execution) → fetch (incl. branch & value prediction)**.
//!
//! The module tree mirrors the paper's hardware stages:
//!
//! | Module | Hardware stage |
//! |---|---|
//! | [`frontend`](self) | fetch, branch prediction, VP query at fetch (§4.2) |
//! | [`early`](self) | Early Execution beside Rename (§3.1) |
//! | [`ooo`](self) | rename/dispatch and the OoO issue/execute engine |
//! | [`wakeup`](self) | issue wakeup: µ-ops parked on their producer's tag |
//! | [`late`](self) | Late Execution + Validation/Training before Commit (§3.2) |
//! | [`commit`](self) | in-order commit and squash recovery |
//! | [`state`](self) | shared [`Simulator`] state, [`PreparedTrace`], [`SimError`] |
//!
//! ## Modelling decisions
//!
//! - **Trace-driven fetch that stalls on a misprediction.** Fetch walks
//!   the correct-path trace ([`PreparedTrace`]) with a cursor, so there is
//!   no wrong path to fetch. A mispredicted control µ-op (conditional
//!   branch, return or indirect jump) is fetched, and then fetch stops
//!   until it resolves: at execute, or at LE/VT for a late-executed
//!   branch. Fetch restarts on the correct path once it has resolved,
//!   so the misprediction penalty is the pipeline refill. Wrong-path
//!   cache and predictor pollution is not modelled.
//! - **Oracle branch history.** The global history TAGE, VTAGE and
//!   D-VTAGE hash is the trace's correct-path outcome log, read at each
//!   µ-op's position. It is never wrong, so a squash repairs no history,
//!   and every predictor's table keys are a pure function of the µ-op,
//!   built once per trace.
//! - **Squash = cursor rewind + ROB walk.** A value misprediction found at
//!   LE/VT, or a memory-order violation found by the out-of-order engine,
//!   squashes every younger µ-op. The front queue and the ROB are walked
//!   youngest-first, undoing each rename and freeing its register. The
//!   IQ, the load and store queues and the store-set table drop the
//!   squashed µ-ops, and the value predictor's speculative window drops
//!   their in-flight instances. The trace cursor then rewinds to the
//!   oldest squashed µ-op, which simply refetches.

mod commit;
mod early;
mod frontend;
mod late;
mod ooo;
mod state;
mod wakeup;
mod warm;
mod window;

#[cfg(test)]
mod tests;

pub use state::{PreparedTrace, SimError, Simulator};
pub use warm::{WarmState, WARMSTATE_FORMAT};
