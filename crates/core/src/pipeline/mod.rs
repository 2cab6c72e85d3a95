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
//! See `DESIGN.md` §3 for the modelling decisions (trace-driven fetch that
//! stalls on mispredicted branches instead of running wrong paths; oracle
//! branch history; squash = cursor rewind + ROB walk).

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
