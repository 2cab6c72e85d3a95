//! # eole-predictors
//!
//! Every prediction structure the EOLE paper relies on, implemented from the
//! primary sources and sized per the paper's Tables 1-2:
//!
//! * **Value predictors** ([`value`]): last-value, stride, 2-delta stride,
//!   order-4 FCM, VTAGE, the evaluated [`value::VtageTwoDeltaStride`]
//!   hybrid, and the block-based [`value::DVtage`] (BeBoP, HPCA 2015) --
//!   all gated by Forward Probabilistic Counters ([`fpc`]). The timing
//!   core drives them through [`value::BlockVp`], the fetch-block-granular
//!   front with the speculative in-flight window.
//! * **Branch predictors** ([`branch`]): TAGE (1 + 12 components) with
//!   storage-free confidence (very-high-confidence branches are the ones
//!   EOLE late-executes), a 2-way 4K BTB, and a 32-entry return stack.
//! * **Memory-dependence prediction** ([`storesets`]): Chrysos-Emer Store
//!   Sets (1K SSIT / 128 SSIDs).
//!
//! All tables are deterministic: probabilistic updates draw from the seeded
//! [`rng::SimRng`].
//!
//! ## Example
//!
//! ```
//! use eole_predictors::history::BranchHistory;
//! use eole_predictors::value::{ValuePredictor, VtageTwoDeltaStride};
//!
//! let hist = BranchHistory::new();
//! let mut vp = VtageTwoDeltaStride::paper(42);
//! // A strided sequence becomes predictable after a few instances.
//! for i in 0..2000u64 {
//!     vp.train(0x400, hist.view(0), 8 * i);
//! }
//! let p = vp.predict(0x400, hist.view(0)).expect("entry allocated");
//! assert_eq!(p.value, 8 * 2000);
//! ```

#![forbid(unsafe_code)]

pub mod branch;
pub mod fpc;
pub mod history;
pub mod rng;
pub mod snapshot;
pub mod storesets;
mod tagged;
pub mod value;
