//! The pipeline's one interface to the value predictor: an ordered
//! command stream.
//!
//! Fetch sends `Predict`, commit sends `Commit`, a squash sends `Squash`
//! and functional warmup sends `Warm`; nothing else reaches the
//! [`BlockVp`]. The fetch-side decisions, whether the speculative window
//! admits a µ-op and whether its query opens a new block read, stay on
//! the pipeline's thread in the [`BlockGate`]: fetch needs them at once,
//! and they depend on nothing the predictor computes.
//!
//! The stream has two drainers, and both run [`Drain::apply`] on the same
//! commands in the same order, so their results are bit-identical by
//! construction:
//!
//! - **inline**: the pipeline's thread applies each command as it is
//!   sent, and fetch gets its prediction's outcome at once;
//! - **helper**: while [`Simulator::run`](super::Simulator::run) is in
//!   flight, a helper thread owns the predictor and applies the commands
//!   from a ring of `AtomicU64` slots, and rename reads each outcome by
//!   its predict ordinal: the count of `Predict`s this simulator sent to
//!   the helper before it. Sequence numbers cannot serve, as a squash
//!   reuses them. In EOLE a prediction made at fetch is first read at
//!   rename, `frontend_depth` cycles later, and the predictor is trained
//!   only at commit, so the helper rarely keeps rename waiting.
//!
//! A run that calls its helper drains inline until the helper answers,
//! then hands it the predictor at the end of a cycle; from there on its
//! commands go to the ring. So a helper that is slow to wake, or never
//! gets a core, costs no waiting. A helper that keeps the pipeline
//! waiting (`STALLS` waits that outlast their spins in one run) has no
//! core of its own after all: the run takes the predictor back and
//! drains the rest inline, and the runs after it skip the helper, one
//! run after the first such reclaim and twice as many after each next
//! (the `Backoff`). Either switch only decides which thread applies
//! which command, never their order.
//!
//! The helper path is shaped by what the two cores share. Commands are
//! queued on the pipeline's thread and copied into the ring in one burst
//! every quarter of the front end's depth, when they are published: a
//! store to a ring line the helper has read waits for the line to come
//! back, and such stores spread over a cycle's work stalled the loads
//! behind them. Outcomes are one byte per ordinal, and the helper
//! publishes how many it has written once per batch, so rename touches a
//! line the helper wrote once per 64 predictions.
//!
//! A helper is only used on a spare core: a run claims one only while the
//! threads that have built a simulator plus the helpers claimed stay
//! within [`std::thread::available_parallelism`], which honours the
//! affinity mask. A `Session` whose workers fill the cores therefore
//! drains inline. Every wait spins a bounded number of times and then
//! yields or parks, so a wrong guess about spare cores costs speed, never
//! progress. `EOLE_PARANOID` drains inline: its key re-derivation reads
//! the trace's branch history, which the helper does not hold.
//!
//! A run shorter than [`MIN_HELPER_RUN`] µ-ops drains inline: an
//! interval piece that builds a simulator for a few thousand µ-ops would
//! pay a thread's spawn and join, and the helper's answer, for a run
//! that ends about when the helper starts.
//!
//! A simulator spawns at most one helper, during its first run long
//! enough to call one, and allocates the ring then. Between runs the
//! helper parks and the predictor is back on the pipeline's thread,
//! where snapshots, functional warmup and the accessors find it.
//! Dropping the simulator stops and joins the helper; a helper panic
//! re-panics in `run`.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use eole_predictors::value::{Admission, BlockGate, BlockVp, ValuePrediction, VpKeys};

use super::state::{lock_clean, vp_keys_at, PreparedTrace, VpKeyTable, KEY_TOUCH_AHEAD};

/// Threads that simulate, plus the helpers their runs hold.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// The cores this process may run on ([`std::thread::available_parallelism`]),
/// read once: the first read may allocate, so it happens at construction.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A simulating thread's share of [`BUSY`], from its first simulator until
/// the thread exits: a worker between two simulators still holds its core.
struct ThreadSeat;

impl Drop for ThreadSeat {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Ordering::AcqRel);
    }
}

thread_local! {
    static SEAT: ThreadSeat = {
        BUSY.fetch_add(1, Ordering::AcqRel);
        ThreadSeat
    };
}

/// Counts the calling thread as simulating, once. The first call on a
/// thread may allocate, so simulators call it at construction.
pub(super) fn seat_this_thread() {
    cores();
    SEAT.with(|_| {});
}

/// Claims a spare core for one run's helper; `false` if none is spare.
fn claim_spare_core() -> bool {
    if BUSY.fetch_add(1, Ordering::AcqRel) < cores() {
        true
    } else {
        BUSY.fetch_sub(1, Ordering::AcqRel);
        false
    }
}

fn release_spare_core() {
    BUSY.fetch_sub(1, Ordering::AcqRel);
}

/// Helper runs skipped, process-wide, after runs that took the predictor
/// back from a stalling helper.
static BACKOFF: Backoff = Backoff::new();

/// The most runs one reclaim skips. perfbench's runs take 10–30 ms, so a
/// second core the host keeps busy costs about one probing run a second.
const MAX_SKIP: u32 = 64;

/// Which runs may call a helper, from how earlier helper runs ended. The
/// spare-core rule sees only this process, and a second core that the
/// host keeps busy stalls every helper run the same way: each run that
/// takes the predictor back doubles the runs the next reclaim skips, up
/// to [`MAX_SKIP`], and a run that keeps its helper to the end resets
/// it. Which thread drains never changes a result, so the races between
/// simulating threads are harmless.
struct Backoff {
    /// Helper runs still to skip.
    skip: AtomicU32,
    /// Runs the next reclaim skips.
    next: AtomicU32,
}

impl Backoff {
    const fn new() -> Self {
        Backoff { skip: AtomicU32::new(0), next: AtomicU32::new(1) }
    }

    /// Whether a run may call a helper; a run that may not uses up one
    /// skip.
    fn allows(&self) -> bool {
        self.skip.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| s.checked_sub(1)).is_err()
    }

    /// Records a run whose helper took the drain side: `reclaimed` if the
    /// run took it back mid-run.
    fn record(&self, reclaimed: bool) {
        if reclaimed {
            let next = self.next.load(Ordering::Relaxed);
            self.skip.store(next, Ordering::Relaxed);
            self.next.store((next * 2).min(MAX_SKIP), Ordering::Relaxed);
        } else {
            self.next.store(1, Ordering::Relaxed);
        }
    }
}

/// One command to the value predictor, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Cmd {
    /// An admitted µ-op at fetch, with its trace result to score the
    /// prediction against.
    Predict { seq: u64, pc: u64, idx: usize, result: u64 },
    /// A registered µ-op at retire.
    Commit { seq: u64, pc: u64, idx: usize, actual: u64 },
    /// A functional-warmup predict/train pair ([`BlockVp::warm`]).
    Warm { pc: u64, idx: usize, actual: u64 },
    /// Drop every in-flight instance with sequence ≥ `first_bad`, which
    /// the pipeline counted as `dropped`.
    Squash { first_bad: u64, dropped: usize },
}

/// Words per command in the ring.
const WORDS: usize = 3;

impl Cmd {
    /// Three words: the kind, pc and trace index packed in the first
    /// (µ-op addresses are below 2^30 and trace indices below 2^32), then
    /// the sequence number and the value.
    fn encode(self) -> [u64; WORDS] {
        let pack = |kind: u64, pc: u64, idx: usize| {
            debug_assert!(pc < 1 << 30 && (idx as u64) < 1 << 32);
            kind | pc << 2 | (idx as u64) << 32
        };
        match self {
            Cmd::Predict { seq, pc, idx, result } => [pack(0, pc, idx), seq, result],
            Cmd::Commit { seq, pc, idx, actual } => [pack(1, pc, idx), seq, actual],
            Cmd::Warm { pc, idx, actual } => [pack(2, pc, idx), 0, actual],
            Cmd::Squash { first_bad, dropped } => [3, first_bad, dropped as u64],
        }
    }

    fn decode([w, seq, value]: [u64; WORDS]) -> Self {
        let (pc, idx) = (w >> 2 & ((1 << 30) - 1), (w >> 32) as usize);
        match w & 3 {
            0 => Cmd::Predict { seq, pc, idx, result: value },
            1 => Cmd::Commit { seq, pc, idx, actual: value },
            2 => Cmd::Warm { pc, idx, actual: value },
            _ => Cmd::Squash { first_bad: seq, dropped: value as usize },
        }
    }
}

/// A prediction's outcome as rename reads it, in one byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Outcome(u8);

impl Outcome {
    /// No prediction: the window refused the µ-op, or the predictor had
    /// nothing to say.
    pub(super) const NONE: Outcome = Outcome(0);

    /// `pred` scored against the trace's `result`.
    #[inline]
    fn of(pred: Option<ValuePrediction>, result: u64) -> Self {
        match pred {
            Some(p) => Outcome(
                1 | u8::from(p.confident) << 1 | u8::from(p.value == result) << 2 | (p.level & 7) << 3,
            ),
            None => Outcome::NONE,
        }
    }

    /// The predictor returned a prediction.
    pub(super) fn some(self) -> bool {
        self.0 & 1 != 0
    }

    /// Its confidence was saturated: the pipeline uses it.
    pub(super) fn confident(self) -> bool {
        self.0 & 2 != 0
    }

    /// It matched the trace result.
    pub(super) fn correct(self) -> bool {
        self.0 & 4 != 0
    }

    /// Its FPC level (0–7).
    pub(super) fn level(self) -> u8 {
        self.0 >> 3
    }
}

/// A prediction as fetch leaves it for rename.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Forecast {
    /// Scored already: the inline drainer applied it.
    Ready(Outcome),
    /// The helper's prediction of this ordinal; rename reads its outcome
    /// ([`VpStream::outcome`]).
    Pending(u64),
}

/// The drain side of the stream: the predictor and its trace's key
/// table. It lives on the pipeline's thread, or on the helper while a
/// run is in flight.
#[derive(Debug)]
struct Drain {
    vp: BlockVp,
    keys: Option<Arc<VpKeyTable>>,
}

impl Drain {
    /// Applies one command; a `Predict` returns its outcome, the others
    /// [`Outcome::NONE`]. `trace` is passed by the inline drainer, so
    /// `EOLE_PARANOID` can re-derive each key from the branch history.
    #[inline]
    fn apply(&mut self, cmd: Cmd, trace: Option<&PreparedTrace>) -> Outcome {
        match cmd {
            Cmd::Predict { seq, pc, idx, result } => {
                let keys = self.keys(idx, trace);
                if let Some(table) = self.keys.as_deref() {
                    table.touch(idx + KEY_TOUCH_AHEAD);
                }
                return Outcome::of(self.vp.predict(seq, pc, keys.as_ref()), result);
            }
            Cmd::Commit { seq, pc, idx, actual } => {
                let keys = self.keys(idx, trace);
                self.vp.commit(seq, pc, keys.as_ref(), actual);
            }
            Cmd::Warm { pc, idx, actual } => {
                let keys = self.keys(idx, trace);
                self.vp.warm(pc, keys.as_ref(), actual);
            }
            Cmd::Squash { first_bad, dropped } => {
                let popped = self.vp.squash_from(first_bad);
                debug_assert_eq!(popped, dropped, "the squash cut {first_bad} disagrees with the pipeline");
            }
        }
        Outcome::NONE
    }

    /// The keys of the µ-op at trace index `idx`.
    #[inline]
    fn keys(&mut self, idx: usize, trace: Option<&PreparedTrace>) -> Option<VpKeys> {
        match trace {
            Some(trace) => vp_keys_at(self.keys.as_deref(), &mut self.vp, trace, idx),
            None => self.keys.as_deref().map(|table| table.get(idx)),
        }
    }
}

/// Commands the ring holds.
const RING: usize = 1024;

/// Commands queued on the pipeline's thread between two writes to the
/// ring.
const STAGE: usize = 64;

/// Spins before a wait yields.
const SPINS: u32 = 1 << 10;

/// The fewest µ-ops a run must be able to commit to call a helper. A
/// helper takes 50–400 µs to answer, and its first run also spawns its
/// thread; at the inline drainer's 5–6 Mµops/s this many µ-ops take
/// about 6 ms, so the hand-over costs under a tenth of the run.
/// `Runner`'s default windows (20,000 and 80,000 µ-ops), the quick
/// runner's 40,000-µ-op measure window and perfbench's serial runs are
/// longer; the quick runner's 15,000-µ-op warmup, the interval pieces
/// of a stitched run (5,000–10,000 µ-ops each) and the golden
/// fingerprints' runs are shorter.
pub(super) const MIN_HELPER_RUN: u64 = 1 << 15;

/// Waits on the helper that outlast their spins before a run takes the
/// predictor back and drains the rest inline: a helper that keeps the
/// pipeline waiting has no core of its own after all.
const STALLS: u32 = 32;

/// Helper phases ([`Link::phase`]). Between runs the helper parks.
const HOME: u8 = 0;
/// A run wants the helper: it answers `READY` once it is running.
const CALL: u8 = 1;
/// The helper is running and waits for the drain side.
const READY: u8 = 2;
/// The helper holds the drain side and applies the ring.
const RUN: u8 = 3;
/// The pipeline wants the drain side back.
const STOP: u8 = 4;
/// The helper ends.
const QUIT: u8 = 5;

/// A counter on a cache line of its own, so the two sides' counters do
/// not share one.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Counter(AtomicU64);

/// What the helper has done, on a cache line of its own: it writes both
/// after each batch of commands.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Progress {
    /// Commands applied.
    applied: AtomicU64,
    /// `Predict`s applied: every ordinal below has its outcome written.
    predicted: AtomicU64,
}

/// What the pipeline's thread and its helper share.
#[derive(Debug)]
struct Link {
    progress: Progress,
    /// Commands the pipeline has published.
    tail: Counter,
    /// The ring: command `i` in words `(i % RING) * WORDS ..`.
    cmds: Box<[AtomicU64]>,
    /// Per predict ordinal, modulo the length (a power of two), its
    /// outcome byte.
    outcomes: Box<[AtomicU8]>,
    /// Where the helper is in a run (`HOME` … `QUIT`).
    phase: AtomicU8,
    /// The drain side, while it crosses between the threads.
    handoff: Mutex<Option<Drain>>,
}

/// The helper thread: waits for a run to call it, answers, takes the
/// drain side if the pipeline hands it over, applies the ring until the
/// pipeline stops the run, hands the drain side back.
fn helper_main(link: Arc<Link>) {
    let mut idle = 0u32;
    loop {
        match link.phase.load(Ordering::Acquire) {
            HOME => {
                idle = 0;
                std::thread::park();
            }
            // A run that ends before it hands the drain side over sets
            // HOME first, and then this answer fails.
            CALL => {
                let _ = link.phase.compare_exchange(CALL, READY, Ordering::AcqRel, Ordering::Acquire);
            }
            // A short run may ask for the drain side back before the
            // helper has seen it handed over.
            RUN | STOP => {
                if !drain_run(&link) {
                    return;
                }
            }
            QUIT => return,
            _ => idle_wait(&mut idle),
        }
    }
}

/// One step of an idle wait: spin `SPINS` times, then yield.
#[inline]
fn idle_wait(idle: &mut u32) {
    *idle = idle.saturating_add(1);
    if *idle < SPINS {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Applies the ring for one run, then hands the drain side back and
/// publishes `HOME`; `false` if the helper is to end instead.
fn drain_run(link: &Link) -> bool {
    let Some(mut drain) = lock_clean(&link.handoff).take() else { return false };
    let mask = link.outcomes.len() as u64 - 1;
    let mut head = link.progress.applied.load(Ordering::Relaxed);
    let mut predicted = link.progress.predicted.load(Ordering::Relaxed);
    let mut idle = 0u32;
    loop {
        let tail = link.tail.0.load(Ordering::Acquire);
        if head == tail {
            match link.phase.load(Ordering::Acquire) {
                // The pipeline published its last command before it
                // asked for the predictor back.
                STOP if link.tail.0.load(Ordering::Acquire) == head => break,
                QUIT => return false,
                _ => idle_wait(&mut idle),
            }
            continue;
        }
        idle = 0;
        while head < tail {
            let at = (head as usize % RING) * WORDS;
            let cmd = Cmd::decode(std::array::from_fn(|k| link.cmds[at + k].load(Ordering::Relaxed)));
            let outcome = drain.apply(cmd, None);
            if let Cmd::Predict { .. } = cmd {
                link.outcomes[(predicted & mask) as usize].store(outcome.0, Ordering::Relaxed);
                predicted += 1;
            }
            head += 1;
        }
        link.progress.predicted.store(predicted, Ordering::Release);
        link.progress.applied.store(head, Ordering::Release);
    }
    *lock_clean(&link.handoff) = Some(drain);
    link.phase.store(HOME, Ordering::Release);
    true
}

/// The pipeline's handle on its helper.
#[derive(Debug)]
struct Helper {
    link: Arc<Link>,
    thread: Thread,
    /// Commands written to the ring.
    tail: u64,
    /// Commands published ([`Link::tail`]).
    published: u64,
    /// The last [`Progress::applied`] read.
    applied: u64,
    /// `Predict`s sent: the ordinal of the next.
    sent: u64,
    /// The last [`Progress::predicted`] read.
    predicted: u64,
    /// Cycles since the last publish, and how many may pass between two.
    cycles: u64,
    every: u64,
    /// Commands sent since the last publish, not yet in the ring.
    stage: [[u64; WORDS]; STAGE],
    staged: usize,
    /// Waits on the helper this run that outlasted their spins.
    stalls: u32,
}

impl Helper {
    /// A parked helper and its ring, whose outcomes wait at most
    /// `unread` predictions for rename, and which publishes every
    /// `every` cycles; `None` if the thread cannot start.
    // lint:allow(hot-alloc) cold path: one ring and one thread per simulator, spawned in its first run
    fn spawn(unread: usize, every: u64) -> Option<Self> {
        let link = Arc::new(Link {
            progress: Progress::default(),
            tail: Counter::default(),
            cmds: (0..RING * WORDS).map(|_| AtomicU64::new(0)).collect(),
            outcomes: (0..(unread + 1).next_power_of_two()).map(|_| AtomicU8::new(0)).collect(),
            phase: AtomicU8::new(HOME),
            handoff: Mutex::new(None),
        });
        let shared = Arc::clone(&link);
        let thread = std::thread::Builder::new()
            .name(String::from("eole-vp-helper"))
            .spawn(move || helper_main(shared))
            .ok()?;
        Some(Helper {
            link,
            thread: Thread(Some(thread)),
            tail: 0,
            published: 0,
            applied: 0,
            sent: 0,
            predicted: 0,
            cycles: 0,
            every,
            stage: [[0; WORDS]; STAGE],
            staged: 0,
            stalls: 0,
        })
    }

    /// Queues one command for the next publish.
    #[inline]
    fn push(&mut self, cmd: Cmd) {
        if self.staged == STAGE {
            self.write_staged();
        }
        self.stage[self.staged] = cmd.encode();
        self.staged += 1;
    }

    /// Copies the queued commands into the ring, waiting while it is
    /// full. One burst of stores to lines the helper reads, rather than
    /// stores spread over the cycle's work.
    fn write_staged(&mut self) {
        for i in 0..std::mem::take(&mut self.staged) {
            if self.tail - self.applied == RING as u64 {
                let (link, tail) = (&self.link, self.tail);
                let mut applied = self.applied;
                self.link.tail.0.store(tail, Ordering::Release);
                self.published = tail;
                self.stalls += u32::from(self.thread.wait(|| {
                    applied = link.progress.applied.load(Ordering::Acquire);
                    tail - applied < RING as u64
                }));
                self.applied = applied;
            }
            let at = (self.tail as usize % RING) * WORDS;
            for (k, w) in self.stage[i].into_iter().enumerate() {
                self.link.cmds[at + k].store(w, Ordering::Relaxed);
            }
            self.tail += 1;
        }
    }

    /// Makes every command sent visible to the helper.
    #[inline]
    fn publish(&mut self) {
        self.cycles = 0;
        self.write_staged();
        if self.published != self.tail {
            self.published = self.tail;
            self.link.tail.0.store(self.tail, Ordering::Release);
        }
    }

    /// The outcome of prediction `ordinal`, waiting for the helper to
    /// write it.
    #[inline]
    fn outcome(&mut self, ordinal: u64) -> Outcome {
        let slots = self.link.outcomes.len() as u64;
        // Prediction `ordinal + slots` reuses the slot.
        assert!(self.sent <= ordinal + slots, "prediction {ordinal}'s outcome was overwritten");
        if ordinal >= self.predicted {
            self.wait_for(ordinal);
        }
        Outcome(self.link.outcomes[(ordinal & (slots - 1)) as usize].load(Ordering::Relaxed))
    }

    /// Publishes every command and waits until the helper has written
    /// the outcome of prediction `ordinal`. Out of line: rename rarely
    /// gets here, and the wait loop would crowd its hot code.
    #[cold]
    #[inline(never)]
    fn wait_for(&mut self, ordinal: u64) {
        self.publish();
        let (link, mut predicted) = (&self.link, self.predicted);
        self.stalls += u32::from(self.thread.wait(|| {
            predicted = link.progress.predicted.load(Ordering::Acquire);
            predicted > ordinal
        }));
        self.predicted = predicted;
    }

    /// Wakes the helper for a run.
    fn call(&mut self) {
        self.stalls = 0;
        self.link.phase.store(CALL, Ordering::Release);
        self.thread.unpark();
    }

    /// Whether the called helper is running.
    #[inline]
    fn ready(&self) -> bool {
        self.link.phase.load(Ordering::Acquire) == READY
    }

    /// Sends a called helper home before it took the drain side.
    fn cancel(&self) {
        self.link.phase.store(HOME, Ordering::Release);
    }

    /// Hands the ready helper `drain`: it applies this run's commands
    /// from now on.
    fn start(&self, drain: Drain) {
        *lock_clean(&self.link.handoff) = Some(drain);
        self.link.phase.store(RUN, Ordering::Release);
    }

    /// Publishes the last commands and waits until the helper has applied
    /// them and handed the drain side back.
    fn stop(&mut self) -> Drain {
        self.publish();
        self.link.phase.store(STOP, Ordering::Release);
        let link = &self.link;
        self.thread.wait(|| link.phase.load(Ordering::Acquire) == HOME);
        (self.applied, self.predicted) = (self.tail, self.sent);
        lock_clean(&self.link.handoff).take().expect("a stopped helper hands the drain side back") // lint:allow(error-typing) the helper stores it before it publishes HOME
    }
}

/// The helper's thread, seen from the pipeline's thread.
#[derive(Debug)]
struct Thread(Option<JoinHandle<()>>);

impl Thread {
    #[inline]
    fn unpark(&self) {
        if let Some(t) = &self.0 {
            t.thread().unpark();
        }
    }

    /// Waits until `ready`: spins, then yields. Re-raises a helper panic.
    /// Returns whether the wait outlasted its spins.
    fn wait(&mut self, mut ready: impl FnMut() -> bool) -> bool {
        let mut spins = 0u32;
        while !ready() {
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            match self.0.take_if(|t| t.is_finished()).map(JoinHandle::join) {
                Some(Err(panic)) => std::panic::resume_unwind(panic),
                Some(Ok(())) => panic!("the value-predictor helper exited mid-run"), // lint:allow(error-typing) the helper only returns on QUIT, which only Drop sends
                None => std::thread::yield_now(),
            }
        }
        spins == SPINS
    }
}

/// The pipeline's end of the command stream.
#[derive(Debug)]
pub(super) struct VpStream {
    gate: BlockGate,
    /// The drain side, except while a helper holds it.
    home: Option<Drain>,
    helper: Option<Helper>,
    /// Predictions rename may leave unread: the front queue's capacity.
    unread: usize,
    /// Cycles from fetch to rename.
    frontend_depth: u64,
    /// Whether a run has tried to spawn the helper: only one may.
    spawned: bool,
    /// Whether this run has called the helper and not yet handed it the
    /// drain side.
    calling: bool,
    /// Whether the current run holds a spare core.
    claimed: bool,
    /// Whether the current run took the predictor back from a stalling
    /// helper.
    reclaimed: bool,
    /// Forces a drainer (`Some(true)`: the helper, on no claimed core),
    /// for tests.
    #[cfg(test)]
    pub(super) force_helper: Option<bool>,
}

impl VpStream {
    /// The stream to `vp`, whose keyed kinds read `keys`. Rename reads an
    /// outcome `frontend_depth` cycles after fetch sent its prediction,
    /// and at most `unread` predictions later: every unread prediction
    /// sits in the front queue.
    pub(super) fn new(
        vp: BlockVp,
        gate: BlockGate,
        keys: Option<Arc<VpKeyTable>>,
        unread: usize,
        frontend_depth: u64,
    ) -> Self {
        VpStream {
            gate,
            home: Some(Drain { vp, keys }),
            helper: None,
            unread,
            frontend_depth,
            spawned: false,
            calling: false,
            claimed: false,
            reclaimed: false,
            #[cfg(test)]
            force_helper: None,
        }
    }

    /// The key table the drain side reads, between runs.
    #[cfg(test)]
    pub(super) fn keys(&self) -> Option<Arc<VpKeyTable>> {
        self.home.as_ref().and_then(|d| d.keys.clone())
    }

    /// The predictor, between runs.
    pub(super) fn home(&mut self) -> (&mut BlockVp, &mut BlockGate) {
        let drain = self.home.as_mut().expect("the predictor is home between runs"); // lint:allow(error-typing) only `run` lends it out, and takes it back before it returns
        (&mut drain.vp, &mut self.gate)
    }

    /// Starts a run that may commit up to `insts` µ-ops: calls the helper
    /// if the run is long enough and a spare core is free. The run drains
    /// inline until the helper answers, so a helper that is slow to wake,
    /// or never gets a core, costs no waiting. Only the first run that
    /// calls a helper may spawn it, so no later run allocates.
    pub(super) fn begin_run(&mut self, insts: u64) {
        self.reclaimed = false;
        if !self.wants_helper(insts) {
            return;
        }
        if !std::mem::replace(&mut self.spawned, true) {
            // A quarter of the front end's depth between publishes leaves
            // the helper the rest of it before rename reads.
            self.helper = Helper::spawn(self.unread, (self.frontend_depth / 4).max(1));
        }
        match &mut self.helper {
            Some(helper) => {
                helper.call();
                self.calling = true;
                // A forced helper is ready before the run starts, and takes
                // the drain side at the end of the run's first cycle.
                #[cfg(test)]
                if self.force_helper == Some(true) {
                    let link = Arc::clone(&helper.link);
                    helper.thread.wait(|| link.phase.load(Ordering::Acquire) == READY);
                }
            }
            None => {
                if std::mem::take(&mut self.claimed) {
                    release_spare_core();
                }
            }
        }
    }

    /// Hands the drain side to the called helper once it is running.
    #[inline]
    fn answer(&mut self) {
        if let Some(helper) = &mut self.helper {
            if helper.ready() {
                if let Some(drain) = self.home.take() {
                    helper.start(drain);
                }
                self.calling = false;
            }
        }
    }

    /// Whether a run of up to `insts` µ-ops drains on a helper: one that
    /// exists or that no run has tried to spawn yet, on a spare core it
    /// claims, unless [`BACKOFF`] skips the run. A forced drainer ignores
    /// the run's length and the backoff.
    fn wants_helper(&mut self, insts: u64) -> bool {
        let can = !self.spawned || self.helper.is_some();
        #[cfg(test)]
        if let Some(force) = self.force_helper {
            return force && can;
        }
        self.claimed = can
            && insts >= MIN_HELPER_RUN
            && !crate::paranoid()
            && BACKOFF.allows()
            && claim_spare_core();
        self.claimed
    }

    /// Ends a run: takes the predictor back once the helper has applied
    /// every command, or sends home a helper that never took it.
    pub(super) fn end_run(&mut self) {
        if self.claimed && !self.calling {
            BACKOFF.record(self.reclaimed);
        }
        if let Some(helper) = &mut self.helper {
            if std::mem::take(&mut self.calling) {
                helper.cancel();
            } else if self.home.is_none() {
                self.home = Some(helper.stop());
            }
        }
        if std::mem::take(&mut self.claimed) {
            release_spare_core();
        }
    }

    /// Sends `cmd` to the drainer of this run: the inline drainer's
    /// outcome, or the helper's ordinal for a `Predict`.
    #[inline]
    fn send(&mut self, cmd: Cmd, trace: &PreparedTrace) -> Forecast {
        match (&mut self.home, &mut self.helper) {
            (Some(drain), _) => Forecast::Ready(drain.apply(cmd, Some(trace))),
            (None, Some(helper)) => {
                helper.push(cmd);
                let ordinal = helper.sent;
                helper.sent += u64::from(matches!(cmd, Cmd::Predict { .. }));
                Forecast::Pending(ordinal)
            }
            (None, None) => unreachable!("the predictor is either home or on the helper"),
        }
    }

    /// Ends a cycle: hands the drain side to a helper that has answered
    /// the call, or publishes the commands sent so far to a draining
    /// helper once enough cycles have passed since the last publish. Out
    /// of line, so the cycle loop keeps its shape with VP off.
    #[inline(never)]
    pub(super) fn end_cycle(&mut self) {
        if self.calling {
            self.answer();
        } else if let (None, Some(helper)) = (&self.home, &mut self.helper) {
            helper.cycles += 1;
            if helper.cycles >= helper.every {
                helper.publish();
            }
        }
    }

    /// Fetch: admits the µ-op `(seq, pc)` at trace index `idx` and, if
    /// admitted, sends its `Predict`. Returns the admission and the
    /// prediction as rename will read it.
    #[inline]
    pub(super) fn predict(
        &mut self,
        cycle: u64,
        (seq, pc, idx): (u64, u64, usize),
        result: u64,
        trace: &PreparedTrace,
    ) -> (Admission, Forecast) {
        let admission = self.gate.admit(cycle, pc);
        let forecast = if admission.accepted {
            self.send(Cmd::Predict { seq, pc, idx, result }, trace)
        } else {
            Forecast::Ready(Outcome::NONE)
        };
        (admission, forecast)
    }

    /// Retire: trains the predictor with a registered µ-op's result.
    #[inline]
    pub(super) fn commit(&mut self, (seq, pc, idx): (u64, u64, usize), actual: u64, trace: &PreparedTrace) {
        self.gate.retire();
        self.send(Cmd::Commit { seq, pc, idx, actual }, trace);
    }

    /// Squash: drops the `dropped` registered µ-ops with sequence ≥
    /// `first_bad`.
    pub(super) fn squash(&mut self, first_bad: u64, dropped: usize, trace: &PreparedTrace) {
        if dropped > 0 {
            self.gate.drop_squashed(dropped);
            self.send(Cmd::Squash { first_bad, dropped }, trace);
        }
    }

    /// Functional warmup: the predict/train pair of the µ-op at `pc`,
    /// trace index `idx`, if the window admits it.
    pub(super) fn warm(&mut self, cycle: u64, (pc, idx): (u64, usize), actual: u64, trace: &PreparedTrace) {
        if self.gate.admit(cycle, pc).accepted {
            self.gate.retire();
            self.send(Cmd::Warm { pc, idx, actual }, trace);
        }
    }

    /// Whether a helper exists: only then can a prediction be pending.
    #[inline]
    pub(super) fn has_helper(&self) -> bool {
        self.helper.is_some()
    }

    /// Rename: the outcome of the helper's prediction `ordinal`, waiting
    /// for the helper to write it.
    #[inline]
    pub(super) fn outcome(&mut self, ordinal: u64) -> Outcome {
        let helper = self.helper.as_mut().expect("a pending prediction went to a helper"); // lint:allow(error-typing) only the helper drainer leaves predictions pending
        let outcome = helper.outcome(ordinal);
        if helper.stalls > STALLS && self.home.is_none() {
            self.home = Some(helper.stop());
            self.reclaimed = true;
        }
        outcome
    }
}

impl Drop for VpStream {
    fn drop(&mut self) {
        if let Some(helper) = &mut self.helper {
            helper.link.phase.store(QUIT, Ordering::SeqCst);
            helper.thread.unpark();
            if let Some(thread) = helper.thread.0.take() {
                // A panic was already re-raised in `run`, or is moot now.
                let _ = thread.join();
            }
        }
        if std::mem::take(&mut self.claimed) {
            release_spare_core();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{PreparedTrace, Simulator};
    use super::*;
    use crate::config::{CoreConfig, ValuePredictorKind};
    use crate::stats::SimStats;
    use eole_isa::{generate_trace, IntReg, ProgramBuilder};
    use eole_predictors::value::{BlockParams, LastValue};

    fn r(i: u8) -> IntReg {
        IntReg::new(i)
    }

    /// A counted loop with strided accumulators: value-predictable.
    fn strided(iters: i64) -> PreparedTrace {
        let mut b = ProgramBuilder::new();
        let (i, n, x, y) = (r(1), r(2), r(3), r(4));
        b.movi(i, 0);
        b.movi(n, iters);
        let top = b.label();
        b.bind(top);
        b.addi(x, x, 8);
        b.add(y, y, x);
        b.addi(i, i, 1);
        b.bne(i, n, top);
        b.halt();
        PreparedTrace::new(generate_trace(&b.build().unwrap(), 1_000_000).unwrap())
    }

    /// A store-to-load chain through memory: every load forwards from the
    /// store before it.
    fn memory_chain(iters: i64) -> PreparedTrace {
        let mut b = ProgramBuilder::new();
        let buf = b.alloc_zeroed(64 * 8);
        let (i, n, base, t, v) = (r(1), r(2), r(3), r(4), r(5));
        b.movi(i, 0);
        b.movi(n, iters);
        b.movi(base, buf as i64);
        let top = b.label();
        b.bind(top);
        b.andi(t, i, 63);
        b.shli(t, t, 3);
        b.add(t, base, t);
        b.ld(v, t, 0);
        b.addi(v, v, 3);
        b.st(t, 0, v);
        b.addi(i, i, 1);
        b.blt(i, n, top);
        b.halt();
        PreparedTrace::new(generate_trace(&b.build().unwrap(), 1_000_000).unwrap())
    }

    /// Data-dependent branches and a multiply chain: branch and value
    /// mispredictions, so squashes cut the speculative window.
    fn noisy(iters: i64) -> PreparedTrace {
        let mut b = ProgramBuilder::new();
        let (i, n, x, t, acc) = (r(1), r(2), r(3), r(4), r(5));
        b.movi(i, 0);
        b.movi(n, iters);
        b.movi(x, 0x1357_9bdf);
        let top = b.label();
        b.bind(top);
        b.shli(t, x, 13);
        b.xor(x, x, t);
        b.shri(t, x, 7);
        b.xor(x, x, t);
        b.andi(t, x, 3);
        let skip = b.label();
        b.beq_imm(t, 1, skip);
        b.mul(acc, acc, x);
        b.addi(acc, acc, 1);
        b.bind(skip);
        b.add(acc, acc, t);
        b.addi(i, i, 1);
        b.blt(i, n, top);
        b.halt();
        PreparedTrace::new(generate_trace(&b.build().unwrap(), 1_000_000).unwrap())
    }

    /// Every VP preset, the five non-preset VP kinds, and a D-VTAGE whose
    /// speculative window is bounded tightly enough to refuse queries.
    fn vp_configs() -> Vec<CoreConfig> {
        let mut configs: Vec<CoreConfig> =
            CoreConfig::all_presets().into_iter().filter(|c| c.vp.is_some()).collect();
        for kind in [
            ValuePredictorKind::Vtage,
            ValuePredictorKind::TwoDeltaStride,
            ValuePredictorKind::Stride,
            ValuePredictorKind::LastValue,
            ValuePredictorKind::Fcm,
        ] {
            configs.push(CoreConfig::eole_4_64().to_builder().vp_kind(kind).build().unwrap());
        }
        let bounded = CoreConfig::eole_dvtage_4_64().to_builder().vp_spec_window(Some(12));
        configs.push(bounded.build().unwrap());
        configs
    }

    /// What a drainer leaves behind: the run's counters, the warm-state
    /// bytes, and whether a prediction crossed the boundary between the
    /// two runs unread.
    fn drive(trace: &PreparedTrace, config: CoreConfig, helper: bool) -> (SimStats, Vec<u8>, bool) {
        let mut sim = Simulator::new(trace, config).unwrap();
        sim.vp.as_mut().unwrap().force_helper = Some(helper);
        sim.run(trace.len() as u64 / 3).unwrap();
        // Fetched in the first run, renamed in the second.
        let crossed = sim.front_q.iter().any(|fu| fu.pred_pending);
        sim.functional_warm(sim.cursor() + 500);
        sim.run(u64::MAX).unwrap();
        assert!(sim.finished());
        let vp = sim.vp.as_ref().unwrap();
        assert_eq!(vp.helper.is_some(), helper, "the forced drainer ran");
        (sim.stats(), sim.capture_warm().into_bytes(), crossed)
    }

    /// The inline and the helper drainer produce the same statistics and
    /// the same warm state, over three kernels, every VP preset, the
    /// non-preset kinds and a bounded window, across two runs with a
    /// functional warmup between them.
    #[test]
    fn inline_and_helper_drainers_are_equivalent() {
        let kernels = [strided(4_000), memory_chain(3_000), noisy(3_000)];
        let mut crossed = 0;
        for trace in &kernels {
            for config in vp_configs() {
                let name = config.name.clone();
                let (stats, warm, _) = drive(trace, config.clone(), false);
                let (helper_stats, helper_warm, cross) = drive(trace, config, true);
                assert_eq!(format!("{stats:?}"), format!("{helper_stats:?}"), "{name}: statistics");
                assert!(warm == helper_warm, "{name}: warm-state bytes");
                crossed += usize::from(cross);
            }
        }
        assert!(crossed > 0, "no prediction crossed a run boundary unread");
    }

    /// A steady-state run on the helper allocates nothing on the calling
    /// thread.
    #[test]
    fn helper_runs_do_not_allocate_on_the_calling_thread() {
        let trace = noisy(40_000);
        let mut sim = Simulator::new(&trace, CoreConfig::eole_4_64()).unwrap();
        sim.vp.as_mut().unwrap().force_helper = Some(true);
        sim.run(60_000).unwrap();
        let (allocs, bytes) = alloc_counter::count_allocations(|| sim.run(40_000).unwrap());
        assert!(sim.vp.as_ref().unwrap().helper.is_some());
        assert_eq!((allocs, bytes), (0, 0));
    }

    /// A run too short to pay for a helper's hand-over drains inline and
    /// spawns no helper, spare core or not: one that may commit fewer
    /// than `MIN_HELPER_RUN` µ-ops, or one that asks for more than the
    /// trace has left.
    #[test]
    fn a_short_run_spawns_no_helper() {
        let trace = noisy(40_000);
        let mut sim = Simulator::new(&trace, CoreConfig::eole_4_64()).unwrap();
        sim.run_exact(MIN_HELPER_RUN - 1).unwrap();
        assert!(trace.len() > 3 * MIN_HELPER_RUN as usize);
        sim.functional_warm(trace.len() - MIN_HELPER_RUN as usize + 1);
        sim.run(u64::MAX).unwrap();
        assert!(sim.finished());
        let vp = sim.vp.as_ref().unwrap();
        assert!(vp.helper.is_none() && !vp.spawned && !vp.claimed);
    }

    /// Dropping the simulator stops and joins its helper: the helper's
    /// end of the link is gone with it.
    #[test]
    fn no_helper_outlives_its_simulator() {
        let trace = strided(2_000);
        let mut sim = Simulator::new(&trace, CoreConfig::eole_4_64()).unwrap();
        sim.vp.as_mut().unwrap().force_helper = Some(true);
        sim.run(1_000).unwrap();
        let link = Arc::downgrade(&sim.vp.as_ref().unwrap().helper.as_ref().unwrap().link);
        drop(sim);
        assert!(link.upgrade().is_none(), "the helper still holds its link");
    }

    /// A panic on the helper re-panics on the pipeline's thread when it
    /// next waits on the helper.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn helper_panics_re_panic_in_the_run() {
        let trace = strided(100);
        let params = BlockParams::default();
        let vp = BlockVp::new(LastValue::new(64, 1).into(), params, 8, 4);
        let mut stream = VpStream::new(vp, BlockGate::new(params), None, 8, 15);
        stream.force_helper = Some(true);
        stream.begin_run(MIN_HELPER_RUN);
        stream.end_cycle();
        // Past the 4 static µ-ops the window's index covers.
        stream.predict(0, (0, 4 * 64, 0), 0, &trace);
        stream.end_run();
    }

    /// A run whose helper keeps the pipeline waiting takes the predictor
    /// back mid-run and drains the rest inline, with the same outcomes as
    /// a stream drained inline throughout.
    #[test]
    fn a_stalling_helper_hands_the_predictor_back_mid_run() {
        let trace = strided(100);
        let params = BlockParams::default();
        let stream = |helper: bool| {
            let vp = BlockVp::new(LastValue::new(64, 1).into(), params, 64, 8);
            let mut stream = VpStream::new(vp, BlockGate::new(params), None, 64, 15);
            stream.force_helper = Some(helper);
            stream.begin_run(MIN_HELPER_RUN);
            stream.end_cycle();
            stream
        };
        let (mut inline, mut helped) = (stream(false), stream(true));
        let read = |s: &mut VpStream, seq: u64| match s.predict(seq, (seq, 4 * (seq % 8), 0), seq / 3, &trace).1 {
            Forecast::Ready(outcome) => outcome,
            Forecast::Pending(ordinal) => s.outcome(ordinal),
        };
        for seq in 0..40 {
            if seq == 20 {
                assert!(helped.home.is_none(), "the helper drains");
                helped.helper.as_mut().unwrap().stalls = STALLS + 1;
            }
            assert_eq!(read(&mut inline, seq), read(&mut helped, seq), "µ-op {seq}");
        }
        assert!(helped.home.is_some() && helped.reclaimed, "the predictor came back");
        inline.end_run();
        helped.end_run();
    }

    /// Each reclaim doubles the helper runs the next one skips, up to
    /// `MAX_SKIP`; a run that keeps its helper resets the doubling.
    #[test]
    fn reclaims_back_off_helper_runs() {
        let backoff = Backoff::new();
        // How many runs in a row are refused a helper from here on.
        let refused = |b: &Backoff| (0..).take_while(|_| !b.allows()).count();
        assert_eq!(refused(&backoff), 0);
        for skip in [1, 2, 4, 8, 16, 32, 64, 64] {
            backoff.record(true);
            assert_eq!(refused(&backoff), skip);
        }
        backoff.record(false);
        backoff.record(true);
        assert_eq!(refused(&backoff), 1);
    }

    #[test]
    fn commands_round_trip_through_their_words() {
        for cmd in [
            Cmd::Predict { seq: u64::MAX >> 1, pc: (1 << 30) - 4, idx: u32::MAX as usize, result: u64::MAX },
            Cmd::Commit { seq: 7, pc: 0x40, idx: 9, actual: 0 },
            Cmd::Warm { pc: 4, idx: 0, actual: 1 << 63 },
            Cmd::Squash { first_bad: 12, dropped: 3 },
        ] {
            assert_eq!(Cmd::decode(cmd.encode()), cmd);
        }
    }
}
