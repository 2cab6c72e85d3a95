//! Steady-state zero-allocation enforcement for the hot loop.
//!
//! `Simulator::step` must perform **no heap allocation after warmup** —
//! the contract behind the flat-window refactor (see `PERF.md`). The
//! `alloc-counter` compat shim is installed as this test binary's global
//! allocator; its counters are per thread, so the `#[test]`s here do not
//! observe each other (or the test harness) allocating.
//!
//! Warmup brings the caches and predictors to steady state and fills the
//! prefetch scratch to its degree. Every structure is sized at
//! construction, so after warmup a cycle — commit, issue, dispatch, fetch,
//! squash recovery included — must run entirely out of the pre-sized
//! rings and scratch buffers.

use alloc_counter::{count_allocations, CountingAllocator};
use eole_core::config::CoreConfig;
use eole_core::pipeline::{PreparedTrace, Simulator};
use eole_isa::{generate_trace, IntReg, ProgramBuilder};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn r(i: u8) -> IntReg {
    IntReg::new(i)
}

/// A kernel that exercises every window structure from a small static
/// footprint: strided loads and stores (LQ/SQ, store-to-load forwarding,
/// store sets), a multiply chain (unpipelined-FU arbitration), data-
/// dependent branches (mispredicts → squash recovery), and VP-friendly
/// ALU µ-ops. Every static pc appears in the first iteration, so the
/// warmup window meets the full working set.
fn hot_loop_trace(iters: i64) -> PreparedTrace {
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_zeroed(64 * 8);
    let (i, n, base, x, y, t) = (r(1), r(2), r(3), r(4), r(5), r(6));
    b.movi(i, 0);
    b.movi(n, iters);
    b.movi(base, buf as i64);
    b.movi(x, 0x1357_9bdf);
    let top = b.label();
    b.bind(top);
    // Pointer-ish memory traffic over a 64-slot ring.
    b.andi(t, i, 63);
    b.shli(t, t, 3);
    b.add(t, base, t);
    b.st(t, 0, x);
    b.ld(y, t, 0); // forwarded from the store
    // Serial multiply chain (3-cycle FU, keeps the IQ occupied).
    b.mul(x, x, x);
    b.addi(x, x, 7);
    // Data-dependent branch: taken on a pseudo-random half of the
    // iterations — a steady diet of mispredict squashes.
    b.andi(t, y, 1);
    let skip = b.label();
    b.beq_imm(t, 1, skip);
    b.xori(x, x, 0x55);
    b.bind(skip);
    b.addi(i, i, 1);
    b.blt(i, n, top);
    b.halt();
    PreparedTrace::new(generate_trace(&b.build().unwrap(), 2_000_000).unwrap())
}

/// A memory-bound kernel: every iteration loads one pseudo-random line of
/// an 8 MiB buffer (four times the L2), so the loads miss to DRAM, and
/// their consumers wait in the issue stage — parked on the load's
/// register, woken at its issue, re-queued in age order — for hundreds
/// of cycles. The addresses come from a multiply chain, not from earlier
/// loads, so many misses are in flight at once.
fn dram_miss_trace(iters: i64) -> PreparedTrace {
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_zeroed(8 << 20);
    let (i, n, base, x, k, t, y, sum) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8));
    b.movi(i, 0);
    b.movi(n, iters);
    b.movi(base, buf as i64);
    b.movi(x, 0x2545_f491);
    b.movi(k, 0x5851_f42d_4c95_7f2d);
    let top = b.label();
    b.bind(top);
    b.mul(x, x, k);
    b.addi(x, x, 0x1405_7b7e_f767_814f);
    b.shri(t, x, 40);
    b.andi(t, t, (1 << 17) - 1); // 128 Ki lines of 64 B
    b.shli(t, t, 6);
    b.add(t, base, t);
    b.ld(y, t, 0);
    b.add(sum, sum, y);
    b.addi(i, i, 1);
    b.blt(i, n, top);
    b.halt();
    PreparedTrace::new(generate_trace(&b.build().unwrap(), 2_000_000).unwrap())
}

/// Warm the simulator, then assert that steady-state stepping allocates
/// nothing at all.
fn assert_zero_alloc_steady_state(config: CoreConfig) {
    assert_zero_alloc_steady_state_on(&hot_loop_trace(100_000), config);
}

fn assert_zero_alloc_steady_state_on(trace: &PreparedTrace, config: CoreConfig) {
    let name = config.name.clone();
    let mut sim = Simulator::new(trace, config).expect("preset is valid");
    // Warmup: caches, predictors, high-water marks (runs through the
    // production `run` path so its one-time lazy state initializes too).
    sim.run(60_000).expect("warmup");
    let committed_before = sim.committed_total();
    let (allocs, bytes) = count_allocations(|| {
        sim.run(40_000).expect("steady state");
    });
    assert!(
        sim.committed_total() >= committed_before + 40_000,
        "{name}: steady-state window must actually retire µ-ops"
    );
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "{name}: step() allocated in steady state ({allocs} allocations, {bytes} bytes)"
    );
}

#[test]
fn baseline_steps_without_allocating() {
    assert_zero_alloc_steady_state(CoreConfig::baseline_6_64());
}

/// Loads that miss to DRAM keep the issue stage's wakeup path busy:
/// consumers park on the load's register, wake at its issue and re-enter
/// the queue, all out of storage sized at construction.
#[test]
fn dram_miss_wakeups_do_not_allocate() {
    let trace = dram_miss_trace(20_000);
    let mut sim = Simulator::new(&trace, CoreConfig::baseline_6_64()).unwrap();
    sim.run(60_000).expect("warmup");
    let dram_before = sim.stats().mem.dram.accesses;
    let (allocs, bytes) = count_allocations(|| {
        sim.run(40_000).expect("steady state");
    });
    let misses = sim.stats().mem.dram.accesses - dram_before;
    assert!(misses > 2_000, "the loads must miss to DRAM ({misses} DRAM accesses)");
    assert_eq!((allocs, bytes), (0, 0), "the parked-wakeup path allocated");
}

#[test]
fn vp_pipeline_steps_without_allocating() {
    assert_zero_alloc_steady_state(CoreConfig::baseline_vp_6_64());
}

#[test]
fn eole_pipeline_steps_without_allocating() {
    assert_zero_alloc_steady_state(CoreConfig::eole_6_64());
}

/// The block-based D-VTAGE front (BeBoP blocks, banked tables, bounded
/// speculative window) runs out of pre-sized structures too: window
/// registration, speculative-last lookup, commit training, and window
/// rollback are all allocation-free.
#[test]
fn dvtage_block_pipeline_steps_without_allocating() {
    assert_zero_alloc_steady_state(CoreConfig::baseline_dvtage_6_64());
}

#[test]
fn banked_port_limited_eole_steps_without_allocating() {
    assert_zero_alloc_steady_state(CoreConfig::eole_4_64_ports(4, 4));
}

/// A tight speculative-window bound keeps the window pinned at its cap:
/// every cycle mixes accepted registrations, full-window refusals, and
/// index restores on squash. The window's per-static-µ-op index is
/// allocated at construction, so none of that churn — insert,
/// shadow-restore, remove — may ever allocate.
#[test]
fn tight_spec_window_churn_does_not_allocate() {
    let config = CoreConfig::baseline_dvtage_6_64().to_builder().vp_spec_window(Some(8)).build();
    assert_zero_alloc_steady_state(config.expect("bounded window of 8 is valid"));
}

/// Squash recovery (the heaviest non-steady path: ROB walk, queue purges,
/// window rollback, cursor rewind) is also allocation-free.
#[test]
fn squash_storms_do_not_allocate() {
    let trace = hot_loop_trace(100_000);
    let mut sim = Simulator::new(&trace, CoreConfig::baseline_vp_6_64()).unwrap();
    sim.run(60_000).expect("warmup");
    let squashed_before = sim.stats().squashed;
    let mut squashed_after = 0;
    let (allocs, bytes) = count_allocations(|| {
        sim.run(40_000).expect("steady state");
        squashed_after = sim.stats().squashed;
    });
    assert!(
        squashed_after > squashed_before,
        "the kernel's coin-flip branch must cause squashes in the window"
    );
    assert_eq!((allocs, bytes), (0, 0), "squash recovery allocated");
}

/// Steady-state trace-cache probes are allocation-free: the cache key is
/// the borrowed `(&'static str, u64)` pair (`Workload::name` is static),
/// so after the one-time generation a `get_or_prepare` per run costs a
/// hash lookup and an `Arc` bump — no `String` per probe. Guards the
/// session's per-run lookup path the same way the tests above guard the
/// simulator's per-cycle path.
#[test]
fn trace_cache_probes_do_not_allocate() {
    use eole_bench::{Runner, TraceCache};
    let cache = TraceCache::new();
    let runner = Runner::quick();
    let w = eole_workloads::workload_by_name("gzip").unwrap();
    // One-time generation: allocates (trace buffers, cache slot).
    cache.get_or_prepare(&w, &runner).unwrap();
    let (allocs, bytes) = count_allocations(|| {
        for _ in 0..1_000 {
            let trace = cache.get_or_prepare(&w, &runner).unwrap();
            std::hint::black_box(&trace);
        }
    });
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "steady-state cache probes allocated ({allocs} allocations, {bytes} bytes)"
    );
    assert_eq!(cache.generated(), 1);
    assert_eq!(cache.hits(), 1_000);
}

/// Statistics snapshots are `Copy` — sampling them from a driver loop
/// costs no heap traffic either.
#[test]
fn stats_snapshots_do_not_allocate() {
    let trace = hot_loop_trace(20_000);
    let mut sim = Simulator::new(&trace, CoreConfig::eole_6_64()).unwrap();
    sim.run(30_000).expect("warmup");
    let (allocs, _) = count_allocations(|| {
        let mut acc = 0u64;
        for _ in 0..1_000 {
            let s = sim.stats();
            acc = acc.wrapping_add(s.cycles).wrapping_add(s.mem.l1d.accesses);
        }
        std::hint::black_box(acc);
    });
    assert_eq!(allocs, 0, "Simulator::stats() must not clone heap state");
}
