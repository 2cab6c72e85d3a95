//! The plan layer: deterministically partitioning a [`Grid`] across
//! processes.
//!
//! A [`Shard`] names one slice of a partition (`--shard k/n` on the CLI);
//! ownership of a run is a pure function of its [`RunKey`] digest, so
//!
//! * the partition is **deterministic** — independent of thread counts,
//!   scheduling, or which process asks;
//! * the shards are **disjoint** and their union is the whole grid;
//! * a run owned by shard `k` in one experiment's grid is owned by shard
//!   `k` in *every* grid — shared cells (e.g. the `Baseline_VP_6_64`
//!   reference runs that several figures reuse) are simulated by exactly
//!   one shard and served to the rest through the
//!   [`ResultStore`](crate::store::ResultStore).
//!
//! Merging is the store read-back: after every shard's populate pass,
//! an unsharded session over the same store serves the whole grid in
//! grid order without simulating.
//!
//! [`Grid`]: crate::spec::Grid

use crate::spec::RunSpec;
use crate::store::RunKey;

/// One slice of an `n`-way partition (1-based, like the CLI flag).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Shard {
    index: usize,
    count: usize,
}

impl Shard {
    /// Shard `index` of `count` (both 1-based; `index ≤ count`).
    ///
    /// # Errors
    ///
    /// A rendered description when the pair is out of range.
    pub fn new(index: usize, count: usize) -> Result<Shard, String> {
        if count == 0 {
            return Err("shard count must be ≥ 1".into());
        }
        if index == 0 || index > count {
            return Err(format!("shard index {index} out of range 1..={count}"));
        }
        Ok(Shard { index, count })
    }

    /// Parses the CLI form `"k/n"`.
    ///
    /// # Errors
    ///
    /// A rendered description of the malformation.
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (k, n) = s.split_once('/').ok_or_else(|| format!("`{s}`: expected K/N"))?;
        let index = k.trim().parse().map_err(|_| format!("`{s}`: bad shard index"))?;
        let count = n.trim().parse().map_err(|_| format!("`{s}`: bad shard count"))?;
        Shard::new(index, count)
    }

    /// The whole grid as a single shard (`1/1`).
    pub fn full() -> Shard {
        Shard { index: 1, count: 1 }
    }

    /// True for the trivial `1/1` partition.
    pub fn is_full(&self) -> bool {
        self.count == 1
    }

    /// 1-based slice index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total number of slices.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether this shard owns the run identified by `key` — a pure
    /// function of the key digest, identical in every process.
    pub fn owns(&self, key: &RunKey) -> bool {
        key.digest64() % self.count as u64 == (self.index - 1) as u64
    }

    /// Whether this shard owns `spec` (derives the key).
    pub fn owns_spec(&self, spec: &RunSpec) -> bool {
        self.owns(&RunKey::of(spec))
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Grid;
    use crate::Runner;
    use eole_core::config::CoreConfig;

    fn grid() -> Grid {
        Grid::new()
            .runner(Runner::quick())
            .configs([
                CoreConfig::baseline_6_64(),
                CoreConfig::baseline_vp_6_64(),
                CoreConfig::eole_4_64(),
            ])
            .workload_names(&["gzip", "namd", "mcf", "hmmer"])
            .seeds([0, 1])
    }

    #[test]
    fn shard_parse_round_trips_and_rejects_garbage() {
        let s = Shard::parse("2/4").unwrap();
        assert_eq!((s.index(), s.count()), (2, 4));
        assert_eq!(s.to_string(), "2/4");
        assert!(!s.is_full());
        assert!(Shard::parse("1/1").unwrap().is_full());
        for bad in ["", "3", "0/2", "3/2", "a/b", "1/0"] {
            assert!(Shard::parse(bad).is_err(), "{bad}");
        }
    }

    /// Shard `index` of `count`'s cells of `grid`, in grid order.
    fn owned(grid: &Grid, index: usize, count: usize) -> Vec<String> {
        let shard = Shard::new(index, count).unwrap();
        grid.specs().iter().filter(|s| shard.owns_spec(s)).map(RunSpec::label).collect()
    }

    #[test]
    fn shards_tile_the_grid_disjointly() {
        let g = grid();
        let mut all: Vec<String> = g.specs().iter().map(RunSpec::label).collect();
        all.sort();
        for n in [1usize, 2, 3, 5, 7] {
            let mut union: Vec<String> = (1..=n).flat_map(|k| owned(&g, k, n)).collect();
            assert_eq!(union.len(), all.len(), "n={n}: union covers the grid exactly once");
            union.sort();
            assert_eq!(union, all, "n={n}");
        }
    }

    #[test]
    fn partition_is_deterministic_across_plans() {
        // Two independently built grids partition identically.
        for k in 1..=3 {
            assert_eq!(owned(&grid(), k, 3), owned(&grid(), k, 3));
        }
    }

    #[test]
    fn ownership_is_grid_independent() {
        // The same spec must land on the same shard regardless of which
        // grid it appears in — the property that lets shards share cells
        // across experiments through the store.
        let small = Grid::new()
            .runner(Runner::quick())
            .config(CoreConfig::baseline_vp_6_64())
            .workload_names(&["gzip"]);
        let spec = &small.specs()[0];
        for n in [2usize, 3, 4] {
            let owners: Vec<usize> = (1..=n)
                .filter(|&k| Shard::new(k, n).unwrap().owns_spec(spec))
                .collect();
            assert_eq!(owners.len(), 1, "exactly one owner for n={n}");
        }
    }
}
