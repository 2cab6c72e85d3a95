//! The spec layer: *describing* runs, separately from executing them.
//!
//! A [`RunSpec`] is one point of the evaluation grid — (configuration,
//! workload, methodology, seed) — and a [`Grid`] enumerates the
//! cross-product the way the paper's §5–§6 evaluation is structured
//! (configurations × workloads, optionally × seeds for replication).
//! Execution is a separate concern: hand the grid to
//! [`Session::run`](crate::Session::run).

use eole_core::config::CoreConfig;
use eole_workloads::{all_workloads, workload_by_name, Workload};

use crate::Runner;

/// The quick-suite configurations of `sim-throughput` and the interval
/// tests: the paper's reference points plus the most window-hungry EOLE
/// variant (banked PRF + port budgets).
pub fn quick_suite_configs() -> Vec<CoreConfig> {
    vec![
        CoreConfig::baseline_6_64(),
        CoreConfig::baseline_vp_6_64(),
        CoreConfig::eole_6_64(),
        CoreConfig::eole_4_64_ports(4, 4),
    ]
}

/// The quick-suite workloads: an INT/FP/memory-bound spread (gzip's tight
/// loops, h264's branchy SAD, mcf's DRAM-bound pointer chase, namd's FP
/// kernels, hmmer's high-IPC dynamic programming).
pub const QUICK_SUITE_WORKLOADS: [&str; 5] = ["gzip", "h264", "mcf", "namd", "hmmer"];

/// One fully-described simulation run: a single cell of the evaluation
/// grid. Value type — building a spec performs no work.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Core configuration to simulate.
    pub config: CoreConfig,
    /// Workload whose trace drives the run.
    pub workload: Workload,
    /// Warmup/measure methodology.
    pub runner: Runner,
    /// Replication seed; `0` means "the paper's seeds, unperturbed".
    pub seed: u64,
}

impl RunSpec {
    /// The trace-cache key: runs agreeing on workload and trace length
    /// share one prepared trace regardless of configuration. Delegates
    /// to the single key definition the [`crate::TraceCache`] uses.
    /// Borrowed (`&'static str` workload name) — building a key costs no
    /// allocation, so cache probes stay off the heap.
    pub fn trace_key(&self) -> crate::exec::TraceKey {
        crate::exec::trace_key(&self.workload, &self.runner)
    }

    /// The canonical run identity (configuration digest + workload +
    /// methodology + seed + simulator version) — what the
    /// [`crate::store::ResultStore`] keys on.
    pub fn run_key(&self) -> crate::store::RunKey {
        crate::store::RunKey::of(self)
    }

    /// The configuration with this spec's seed mixed into the stochastic
    /// components (TAGE allocation, FPC counters). Seed `0` leaves the
    /// preset seeds untouched so single-seed grids reproduce the paper
    /// tables bit-for-bit.
    pub fn effective_config(&self) -> CoreConfig {
        let mut c = self.config.clone();
        if self.seed != 0 {
            let mix = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            c.branch_seed ^= mix;
            if let Some(vp) = c.vp.as_mut() {
                vp.seed ^= mix;
            }
        }
        c
    }

    /// A short human label (`"EOLE_4_64/h264"`, with `#seed` when
    /// replicated).
    pub fn label(&self) -> String {
        if self.seed == 0 {
            format!("{}/{}", self.config.name, self.workload.name)
        } else {
            format!("{}/{}#{}", self.config.name, self.workload.name, self.seed)
        }
    }
}

/// Builder for the configurations × workloads × seeds cross-product.
///
/// Enumeration order is fixed and documented: **workload-major** (Table 3
/// suite order), then configuration (insertion order), then seed — so all
/// runs sharing a prepared trace are adjacent, and per-workload report
/// rows read straight out of the result vector.
///
/// ```
/// use eole_bench::{Grid, Runner};
/// use eole_core::config::CoreConfig;
///
/// let grid = Grid::new()
///     .runner(Runner::quick())
///     .configs([CoreConfig::baseline_vp_6_64(), CoreConfig::eole_4_64()])
///     .workload_names(&["gzip", "namd"]);
/// assert_eq!(grid.len(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct Grid {
    configs: Vec<CoreConfig>,
    workloads: Vec<Workload>,
    seeds: Vec<u64>,
    runner: Runner,
}

impl Default for Grid {
    fn default() -> Self {
        Self::new()
    }
}

impl Grid {
    /// An empty grid with the default [`Runner`] and the single
    /// unperturbed seed `0`.
    pub fn new() -> Self {
        Grid {
            configs: Vec::new(),
            workloads: Vec::new(),
            seeds: vec![0],
            runner: Runner::default(),
        }
    }

    /// Sets the warmup/measure methodology for every run.
    #[must_use]
    pub fn runner(mut self, runner: Runner) -> Self {
        self.runner = runner;
        self
    }

    /// Appends one configuration.
    #[must_use]
    pub fn config(mut self, config: CoreConfig) -> Self {
        self.configs.push(config);
        self
    }

    /// Appends configurations in order.
    #[must_use]
    pub fn configs(mut self, configs: impl IntoIterator<Item = CoreConfig>) -> Self {
        self.configs.extend(configs);
        self
    }

    /// Appends one workload.
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workloads.push(workload);
        self
    }

    /// Appends workloads in order.
    #[must_use]
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = Workload>) -> Self {
        self.workloads.extend(workloads);
        self
    }

    /// Appends registry workloads by name.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the Table 3 registry — a harness
    /// authoring error.
    #[must_use]
    pub fn workload_names(mut self, names: &[&str]) -> Self {
        for name in names {
            let w = workload_by_name(name)
                .unwrap_or_else(|| panic!("unknown workload {name} (not in Table 3)")); // lint:allow(error-typing) documented `# Panics`: unknown registry name is a harness authoring error
            self.workloads.push(w);
        }
        self
    }

    /// Appends the full 19-workload Table 3 suite.
    #[must_use]
    pub fn all_workloads(mut self) -> Self {
        self.workloads.extend(all_workloads());
        self
    }

    /// Replaces the seed list (replication axis). An empty list is
    /// normalized back to the single unperturbed seed.
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        if self.seeds.is_empty() {
            self.seeds.push(0);
        }
        self
    }

    /// The methodology shared by every run.
    pub fn runner_spec(&self) -> Runner {
        self.runner
    }

    /// Configurations, in insertion order.
    pub fn config_list(&self) -> &[CoreConfig] {
        &self.configs
    }

    /// Workloads, in insertion order.
    pub fn workload_list(&self) -> &[Workload] {
        &self.workloads
    }

    /// Total number of runs (the cross-product size).
    pub fn len(&self) -> usize {
        self.configs.len() * self.workloads.len() * self.seeds.len()
    }

    /// True when the grid enumerates no runs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the cross-product: for each workload, for each
    /// configuration, for each seed.
    pub fn specs(&self) -> Vec<RunSpec> {
        let mut out = Vec::with_capacity(self.len());
        for w in &self.workloads {
            for c in &self.configs {
                for &seed in &self.seeds {
                    out.push(RunSpec {
                        config: c.clone(),
                        workload: w.clone(),
                        runner: self.runner,
                        seed,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_enumerates_the_cross_product_workload_major() {
        let grid = Grid::new()
            .runner(Runner::quick())
            .configs([CoreConfig::baseline_6_64(), CoreConfig::eole_4_64()])
            .workload_names(&["gzip", "namd", "mcf"])
            .seeds([0, 1]);
        assert_eq!(grid.len(), 2 * 3 * 2);
        let specs = grid.specs();
        assert_eq!(specs.len(), 12);
        // Workload-major, then config, then seed.
        let key: Vec<(String, String, u64)> = specs
            .iter()
            .map(|s| (s.workload.name.to_string(), s.config.name.clone(), s.seed))
            .collect();
        assert_eq!(key[0], ("gzip".into(), "Baseline_6_64".into(), 0));
        assert_eq!(key[1], ("gzip".into(), "Baseline_6_64".into(), 1));
        assert_eq!(key[2], ("gzip".into(), "EOLE_4_64".into(), 0));
        assert_eq!(key[4], ("namd".into(), "Baseline_6_64".into(), 0));
        assert_eq!(key[11], ("mcf".into(), "EOLE_4_64".into(), 1));
    }

    #[test]
    fn empty_axes_make_an_empty_grid() {
        let grid = Grid::new().workload_names(&["gzip"]);
        assert!(grid.is_empty(), "no configs -> no runs");
        assert_eq!(Grid::new().config(CoreConfig::baseline_6_64()).len(), 0);
    }

    #[test]
    fn default_seed_axis_is_the_unperturbed_seed() {
        let grid = Grid::new()
            .config(CoreConfig::baseline_6_64())
            .workload_names(&["gzip"]);
        let specs = grid.specs();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].seed, 0);
        // Seed 0 leaves preset seeds untouched.
        let eff = specs[0].effective_config();
        assert_eq!(eff.branch_seed, CoreConfig::baseline_6_64().branch_seed);
        // Empty seed lists normalize back to [0].
        assert_eq!(Grid::new().seeds([]).config(CoreConfig::baseline_6_64()).workload_names(&["gzip"]).len(), 1);
    }

    #[test]
    fn nonzero_seeds_perturb_the_stochastic_components() {
        let grid = Grid::new()
            .config(CoreConfig::baseline_vp_6_64())
            .workload_names(&["gzip"])
            .seeds([7]);
        let eff = grid.specs()[0].effective_config();
        let base = CoreConfig::baseline_vp_6_64();
        assert_ne!(eff.branch_seed, base.branch_seed);
        assert_ne!(eff.vp.unwrap().seed, base.vp.unwrap().seed);
        // Only seeds change — the microarchitecture does not.
        assert_eq!(eff.issue_width, base.issue_width);
    }

    #[test]
    fn trace_key_ignores_configuration() {
        let grid = Grid::new()
            .configs([CoreConfig::baseline_6_64(), CoreConfig::eole_4_64()])
            .workload_names(&["gzip"]);
        let specs = grid.specs();
        assert_eq!(specs[0].trace_key(), specs[1].trace_key());
        assert_eq!(specs[0].label(), "Baseline_6_64/gzip");
    }
}
