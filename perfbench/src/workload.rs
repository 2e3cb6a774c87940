//! The benchmark's workloads: a seeded experiment spec per workload plus
//! the executor layout it runs on.
//!
//! Every workload is a closed batch: one process runs one certified
//! matrix after another, each starting when the previous one is done.

use nn_lab::{named_matrix, AdversarySpec, CellTuning, ExperimentSpec, LinkProfileSpec, StackKind};

/// Seed-axis values the committed reference covers. `--seed n` selects
/// value `1 + n % REFERENCE_SEEDS`, so every run's output is checked
/// against a stored reference.
pub const REFERENCE_SEEDS: u64 = 32;

/// How a workload's cells are spread over the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One shard on the in-process `ThreadExecutor` with this many threads.
    Threads(usize),
    /// `ProcessExecutor` with this many one-thread worker children.
    Workers(usize),
}

impl Layout {
    /// Shards in the plan.
    pub fn shards(self) -> usize {
        match self {
            Layout::Threads(_) => 1,
            Layout::Workers(n) => n,
        }
    }

    /// Threads running cells within one shard.
    pub fn threads_per_shard(self) -> usize {
        match self {
            Layout::Threads(n) => n,
            Layout::Workers(_) => 1,
        }
    }

    /// Cells that can run at once.
    pub fn parallelism(self) -> usize {
        self.shards() * self.threads_per_shard()
    }
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Which spec it runs; workloads of one family must produce the same
    /// report bytes.
    pub family: &'static str,
    /// Executor layout.
    pub layout: Layout,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mixed",
        family: "mixed",
        layout: Layout::Threads(2),
    },
    Workload {
        name: "mixed-sharded",
        family: "mixed",
        layout: Layout::Workers(2),
    },
    Workload {
        name: "paper-neutralized",
        family: "paper-neutralized",
        layout: Layout::Threads(2),
    },
    Workload {
        name: "paper-plain",
        family: "paper-plain",
        layout: Layout::Threads(2),
    },
];

/// Spec families with a committed reference.
pub const FAMILIES: [&str; 3] = ["mixed", "paper-neutralized", "paper-plain"];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seed-axis value `--seed` selects, in `1..=REFERENCE_SEEDS`.
pub fn seed_axis(seed: u64) -> u64 {
    1 + seed % REFERENCE_SEEDS
}

/// The spec of `family` at seed-axis value `s` (`1..=REFERENCE_SEEDS`).
///
/// * `mixed` is the named `full` matrix on its clean link, with the
///   adversaries of the paper's claim (none, content DPI, port blocking,
///   address dropping), at seed axis `[s]`: every topology, workload and
///   stack of `full`, 128 `CellTuning::fast()` cells and a ~110 KB report,
///   so a run certifies dozens of reports.
/// * `paper-*` span `full`'s topologies and workloads, with and without
///   content DPI, on one stack, at paper-scale tuning (2 s schedules,
///   512-bit RSA), seed axis `[s]`. Thirty-two cells keep each report
///   small, so cells dominate its wall time.
pub fn family_spec(family: &str, s: u64) -> Option<ExperimentSpec> {
    let mut spec = named_matrix("full").expect("the full matrix is named");
    match family {
        "mixed" => {
            spec.name = family.to_string();
            spec.links = vec![LinkProfileSpec::Clean];
            spec.adversaries = paper_claim_adversaries();
            spec.seeds = vec![s];
        }
        "paper-neutralized" | "paper-plain" => {
            let stack = if family == "paper-plain" {
                StackKind::Plain
            } else {
                StackKind::Neutralized
            };
            spec.name = family.to_string();
            spec.links = vec![LinkProfileSpec::Clean];
            spec.adversaries = vec![AdversarySpec::None, AdversarySpec::content_dpi_default()];
            spec.stacks = vec![stack];
            spec.seeds = vec![s];
            spec.tuning = CellTuning::default();
        }
        _ => return None,
    }
    Some(spec)
}

/// No adversary, and the three discriminations the paper claims a
/// neutralizer defeats: by content, by port and by address.
fn paper_claim_adversaries() -> Vec<AdversarySpec> {
    vec![
        AdversarySpec::None,
        AdversarySpec::content_dpi_default(),
        AdversarySpec::PortBlock,
        AdversarySpec::address_drop_default(),
    ]
}

/// The `--matrix` argument a worker child gets: `family@s`.
pub fn worker_matrix_arg(family: &str, s: u64) -> String {
    format!("{family}@{s}")
}

/// Resolves a worker's `--matrix family@s` argument back to its spec.
pub fn parse_worker_matrix_arg(arg: &str) -> Option<ExperimentSpec> {
    let (family, s) = arg.split_once('@')?;
    let s: u64 = s.parse().ok()?;
    if !(1..=REFERENCE_SEEDS).contains(&s) {
        return None;
    }
    family_spec(family, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every axis except the seed axis, by name.
    fn axes(spec: &ExperimentSpec) -> String {
        format!(
            "{} {:?} {:?} {:?} {:?} {:?} {:?} {} {:?}",
            spec.name,
            spec.topologies,
            spec.links,
            spec.workloads,
            spec.adversaries,
            spec.stacks,
            spec.events,
            spec.probes,
            spec.tuning
        )
    }

    fn cell_seeds(spec: &ExperimentSpec) -> Vec<u64> {
        spec.iter_cells().map(|c| c.cell.seed).collect()
    }

    #[test]
    fn same_seed_gives_identical_specs_and_cell_seeds() {
        for family in FAMILIES {
            let a = family_spec(family, seed_axis(7)).unwrap();
            let b = family_spec(family, seed_axis(7)).unwrap();
            assert_eq!(axes(&a), axes(&b));
            assert_eq!(a.seeds, b.seeds);
            assert_eq!(cell_seeds(&a), cell_seeds(&b));
        }
    }

    #[test]
    fn another_seed_changes_only_the_seed_axis() {
        for family in FAMILIES {
            let a = family_spec(family, seed_axis(7)).unwrap();
            let b = family_spec(family, seed_axis(8)).unwrap();
            assert_eq!(axes(&a), axes(&b));
            assert_ne!(a.seeds, b.seeds);
            assert_eq!(a.cell_count(), b.cell_count());
            let (sa, sb) = (cell_seeds(&a), cell_seeds(&b));
            assert!(sa.iter().zip(&sb).all(|(x, y)| x != y));
        }
    }

    #[test]
    fn mixed_is_a_slice_of_the_named_full_matrix() {
        let mut own = named_matrix("full").unwrap();
        own.name = "mixed".to_string();
        own.links = vec![LinkProfileSpec::Clean];
        own.adversaries
            .retain(|a| paper_claim_adversaries().contains(a));
        let spec = family_spec("mixed", 1).unwrap();
        assert_eq!(axes(&spec), axes(&own));
        assert_eq!(spec.seeds, vec![1]);
        assert_eq!(spec.cell_count(), 128);
        assert_eq!(seed_axis(0), 1);
    }

    #[test]
    fn workers_resolve_the_parent_spec() {
        let arg = worker_matrix_arg("mixed", 5);
        let spec = parse_worker_matrix_arg(&arg).unwrap();
        assert_eq!(
            cell_seeds(&spec),
            cell_seeds(&family_spec("mixed", 5).unwrap())
        );
        assert!(parse_worker_matrix_arg("mixed@0").is_none());
        assert!(parse_worker_matrix_arg("nope@1").is_none());
        assert!(parse_worker_matrix_arg("mixed").is_none());
        assert!(parse_worker_matrix_arg("full@1").is_none());
    }

    #[test]
    fn workload_families_have_specs() {
        for w in WORKLOADS {
            assert!(FAMILIES.contains(&w.family));
            assert!(family_spec(w.family, 1).is_some());
        }
    }
}
