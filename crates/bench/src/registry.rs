//! The registry of all twenty experiments.
//!
//! One flat, ordered list of [`ExperimentSpec`]s is the single source
//! of truth for the CLI, the serve protocol, the CI smoke matrix, and
//! the generated `EXPERIMENTS.md` index — none of them can drift from
//! the others.

use crate::experiments;
use crate::spec::ExperimentSpec;

/// All experiments, ordered by id.
pub fn all() -> [&'static ExperimentSpec; 20] {
    [
        &experiments::e01_el_model::SPEC,
        &experiments::e02_lm_model::SPEC,
        &experiments::e03_indep_suites::SPEC,
        &experiments::e04_shared_suite::SPEC,
        &experiments::e05_forced_shared::SPEC,
        &experiments::e06_marginal_regimes::SPEC,
        &experiments::e07_forced_marginal::SPEC,
        &experiments::e08_cost_tradeoff::SPEC,
        &experiments::e09_imperfect::SPEC,
        &experiments::e10_back_to_back::SPEC,
        &experiments::e11_growth::SPEC,
        &experiments::e12_difficulty_variance::SPEC,
        &experiments::e13_common_cause::SPEC,
        &experiments::e14_nversion::SPEC,
        &experiments::e15_stopping::SPEC,
        &experiments::e16_assessment::SPEC,
        &experiments::e17_adaptive_policies::SPEC,
        &experiments::e18_policy_coupling::SPEC,
        &experiments::e19_structure_penalty::SPEC,
        &experiments::e20_component_allocation::SPEC,
    ]
}

/// Looks an experiment up by slug (`"e01"`), name (`"e01_el_model"`)
/// or bare id (`"1"`).
pub fn find(key: &str) -> Option<&'static ExperimentSpec> {
    let key = key.trim();
    all()
        .into_iter()
        .find(|spec| spec.slug == key || spec.name == key || key.parse::<u8>() == Ok(spec.id))
}

/// Renders the workspace-root `EXPERIMENTS.md` from the registry.
///
/// The file on disk is asserted byte-equal to this output by an
/// integration test, so the index can never drift from the code.
pub fn experiments_md() -> String {
    let mut out = String::from(
        "# Experiment ↔ paper-result index\n\
         \n\
         Every numbered result of Popov & Littlewood, *\"The Effect of Testing\n\
         on Reliability of Fault-Tolerant Software\"* (DSN 2004), is reproduced\n\
         by one registered experiment. Run any of them through the unified CLI:\n\
         \n\
         ```console\n\
         $ cargo run --release -p diversim-bench --bin diversim -- list\n\
         $ cargo run --release -p diversim-bench --bin diversim -- run e01\n\
         $ cargo run --release -p diversim-bench --bin diversim -- run --all --fast --out results/\n\
         ```\n\
         \n\
         Each run re-verifies the claim column's reproduction checks and, with\n\
         `--out`, writes one JSON and one CSV result file per experiment.\n\
         \n\
         | id | slug | name | paper result | claim | sweep | full MC budget |\n\
         |---:|------|--------|--------------|-------|-------|---------------:|\n",
    );
    for spec in all() {
        out.push_str(&format!(
            "| {} | {} | `{}` | {} | {} | {} | {} |\n",
            spec.id,
            spec.slug,
            spec.name,
            spec.paper_ref,
            spec.claim,
            spec.sweep,
            if spec.full_replications == 0 {
                "exact".to_string()
            } else {
                spec.full_replications.to_string()
            }
        ));
    }
    out.push_str(
        "\n\
         Replication profiles: `--full` runs the budgets above, `--fast`\n\
         one tenth (floor 400), `--smoke` one two-hundredth (floor 50; claim\n\
         checks recorded but not enforced). *(Generated by\n\
         `registry::experiments_md`; regenerate with `diversim docs --write`.)*\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_twenty_ordered_unique_specs() {
        let specs = all();
        assert_eq!(specs.len(), 20);
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(spec.id as usize, i + 1, "ids must be ordered 1–20");
            assert_eq!(spec.slug, format!("e{:02}", spec.id));
            assert!(
                spec.name.starts_with(spec.slug),
                "{} / {}",
                spec.name,
                spec.slug
            );
            assert!(!spec.title.is_empty());
            assert!(!spec.paper_ref.is_empty());
            assert!(!spec.claim.is_empty());
            assert!(!spec.sweep.is_empty());
        }
        let mut names: Vec<_> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20, "names must be unique");
    }

    #[test]
    fn find_accepts_slug_name_and_id() {
        assert_eq!(find("e01").unwrap().id, 1);
        assert_eq!(find("e16_assessment").unwrap().id, 16);
        assert_eq!(find("7").unwrap().slug, "e07");
        assert_eq!(find(" e03 ").unwrap().id, 3);
        assert_eq!(find("e17").unwrap().name, "e17_adaptive_policies");
        assert_eq!(find("18").unwrap().slug, "e18");
        assert_eq!(find("e19").unwrap().name, "e19_structure_penalty");
        assert_eq!(find("20").unwrap().slug, "e20");
        assert!(find("e21").is_none());
        assert!(find("nonsense").is_none());
        assert!(find("0").is_none());
    }

    #[test]
    fn experiments_md_lists_every_experiment() {
        let md = experiments_md();
        for spec in all() {
            assert!(md.contains(spec.name), "missing {}", spec.name);
        }
        assert!(md.contains("| id | slug | name |"));
    }
}
