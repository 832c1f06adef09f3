//! Guards the CI lint configuration against drift.
//!
//! `.github/workflows/ci.yml` runs one `trace-scenarios` leg per shipped
//! scenario preset so a trace regression names the exact scenario it
//! breaks, and one `mscope-lint` step per analysis front so a new front
//! can never be silently left out of enforcement. Both lists are data in
//! a YAML file, invisible to the compiler — these tests re-parse the
//! workflow and fail the workspace whenever it no longer matches
//! [`SystemConfig::presets`] or [`mscope_lint::FRONTS`] exactly, in
//! either direction. The bench-smoke job's bench-delta guard is held to
//! the same standard: every committed smoke baseline must be compared.
//! The stand-alone benchmark package must be built and tested too.

use mscope_ntier::SystemConfig;

fn ci_yml() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../.github/workflows/ci.yml"
    );
    std::fs::read_to_string(path).expect("ci.yml exists at the workspace root")
}

/// Extracts the `scenario:` matrix entries from the workflow file with a
/// purpose-built scan (no YAML dependency): the list is the block of
/// `- item` lines directly under the `scenario:` key.
fn ci_matrix_scenarios(yml: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_block = false;
    let mut block_indent = 0;
    for line in yml.lines() {
        let trimmed = line.trim();
        if !in_block {
            if trimmed == "scenario:" {
                in_block = true;
                block_indent = line.len() - line.trim_start().len();
            }
            continue;
        }
        let indent = line.len() - line.trim_start().len();
        if let Some(item) = trimmed.strip_prefix("- ") {
            if indent > block_indent {
                out.push(item.trim().to_string());
                continue;
            }
        }
        if trimmed.is_empty() {
            continue;
        }
        // First non-item line at or above the key's indent ends the block.
        in_block = false;
    }
    out
}

/// The front named by each `mscope-lint -- <front> …` invocation in the
/// workflow, deduplicated (`trace` appears once per matrix leg).
fn ci_lint_fronts(yml: &str) -> Vec<String> {
    let mut fronts: Vec<String> = yml
        .lines()
        .filter_map(|l| l.split("mscope-lint -- ").nth(1))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect();
    fronts.sort();
    fronts.dedup();
    fronts
}

#[test]
fn trace_matrix_matches_shipped_presets() {
    let yml = ci_yml();

    let mut in_ci: Vec<String> = ci_matrix_scenarios(&yml);
    let mut shipped: Vec<String> = SystemConfig::presets()
        .into_iter()
        .map(|(name, _)| name.to_string())
        .collect();
    assert!(
        !in_ci.is_empty(),
        "found no `scenario:` matrix in ci.yml — was the job renamed?"
    );
    in_ci.sort();
    shipped.sort();
    assert_eq!(
        in_ci, shipped,
        "the trace-scenarios matrix in .github/workflows/ci.yml drifted from \
         SystemConfig::presets(); add/remove the matrix leg to match"
    );
}

#[test]
fn lint_invocations_cover_every_front() {
    let yml = ci_yml();
    let in_ci = ci_lint_fronts(&yml);
    let mut want: Vec<String> = mscope_lint::FRONTS.iter().map(|s| s.to_string()).collect();
    want.sort();
    assert_eq!(
        in_ci, want,
        "the lint invocations in .github/workflows/ci.yml drifted from \
         mscope_lint::FRONTS; every front must run explicitly in CI"
    );
    // The union run must escalate stale allowlist entries to deny.
    assert!(
        yml.lines()
            .any(|l| l.contains("mscope-lint -- all") && l.contains("--strict")),
        "ci.yml must run `mscope-lint -- all --strict`"
    );
}

#[test]
fn ci_builds_and_tests_the_standalone_benchmark() {
    // perfbench is its own workspace, so `--workspace` steps never build
    // it; CI must name its manifest for both the build and the tests.
    let yml = ci_yml();
    for verb in ["cargo build", "cargo test"] {
        assert!(
            yml.lines()
                .any(|l| l.contains(verb) && l.contains("--manifest-path perfbench/Cargo.toml")),
            "ci.yml must run `{verb}` on perfbench/Cargo.toml"
        );
    }
}

#[test]
fn bench_delta_guard_covers_every_smoke_baseline() {
    // The bench-smoke job must compare every committed smoke baseline
    // against the freshly written summary via the bench_delta guard, so a
    // new baseline file cannot land without CI enforcing it.
    let yml = ci_yml();
    assert!(
        yml.contains("--bin bench_delta"),
        "ci.yml must run the bench_delta guard in the bench-smoke job"
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../crates/bench/baselines");
    let mut baselines = 0usize;
    for entry in std::fs::read_dir(dir).expect("committed baselines directory exists") {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if !name.ends_with(".smoke.json") {
            continue;
        }
        baselines += 1;
        assert!(
            yml.contains(&format!("crates/bench/baselines/{name}")),
            "ci.yml bench-delta guard does not compare against baseline `{name}`"
        );
    }
    assert!(
        baselines >= 4,
        "expected smoke baselines for the query, transform, sim, and stream benches"
    );
}

#[test]
fn bench_delta_tracks_the_planner_ratios() {
    // The query-engine bench reports the SQL planner's headline ratios;
    // they must stay under the bench-delta guard (and therefore in the
    // committed smoke baseline), or a planner regression could land with
    // CI green. Both files are data, so re-parse them like ci.yml above.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let tracked = std::fs::read_to_string(format!("{root}/crates/bench/src/bin/bench_delta.rs"))
        .expect("bench_delta guard exists");
    let baseline = std::fs::read_to_string(format!(
        "{root}/crates/bench/baselines/query_engine.smoke.json"
    ))
    .expect("query_engine smoke baseline exists");
    for metric in [
        "speedup_hash_join_materialized",
        "speedup_projection_pushdown",
        "speedup_join_reorder",
        "speedup_group_having",
    ] {
        assert!(
            tracked.contains(&format!("\"{metric}\"")),
            "bench_delta TRACKED no longer lists `{metric}`"
        );
        assert!(
            baseline.contains(&format!("\"{metric}\"")),
            "query_engine smoke baseline lacks `{metric}` — regenerate with --smoke"
        );
    }
}

#[test]
fn front_extractor_reads_invocation_lines() {
    let yml = "
      - run: cargo run --release -p mscope-lint -- all --strict
      - run: cargo run --release -p mscope-lint -- trace --scenario a
      - run: cargo run --release -p mscope-lint -- trace --scenario b
      - run: cargo run --release -p mscope-lint -- det
";
    assert_eq!(ci_lint_fronts(yml), vec!["all", "det", "trace"]);
}

#[test]
fn matrix_parser_reads_nested_lists() {
    let yml = "
jobs:
  a:
    strategy:
      matrix:
        scenario:
          - one
          - two
        seed: [1, 2]
";
    assert_eq!(ci_matrix_scenarios(yml), vec!["one", "two"]);
}
