//! The one check of `.github/workflows/ci.yml` that can run without a
//! runner: every cargo target the workflow names exists in the tree, and it
//! names no `--bench` — `perf_ledger/` is the repository's only benchmark.

use std::path::Path;

/// `(flag, name)` for every `--bin`/`--test`/`--example`/`--manifest-path`/
/// `--bench` argument in the workflow text.
fn named_targets(yml: &str) -> Vec<(&str, &str)> {
    let words: Vec<&str> = yml.split_whitespace().collect();
    words
        .windows(2)
        .filter(|w| {
            matches!(
                w[0],
                "--bin" | "--test" | "--example" | "--manifest-path" | "--bench"
            )
        })
        .map(|w| (w[0], w[1].trim_matches(|c| c == '"' || c == '\'')))
        .collect()
}

#[test]
fn every_target_the_workflow_names_exists() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let yml = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("read ci.yml");
    let core_manifest =
        std::fs::read_to_string(root.join("crates/core/Cargo.toml")).expect("read core manifest");
    let in_some_crate = |rel: &str| {
        std::fs::read_dir(root.join("crates"))
            .expect("list crates/")
            .any(|c| c.expect("crate dir").path().join(rel).is_file())
    };

    let targets = named_targets(&yml);
    assert!(
        targets.contains(&("--manifest-path", "perf_ledger/Cargo.toml")),
        "the workflow no longer runs the benchmark: {targets:?}"
    );
    for (flag, name) in targets {
        let exists = match flag {
            "--bin" => in_some_crate(&format!("src/bin/{name}.rs")),
            // Root tests are targets of `polyprof-core`, registered by path.
            "--test" => {
                in_some_crate(&format!("tests/{name}.rs"))
                    || (root.join(format!("tests/{name}.rs")).is_file()
                        && core_manifest.contains(&format!("path = \"../../tests/{name}.rs\"")))
            }
            "--example" => {
                root.join(format!("examples/{name}.rs")).is_file()
                    && core_manifest.contains(&format!("path = \"../../examples/{name}.rs\""))
            }
            "--manifest-path" => root.join(name).is_file(),
            _ => panic!("ci.yml names `--bench {name}`: cargo bench has nothing to run"),
        };
        assert!(exists, "ci.yml names `{flag} {name}`, which does not exist");
    }
}
