//! `simulate`'s Q-table flags and its usage text, through the real
//! binary.
//!
//! A loaded Q-table is imported and frozen, so `--train N` must not run N
//! training iterations on it: frozen ε-greedy draws tie-break numbers on
//! every tied row it meets, and discarded training runs would shift the
//! stream the test run draws from. This drives the binary on soc6 with
//! an untrained (header-only) table, where every row ties, and asserts
//! that the evaluation does not depend on `--train`. Both table flags
//! exist only for `--policy cohmeleon`; any other policy refuses them
//! before the run. `--help` prints the usage block of the binary's module
//! doc without its doc-comment markup to stdout and exits 0; a bad flag
//! prints an error and the usage to stderr and exits 2.

use std::path::PathBuf;
use std::process::Command;

/// Runs `simulate` with `args` and returns its `total:` line.
fn total_line(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("simulate runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "simulate {args:?} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find(|line| line.starts_with("total:"))
        .unwrap_or_else(|| panic!("simulate {args:?} printed no total line:\n{stdout}"))
        .to_owned()
}

#[test]
fn loaded_table_is_evaluated_without_training() {
    let table = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("simulate_cli_untrained.tsv");
    std::fs::write(&table, "# cohmeleon q-table v1\n").expect("write the table");
    let table = table.to_str().expect("utf-8 path");

    let run =
        |train: &str| total_line(&["--soc", "soc6", "--load-qtable", table, "--train", train]);
    assert_eq!(run("0"), run("2"));
}

#[test]
fn table_flags_are_refused_for_other_policies() {
    for flag in ["--load-qtable", "--save-qtable"] {
        let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(["--soc", "soc6", "--policy", "manual"])
            .args([flag, "/nonexistent/table.tsv"])
            .output()
            .expect("simulate runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        let message = format!("{flag} only applies to --policy cohmeleon");
        assert!(stderr.contains(&message), "{flag}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("total:"), "{flag} ran anyway:\n{stdout}");
    }
}

#[test]
fn help_prints_only_the_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .arg("--help")
        .output()
        .expect("simulate runs");
    let usage = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{usage}");
    assert!(usage.starts_with("simulate [--soc NAME]"), "{usage}");
    for line in usage.lines() {
        assert!(
            !line.starts_with("```") && !line.starts_with("//!"),
            "doc markup in the usage: `{line}`\n{usage}"
        );
    }

    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .arg("--bogus")
        .output()
        .expect("simulate runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: unknown flag"), "{stderr}");
    assert!(out.stdout.is_empty(), "a usage error printed to stdout");
}
