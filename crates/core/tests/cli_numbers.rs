//! The `ompgpu` binary refuses malformed numeric flags: a value that is
//! missing or does not parse as the flag's number type is a usage error
//! (exit 2), never a silent fallback to the default.

use std::process::Command;

const SAXPY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/omp/saxpy.c");

/// `ompgpu run` on the saxpy example with `extra` flags appended.
fn run(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ompgpu"))
        .args(["run", SAXPY, "--kernel", "saxpy"])
        .args(["--arg", "buf:f64:8", "--arg", "buf:f64:8"])
        .args(["--arg", "f64:2", "--arg", "i64:8"])
        .args(extra)
        .output()
        .expect("spawn ompgpu")
}

/// `ompgpu profile` on the saxpy example with `extra` flags appended.
fn profile(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ompgpu"))
        .args(["profile", SAXPY, "--kernel", "saxpy"])
        .args(["--arg", "buf:f64:8", "--arg", "buf:f64:8"])
        .args(["--arg", "f64:2", "--arg", "i64:8"])
        .args(extra)
        .output()
        .expect("spawn ompgpu")
}

#[test]
fn well_formed_numbers_are_accepted() {
    let out = run(&[
        "--teams",
        "2",
        "--threads",
        "4",
        "--jobs",
        "1",
        "--max-insts",
        "100000",
        "--dump",
        "4",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = profile(&["--teams", "2", "--threads", "4", "--jobs", "1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn malformed_numbers_are_usage_errors() {
    let bad: &[&[&str]] = &[
        &["--teams", "abc"],
        &["--threads", "-3"],
        &["--jobs", "x"],
        &["--max-insts", "1.5"],
        &["--dump", "nope"],
        &["--teams", "4294967296"],
        &["--dump"],
    ];
    for flags in bad {
        let out = run(flags);
        assert_eq!(out.status.code(), Some(2), "run {flags:?}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "run {flags:?} printed no usage"
        );
    }
    for flags in &bad[..3] {
        let out = profile(flags);
        assert_eq!(out.status.code(), Some(2), "profile {flags:?}: {out:?}");
    }
}
