//! Golden digests of the optimized IR and the remark stream of every
//! `examples/omp` program under every build configuration.
//!
//! The whole-proxy goldens in `golden_ir.rs` pin the proxies only; this
//! test pins what `ompgpu build FILE --config CFG --emit-ir --remarks`
//! prints for each example (IR text plus one line per remark), as one
//! 64-bit FNV-1a digest per (example, config) pair. Any change to a
//! cleanup or OpenMP pass that moves a single output byte fails here.
//!
//! To regenerate after an intentional IR or remark change:
//!
//! ```text
//! OMP_UPDATE_GOLDEN=1 cargo test -p omp-gpu --test examples_digest
//! ```

use omp_gpu::{pipeline, BuildConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// One `name config digest` line per example × config, sorted by file
/// name then in `BuildConfig::ALL` order.
fn digests() -> String {
    let dir = repo_root().join("examples/omp");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("read examples/omp")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no examples in {}", dir.display());
    let mut out = String::new();
    for path in &files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(path).expect("read example");
        for config in BuildConfig::ALL {
            let (module, report) = pipeline::build(&source, config)
                .unwrap_or_else(|e| panic!("{name} [{}]: {e}", config.cli_name()));
            let mut text = omp_ir::printer::print_module(&module);
            if let Some(r) = &report {
                for remark in r.remarks.all() {
                    writeln!(text, "{remark}").unwrap();
                }
            }
            writeln!(
                out,
                "{name} {} {:016x}",
                config.cli_name(),
                omp_json::fnv1a(text.as_bytes())
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn example_ir_and_remarks_match_golden_digests() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/examples_digest.txt");
    let actual = digests();
    if std::env::var_os("OMP_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with OMP_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    let drifted: Vec<String> = golden
        .lines()
        .zip(actual.lines())
        .filter(|(g, a)| g != a)
        .map(|(g, a)| format!("golden: {g}\nactual: {a}"))
        .collect();
    assert!(
        drifted.is_empty() && golden.lines().count() == actual.lines().count(),
        "example IR/remarks drifted from {} ({} of {} lines differ):\n{}\n\
         if intentional, regenerate with OMP_UPDATE_GOLDEN=1",
        path.display(),
        drifted.len(),
        golden.lines().count(),
        drifted.join("\n")
    );
}
