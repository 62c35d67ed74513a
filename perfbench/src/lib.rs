//! The repository benchmark: four workloads over the ompgpu pipeline,
//! simulator and compile service, measured end to end with tracing off
//! and broken down by layer in a separate traced run. See `README.md`.

pub mod hostspeed;
pub mod inproc;
pub mod report;
pub mod serve_mix;
pub mod stats;
pub mod trace;
pub mod workloads;

use omp_gpu::oracle::ExampleSpec;
use std::path::{Path, PathBuf};

/// One `examples/omp` program and its launch spec.
pub struct Example {
    pub name: String,
    pub source: String,
    pub spec: ExampleSpec,
}

/// Reads every `.c` program with an `// oracle-*:` header in `dir`, in
/// name order.
pub fn read_examples(dir: &Path) -> Result<Vec<Example>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .c examples in {}", dir.display()));
    }
    paths
        .iter()
        .map(|p| {
            let source = std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
            let spec = ExampleSpec::parse(&source)
                .map_err(|e| format!("{}: spec error: {e}", p.display()))?;
            let name = p
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            Ok(Example { name, source, spec })
        })
        .collect()
}

/// Host CPUs available to this process.
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// Peak resident set size (`VmHWM`) from a `/proc/<pid>/status` file,
/// in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path)
        .map_err(|e| format!("cannot read {status_path}: {e}"))?;
    let kib: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{status_path} has no VmHWM line"))?;
    Ok(kib / 1024.0)
}
