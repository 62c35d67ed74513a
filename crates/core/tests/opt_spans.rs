//! `omp_opt::run` traces each of its steps as an `openmp-opt.<step>`
//! span, so `--telemetry` splits the `openmp-opt` pass into its parts.
//! Runs in its own test binary: the tracer is process-global.

use omp_gpu::{pipeline, BuildConfig};

const SAXPY: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/omp/saxpy.c"
));

#[test]
fn every_openmp_opt_step_has_a_span_under_optimize() {
    omp_telemetry::set_enabled(true);
    omp_telemetry::clear_spans();
    pipeline::build(SAXPY, BuildConfig::LlvmDev).expect("build saxpy");
    omp_telemetry::set_enabled(false);
    let spans = omp_telemetry::take_spans();
    assert!(spans
        .iter()
        .any(|s| s.name == "openmp-opt" && s.cat == "pass"));
    let optimize = spans
        .iter()
        .find(|s| s.name == "optimize dev")
        .expect("optimize span");
    let steps: Vec<&str> = spans
        .iter()
        .filter(|s| s.cat == "openmp-opt")
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(
        steps,
        [
            "openmp-opt.early-cleanup",
            "openmp-opt.internalize",
            "openmp-opt.alloc-facts",
            "openmp-opt.csm-feasibility",
            "openmp-opt.spmdization",
            "openmp-opt.heap-to-stack",
            "openmp-opt.heap-to-shared",
            "openmp-opt.state-machine",
            "openmp-opt.folding-1",
            "openmp-opt.cleanup-1",
            "openmp-opt.folding-2",
            "openmp-opt.cleanup-2",
        ]
    );
    for s in spans.iter().filter(|s| s.cat == "openmp-opt") {
        assert_eq!(
            s.parent, optimize.id,
            "{} is not a step of optimize",
            s.name
        );
    }
}
