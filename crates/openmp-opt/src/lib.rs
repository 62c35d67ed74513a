//! # omp-opt
//!
//! The paper's contribution: OpenMP-aware inter-procedural analyses and
//! optimizations over `omp-ir`, reproducing LLVM's `OpenMPOpt` pass as
//! described in *"Efficient Execution of OpenMP on GPUs"* (CGO 2022):
//!
//! * aggressive [`internalize`]-ation for full caller visibility;
//! * [`spmdization`] of generic-mode kernels with side-effect guard
//!   grouping (Figure 7), value broadcasts, and parallel-region
//!   devirtualization;
//! * deglobalization: [`heap_to_stack`] and [`heap_to_shared`]
//!   (Section IV-A, Figures 4–6);
//! * the custom [`state_machine`] rewrite eliminating function pointers
//!   and indirect dispatch (Section IV-B2);
//! * OpenMP runtime-call [`folding`] (Section IV-C);
//! * optimization [`remarks`] with `OMPxxx` identifiers and OpenMP 5.1
//!   assumption handling (Section IV-D).
//!
//! [`run`] drives everything in the order the paper's pipeline uses and
//! returns the per-category counts of the paper's Figure 9.
//!
//! Every remark additionally carries a structured payload — emitting
//! pass, enclosing function, call site, action verb, and bytes moved —
//! serialized as stable JSON lines ([`Remarks::to_json_lines`]); see
//! `docs/remarks.md` for the format contract. [`OptReport::pass_stats`]
//! folds the stream into per-pass transformed/missed/bytes-moved
//! counters consumed by the differential oracle (`ompgpu verify`).

pub mod config;
pub mod folding;
pub mod heap_to_shared;
pub mod heap_to_stack;
pub mod internalize;
pub mod remarks;
pub mod spmdization;
pub mod state_machine;

pub use config::OpenMpOptConfig;
pub use remarks::{actions, passes, Remark, RemarkKind, Remarks};

use omp_analysis::{CallGraph, ExecutionDomains};
use omp_ir::{FuncId, InstId, InstKind, Module, RtlFn, Value};
use std::collections::HashSet;

/// Optimization statistics: the columns of the paper's Figure 9.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptCounts {
    /// Externally visible functions duplicated for analysis precision.
    pub internalized: usize,
    /// Globalized variables moved to the stack (h2s).
    pub heap_to_stack: usize,
    /// Globalized variables moved to static shared memory.
    pub heap_to_shared: usize,
    /// Generic kernels converted to SPMD mode.
    pub spmdized: usize,
    /// Generic kernels where a custom state machine was possible
    /// (reported in parentheses when SPMDization obsoletes it).
    pub csm_possible: usize,
    /// Custom state machines actually generated (no fallback).
    pub csm_rewritten: usize,
    /// Custom state machines that kept the indirect fallback.
    pub csm_with_fallback: usize,
    /// Execution-mode / thread-execution runtime calls folded (EM).
    pub folds_exec_mode: usize,
    /// Parallel-level runtime calls folded (PL).
    pub folds_parallel_level: usize,
    /// Launch-parameter runtime calls folded.
    pub folds_launch_params: usize,
    /// Guard regions emitted by SPMDization (after grouping).
    pub guard_regions: usize,
    /// Values broadcast out of guard regions.
    pub broadcasts: usize,
}

/// Result of one optimizer run.
#[derive(Debug, Clone, Default)]
pub struct OptReport {
    /// Figure 9 counters.
    pub counts: OptCounts,
    /// All emitted remarks (Section IV-D).
    pub remarks: Remarks,
    /// Cumulative statistics of the cleanup pipeline rounds (mem2reg,
    /// constprop, DCE, simplify-cfg) run between the OpenMP passes.
    pub cleanup: omp_passes::PipelineStats,
    /// Per-stage timing and IR-size deltas for the mid-end schedule, in
    /// execution order (empty unless the driving pass manager records
    /// them). Printed by `ompgpu --time-passes`.
    pub pass_timings: Vec<PassTiming>,
}

/// Wall time and IR-size delta of one mid-end stage. Stages that run
/// several times (the GVN → LICM → cleanup fixpoint rounds) are merged
/// into one entry: wall time and `runs` accumulate, `*_before` keeps the
/// first observation and `*_after` the last.
///
/// Wall time is the only non-deterministic field; everything folded into
/// determinism-compared artifacts (remarks, profiles) must use the IR
/// deltas only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassTiming {
    /// Stable stage label (e.g. `early-inline`, `openmp-opt`, `gvn`).
    pub pass: String,
    /// Accumulated wall time over all runs, in nanoseconds.
    pub wall_nanos: u64,
    /// Number of times the stage ran.
    pub runs: u32,
    /// Live instructions before the first run.
    pub insts_before: usize,
    /// Live instructions after the last run.
    pub insts_after: usize,
    /// Basic blocks before the first run.
    pub blocks_before: usize,
    /// Basic blocks after the last run.
    pub blocks_after: usize,
    /// Functions before the first run.
    pub funcs_before: usize,
    /// Functions after the last run.
    pub funcs_after: usize,
}

/// Per-pass statistics, derived from the structured remarks and Figure 9
/// counters. One row per pass in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStat {
    /// Stable pass name (see [`remarks::passes`]).
    pub pass: &'static str,
    /// Transformations performed.
    pub transformed: usize,
    /// Opportunities identified but missed.
    pub missed: usize,
    /// Bytes moved by the pass (deglobalization only).
    pub bytes_moved: u64,
}

impl OptReport {
    /// Per-pass statistics in pipeline order. `internalize` counts come
    /// from [`OptCounts`] (the pass emits no per-site remarks); every
    /// other row is aggregated from the structured remarks.
    pub fn pass_stats(&self) -> Vec<PassStat> {
        remarks::passes::ALL
            .iter()
            .map(|&pass| {
                let rs = self.remarks.for_pass(pass);
                let transformed = if pass == remarks::passes::INTERNALIZE {
                    self.counts.internalized
                } else {
                    rs.iter().filter(|r| r.kind == RemarkKind::Passed).count()
                };
                PassStat {
                    pass,
                    transformed,
                    missed: rs.iter().filter(|r| r.kind == RemarkKind::Missed).count(),
                    bytes_moved: self.remarks.bytes_moved(pass),
                }
            })
            .collect()
    }
}

/// Runs the OpenMP optimization pipeline on `m`.
pub fn run(m: &mut Module, cfg: &OpenMpOptConfig) -> OptReport {
    run_steps(m, cfg, &mut |_, step| step())
}

/// [`run`], with every step executed as `around(name, step)` so the
/// caller can trace or time it. The steps, in order, each present when
/// `cfg` runs it: `early-cleanup`, `internalize`, `alloc-facts`,
/// `csm-feasibility`, `spmdization`, `heap-to-stack`, `heap-to-shared`,
/// `state-machine`, `folding-1`, `cleanup-1`, `folding-2`, `cleanup-2`.
pub fn run_steps(
    m: &mut Module,
    cfg: &OpenMpOptConfig,
    around: &mut dyn FnMut(&'static str, &mut dyn FnMut()),
) -> OptReport {
    let mut report = OptReport::default();

    // 0. Early cleanup: promote memory to SSA so the inter-procedural
    //    analyses see through parameter cells (LLVM runs SROA/mem2reg
    //    before OpenMPOpt for the same reason).
    if cfg.run_cleanup_pipeline {
        around("early-cleanup", &mut || {
            accumulate(&mut report.cleanup, omp_passes::run_pipeline(m))
        });
    }

    // 1. Internalization.
    if !cfg.disable_internalization {
        around("internalize", &mut || {
            report.counts.internalized = internalize::run_with_remarks(m, &mut report.remarks)
        });
    }

    // 2. Snapshot main-thread-only allocation facts and recursion before
    //    SPMDization rewrites control flow.
    let mut facts = Default::default();
    around("alloc-facts", &mut || facts = collect_alloc_facts(m));
    let (main_only_allocs, recursive) = facts;

    // 3. Custom-state-machine feasibility (analysis only, for Figure 9's
    //    parenthesized counts).
    around("csm-feasibility", &mut || {
        report.counts.csm_possible = state_machine::possible(m)
    });

    // 4. SPMDization.
    if !cfg.disable_spmdization {
        around("spmdization", &mut || {
            let r =
                spmdization::run_with_grouping(m, !cfg.disable_guard_grouping, &mut report.remarks);
            report.counts.spmdized = r.spmdized;
            report.counts.guard_regions = r.guard_regions;
            report.counts.broadcasts = r.broadcasts;
        });
    }

    // 5. Deglobalization: HeapToStack (with capture chasing after
    //    devirtualization), then HeapToShared for the rest.
    if !cfg.disable_deglobalization {
        around("heap-to-stack", &mut || {
            let h2s = heap_to_stack::run(m, cfg.spmd_capture_heap_to_stack, &mut report.remarks);
            report.counts.heap_to_stack = h2s.moved;
        });
        around("heap-to-shared", &mut || {
            let h2sh = heap_to_shared::run(m, &main_only_allocs, &recursive, &mut report.remarks);
            report.counts.heap_to_shared = h2sh.moved;
        });
    }

    // 6. Custom state machine for kernels that stayed generic.
    if !cfg.disable_state_machine_rewrite {
        around("state-machine", &mut || {
            let r = state_machine::run(m, &mut report.remarks);
            report.counts.csm_rewritten = r.rewritten;
            report.counts.csm_with_fallback = r.with_fallback;
        });
    }

    // 7. Runtime-call folding.
    if !cfg.disable_folding {
        around("folding-1", &mut || {
            let f = folding::run(m, &mut report.remarks);
            report.counts.folds_exec_mode = f.exec_mode;
            report.counts.folds_parallel_level = f.parallel_level;
            report.counts.folds_launch_params = f.launch_params;
        });
    }

    // 8. Cleanup + a second folding round (folding exposes constants the
    //    pipeline propagates, which can expose more foldable calls).
    if cfg.run_cleanup_pipeline {
        around("cleanup-1", &mut || {
            accumulate(&mut report.cleanup, omp_passes::run_pipeline(m))
        });
        if !cfg.disable_folding {
            around("folding-2", &mut || {
                let f = folding::run(m, &mut report.remarks);
                report.counts.folds_exec_mode += f.exec_mode;
                report.counts.folds_parallel_level += f.parallel_level;
                report.counts.folds_launch_params += f.launch_params;
            });
            around("cleanup-2", &mut || {
                accumulate(&mut report.cleanup, omp_passes::run_pipeline(m))
            });
        }
    }

    // 9. Async-offload launch analysis: surface capture-and-replay and
    //    stream-overlap eligibility derived from the frontend's launch
    //    metadata (analysis only — no IR is changed).
    emit_launch_remarks(m, &mut report.remarks);
    report
}

/// Emits OMP240/OMP241 analysis remarks for kernels whose launch
/// attributes make them part of a `taskgraph` capture-and-replay region
/// or candidates for asynchronous (`nowait`) stream overlap.
fn emit_launch_remarks(m: &Module, remarks: &mut Remarks) {
    use remarks::{actions, ids, passes, Remark, RemarkKind};
    for k in &m.kernels {
        let name = &m.func(k.func).name;
        if let Some(g) = k.launch.graph {
            remarks.push(
                Remark::new(
                    ids::TASKGRAPH_CAPTURED,
                    RemarkKind::Analysis,
                    name.clone(),
                    format!(
                        "Kernel is part of `taskgraph` region {g}: the host launch \
                         plan is captured once (lookup, validation, argument \
                         marshalling, plan resolution) and replayed without \
                         per-launch setup."
                    ),
                )
                .in_pass(passes::TASKGRAPH)
                .with_action(actions::CAPTURE_REPLAY),
            );
        } else if k.launch.nowait {
            remarks.push(
                Remark::new(
                    ids::ASYNC_OFFLOAD,
                    RemarkKind::Analysis,
                    name.clone(),
                    "Kernel is launched with `nowait`: eligible for asynchronous \
                     stream overlap with sibling launches, ordered only by its \
                     `depend` edges."
                        .to_string(),
                )
                .in_pass(passes::TASKGRAPH)
                .with_action(actions::ASYNC_OVERLAP),
            );
        }
    }
}

fn accumulate(total: &mut omp_passes::PipelineStats, round: omp_passes::PipelineStats) {
    total.promoted_allocas += round.promoted_allocas;
    total.folded += round.folded;
    total.dce_removed += round.dce_removed;
    total.blocks_removed += round.blocks_removed;
    total.iterations += round.iterations;
}

/// Collects `(function, alloc-instruction)` pairs proven to execute on
/// the team main thread only, plus the set of (potentially) recursive
/// functions — the preconditions HeapToShared needs, computed before
/// SPMDization changes execution domains.
fn collect_alloc_facts(m: &Module) -> (HashSet<(FuncId, InstId)>, HashSet<FuncId>) {
    let cg = CallGraph::build(m);
    let domains = ExecutionDomains::compute(m, &cg);
    let mut main_only = HashSet::new();
    for fid in m.func_ids() {
        let f = m.func(fid);
        if f.is_declaration() {
            continue;
        }
        f.for_each_inst(|b, i, k| {
            if let InstKind::Call {
                callee: Value::Func(c),
                ..
            } = k
            {
                if m.func(*c).name == RtlFn::AllocShared.name() && domains.is_main_only(fid, b) {
                    main_only.insert((fid, i));
                }
            }
        });
    }
    // Recursion: a function reachable from its own callees.
    let mut recursive = HashSet::new();
    for fid in m.func_ids() {
        if m.func(fid).is_declaration() {
            continue;
        }
        let from_callees = cg.reachable_from(cg.callees_of(fid).iter().copied());
        if from_callees.contains(&fid) {
            recursive.insert(fid);
        }
    }
    (main_only, recursive)
}
