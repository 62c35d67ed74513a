//! The compile → optimize → simulate pipeline.

use crate::config::BuildConfig;
use omp_benchmarks::{verify, ProxyApp, Workload};
use omp_frontend::CompileError;
use omp_gpusim::{
    Device, FaultPlan, Finding, KernelStats, LaunchProfile, ProfileMode, SanitizeMode, Severity,
    SimError, SimErrorKind, StatsSnapshot, Tier,
};
use omp_ir::Module;
use omp_opt::{OptReport, PassStat, PassTiming};
use std::fmt;
use std::time::{Duration, Instant};

/// A compilation failure anywhere in the pipeline.
#[derive(Debug)]
pub enum BuildError {
    /// Frontend diagnostics.
    Compile(CompileError),
    /// Post-optimization IR verification failure (optimizer bug).
    Verify(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Compile(e) => write!(f, "compile error: {e}"),
            BuildError::Verify(e) => write!(f, "post-optimization verification failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Runs only the frontend for `source` under `config`.
///
/// The frontend output depends on `config` solely through its
/// [`FrontendOptions`](omp_frontend::FrontendOptions) (in practice: the
/// globalization scheme), so callers running many configurations over
/// the same source can compile once per distinct option set, clone the
/// module, and feed each clone to [`optimize`].
pub fn compile_frontend(source: &str, config: BuildConfig) -> Result<Module, BuildError> {
    let _span = omp_telemetry::span("frontend.compile", "pipeline");
    let fe = config.frontend_options("bench");
    omp_frontend::compile(source, &fe).map_err(BuildError::Compile)
}

/// The mid-end pass manager: owns the pass ordering for one
/// [`BuildConfig`], shares one [`omp_passes::AnalysisCache`] across the
/// classic passes, and folds their statistics into the optimizer's
/// structured remark stream.
///
/// Schedule for configurations with an OpenMP optimizer config:
///
/// 1. **early inliner** — exposes foldable `__kmpc_*` patterns and
///    deglobalization candidates to `openmp-opt` (conservative: callees
///    with structural OpenMP calls are kept outlined);
/// 2. **openmp-opt** — the paper's OpenMP-aware passes;
/// 3. **late inliner** — cleans up outlined parallel regions the OpenMP
///    passes specialized or left behind;
/// 4. **cleanup** (mem2reg/constprop/DCE/simplify-cfg to fixpoint) — so
///    GVN and LICM see promoted SSA form;
/// 5. **GVN**, **LICM**, **GVN** — redundancy elimination, invariant
///    hoisting, then a second GVN round to merge hoisted duplicates;
/// 6. **final cleanup** — removes code the scalar passes made dead.
///
/// The call graph, dominator trees, and loop forest are cached between
/// passes; each pass invalidates per function on mutation, and the
/// opaque steps (`omp_opt::run`, the cleanup pipeline) invalidate
/// everything.
///
/// `Llvm12Baseline` and `CudaStyle` deliberately bypass the mid-end and
/// keep the legacy cleanup-only pipeline: the CUDA configuration is the
/// yardstick every ratio is measured against, and the LLVM 12 baseline
/// models a toolchain that predates these passes.
struct PassManager {
    cache: omp_passes::AnalysisCache,
    remarks: Vec<omp_opt::Remark>,
    cleanup: omp_passes::PipelineStats,
    timings: Vec<PassTiming>,
}

/// Live IR size: defined functions, their blocks, and instructions.
#[derive(Debug, Clone, Copy)]
struct ModuleShape {
    funcs: usize,
    blocks: usize,
    insts: usize,
}

fn module_shape(m: &Module) -> ModuleShape {
    let mut s = ModuleShape {
        funcs: 0,
        blocks: 0,
        insts: 0,
    };
    for id in m.func_ids() {
        let f = m.func(id);
        if f.is_declaration() {
            continue;
        }
        s.funcs += 1;
        s.blocks += f.num_blocks();
        s.insts += f.num_insts();
    }
    s
}

impl PassManager {
    fn new() -> PassManager {
        PassManager {
            cache: omp_passes::AnalysisCache::new(),
            remarks: Vec::new(),
            cleanup: omp_passes::PipelineStats::default(),
            timings: Vec::new(),
        }
    }

    /// Records one run of a stage. Repeated runs of the same stage (the
    /// GVN → LICM → cleanup fixpoint rounds) merge into one entry: wall
    /// time and `runs` accumulate, the before-shape keeps the first
    /// observation and the after-shape the last.
    fn record(&mut self, pass: &str, t0: Instant, before: ModuleShape, after: ModuleShape) {
        omp_telemetry::record_completed(pass, "pass", t0);
        let nanos = t0.elapsed().as_nanos() as u64;
        match self.timings.iter_mut().find(|t| t.pass == pass) {
            Some(t) => {
                t.wall_nanos += nanos;
                t.runs += 1;
                t.insts_after = after.insts;
                t.blocks_after = after.blocks;
                t.funcs_after = after.funcs;
            }
            None => self.timings.push(PassTiming {
                pass: pass.to_string(),
                wall_nanos: nanos,
                runs: 1,
                insts_before: before.insts,
                insts_after: after.insts,
                blocks_before: before.blocks,
                blocks_after: after.blocks,
                funcs_before: before.funcs,
                funcs_after: after.funcs,
            }),
        }
    }

    /// Runs the full schedule, returning the report with the classic
    /// passes' remarks merged in.
    fn run(mut self, module: &mut Module, cfg: &omp_opt::OpenMpOptConfig) -> OptReport {
        let (before, t0) = (module_shape(module), Instant::now());
        self.inline_step(
            module,
            &omp_passes::InlineOptions::pre_openmp_opt(),
            "early",
        );
        self.record("early-inline", t0, before, module_shape(module));
        self.cache.invalidate_all();
        let (before, t0) = (module_shape(module), Instant::now());
        // Each step of openmp-opt gets a span of its own inside the
        // pass: `openmp-opt.<step>` in category `openmp-opt`.
        let mut report = omp_opt::run_steps(module, cfg, &mut |step, run| {
            let _span = omp_telemetry::span_lazy("openmp-opt", || format!("openmp-opt.{step}"));
            run()
        });
        self.record("openmp-opt", t0, before, module_shape(module));
        self.cache.invalidate_all();
        let (before, t0) = (module_shape(module), Instant::now());
        self.inline_step(
            module,
            &omp_passes::InlineOptions::post_openmp_opt(),
            "late",
        );
        self.record("late-inline", t0, before, module_shape(module));
        self.cleanup_step(module);
        self.gvn_licm_steps(module);
        // Stage summaries as OMP230 analysis remarks. The message carries
        // run counts and IR deltas only — never wall time — so remark
        // streams stay deterministic run to run.
        {
            use omp_opt::remarks::{ids, passes};
            for t in &self.timings {
                self.remarks.push(
                    omp_opt::Remark::new(
                        ids::PASS_TIMING,
                        omp_opt::RemarkKind::Analysis,
                        "<module>",
                        format!(
                            "stage '{}' ran {}x: {} -> {} instructions, \
                             {} -> {} blocks, {} -> {} functions",
                            t.pass,
                            t.runs,
                            t.insts_before,
                            t.insts_after,
                            t.blocks_before,
                            t.blocks_after,
                            t.funcs_before,
                            t.funcs_after
                        ),
                    )
                    .in_pass(passes::PIPELINE)
                    .at(t.pass.clone()),
                );
            }
        }
        report.pass_timings = std::mem::take(&mut self.timings);
        for r in self.remarks {
            report.remarks.push(r);
        }
        add_pipeline_stats(&mut report.cleanup, self.cleanup);
        report
    }

    fn inline_step(&mut self, module: &mut Module, opts: &omp_passes::InlineOptions, stage: &str) {
        use omp_opt::remarks::{actions, ids, passes};
        for d in omp_passes::inline::run(module, &mut self.cache, opts) {
            let r = if d.inlined {
                omp_opt::Remark::new(
                    ids::INLINED,
                    omp_opt::RemarkKind::Passed,
                    d.caller,
                    format!(
                        "inlined '{}' ({} instructions, {}, {} stage)",
                        d.callee, d.callee_insts, d.reason, stage
                    ),
                )
                .with_action(actions::INLINE)
                .with_bytes(d.callee_insts as u64)
            } else {
                omp_opt::Remark::new(
                    ids::INLINE_SKIPPED,
                    omp_opt::RemarkKind::Missed,
                    d.caller,
                    format!(
                        "kept call to '{}' ({} instructions, {}, {} stage)",
                        d.callee, d.callee_insts, d.reason, stage
                    ),
                )
                .with_action(actions::KEEP_CALL)
            };
            self.remarks.push(r.in_pass(passes::INLINE).at(d.callee));
        }
    }

    fn cleanup_step(&mut self, module: &mut Module) {
        let (before, t0) = (module_shape(module), Instant::now());
        self.cache.invalidate_all();
        add_pipeline_stats(&mut self.cleanup, omp_passes::run_pipeline(module));
        self.cache.invalidate_all();
        self.record("cleanup", t0, before, module_shape(module));
    }

    /// Iterates GVN → LICM → cleanup to a bounded fixpoint: forwarding
    /// loads kills stores, dead stores de-escape the allocas whose
    /// address they captured, and the next round forwards through the
    /// newly private memory. Per function, all rounds are reported as
    /// one GVN remark and one LICM remark.
    fn gvn_licm_steps(&mut self, module: &mut Module) {
        use omp_opt::remarks::{actions, ids, passes};
        // (function, eliminated, forwarded, dead stores), first-seen
        // (module layout) order.
        let mut gvn: Vec<(String, usize, usize, usize)> = Vec::new();
        let mut licm: Vec<(String, usize)> = Vec::new();
        for _ in 0..6 {
            let mut changed = 0usize;
            let (before, t0) = (module_shape(module), Instant::now());
            for s in omp_passes::gvn::run(module, &mut self.cache) {
                changed += s.eliminated + s.loads_forwarded + s.dead_stores;
                match gvn.iter_mut().find(|(f, _, _, _)| *f == s.function) {
                    Some((_, elim, fwd, dse)) => {
                        *elim += s.eliminated;
                        *fwd += s.loads_forwarded;
                        *dse += s.dead_stores;
                    }
                    None => gvn.push((s.function, s.eliminated, s.loads_forwarded, s.dead_stores)),
                }
            }
            self.record("gvn", t0, before, module_shape(module));
            let (before, t0) = (module_shape(module), Instant::now());
            for s in omp_passes::licm::run(module, &mut self.cache) {
                changed += s.hoisted;
                match licm.iter_mut().find(|(f, _)| *f == s.function) {
                    Some((_, h)) => *h += s.hoisted,
                    None => licm.push((s.function, s.hoisted)),
                }
            }
            self.record("licm", t0, before, module_shape(module));
            self.cleanup_step(module);
            if changed == 0 {
                break;
            }
        }
        for (function, eliminated, forwarded, dead_stores) in gvn {
            self.remarks.push(
                omp_opt::Remark::new(
                    ids::CSE_ELIMINATED,
                    omp_opt::RemarkKind::Passed,
                    function,
                    format!(
                        "eliminated {eliminated} redundant instructions, \
                         forwarded {forwarded} loads, \
                         removed {dead_stores} dead stores"
                    ),
                )
                .in_pass(passes::GVN)
                .with_action(actions::CSE),
            );
        }
        for (function, hoisted) in licm {
            self.remarks.push(
                omp_opt::Remark::new(
                    ids::LOOP_INVARIANT_HOISTED,
                    omp_opt::RemarkKind::Passed,
                    function,
                    format!("hoisted {hoisted} loop-invariant instructions"),
                )
                .in_pass(passes::LICM)
                .with_action(actions::HOIST),
            );
        }
    }
}

fn add_pipeline_stats(into: &mut omp_passes::PipelineStats, from: omp_passes::PipelineStats) {
    into.promoted_allocas += from.promoted_allocas;
    into.folded += from.folded;
    into.dce_removed += from.dce_removed;
    into.blocks_removed += from.blocks_removed;
    into.iterations += from.iterations;
}

/// Optimizes and verifies a frontend module under `config`, returning
/// the final module and the optimizer's report (when the mid-end ran).
pub fn optimize(
    mut module: Module,
    config: BuildConfig,
) -> Result<(Module, Option<OptReport>), BuildError> {
    let _span = omp_telemetry::span_lazy("pipeline", || format!("optimize {}", config.cli_name()));
    let report = match config.opt_config() {
        Some(cfg) => Some(PassManager::new().run(&mut module, &cfg)),
        None => {
            omp_passes::run_pipeline(&mut module);
            None
        }
    };
    let errs = omp_ir::verifier::verify_module(&module);
    if !errs.is_empty() {
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        return Err(BuildError::Verify(msgs.join("; ")));
    }
    Ok((module, report))
}

/// Compiles `source` under `config`, returning the optimized module and
/// the optimizer's report (when the OpenMP pass ran).
pub fn build(source: &str, config: BuildConfig) -> Result<(Module, Option<OptReport>), BuildError> {
    optimize(compile_frontend(source, config)?, config)
}

/// Folds an optimizer report into a metrics registry: per-pass run
/// counts and IR deltas. Every recorded value is deterministic — wall
/// time is deliberately excluded, so registries built from the same
/// source and configuration are bit-identical across `--jobs` and
/// tiers.
pub fn record_pipeline_metrics(report: &OptReport, reg: &mut omp_telemetry::MetricsRegistry) {
    for t in &report.pass_timings {
        let p = &t.pass;
        reg.counter_add(&format!("pipeline.pass.{p}.runs"), t.runs as u64);
        reg.counter_add(
            &format!("pipeline.pass.{p}.insts_removed"),
            t.insts_before.saturating_sub(t.insts_after) as u64,
        );
        reg.counter_add(
            &format!("pipeline.pass.{p}.insts_added"),
            t.insts_after.saturating_sub(t.insts_before) as u64,
        );
        reg.counter_add(
            &format!("pipeline.pass.{p}.blocks_removed"),
            t.blocks_before.saturating_sub(t.blocks_after) as u64,
        );
    }
    reg.counter_add("pipeline.remarks", report.remarks.len() as u64);
}

/// Result of running one proxy application under one configuration.
#[derive(Debug)]
pub struct RunOutcome {
    /// The configuration label.
    pub config: BuildConfig,
    /// Launch statistics on success; `None` when the launch failed
    /// (e.g. out of memory — RSBench's unoptimized build).
    pub stats: Option<KernelStats>,
    /// Error string when the launch failed.
    pub error: Option<String>,
    /// Optimizer report, when the OpenMP pass ran.
    pub report: Option<OptReport>,
}

impl RunOutcome {
    /// Kernel cycles, if the run succeeded.
    pub fn cycles(&self) -> Option<u64> {
        self.stats.as_ref().map(|s| s.cycles)
    }

    /// Deterministic, order-stable statistics (sorted runtime-call
    /// counts), if the run succeeded — the form the oracle records.
    pub fn snapshot(&self) -> Option<StatsSnapshot> {
        self.stats.as_ref().map(|s| s.snapshot())
    }

    /// Per-pass optimizer statistics, derived from the structured
    /// remarks (empty when the OpenMP pass did not run).
    pub fn pass_stats(&self) -> Vec<PassStat> {
        self.report
            .as_ref()
            .map(|r| r.pass_stats())
            .unwrap_or_default()
    }
}

/// Builds and runs `app` under `config`, verifying results on success.
pub fn run_proxy(app: &dyn ProxyApp, config: BuildConfig) -> RunOutcome {
    run_proxy_tiered(app, config, None)
}

/// [`run_proxy`] with an explicit simulator execution-tier override:
/// `Some(Tier::Interp)` forces the reference interpreter,
/// `Some(Tier::Compiled)` requests the compiled block engine, `None`
/// keeps the device default (compiled, unless `OMPGPU_TIER` says
/// otherwise). Results and statistics are bit-identical across tiers.
pub fn run_proxy_tiered(app: &dyn ProxyApp, config: BuildConfig, tier: Option<Tier>) -> RunOutcome {
    let source = if config.uses_cuda_source() {
        app.cuda_source()
    } else {
        app.openmp_source()
    };
    let (module, report) = match build(&source, config) {
        Ok(x) => x,
        Err(e) => {
            return RunOutcome {
                config,
                stats: None,
                error: Some(e.to_string()),
                report: None,
            }
        }
    };
    let mut dev = match Device::new(&module, app.device_config()) {
        Ok(d) => d,
        Err(e) => {
            return RunOutcome {
                config,
                stats: None,
                error: Some(e.to_string()),
                report,
            }
        }
    };
    if let Some(t) = tier {
        dev.set_tier(t);
    }
    let workload: Workload = match app.prepare(&mut dev) {
        Ok(w) => w,
        Err(e) => {
            return RunOutcome {
                config,
                stats: None,
                error: Some(e.to_string()),
                report,
            }
        }
    };
    match dev.launch_plan(app.kernel_name(), &workload.args, app.dims()) {
        Ok(stats) => match verify(&mut dev, &workload) {
            Ok(()) => RunOutcome {
                config,
                stats: Some(stats),
                error: None,
                report,
            },
            Err(e) => RunOutcome {
                config,
                stats: None,
                error: Some(format!("verification failed: {e}")),
                report,
            },
        },
        Err(e) if matches!(e.kind, SimErrorKind::Mem(_)) => RunOutcome {
            config,
            stats: None,
            error: Some(format!("OOM/memory: {e}")),
            report,
        },
        Err(e) => RunOutcome {
            config,
            stats: None,
            error: Some(e.to_string()),
            report,
        },
    }
}

/// Runs one proxy under every configuration.
pub fn run_all_configs(app: &dyn ProxyApp) -> Vec<RunOutcome> {
    BuildConfig::ALL
        .iter()
        .map(|&c| run_proxy(app, c))
        .collect()
}

/// Renders the pass-timing table printed by `--time-passes`. Wall times
/// are host measurements and vary run to run; the IR deltas are
/// deterministic.
pub fn render_pass_timings(timings: &[PassTiming]) -> String {
    if timings.is_empty() {
        return "pass timings: (mid-end did not run for this configuration)\n".to_string();
    }
    let mut out = String::new();
    out.push_str("pass timings (wall time is host-side; IR deltas are before -> after):\n");
    out.push_str(&format!(
        "  {:<13} {:>10} {:>5}  {:>15}  {:>13}  {:>11}\n",
        "STAGE", "WALL", "RUNS", "INSTS", "BLOCKS", "FUNCS"
    ));
    for t in timings {
        out.push_str(&format!(
            "  {:<13} {:>10} {:>5}  {:>6} -> {:<6}  {:>5} -> {:<5}  {:>4} -> {:<4}\n",
            t.pass,
            format_nanos(t.wall_nanos),
            t.runs,
            t.insts_before,
            t.insts_after,
            t.blocks_before,
            t.blocks_after,
            t.funcs_before,
            t.funcs_after,
        ));
    }
    let total: u64 = timings.iter().map(|t| t.wall_nanos).sum();
    out.push_str(&format!(
        "  total mid-end wall time: {}\n",
        format_nanos(total)
    ));
    out
}

fn format_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.3}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.3}ms", n as f64 / 1e6)
    } else {
        format!("{:.1}us", n as f64 / 1e3)
    }
}

/// Result of one profiled proxy run: the ordinary [`RunOutcome`] plus
/// the cycle-attribution profile (present whenever the launch ran).
#[derive(Debug)]
pub struct ProfiledRun {
    /// The ordinary outcome (stats, error, optimizer report).
    pub outcome: RunOutcome,
    /// The launch profile; `None` when the build or launch failed.
    pub profile: Option<LaunchProfile>,
}

/// Builds and runs `app` under `config` with profiling enabled,
/// verifying results on success. `jobs` overrides the host worker-thread
/// count when given (profiles are bit-identical for every setting).
pub fn profile_proxy(app: &dyn ProxyApp, config: BuildConfig, jobs: Option<u32>) -> ProfiledRun {
    let fail = |error: String, report: Option<OptReport>| ProfiledRun {
        outcome: RunOutcome {
            config,
            stats: None,
            error: Some(error),
            report,
        },
        profile: None,
    };
    let source = if config.uses_cuda_source() {
        app.cuda_source()
    } else {
        app.openmp_source()
    };
    let (module, report) = match build(&source, config) {
        Ok(x) => x,
        Err(e) => return fail(e.to_string(), None),
    };
    let mut dev = match Device::new(&module, app.device_config()) {
        Ok(d) => d,
        Err(e) => return fail(e.to_string(), report),
    };
    dev.set_profile(ProfileMode::On);
    if let Some(j) = jobs {
        dev.set_jobs(j);
    }
    let workload: Workload = match app.prepare(&mut dev) {
        Ok(w) => w,
        Err(e) => return fail(e.to_string(), report),
    };
    match dev.launch_plan_profiled(app.kernel_name(), &workload.args, app.dims()) {
        Ok((stats, profile)) => match verify(&mut dev, &workload) {
            Ok(()) => ProfiledRun {
                outcome: RunOutcome {
                    config,
                    stats: Some(stats),
                    error: None,
                    report,
                },
                profile,
            },
            Err(e) => fail(format!("verification failed: {e}"), report),
        },
        Err(e) if matches!(e.kind, SimErrorKind::Mem(_)) => {
            fail(format!("OOM/memory: {e}"), report)
        }
        Err(e) => fail(e.to_string(), report),
    }
}

/// Options for a sanitized run: worker-thread count, the fault plan to
/// inject, an optional wall-clock watchdog, and an optional
/// per-thread instruction budget override.
#[derive(Debug, Clone, Default)]
pub struct SanitizeOptions {
    /// Simulator worker-thread count (`None` leaves the device default;
    /// findings are bit-identical for every setting).
    pub jobs: Option<u32>,
    /// Deterministic faults to inject (all-default plan injects none).
    pub fault: FaultPlan,
    /// Wall-clock budget for the launch; a hung kernel fails with a
    /// structured timeout diagnostic instead of stalling the caller.
    pub watchdog: Option<Duration>,
    /// Per-thread dynamic-instruction budget override.
    pub max_insts: Option<u64>,
}

/// Result of one sanitized run under one configuration.
#[derive(Debug)]
pub struct SanitizeOutcome {
    /// The configuration label.
    pub config: BuildConfig,
    /// Launch statistics on success.
    pub stats: Option<KernelStats>,
    /// Structured simulation error when the launch failed.
    pub error: Option<SimError>,
    /// Build/setup error when the subject never launched (compile or
    /// verifier failure, bad spec, allocation failure while staging).
    pub setup_error: Option<String>,
    /// Sanitizer findings, merged in team-id order. On a failed launch
    /// these are the findings the error carried (e.g. divergence notes
    /// attached to a deadlock).
    pub findings: Vec<Finding>,
}

impl SanitizeOutcome {
    fn setup_failed(config: BuildConfig, error: String) -> SanitizeOutcome {
        SanitizeOutcome {
            config,
            stats: None,
            error: None,
            setup_error: Some(error),
            findings: Vec::new(),
        }
    }

    /// Error-severity findings (notes like shared-stack fallback do not
    /// count against cleanliness).
    pub fn error_findings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// True when the run completed and the sanitizer reported no
    /// error-severity finding.
    pub fn is_clean(&self) -> bool {
        self.error.is_none() && self.setup_error.is_none() && self.error_findings() == 0
    }

    /// Human-readable per-configuration report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let verdict = if self.is_clean() {
            "clean"
        } else if self.error.is_some() || self.setup_error.is_some() {
            "failed"
        } else {
            "findings"
        };
        out.push_str(&format!("{:<12} {}\n", self.config.label(), verdict));
        if let Some(e) = &self.setup_error {
            out.push_str(&format!("  setup error: {e}\n"));
        }
        if let Some(e) = &self.error {
            out.push_str(&format!("  error: {e}\n"));
        }
        for f in &self.findings {
            out.push_str(&format!("  {}\n", f.render()));
        }
        out
    }

    /// Machine-readable report (`ompgpu-sanitize/v1`).
    pub fn write_json(&self, w: &mut omp_json::JsonWriter) {
        w.begin_object();
        w.key("config").string(self.config.label());
        w.key("clean").bool(self.is_clean());
        if let Some(e) = &self.setup_error {
            w.key("setup_error").string(e);
        }
        if let Some(e) = &self.error {
            w.key("error").raw(&e.to_json());
        }
        w.key("findings").begin_array();
        for f in &self.findings {
            f.write_json(w);
        }
        w.end_array();
        w.end_object();
    }
}

/// Serializes sanitize outcomes as one `ompgpu-sanitize/v1` document.
pub fn sanitize_report_json(subject: &str, outcomes: &[SanitizeOutcome]) -> String {
    let mut w = omp_json::JsonWriter::with_capacity(1024);
    w.begin_object();
    w.key("schema").string("ompgpu-sanitize/v1");
    w.key("subject").string(subject);
    w.key("clean").bool(outcomes.iter().all(|o| o.is_clean()));
    w.key("configs").begin_array();
    for o in outcomes {
        o.write_json(&mut w);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

fn sanitized_device<'m>(
    module: &'m Module,
    cfg: omp_gpusim::DeviceConfig,
    opts: &SanitizeOptions,
) -> Result<Device<'m>, SimError> {
    let mut dev = Device::new(module, cfg)?;
    dev.set_sanitize(SanitizeMode::On);
    dev.set_fault_plan(opts.fault.clone());
    dev.set_watchdog(opts.watchdog);
    if let Some(b) = opts.max_insts {
        dev.set_max_insts(b);
    }
    if let Some(j) = opts.jobs {
        dev.set_jobs(j);
    }
    Ok(dev)
}

/// Builds and runs `app` under `config` with the sanitizer on,
/// collecting findings (results are not verified — the differential
/// oracle owns correctness; the sanitizer owns synchronization).
pub fn sanitize_proxy(
    app: &dyn ProxyApp,
    config: BuildConfig,
    opts: &SanitizeOptions,
) -> SanitizeOutcome {
    let source = if config.uses_cuda_source() {
        app.cuda_source()
    } else {
        app.openmp_source()
    };
    let (module, _report) = match build(&source, config) {
        Ok(x) => x,
        Err(e) => return SanitizeOutcome::setup_failed(config, e.to_string()),
    };
    let mut dev = match sanitized_device(&module, app.device_config(), opts) {
        Ok(d) => d,
        Err(e) => return SanitizeOutcome::setup_failed(config, e.to_string()),
    };
    let workload: Workload = match app.prepare(&mut dev) {
        Ok(w) => w,
        Err(e) => return SanitizeOutcome::setup_failed(config, e.to_string()),
    };
    finish_sanitized(
        config,
        dev.launch_plan_checked(app.kernel_name(), &workload.args, app.dims()),
    )
}

/// Builds and runs an example source (with an `// oracle-*:` spec
/// header, see [`crate::oracle::ExampleSpec`]) under `config` with the
/// sanitizer on.
pub fn sanitize_source(
    source: &str,
    config: BuildConfig,
    opts: &SanitizeOptions,
) -> SanitizeOutcome {
    let spec = match crate::oracle::ExampleSpec::parse(source) {
        Ok(s) => s,
        Err(e) => return SanitizeOutcome::setup_failed(config, format!("spec error: {e}")),
    };
    let (module, _report) = match build(source, config) {
        Ok(x) => x,
        Err(e) => return SanitizeOutcome::setup_failed(config, e.to_string()),
    };
    let mut dev = match sanitized_device(&module, Default::default(), opts) {
        Ok(d) => d,
        Err(e) => return SanitizeOutcome::setup_failed(config, e.to_string()),
    };
    let (args, _buffers) = match crate::oracle::materialize_args(&mut dev, &spec.args) {
        Ok(x) => x,
        Err(e) => return SanitizeOutcome::setup_failed(config, e),
    };
    let dims = omp_gpusim::LaunchDims {
        teams: spec.teams,
        threads: spec.threads,
    };
    finish_sanitized(config, dev.launch_plan_checked(&spec.kernel, &args, dims))
}

fn finish_sanitized(
    config: BuildConfig,
    launched: Result<(KernelStats, Vec<Finding>), SimError>,
) -> SanitizeOutcome {
    match launched {
        Ok((stats, findings)) => SanitizeOutcome {
            config,
            stats: Some(stats),
            error: None,
            setup_error: None,
            findings,
        },
        Err(e) => {
            let findings = e.findings.clone();
            SanitizeOutcome {
                config,
                stats: None,
                error: Some(e),
                setup_error: None,
                findings,
            }
        }
    }
}
