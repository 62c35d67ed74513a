//! The in-process workloads: `verify-small`, `verify-bench` and
//! `inspect-bench`.
//!
//! An untraced op calls the same public entry points `ompgpu verify`,
//! `ompgpu profile` and `ompgpu sanitize` use. A traced op runs the same
//! cases through the individual layer calls underneath them, timing each
//! call, and must reproduce the untraced op's launch count, simulated
//! instructions and cycles exactly.

use crate::stats::{geomean, Rng};
use crate::trace::Tracer;
use crate::Example;
use omp_gpu::oracle::{self, ExampleSpec, VerifyOptions, ORACLE_CONFIGS};
use omp_gpu::{
    all_proxies, pipeline, BuildConfig, Device, DeviceConfig, LaunchDims, Module, PassStat,
    ProfileMode, ProxyApp, SanitizeMode, SanitizeOptions, Scale, StatsSnapshot, Tier,
};
use std::path::Path;

/// The openmp-opt transformations counted per op, by `PassStat` name.
pub const APPLIED_KINDS: [&str; 5] = [
    "spmdization",
    "heap-to-stack",
    "heap-to-shared",
    "state-machine",
    "folding",
];

/// Layers that partition a traced op's wall time (everything else is
/// `oracle.other_us`). `passes.*` and `openmp-opt` sit inside `optimize`.
pub const TOP_LAYERS: [&str; 8] = [
    "frontend",
    "optimize",
    "gpusim.device_new",
    "gpusim.prepare",
    "gpusim.launch",
    "gpusim.check",
    "gpusim.profile",
    "gpusim.sanitize",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    VerifySmall,
    VerifyBench,
    InspectBench,
}

/// Deterministic counts of one op. Every op of a workload must produce
/// the same counts, traced or not (`insts_after` is traced-only).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    pub launches: u64,
    pub sim_insts: u64,
    pub tier0_insts: u64,
    pub tier1_insts: u64,
    /// Model cycles of every successful launch.
    pub cycles: Vec<u64>,
    pub fused_steps: u64,
    pub plain_steps: u64,
    pub applied: [u64; 5],
    /// Live instructions after optimization, summed over every build.
    pub insts_after: u64,
}

impl Counts {
    pub(crate) fn add_launch(&mut self, s: &StatsSnapshot) {
        self.launches += 1;
        self.sim_insts += s.instructions;
        match s.tier {
            Tier::Interp => self.tier0_insts += s.instructions,
            Tier::Compiled => self.tier1_insts += s.instructions,
        }
        self.cycles.push(s.cycles);
        let [gep_load, load_bin_store, cmp_br, plain] = s.superinstructions;
        self.fused_steps += gep_load + load_bin_store + cmp_br;
        self.plain_steps += plain;
    }

    pub(crate) fn add_pass_stats(&mut self, stats: &[PassStat]) {
        for p in stats {
            if let Some(i) = APPLIED_KINDS.iter().position(|k| *k == p.pass) {
                self.applied[i] += p.transformed as u64;
            }
        }
    }

    /// The counts an untraced op also produces, in a stable order.
    pub fn comparable(&self) -> Counts {
        let mut c = self.clone();
        c.insts_after = 0;
        c.cycles.sort_unstable();
        c
    }

    pub fn cycles_geomean(&self) -> f64 {
        geomean(&self.cycles)
    }
}

pub struct OpOutcome {
    pub counts: Counts,
    pub failures: Vec<String>,
}

enum Body {
    Proxy(Box<dyn ProxyApp>),
    Example(Example),
}

struct Subject {
    name: String,
    body: Body,
    /// `inspect-bench` only: the plain (unprofiled) launch's statistics.
    reference: Option<StatsSnapshot>,
}

/// Everything an op needs, generated from the seed.
pub struct Inputs {
    kind: Kind,
    subjects: Vec<Subject>,
    jobs: u32,
}

impl Inputs {
    pub fn new(kind: Kind, root: &Path, seed: u64, jobs: u32) -> Result<Inputs, String> {
        let scale = match kind {
            Kind::VerifySmall => Scale::Small,
            Kind::VerifyBench | Kind::InspectBench => Scale::Bench,
        };
        let mut subjects: Vec<Subject> = all_proxies(scale)
            .into_iter()
            .map(|app| Subject {
                name: app.name().to_string(),
                body: Body::Proxy(app),
                reference: None,
            })
            .collect();
        if kind == Kind::VerifySmall {
            subjects.extend(
                crate::read_examples(&root.join("examples/omp"))?
                    .into_iter()
                    .map(|e| Subject {
                        name: e.name.clone(),
                        body: Body::Example(e),
                        reference: None,
                    }),
            );
        }
        Rng::new(seed).shuffle(&mut subjects);
        if kind == Kind::InspectBench {
            for s in &mut subjects {
                let Body::Proxy(app) = &s.body else {
                    unreachable!("inspect-bench runs proxies only")
                };
                let plain = pipeline::run_proxy(app.as_ref(), BuildConfig::LlvmDev);
                let stats = plain
                    .stats
                    .ok_or_else(|| format!("{}: plain launch failed: {:?}", s.name, plain.error))?;
                s.reference = Some(stats.snapshot());
            }
        }
        Ok(Inputs {
            kind,
            subjects,
            jobs,
        })
    }

    /// Subject names in the seeded order ops visit them.
    pub fn order(&self) -> Vec<&str> {
        self.subjects.iter().map(|s| s.name.as_str()).collect()
    }
}

/// Statistics that must not depend on tier or profiling mode.
fn tier_invariant(s: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        tier: Tier::Compiled,
        superinstructions: [0; 4],
        ..s.clone()
    }
}

/// Live instructions of the defined functions of `m`.
pub fn live_insts(m: &Module) -> u64 {
    m.func_ids()
        .map(|id| m.func(id))
        .filter(|f| !f.is_declaration())
        .map(|f| f.num_insts() as u64)
        .sum()
}

/// One untraced op: a verify suite or an inspect sweep.
pub fn run_op(inp: &Inputs) -> OpOutcome {
    let mut counts = Counts::default();
    let mut failures = Vec::new();
    let opts = VerifyOptions {
        jobs: Some(inp.jobs),
        watchdog: None,
        tier: None,
    };
    for s in &inp.subjects {
        match (&s.body, inp.kind) {
            (Body::Proxy(app), Kind::InspectBench) => {
                let app = app.as_ref();
                let prof = pipeline::profile_proxy(app, BuildConfig::LlvmDev, Some(inp.jobs));
                match &prof.outcome.stats {
                    Some(st) => {
                        let snap = st.snapshot();
                        check_profiled(s, &snap, &mut failures);
                        counts.add_launch(&snap);
                    }
                    None => failures.push(format!("{}: profile: {:?}", s.name, prof.outcome.error)),
                }
                counts.add_pass_stats(&prof.outcome.pass_stats());
                let san = pipeline::sanitize_proxy(
                    app,
                    BuildConfig::LlvmDev,
                    &SanitizeOptions {
                        jobs: Some(inp.jobs),
                        ..SanitizeOptions::default()
                    },
                );
                if !san.is_clean() {
                    failures.push(format!("{}: sanitize: {}", s.name, san.render().trim()));
                }
                if let Some(st) = &san.stats {
                    counts.add_launch(&st.snapshot());
                }
            }
            (body, _) => {
                let case = match body {
                    Body::Proxy(app) => oracle::verify_proxy_opts(app.as_ref(), opts),
                    Body::Example(e) => oracle::verify_example_opts(&s.name, &e.source, opts),
                };
                if !case.passed() {
                    failures.push(format!("{}: {}", case.name, case.failures.join("; ")));
                }
                for r in &case.results {
                    if let Some(st) = &r.stats {
                        counts.add_launch(st);
                    }
                    counts.add_pass_stats(&r.pass_stats);
                }
            }
        }
    }
    OpOutcome { counts, failures }
}

fn check_profiled(s: &Subject, snap: &StatsSnapshot, failures: &mut Vec<String>) {
    let reference = s
        .reference
        .as_ref()
        .expect("inspect inputs carry references");
    if tier_invariant(snap) != tier_invariant(reference) {
        failures.push(format!(
            "{}: profiled stats differ from the plain launch's",
            s.name
        ));
    }
}

/// Records the optimizer's own per-pass timings under `optimize`.
fn note_report(tr: &mut Tracer, report: &Option<omp_gpu::OptReport>) {
    for t in report.iter().flat_map(|r| &r.pass_timings) {
        let layer = if t.pass == "openmp-opt" {
            "openmp-opt".to_string()
        } else {
            format!("passes.{}", t.pass)
        };
        tr.add(&layer, t.wall_nanos, u64::from(t.runs));
    }
}

/// Frontend + optimize under `config`, each timed as its own layer.
fn build_traced(
    tr: &mut Tracer,
    counts: &mut Counts,
    frontend: Result<Module, String>,
    config: BuildConfig,
) -> Result<(Module, Option<omp_gpu::OptReport>), String> {
    let (module, report) = tr.time("optimize", || {
        pipeline::optimize(frontend?, config).map_err(|e| e.to_string())
    })?;
    note_report(tr, &report);
    counts.insts_after += live_insts(&module);
    Ok((module, report))
}

/// One traced op: the same cases as [`run_op`], decomposed into
/// frontend → optimize → `Device::new` → prepare → launch → check.
pub fn run_op_traced(inp: &Inputs, tr: &mut Tracer) -> OpOutcome {
    let mut counts = Counts::default();
    let mut failures = Vec::new();
    for s in &inp.subjects {
        let r = match (&s.body, inp.kind) {
            (Body::Proxy(app), Kind::InspectBench) => {
                inspect_traced(s, app.as_ref(), inp.jobs, tr, &mut counts)
            }
            (body, _) => {
                verify_traced(body, inp.jobs, tr, &mut counts);
                Ok(())
            }
        };
        if let Err(e) = r {
            failures.push(format!("{}: {e}", s.name));
        }
    }
    OpOutcome { counts, failures }
}

fn verify_traced(body: &Body, jobs: u32, tr: &mut Tracer, counts: &mut Counts) {
    let source = match body {
        Body::Proxy(app) => app.openmp_source(),
        Body::Example(e) => e.source.clone(),
    };
    // The oracle runs the frontend once per globalization scheme.
    let mut frontends: Vec<(omp_gpu::GlobalizationScheme, Result<Module, String>)> = Vec::new();
    for &config in &ORACLE_CONFIGS {
        let scheme = config.frontend_options("bench").globalization;
        let frontend = match frontends.iter().find(|(s, _)| *s == scheme) {
            Some((_, m)) => m.clone(),
            None => {
                let m = tr.time("frontend", || {
                    pipeline::compile_frontend(&source, config).map_err(|e| e.to_string())
                });
                frontends.push((scheme, m.clone()));
                m
            }
        };
        let Ok((module, report)) = build_traced(tr, counts, frontend, config) else {
            continue;
        };
        let pass_stats = report.map(|r| r.pass_stats()).unwrap_or_default();
        // A failed launch is the oracle's documented out-of-memory
        // outcome or a divergence; either way it contributes no launch,
        // and the untraced op's verdict already judged it.
        let launched = match body {
            Body::Proxy(app) => launch_proxy(tr, &module, app.as_ref(), jobs, false),
            Body::Example(e) => launch_example(tr, &module, &e.spec, jobs),
        };
        if let Ok(snap) = launched {
            counts.add_launch(&snap);
            counts.add_pass_stats(&pass_stats);
        }
    }
}

/// Device::new → prepare → launch (plain or profiled) → host check.
fn launch_proxy(
    tr: &mut Tracer,
    module: &Module,
    app: &dyn ProxyApp,
    jobs: u32,
    profiled: bool,
) -> Result<StatsSnapshot, String> {
    let mut dev = tr
        .time("gpusim.device_new", || {
            Device::new(module, app.device_config())
        })
        .map_err(|e| e.to_string())?;
    dev.set_jobs(jobs);
    if profiled {
        dev.set_profile(ProfileMode::On);
    }
    let work = tr
        .time("gpusim.prepare", || app.prepare(&mut dev))
        .map_err(|e| e.to_string())?;
    let stats = if profiled {
        tr.time("gpusim.profile", || {
            dev.launch_plan_profiled(app.kernel_name(), &work.args, app.dims())
        })
        .map(|(s, _profile)| s)
    } else {
        tr.time("gpusim.launch", || {
            dev.launch_plan(app.kernel_name(), &work.args, app.dims())
        })
    }
    .map_err(|e| e.to_string())?;
    tr.time("gpusim.check", || {
        omp_benchmarks::verify(&mut dev, &work)?;
        dev.read_f64(work.out_buf, work.out_len)
            .map_err(|e| e.to_string())
    })?;
    Ok(stats.snapshot())
}

fn launch_example(
    tr: &mut Tracer,
    module: &Module,
    spec: &ExampleSpec,
    jobs: u32,
) -> Result<StatsSnapshot, String> {
    let mut dev = tr
        .time("gpusim.device_new", || {
            Device::new(module, DeviceConfig::default())
        })
        .map_err(|e| e.to_string())?;
    dev.set_jobs(jobs);
    let (args, buffers) = tr.time("gpusim.prepare", || {
        oracle::materialize_args(&mut dev, &spec.args)
    })?;
    let dims = LaunchDims {
        teams: spec.teams,
        threads: spec.threads,
    };
    let stats = tr
        .time("gpusim.launch", || {
            dev.launch_plan(&spec.kernel, &args, dims)
        })
        .map_err(|e| e.to_string())?;
    tr.time("gpusim.check", || {
        for (addr, len, is_f64) in buffers {
            if is_f64 {
                dev.read_f64(addr, len).map_err(|e| e.to_string())?;
            } else {
                dev.read_i64(addr, len).map_err(|e| e.to_string())?;
            }
        }
        Ok::<(), String>(())
    })?;
    Ok(stats.snapshot())
}

fn inspect_traced(
    s: &Subject,
    app: &dyn ProxyApp,
    jobs: u32,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let config = BuildConfig::LlvmDev;
    let source = app.openmp_source();
    // `profile_proxy`: build, profiled launch, host check.
    let frontend = tr.time("frontend", || {
        pipeline::compile_frontend(&source, config).map_err(|e| e.to_string())
    });
    let (module, report) = build_traced(tr, counts, frontend, config)?;
    let snap = launch_proxy(tr, &module, app, jobs, true)?;
    let mut failures = Vec::new();
    check_profiled(s, &snap, &mut failures);
    counts.add_launch(&snap);
    counts.add_pass_stats(&report.map(|r| r.pass_stats()).unwrap_or_default());
    // `sanitize_proxy`: a fresh build, sanitized launch, no host check.
    let frontend = tr.time("frontend", || {
        pipeline::compile_frontend(&source, config).map_err(|e| e.to_string())
    });
    let (module, _report) = build_traced(tr, counts, frontend, config)?;
    let mut dev = tr
        .time("gpusim.device_new", || {
            Device::new(&module, app.device_config())
        })
        .map_err(|e| e.to_string())?;
    dev.set_sanitize(SanitizeMode::On);
    dev.set_jobs(jobs);
    let work = tr
        .time("gpusim.prepare", || app.prepare(&mut dev))
        .map_err(|e| e.to_string())?;
    let (stats, findings) = tr
        .time("gpusim.sanitize", || {
            dev.launch_plan_checked(app.kernel_name(), &work.args, app.dims())
        })
        .map_err(|e| e.to_string())?;
    if findings
        .iter()
        .any(|f| f.severity == omp_gpu::Severity::Error)
    {
        failures.push("sanitizer reported error findings".to_string());
    }
    counts.add_launch(&stats.snapshot());
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// The paper's figure of merit: geometric mean over the four proxies
/// (small scale) of LLVM Dev cycles over CUDA-style cycles.
pub fn dev_vs_cuda_cycles() -> Result<f64, String> {
    let mut log_sum = 0.0;
    let proxies = all_proxies(Scale::Small);
    for app in &proxies {
        let cycles = |config| {
            pipeline::run_proxy(app.as_ref(), config)
                .cycles()
                .ok_or_else(|| format!("{} under {config:?} failed", app.name()))
        };
        let dev = cycles(BuildConfig::LlvmDev)?;
        let cuda = cycles(BuildConfig::CudaStyle)?;
        log_sum += (dev as f64 / cuda as f64).ln();
    }
    Ok((log_sum / proxies.len() as f64).exp())
}
