//! Differential-execution oracle.
//!
//! The optimizer's correctness argument in this repository is
//! *differential*: every program is executed in the simulator under
//! every configuration of the paper's ablation matrix
//! ([`ORACLE_CONFIGS`]), and the outputs must be **bit-identical** —
//! the optimizations reorder and remove runtime machinery, never
//! arithmetic, so even floating-point results may not drift by one ulp.
//! On top of output equality the oracle asserts that resource statistics
//! move the right way along the ablation chain ([`ABLATION_CHAIN`]):
//! each added optimization may only shrink the device-heap high-water
//! mark, the number of runtime globalization allocations, and the
//! simulated kernel cost.
//!
//! Two kinds of subject are supported:
//!
//! * the four proxy benchmarks ([`verify_proxy`], [`verify_proxies`]) —
//!   outputs are the proxy's `f64` result buffer, additionally checked
//!   against the host reference implementation;
//! * small frontend examples ([`verify_example`],
//!   [`verify_examples_dir`]) — `.c` files with an `// oracle-*:` spec
//!   header (see [`ExampleSpec`]) describing the kernel, launch
//!   geometry, and deterministic argument initialization; outputs are
//!   every buffer argument, read back bit-for-bit.
//!
//! `ompgpu verify` and `crates/core/tests/differential.rs` are thin
//! drivers over this module.

use crate::config::BuildConfig;
use crate::pipeline;
use omp_benchmarks::{all_proxies, ProxyApp, Scale};
use omp_frontend::GlobalizationScheme;
use omp_gpusim::{Device, LaunchDims, RtVal, StatsSnapshot, Tier};
use omp_ir::Module;
use omp_opt::PassStat;
use std::time::Duration;

/// The configurations the oracle compares: every entry of the paper's
/// ablation matrix that compiles the *OpenMP* source. (`CudaStyle`
/// compiles a different source whose operation order may legally differ,
/// so it is excluded from bit-comparison.)
pub const ORACLE_CONFIGS: [BuildConfig; 6] = [
    BuildConfig::Llvm12Baseline,
    BuildConfig::NoOpenmpOpt,
    BuildConfig::H2S2,
    BuildConfig::H2S2Rtc,
    BuildConfig::H2S2RtcCsm,
    BuildConfig::LlvmDev,
];

/// The ablation chain along which resource statistics must be monotone:
/// each configuration adds one optimization over its predecessor.
/// (`Llvm12Baseline` uses a different globalization scheme and is not
/// part of the chain.)
pub const ABLATION_CHAIN: [BuildConfig; 5] = [
    BuildConfig::NoOpenmpOpt,
    BuildConfig::H2S2,
    BuildConfig::H2S2Rtc,
    BuildConfig::H2S2RtcCsm,
    BuildConfig::LlvmDev,
];

/// Result of one (subject, configuration) execution.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Configuration executed.
    pub config: BuildConfig,
    /// Bit patterns of every output value (`f64::to_bits` /
    /// `i64 as u64`), in buffer order. `None` when the run failed.
    pub bits: Option<Vec<u64>>,
    /// Deterministic launch statistics. `None` when the run failed.
    pub stats: Option<StatsSnapshot>,
    /// Error description when the run failed.
    pub error: Option<String>,
    /// Per-pass optimizer statistics (empty when the OpenMP pass did
    /// not run under this configuration).
    pub pass_stats: Vec<PassStat>,
}

impl CaseResult {
    fn failed(config: BuildConfig, error: String) -> CaseResult {
        CaseResult {
            config,
            bits: None,
            stats: None,
            error: Some(error),
            pass_stats: Vec::new(),
        }
    }
}

/// Differential verdict for one subject across all configurations.
#[derive(Debug, Clone)]
pub struct OracleCase {
    /// Subject name (proxy name or example file stem).
    pub name: String,
    /// One result per entry of [`ORACLE_CONFIGS`], in order.
    pub results: Vec<CaseResult>,
    /// Divergences found (empty means the case passed).
    pub failures: Vec<String>,
    /// Failures that match a documented expectation (e.g. RSBench's
    /// out-of-memory under the LLVM 12 baseline) — informational only.
    pub expected_failures: Vec<String>,
}

impl OracleCase {
    /// Whether the case passed (no unexplained divergence).
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of configurations that executed to completion.
    pub fn successes(&self) -> usize {
        self.results.iter().filter(|r| r.bits.is_some()).count()
    }
}

/// Report over a set of subjects.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// One entry per verified subject.
    pub cases: Vec<OracleCase>,
}

impl OracleReport {
    /// Whether every case passed.
    pub fn passed(&self) -> bool {
        self.cases.iter().all(|c| c.passed())
    }

    /// Human-readable summary, one block per case.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for case in &self.cases {
            out.push_str(&format!(
                "{} {} ({}/{} configs executed)\n",
                if case.passed() { "PASS" } else { "FAIL" },
                case.name,
                case.successes(),
                case.results.len()
            ));
            for r in &case.results {
                match (&r.stats, &r.error) {
                    (Some(s), _) => out.push_str(&format!(
                        "  {:<40} cycles={:<10} heap={:<8} smem={:<6} galloc={}\n",
                        r.config.label(),
                        s.cycles,
                        s.heap_bytes,
                        s.shared_mem_bytes,
                        s.globalization_allocs
                    )),
                    (None, Some(e)) => {
                        out.push_str(&format!("  {:<40} error: {e}\n", r.config.label()))
                    }
                    (None, None) => unreachable!("failed result without error"),
                }
            }
            for e in &case.expected_failures {
                out.push_str(&format!("  (expected) {e}\n"));
            }
            for f in &case.failures {
                out.push_str(&format!("  DIVERGENCE: {f}\n"));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Example spec headers
// ---------------------------------------------------------------------

/// Deterministic initialization of a buffer argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufInit {
    /// All zeros.
    Zero,
    /// `buf[i] = i` (as the element type).
    Iota,
    /// `buf[i] = lcg(i)` — the benchmarks' deterministic pseudo-random
    /// sequence in `[0, 1)` (scaled to integers for `i64` buffers).
    Pseudo,
}

/// One kernel argument of an example spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgSpec {
    /// `f64` buffer of the given length; read back for bit-comparison.
    BufF64(usize, BufInit),
    /// `i64` buffer of the given length; read back for bit-comparison.
    BufI64(usize, BufInit),
    /// Scalar arguments.
    I64(i64),
    /// 32-bit scalar.
    I32(i32),
    /// Floating-point scalar.
    F64(f64),
}

/// Parsed `// oracle-*:` header of an example `.c` file:
///
/// ```c
/// // oracle-kernel: saxpy
/// // oracle-teams: 4
/// // oracle-threads: 32
/// // oracle-arg: buf f64 64 iota
/// // oracle-arg: f64 2.5
/// // oracle-arg: i64 64
/// void saxpy(double* a, double f, long n) { ... }
/// ```
///
/// `oracle-kernel` and at least one `oracle-arg` are required;
/// `oracle-teams`/`oracle-threads` default to the device's choice.
/// Buffer initializers are `zero`, `iota`, or `pseudo` (default `zero`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExampleSpec {
    /// Kernel to launch.
    pub kernel: String,
    /// `num_teams` override.
    pub teams: Option<u32>,
    /// `thread_limit` override.
    pub threads: Option<u32>,
    /// Launch arguments in order.
    pub args: Vec<ArgSpec>,
}

impl ArgSpec {
    /// Parses the colon-separated spelling shared by the CLI's `--arg`
    /// flag and the serve protocol's `"args"` array:
    /// `buf:f64:LEN[:init]`, `buf:i64:LEN[:init]`, `i64:V`, `i32:V`,
    /// `f64:V` (init: `zero` — the default — `iota`, or `pseudo`).
    pub fn parse_colon(s: &str) -> Option<ArgSpec> {
        let init = |name: &str| -> Option<BufInit> {
            Some(match name {
                "zero" => BufInit::Zero,
                "iota" => BufInit::Iota,
                "pseudo" => BufInit::Pseudo,
                _ => return None,
            })
        };
        let parts: Vec<&str> = s.split(':').collect();
        match parts.as_slice() {
            ["buf", "f64", n] => Some(ArgSpec::BufF64(n.parse().ok()?, BufInit::Zero)),
            ["buf", "f64", n, i] => Some(ArgSpec::BufF64(n.parse().ok()?, init(i)?)),
            ["buf", "i64", n] => Some(ArgSpec::BufI64(n.parse().ok()?, BufInit::Zero)),
            ["buf", "i64", n, i] => Some(ArgSpec::BufI64(n.parse().ok()?, init(i)?)),
            ["i64", v] => Some(ArgSpec::I64(v.parse().ok()?)),
            ["i32", v] => Some(ArgSpec::I32(v.parse().ok()?)),
            ["f64", v] => Some(ArgSpec::F64(v.parse().ok()?)),
            _ => None,
        }
    }
}

impl ExampleSpec {
    /// Parses the spec header out of an example source file.
    pub fn parse(source: &str) -> Result<ExampleSpec, String> {
        let mut kernel = None;
        let mut teams = None;
        let mut threads = None;
        let mut args = Vec::new();
        for line in source.lines() {
            let Some(rest) = line.trim().strip_prefix("// oracle-") else {
                continue;
            };
            let (key, value) = rest
                .split_once(':')
                .ok_or_else(|| format!("malformed oracle directive: {line:?}"))?;
            let value = value.trim();
            match key {
                "kernel" => kernel = Some(value.to_string()),
                "teams" => {
                    teams = Some(value.parse().map_err(|_| format!("bad teams: {value:?}"))?)
                }
                "threads" => {
                    threads = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad threads: {value:?}"))?,
                    )
                }
                "arg" => args.push(parse_arg(value)?),
                other => return Err(format!("unknown oracle directive: {other:?}")),
            }
        }
        let kernel = kernel.ok_or("missing `// oracle-kernel:` directive")?;
        if args.is_empty() {
            return Err("missing `// oracle-arg:` directives".into());
        }
        Ok(ExampleSpec {
            kernel,
            teams,
            threads,
            args,
        })
    }
}

fn parse_arg(s: &str) -> Result<ArgSpec, String> {
    let parts: Vec<&str> = s.split_whitespace().collect();
    let init = |name: Option<&&str>| -> Result<BufInit, String> {
        match name.copied() {
            None | Some("zero") => Ok(BufInit::Zero),
            Some("iota") => Ok(BufInit::Iota),
            Some("pseudo") => Ok(BufInit::Pseudo),
            Some(other) => Err(format!("unknown buffer init: {other:?}")),
        }
    };
    match parts.as_slice() {
        ["buf", "f64", n, rest @ ..] => Ok(ArgSpec::BufF64(
            n.parse().map_err(|_| format!("bad length: {n:?}"))?,
            init(rest.first())?,
        )),
        ["buf", "i64", n, rest @ ..] => Ok(ArgSpec::BufI64(
            n.parse().map_err(|_| format!("bad length: {n:?}"))?,
            init(rest.first())?,
        )),
        ["i64", v] => Ok(ArgSpec::I64(
            v.parse().map_err(|_| format!("bad i64: {v:?}"))?,
        )),
        ["i32", v] => Ok(ArgSpec::I32(
            v.parse().map_err(|_| format!("bad i32: {v:?}"))?,
        )),
        ["f64", v] => Ok(ArgSpec::F64(
            v.parse().map_err(|_| format!("bad f64: {v:?}"))?,
        )),
        _ => Err(format!("malformed oracle-arg: {s:?}")),
    }
}

/// The deterministic pseudo-random sequence shared with
/// `omp_benchmarks` (kept in lock-step so specs stay reproducible).
fn lcg01(i: i64) -> f64 {
    let h = (i.wrapping_mul(9973) + 12345).rem_euclid(100_000);
    h as f64 / 100_000.0
}

/// `(device address, element count, is_f64)` of a materialized buffer.
pub type BufferHandle = (u64, usize, bool);

/// Materializes launch arguments on a device: buffers are allocated and
/// deterministically initialized per their [`BufInit`]; scalars pass
/// through. Returns the launch arguments plus a [`BufferHandle`] for
/// every buffer, in argument order.
pub fn materialize_args(
    dev: &mut Device,
    specs: &[ArgSpec],
) -> Result<(Vec<RtVal>, Vec<BufferHandle>), String> {
    let mut args: Vec<RtVal> = Vec::new();
    let mut buffers: Vec<BufferHandle> = Vec::new();
    for a in specs {
        let (n, init, is_f64) = match *a {
            ArgSpec::BufF64(n, init) => (n, init, true),
            ArgSpec::BufI64(n, init) => (n, init, false),
            ArgSpec::I64(v) => {
                args.push(RtVal::I64(v));
                continue;
            }
            ArgSpec::I32(v) => {
                args.push(RtVal::I32(v));
                continue;
            }
            ArgSpec::F64(v) => {
                args.push(RtVal::F64(v));
                continue;
            }
        };
        // Reserve the device buffer before building any host data, so an
        // oversized length is the allocator's structured `GlobalExhausted`
        // refusal rather than a host allocation abort. A byte size that
        // overflows is requested as `u64::MAX`, refused the same way.
        let bytes = u64::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(8))
            .unwrap_or(u64::MAX);
        let addr = dev.alloc(bytes).map_err(|e| e.to_string())?;
        let mut data = Vec::with_capacity(n * 8);
        data.extend((0..n as i64).flat_map(|i| match (init, is_f64) {
            (BufInit::Zero, _) => [0; 8],
            (BufInit::Iota, true) => (i as f64).to_le_bytes(),
            (BufInit::Iota, false) => i.to_le_bytes(),
            (BufInit::Pseudo, true) => lcg01(i).to_le_bytes(),
            (BufInit::Pseudo, false) => ((lcg01(i) * 1000.0) as i64).to_le_bytes(),
        }));
        dev.write_bytes(addr, &data).map_err(|e| e.to_string())?;
        buffers.push((addr, n, is_f64));
        args.push(RtVal::Ptr(addr));
    }
    Ok((args, buffers))
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

fn pass_stats_of(report: &Option<omp_opt::OptReport>) -> Vec<PassStat> {
    report.as_ref().map(|r| r.pass_stats()).unwrap_or_default()
}

/// Frontend compilation cache for one subject.
///
/// The frontend's output depends on the build configuration only
/// through its globalization scheme (no [`ORACLE_CONFIGS`] entry
/// compiles in CUDA mode), so the six-config ablation matrix needs at
/// most two frontend runs per subject — one `Legacy`, one `Simplified`.
/// Each lookup clones the cached module; the clone is what the
/// per-configuration optimizer then mutates.
struct FrontendCache<'s> {
    source: &'s str,
    entries: Vec<(GlobalizationScheme, Result<Module, String>)>,
}

impl<'s> FrontendCache<'s> {
    fn new(source: &'s str) -> FrontendCache<'s> {
        FrontendCache {
            source,
            entries: Vec::new(),
        }
    }

    fn module(&mut self, config: BuildConfig) -> Result<Module, String> {
        let fe = config.frontend_options("bench");
        debug_assert!(!fe.cuda_mode, "oracle configs compile OpenMP source");
        let scheme = fe.globalization;
        if let Some((_, cached)) = self.entries.iter().find(|(s, _)| *s == scheme) {
            return cached.clone();
        }
        let result = pipeline::compile_frontend(self.source, config).map_err(|e| e.to_string());
        self.entries.push((scheme, result.clone()));
        result
    }
}

/// Per-run oracle knobs: simulator worker-thread count and the
/// wall-clock watchdog applied to every launch. The watchdog turns a
/// hung configuration into an ordinary per-configuration failure (with
/// a structured timeout diagnostic) instead of stalling the matrix.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifyOptions {
    /// Simulator worker-thread count (`None` leaves the device default;
    /// `Some(0)` is auto-detect). Outputs are bit-identical for every
    /// setting.
    pub jobs: Option<u32>,
    /// Wall-clock budget per launch; `None` disables the watchdog.
    pub watchdog: Option<Duration>,
    /// Simulator execution-tier override (`None` keeps the device
    /// default). Outputs and statistics are bit-identical per tier.
    pub tier: Option<Tier>,
}

impl VerifyOptions {
    fn jobs_only(jobs: Option<u32>) -> VerifyOptions {
        VerifyOptions {
            jobs,
            watchdog: None,
            tier: None,
        }
    }
}

/// Runs one proxy under one configuration, capturing output bits.
fn run_proxy_config(
    app: &dyn ProxyApp,
    frontend: Result<Module, String>,
    config: BuildConfig,
    opts: VerifyOptions,
) -> CaseResult {
    let module = match frontend {
        Ok(m) => m,
        Err(e) => return CaseResult::failed(config, e),
    };
    let (module, report) = match pipeline::optimize(module, config) {
        Ok(x) => x,
        Err(e) => return CaseResult::failed(config, e.to_string()),
    };
    let pass_stats = pass_stats_of(&report);
    let mut dev = match Device::new(&module, app.device_config()) {
        Ok(d) => d,
        Err(e) => return CaseResult::failed(config, e.to_string()),
    };
    dev.set_watchdog(opts.watchdog);
    if let Some(j) = opts.jobs {
        dev.set_jobs(j);
    }
    if let Some(t) = opts.tier {
        dev.set_tier(t);
    }
    let workload = match app.prepare(&mut dev) {
        Ok(w) => w,
        Err(e) => return CaseResult::failed(config, e.to_string()),
    };
    let stats = match dev.launch_plan(app.kernel_name(), &workload.args, app.dims()) {
        Ok(s) => s,
        Err(e) => return CaseResult::failed(config, e.to_string()),
    };
    // Host-reference check first: bit-equality between two wrong builds
    // must not pass the oracle.
    if let Err(e) = omp_benchmarks::verify(&mut dev, &workload) {
        return CaseResult::failed(config, format!("host-reference mismatch: {e}"));
    }
    let out = match dev.read_f64(workload.out_buf, workload.out_len) {
        Ok(v) => v,
        Err(e) => return CaseResult::failed(config, format!("readback failed: {e}")),
    };
    CaseResult {
        config,
        bits: Some(out.iter().map(|v| v.to_bits()).collect()),
        stats: Some(stats.snapshot()),
        error: None,
        pass_stats,
    }
}

/// Runs one example spec under one configuration, capturing the bits of
/// every buffer argument.
fn run_example_config(
    frontend: Result<Module, String>,
    spec: &ExampleSpec,
    config: BuildConfig,
    opts: VerifyOptions,
) -> CaseResult {
    let module = match frontend {
        Ok(m) => m,
        Err(e) => return CaseResult::failed(config, e),
    };
    let (module, report) = match pipeline::optimize(module, config) {
        Ok(x) => x,
        Err(e) => return CaseResult::failed(config, e.to_string()),
    };
    let pass_stats = pass_stats_of(&report);
    let mut dev = match Device::new(&module, Default::default()) {
        Ok(d) => d,
        Err(e) => return CaseResult::failed(config, e.to_string()),
    };
    dev.set_watchdog(opts.watchdog);
    if let Some(j) = opts.jobs {
        dev.set_jobs(j);
    }
    if let Some(t) = opts.tier {
        dev.set_tier(t);
    }
    let (args, buffers) = match materialize_args(&mut dev, &spec.args) {
        Ok(x) => x,
        Err(e) => return CaseResult::failed(config, e),
    };
    let dims = LaunchDims {
        teams: spec.teams,
        threads: spec.threads,
    };
    let stats = match dev.launch_plan(&spec.kernel, &args, dims) {
        Ok(s) => s,
        Err(e) => return CaseResult::failed(config, e.to_string()),
    };
    let mut bits: Vec<u64> = Vec::new();
    for (addr, len, is_f64) in buffers {
        if is_f64 {
            match dev.read_f64(addr, len) {
                Ok(v) => bits.extend(v.iter().map(|x| x.to_bits())),
                Err(e) => return CaseResult::failed(config, format!("readback failed: {e}")),
            }
        } else {
            match dev.read_i64(addr, len) {
                Ok(v) => bits.extend(v.iter().map(|x| *x as u64)),
                Err(e) => return CaseResult::failed(config, format!("readback failed: {e}")),
            }
        }
    }
    CaseResult {
        config,
        bits: Some(bits),
        stats: Some(stats.snapshot()),
        error: None,
        pass_stats,
    }
}

/// Derives the verdict from per-configuration results: bit-identical
/// outputs across every successful configuration, tolerated documented
/// failures, and monotone resource statistics along [`ABLATION_CHAIN`].
pub(crate) fn finish_case(name: &str, results: Vec<CaseResult>) -> OracleCase {
    let mut failures = Vec::new();
    let mut expected_failures = Vec::new();

    // 1. Failures: tolerated only for the configurations that lack the
    //    globalization optimizations — the LLVM 12 baseline and the
    //    "No OpenMP Optimization" ablation — running out of
    //    globalization heap: the paper's documented RSBench outcome
    //    (every thread globalizes into the deliberately small default
    //    heap; at bench scale the unoptimized ablation exhausts it too).
    for r in &results {
        if let Some(e) = &r.error {
            let oom = e.contains("memory") || e.contains("OOM") || e.contains("heap");
            let unoptimized = matches!(
                r.config,
                BuildConfig::Llvm12Baseline | BuildConfig::NoOpenmpOpt
            );
            if unoptimized && oom {
                expected_failures.push(format!(
                    "{}: {e} (the paper's out-of-memory baseline result)",
                    r.config.label()
                ));
            } else {
                failures.push(format!("{}: {e}", r.config.label()));
            }
        }
    }

    // 2. Bit-identical outputs. Reference: the first successful config
    //    in matrix order.
    if let Some(reference) = results.iter().find(|r| r.bits.is_some()) {
        let ref_bits = reference.bits.as_ref().unwrap();
        for r in &results {
            let Some(bits) = &r.bits else { continue };
            if bits.len() != ref_bits.len() {
                failures.push(format!(
                    "{}: {} output values vs {} under {}",
                    r.config.label(),
                    bits.len(),
                    ref_bits.len(),
                    reference.config.label()
                ));
                continue;
            }
            if let Some(i) = (0..bits.len()).find(|&i| bits[i] != ref_bits[i]) {
                failures.push(format!(
                    "{}: output {i} is {} ({:e}) but {} under {} ({:e})",
                    r.config.label(),
                    bits[i],
                    f64::from_bits(bits[i]),
                    ref_bits[i],
                    reference.config.label(),
                    f64::from_bits(ref_bits[i]),
                ));
            }
        }
    } else {
        failures.push("no configuration executed successfully".to_string());
    }

    // 3. Monotone resource statistics along the ablation chain.
    let chain: Vec<&CaseResult> = ABLATION_CHAIN
        .iter()
        .filter_map(|c| results.iter().find(|r| r.config == *c))
        .filter(|r| r.stats.is_some())
        .collect();
    for pair in chain.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let (sa, sb) = (a.stats.as_ref().unwrap(), b.stats.as_ref().unwrap());
        // Strictly monotone quantities: each optimization can only
        // remove runtime allocations and indirect dispatch.
        for (what, va, vb) in [
            ("device-heap bytes", sa.heap_bytes, sb.heap_bytes),
            (
                "globalization allocations",
                sa.globalization_allocs,
                sb.globalization_allocs,
            ),
            ("indirect calls", sa.indirect_calls, sb.indirect_calls),
        ] {
            if vb > va {
                failures.push(format!(
                    "{what} regressed along the ablation chain: {va} under {} but {vb} under {}",
                    a.config.label(),
                    b.config.label()
                ));
            }
        }
        // Simulated cost: monotone non-increasing. Every step of the
        // ladder only enables more optimization, and the mid-end runs
        // identically under every configuration on the chain, so a
        // single extra cycle means a later configuration pessimized the
        // kernel — a real bug, not noise (the simulator is
        // deterministic). The failure names the offending pair.
        if sb.cycles > sa.cycles {
            failures.push(format!(
                "kernel cycles regressed along the ablation chain: {} under {} but {} under {}",
                sa.cycles,
                a.config.label(),
                sb.cycles,
                b.config.label()
            ));
        }
    }

    OracleCase {
        name: name.to_string(),
        results,
        failures,
        expected_failures,
    }
}

/// Verifies one proxy benchmark across the full matrix.
pub fn verify_proxy(app: &dyn ProxyApp) -> OracleCase {
    verify_proxy_jobs(app, None)
}

/// [`verify_proxy`] with an explicit simulator worker-thread count
/// (`None` leaves the device default; `Some(0)` is auto-detect).
pub fn verify_proxy_jobs(app: &dyn ProxyApp, jobs: Option<u32>) -> OracleCase {
    verify_proxy_opts(app, VerifyOptions::jobs_only(jobs))
}

/// [`verify_proxy`] with full per-run options (worker-thread count and
/// wall-clock watchdog).
pub fn verify_proxy_opts(app: &dyn ProxyApp, opts: VerifyOptions) -> OracleCase {
    let source = app.openmp_source();
    let mut cache = FrontendCache::new(&source);
    let results = ORACLE_CONFIGS
        .iter()
        .map(|&c| run_proxy_config(app, cache.module(c), c, opts))
        .collect();
    finish_case(app.name(), results)
}

/// Verifies all four proxy benchmarks.
pub fn verify_proxies(scale: Scale) -> OracleReport {
    verify_proxies_jobs(scale, None)
}

/// [`verify_proxies`] with an explicit simulator worker-thread count.
pub fn verify_proxies_jobs(scale: Scale, jobs: Option<u32>) -> OracleReport {
    verify_proxies_opts(scale, VerifyOptions::jobs_only(jobs))
}

/// [`verify_proxies`] with full per-run options.
pub fn verify_proxies_opts(scale: Scale, opts: VerifyOptions) -> OracleReport {
    OracleReport {
        cases: all_proxies(scale)
            .iter()
            .map(|a| verify_proxy_opts(a.as_ref(), opts))
            .collect(),
    }
}

/// Verifies one example source (with an `// oracle-*:` header) across
/// the full matrix.
pub fn verify_example(name: &str, source: &str) -> OracleCase {
    verify_example_jobs(name, source, None)
}

/// [`verify_example`] with an explicit simulator worker-thread count.
pub fn verify_example_jobs(name: &str, source: &str, jobs: Option<u32>) -> OracleCase {
    verify_example_opts(name, source, VerifyOptions::jobs_only(jobs))
}

/// [`verify_example`] with full per-run options.
pub fn verify_example_opts(name: &str, source: &str, opts: VerifyOptions) -> OracleCase {
    let spec = match ExampleSpec::parse(source) {
        Ok(s) => s,
        Err(e) => {
            return OracleCase {
                name: name.to_string(),
                results: Vec::new(),
                failures: vec![format!("spec error: {e}")],
                expected_failures: Vec::new(),
            }
        }
    };
    let mut cache = FrontendCache::new(source);
    let results = ORACLE_CONFIGS
        .iter()
        .map(|&c| run_example_config(cache.module(c), &spec, c, opts))
        .collect();
    finish_case(name, results)
}

/// Verifies every `.c` file in a directory of oracle examples.
pub fn verify_examples_dir(dir: &std::path::Path) -> Result<OracleReport, String> {
    verify_examples_dir_jobs(dir, None)
}

/// [`verify_examples_dir`] with an explicit simulator worker-thread
/// count.
pub fn verify_examples_dir_jobs(
    dir: &std::path::Path,
    jobs: Option<u32>,
) -> Result<OracleReport, String> {
    verify_examples_dir_opts(dir, VerifyOptions::jobs_only(jobs))
}

/// [`verify_examples_dir`] with full per-run options.
pub fn verify_examples_dir_opts(
    dir: &std::path::Path,
    opts: VerifyOptions,
) -> Result<OracleReport, String> {
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!("no .c examples in {}", dir.display()));
    }
    let mut report = OracleReport::default();
    for path in entries {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        report.cases.push(verify_example_opts(&name, &source, opts));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing() {
        let src = r#"
// oracle-kernel: saxpy
// oracle-teams: 4
// oracle-threads: 32
// oracle-arg: buf f64 64 iota
// oracle-arg: f64 2.5
// oracle-arg: i64 64
void saxpy(double* a, double f, long n) {}
"#;
        let spec = ExampleSpec::parse(src).unwrap();
        assert_eq!(spec.kernel, "saxpy");
        assert_eq!(spec.teams, Some(4));
        assert_eq!(spec.threads, Some(32));
        assert_eq!(
            spec.args,
            vec![
                ArgSpec::BufF64(64, BufInit::Iota),
                ArgSpec::F64(2.5),
                ArgSpec::I64(64),
            ]
        );
    }

    #[test]
    fn spec_requires_kernel_and_args() {
        assert!(ExampleSpec::parse("// oracle-arg: i64 1").is_err());
        assert!(ExampleSpec::parse("// oracle-kernel: k").is_err());
        assert!(ExampleSpec::parse("// oracle-kernel: k\n// oracle-arg: bogus").is_err());
        assert!(ExampleSpec::parse("// oracle-wat: 1").is_err());
    }

    #[test]
    fn example_divergence_is_reported_end_to_end() {
        // A kernel whose oracle spec names a missing kernel fails every
        // config — the case must FAIL, not silently pass on zero data.
        let src = r#"
// oracle-kernel: nope
// oracle-arg: buf f64 8
void k(double* a) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < 8; i++) { a[i] = 1.0; }
}
"#;
        let case = verify_example("missing-kernel", src);
        assert!(!case.passed());
        assert_eq!(case.successes(), 0);
    }

    #[test]
    fn tiny_example_passes_across_matrix() {
        let src = r#"
// oracle-kernel: scale
// oracle-arg: buf f64 32 iota
// oracle-arg: f64 3.0
// oracle-arg: i64 32
void scale(double* a, double f, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) { a[i] = a[i] * f; }
}
"#;
        let case = verify_example("scale", src);
        assert!(case.passed(), "{:?}", case.failures);
        assert_eq!(case.successes(), ORACLE_CONFIGS.len());
    }

    #[test]
    fn huge_buffer_lengths_are_refused_not_aborted() {
        let module = Module::new("empty");
        let mut dev = Device::new(&module, Default::default()).unwrap();
        let exhausted = omp_gpusim::SimError::from(omp_gpusim::MemError::GlobalExhausted);
        // 32 GB of f64s, an i64 buffer, and a length whose byte size
        // overflows: each is the allocator's refusal, with no host copy.
        for spec in [
            ArgSpec::BufF64(4_000_000_000, BufInit::Iota),
            ArgSpec::BufI64(4_000_000_000, BufInit::Pseudo),
            ArgSpec::BufF64(usize::MAX, BufInit::Zero),
        ] {
            let err = materialize_args(&mut dev, &[spec]).unwrap_err();
            assert_eq!(err, exhausted.to_string(), "{spec:?}");
        }
        // The refusals left the device usable.
        let (args, buffers) =
            materialize_args(&mut dev, &[ArgSpec::BufI64(4, BufInit::Iota)]).unwrap();
        let RtVal::Ptr(addr) = args[0] else {
            panic!("buffer arg is a pointer")
        };
        assert_eq!(buffers, vec![(addr, 4, false)]);
        assert_eq!(dev.read_i64(addr, 4).unwrap(), vec![0, 1, 2, 3]);
    }
}
